#include "repl/inline_link.hpp"

#include "repl/applier.hpp"

namespace vrep::repl {

InlineLink::InlineLink(RedoApplier& applier)
    : applier_(&applier), reply_(new InlineLink(this)) {}

InlineLink::InlineLink(InlineLink* forward) : forward_(forward) {}

bool InlineLink::send(FrameKind kind, std::uint64_t epoch, const void* payload,
                      std::size_t len) {
  if (down()) {
    err_ = LinkError::kClosed;
    return false;
  }
  const auto* p = static_cast<const std::uint8_t*>(payload);
  Frame frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)};
  if (forward_ != nullptr) {
    forward_->inbox_.push_back(std::move(frame));
  } else {
    applier_->on_frame(frame, *reply_);
  }
  return true;
}

std::optional<Frame> InlineLink::recv(int /*timeout_ms*/) {
  if (!inbox_.empty()) {
    Frame frame = std::move(inbox_.front());
    inbox_.pop_front();
    err_ = LinkError::kNone;
    return frame;
  }
  err_ = down() ? LinkError::kClosed : LinkError::kTimeout;
  return std::nullopt;
}

}  // namespace vrep::repl
