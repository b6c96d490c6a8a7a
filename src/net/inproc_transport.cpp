#include "net/inproc_transport.hpp"

#include <chrono>
#include <cstring>

#include "net/frame.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

void InprocTransport::pair(InprocTransport& a, InprocTransport& b) {
  a.close_peer();
  b.close_peer();
  auto a_to_b = std::make_shared<Stream>();
  auto b_to_a = std::make_shared<Stream>();
  a.out_ = a_to_b;
  a.in_ = b_to_a;
  b.out_ = b_to_a;
  b.in_ = a_to_b;
  a.error_ = TransportError::kNone;
  b.error_ = TransportError::kNone;
  metrics::counter("net.transport.inproc_pairs").add(1);
}

bool InprocTransport::connected() const {
  if (!in_ || !out_) return false;
  std::lock_guard<std::mutex> lock(out_->mu);
  return !out_->closed;
}

void InprocTransport::close_peer() {
  // Close both directions, like ::close on a socket: our sends start failing
  // immediately, the peer drains what already arrived and then sees kClosed.
  for (const auto& stream : {out_, in_}) {
    if (!stream) continue;
    std::lock_guard<std::mutex> lock(stream->mu);
    stream->closed = true;
    stream->cv.notify_all();
  }
}

bool InprocTransport::write_all(const void* head, std::size_t head_len, const void* tail,
                                std::size_t tail_len) {
  if (!out_) return false;
  std::lock_guard<std::mutex> lock(out_->mu);
  if (out_->closed) {
    error_ = TransportError::kClosed;
    return false;
  }
  out_->append(head, head_len, tail, tail_len);
  out_->cv.notify_all();
  return true;
}

bool InprocTransport::send_bytes(const void* bytes, std::size_t len) {
  return write_all(bytes, len, nullptr, 0);
}

bool InprocTransport::send(MsgType type, std::uint64_t epoch, const void* payload,
                           std::size_t len) {
  const FrameHeader hdr = frame_header(type, epoch, payload, len);  // CRCs outside the lock
  if (!write_all(&hdr, sizeof hdr, payload, len)) return false;
  count_frame_sent(sizeof hdr + len);
  return true;
}

void InprocTransport::Stream::append(const void* first, std::size_t first_len,
                                     const void* second, std::size_t second_len) {
  // Drop the consumed prefix before the buffer would grow to keep it: the
  // move touches only unread bytes, and the buffer never outgrows the
  // backlog.
  if (head != 0 && bytes.size() + first_len + second_len > bytes.capacity()) drop_consumed();
  const auto* a = static_cast<const std::uint8_t*>(first);
  const auto* b = static_cast<const std::uint8_t*>(second);
  bytes.insert(bytes.end(), a, a + first_len);
  bytes.insert(bytes.end(), b, b + second_len);
}

void InprocTransport::Stream::consume(std::size_t n) {
  head += n;
  if (head == bytes.size()) {
    bytes.clear();
    head = 0;
  } else if (head > bytes.size() / 2) {
    drop_consumed();
  }
}

void InprocTransport::Stream::drop_consumed() {
  bytes.erase(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(head));
  head = 0;
}

std::optional<Message> InprocTransport::recv(int timeout_ms) {
  error_ = TransportError::kNone;
  if (!in_) {
    error_ = TransportError::kClosed;
    return std::nullopt;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  FrameHeader hdr{};
  std::vector<std::uint8_t> payload;
  {
    // Consume nothing until the whole frame is buffered: a deadline that
    // expires part way leaves the stream exactly as it was, so the next call
    // still starts at this frame's header.
    std::unique_lock<std::mutex> lock(in_->mu);
    std::size_t frame_bytes = 0;  // header + payload, once the header verified
    bool expired = false;
    for (;;) {
      // Re-read on every pass: a send while we waited may have reallocated.
      const std::uint8_t* front = in_->bytes.data() + in_->head;
      const std::size_t buffered = in_->bytes.size() - in_->head;
      if (frame_bytes == 0 && buffered >= sizeof hdr) {
        std::memcpy(&hdr, front, sizeof hdr);
        if (!header_ok(hdr)) {
          // Nothing buffered behind a bad header is parseable.
          in_->bytes.clear();
          in_->head = 0;
          lock.unlock();
          close_peer();
          return corrupt_header(error_);
        }
        frame_bytes = sizeof hdr + hdr.len;
      }
      if (frame_bytes != 0 && buffered >= frame_bytes) {
        payload.assign(front + sizeof hdr, front + frame_bytes);
        in_->consume(frame_bytes);
        break;
      }
      if (in_->closed) {
        // Drained and the peer is gone: a partial frame is torn, a clean
        // boundary is EOF — both map to kClosed, as with TCP.
        error_ = TransportError::kClosed;
        return std::nullopt;
      }
      if (expired || timeout_ms == 0) {
        // A zero timeout is a poll: it never waits, not even on a deadline
        // that has already passed (the timer slack would make that a sleep).
        error_ = TransportError::kTimeout;
        return std::nullopt;
      }
      if (timeout_ms < 0) {
        in_->cv.wait(lock);
      } else {
        expired = in_->cv.wait_until(lock, deadline) == std::cv_status::timeout;
      }
    }
  }
  return deliver_frame(hdr, std::move(payload), error_);  // payload CRC outside the lock
}

}  // namespace vrep::net
