#include "net/inproc_transport.hpp"

#include <chrono>
#include <cstring>

#include "net/frame.hpp"
#include "util/crc32.hpp"
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

bool InprocTransport::send_bytes(const void* bytes, std::size_t len) {
  if (!out_) return false;
  std::lock_guard<std::mutex> lock(out_->mu);
  if (out_->closed) {
    error_ = TransportError::kClosed;
    return false;
  }
  out_->append(static_cast<const std::uint8_t*>(bytes), len);
  out_->cv.notify_all();
  return true;
}

bool InprocTransport::send(MsgType type, std::uint64_t epoch, const void* payload,
                           std::size_t len) {
  const auto frame = encode_frame(type, epoch, payload, len);
  if (!send_bytes(frame.data(), frame.size())) return false;
  static metrics::Counter& frames = metrics::counter("net.transport.frames_sent");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_sent");
  frames.add(1);
  bytes.add(frame.size());
  return true;
}

void InprocTransport::Stream::append(const std::uint8_t* p, std::size_t len) {
  // Drop the consumed prefix before the buffer would grow to keep it: the
  // move touches only unread bytes, and the buffer never outgrows the
  // backlog.
  if (head != 0 && bytes.size() + len > bytes.capacity()) drop_consumed();
  bytes.insert(bytes.end(), p, p + len);
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
  Message msg;
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
        if (frame_header_crc(hdr) != hdr.header_crc || hdr.len > kMaxFramePayload) {
          // Same rule as TcpTransport: the length field cannot be trusted,
          // framing is lost for good. Close so the protocol layer resyncs via
          // rejoin; nothing buffered behind the bad header is parseable.
          in_->bytes.clear();
          in_->head = 0;
          lock.unlock();
          error_ = TransportError::kCorrupt;
          metrics::counter("net.transport.corrupt_headers").add(1);
          close_peer();
          return std::nullopt;
        }
        frame_bytes = sizeof hdr + hdr.len;
      }
      if (frame_bytes != 0 && buffered >= frame_bytes) {
        msg.type = static_cast<MsgType>(hdr.type);
        msg.epoch = hdr.epoch;
        msg.payload.assign(front + sizeof hdr, front + frame_bytes);
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
  if (Crc32::of(msg.payload.data(), msg.payload.size()) != hdr.payload_crc) {
    // Payload consumed in full: the stream stays aligned, skip in-band.
    error_ = TransportError::kCorrupt;
    metrics::counter("net.transport.corrupt_payloads").add(1);
    return std::nullopt;
  }
  static metrics::Counter& frames = metrics::counter("net.transport.frames_received");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_received");
  frames.add(1);
  bytes.add(sizeof hdr + msg.payload.size());
  return msg;
}

}  // namespace vrep::net
