// In-process loopback transport: the third ReplicationLink backend.
//
// Two InprocTransport endpoints are cross-wired by pair(); each direction is
// a mutex/condvar-protected byte stream carrying the exact encoded frame
// bytes of net/frame.hpp. Shipping *bytes* rather than decoded messages is
// deliberate: the receiving endpoint re-parses the stream with the same
// header-CRC / payload-CRC rules as TcpTransport, so fault injection
// (bit-flips, torn frames via send_bytes) and the corrupt/closed error
// semantics compose identically — only the copy through a socket is elided.
//
// Semantics mirror TcpTransport:
//   * close_peer() closes both directions; the peer drains buffered bytes,
//     then sees kClosed (like TCP delivering queued data before EOF).
//   * a header-CRC failure closes the connection (framing lost for good);
//     a payload-CRC failure skips the frame and stays connected.
//
// Useful for single-process failover tests and the cross-backend conformance
// suite, where spawning real sockets adds latency and flakiness for no
// coverage.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/transport.hpp"

namespace vrep::net {

class InprocTransport final : public Transport {
 public:
  InprocTransport() = default;
  ~InprocTransport() override { close_peer(); }
  InprocTransport(const InprocTransport&) = delete;
  InprocTransport& operator=(const InprocTransport&) = delete;

  // Cross-wire two endpoints (a's sends become b's receives and vice versa).
  // Re-pairing closed endpoints models a reconnect.
  static void pair(InprocTransport& a, InprocTransport& b);

  bool send(MsgType type, std::uint64_t epoch, const void* payload,
            std::size_t len) override;
  bool send_bytes(const void* bytes, std::size_t len) override;
  std::optional<Message> recv(int timeout_ms) override;
  TransportError last_error() const override { return error_; }
  bool connected() const override;
  void close_peer() override;

 private:
  struct Stream {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::uint8_t> bytes;
    std::size_t head = 0;  // read offset: bytes before it are consumed
    bool closed = false;

    // Append behind the unread bytes, dropping the consumed prefix first
    // when the buffer would otherwise grow to keep it.
    void append(const std::uint8_t* p, std::size_t len);
    // Consume `n` bytes at the read offset. The offset returns to 0 whenever
    // the buffer drains; the consumed prefix is erased once it passes half
    // the buffer, so a backlog costs amortized O(1) per frame.
    void consume(std::size_t n);
    void drop_consumed();
  };

  std::shared_ptr<Stream> in_;   // peer writes, we read
  std::shared_ptr<Stream> out_;  // we write, peer reads
  TransportError error_ = TransportError::kNone;
};

}  // namespace vrep::net
