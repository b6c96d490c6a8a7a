#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "net/frame.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

namespace {

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

Deadline deadline_after(int timeout_ms) {
  if (timeout_ms < 0) return std::nullopt;
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
}

// The poll() timeout left before `deadline`, rounded up to whole
// milliseconds; -1 waits forever. An expired deadline still polls once at
// zero: recv(timeout_ms=0) is the non-blocking ack-drain idiom and must
// deliver data that has already arrived.
int poll_timeout(const Deadline& deadline) {
  if (!deadline.has_value()) return -1;
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(*deadline - std::chrono::steady_clock::now())
          .count();
  return static_cast<int>(std::clamp<long long>(left, 0, std::numeric_limits<int>::max()));
}

}  // namespace

void count_frame_sent(std::size_t frame_bytes) {
  static metrics::Counter& frames = metrics::counter("net.transport.frames_sent");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_sent");
  frames.add(1);
  bytes.add(frame_bytes);
}

std::nullopt_t corrupt_header(TransportError& error) {
  error = TransportError::kCorrupt;
  metrics::counter("net.transport.corrupt_headers").add(1);
  return std::nullopt;
}

std::optional<Message> deliver_frame(const FrameHeader& hdr, std::vector<std::uint8_t> payload,
                                     TransportError& error) {
  if (!payload_ok(hdr, payload.data())) {
    error = TransportError::kCorrupt;
    metrics::counter("net.transport.corrupt_payloads").add(1);
    return std::nullopt;
  }
  static metrics::Counter& frames = metrics::counter("net.transport.frames_received");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_received");
  frames.add(1);
  bytes.add(sizeof hdr + payload.size());
  return Message{static_cast<MsgType>(hdr.type), hdr.epoch, std::move(payload)};
}

int listen_loopback(std::uint16_t port, int backlog, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

TcpTransport::~TcpTransport() {
  close_peer();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpTransport::close_peer() {
  if (fd_ >= 0) {
    // Input that meets the close makes the kernel drop whatever it has not
    // yet delivered to the peer, losing frames send() had accepted: input
    // still unread at close() draws an immediate RST, and input arriving
    // after it (the peer acking an earlier frame) aborts the orphaned
    // connection. So wait, for a bounded time, until the peer has
    // acknowledged every queued byte, reading out its input meanwhile, and
    // read out once more before closing.
    std::uint8_t sink[4096];
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    for (;;) {
      int queued = 0;
      if (::ioctl(fd_, SIOCOUTQ, &queued) != 0 || queued == 0) break;
      if (std::chrono::steady_clock::now() >= deadline) break;
      // No event fires when the send queue empties: re-check every
      // millisecond unless input wakes us first.
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 1);
      if (ready < 0 && errno != EINTR) break;
      if (ready <= 0) continue;
      const ssize_t n = ::recv(fd_, sink, sizeof sink, MSG_DONTWAIT);
      if (n == 0) break;  // the peer closed: it reads nothing further
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
    }
    while (::recv(fd_, sink, sizeof sink, MSG_DONTWAIT) > 0) {
    }
    ::close(fd_);
    fd_ = -1;
  }
  rx_hdr_got_ = 0;  // a partial frame dies with its connection
}

bool TcpTransport::listen(std::uint16_t port) {
  listen_fd_ = listen_loopback(port, /*backlog=*/1, port_);
  return listen_fd_ >= 0;
}

bool TcpTransport::accept_peer(int timeout_ms) {
  close_peer();  // drop any previous peer before accepting a replacement
  // One absolute deadline for the whole accept (the same pattern read_fully
  // uses): an EINTR — poll() or accept() interrupted by a signal — retries
  // against the remaining budget instead of being misreported as a timeout.
  const Deadline deadline = deadline_after(timeout_ms);
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll_timeout(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      // Only a genuinely silent socket is a timeout; a real poll failure
      // is kClosed.
      error_ = ready == 0 ? TransportError::kTimeout : TransportError::kClosed;
      return false;
    }
    fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (fd_ >= 0) break;
    // The pending connection may have been aborted between poll and accept,
    // or the accept itself interrupted; both leave the listener healthy.
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) continue;
    error_ = TransportError::kClosed;
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  error_ = TransportError::kNone;
  metrics::counter("net.transport.accepts").add(1);
  return true;
}

bool TcpTransport::connect_to(const std::string& host, std::uint16_t port, int timeout_ms) {
  close_peer();
  // Budget by wall clock, not attempt count: the old timeout_ms / 50 + 1
  // attempt loop assumed every failure was an instant ECONNREFUSED, so one
  // slow SYN (a blackholed peer sitting in the kernel's retry backoff) could
  // overshoot the caller's budget by orders of magnitude. Each attempt is a
  // NON-BLOCKING connect polled against the remaining budget — a blocking
  // ::connect() would sit in the kernel's SYN retransmit schedule for
  // minutes regardless of any deadline around the loop.
  const Deadline deadline = deadline_after(std::max(timeout_ms, 0));
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    bool connected = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    if (!connected && (errno == EINPROGRESS || errno == EINTR)) {
      // Handshake in flight: wait for writability within the budget, then
      // read the outcome from SO_ERROR.
      for (;;) {
        const int wait_ms = poll_timeout(deadline);
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = wait_ms == 0 ? 0 : ::poll(&pfd, 1, wait_ms);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) {  // budget spent mid-handshake (blackholed peer), or poll failed
          close_peer();
          error_ = ready == 0 ? TransportError::kTimeout : TransportError::kClosed;
          return false;
        }
        int so_error = 0;
        socklen_t optlen = sizeof so_error;
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &optlen);
        connected = so_error == 0;
        break;
      }
    }
    if (connected) {
      // Back to blocking mode: send()/recv() bound themselves with poll()
      // and treat EAGAIN from the socket as a broken peer.
      const int flags = ::fcntl(fd_, F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      error_ = TransportError::kNone;
      metrics::counter("net.transport.connects").add(1);
      return true;
    }
    ::close(fd_);
    fd_ = -1;
    const auto left = *deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::milliseconds::zero()) break;
    // The server may not be listening yet; retry until the deadline, never
    // sleeping past it.
    const auto nap = std::min<std::chrono::microseconds>(
        std::chrono::duration_cast<std::chrono::microseconds>(left),
        std::chrono::microseconds(50'000));
    ::usleep(static_cast<unsigned>(nap.count()));
  }
  error_ = TransportError::kTimeout;
  return false;
}

bool TcpTransport::write_all(const void* head, std::size_t head_len, const void* tail,
                             std::size_t tail_len) {
  if (fd_ < 0) return false;
  iovec iov[2] = {{const_cast<void*>(head), head_len}, {const_cast<void*>(tail), tail_len}};
  iovec* cur = iov;
  std::size_t parts = 2;
  for (;;) {
    while (parts > 0 && cur->iov_len == 0) ++cur, --parts;  // already sent
    if (parts == 0) return true;
    msghdr msg{};
    msg.msg_iov = cur;
    msg.msg_iovlen = parts;
    const ssize_t wrote = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      // A zero return means the peer closed. errno is stale then and must
      // not be consulted: a leftover EINTR would spin this loop forever.
      error_ = TransportError::kClosed;
      return false;
    }
    for (auto left = static_cast<std::size_t>(wrote); left > 0;) {
      const std::size_t part = std::min(left, cur->iov_len);
      cur->iov_base = static_cast<std::uint8_t*>(cur->iov_base) + part;
      cur->iov_len -= part;
      left -= part;
      if (cur->iov_len == 0) ++cur, --parts;
    }
  }
}

bool TcpTransport::send_bytes(const void* bytes, std::size_t len) {
  return write_all(bytes, len, nullptr, 0);
}

bool TcpTransport::send(MsgType type, std::uint64_t epoch, const void* payload,
                        std::size_t len) {
  // frame_header() CHECKs the frame bound before any socket state, so
  // callers hit it deterministically.
  const FrameHeader hdr = frame_header(type, epoch, payload, len);
  if (!write_all(&hdr, sizeof hdr, payload, len)) return false;
  count_frame_sent(sizeof hdr + len);
  return true;
}

bool TcpTransport::read_fully(void* buf, std::size_t len, std::size_t& got,
                              const Deadline& deadline) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (got < len) {
    // Budget against one absolute deadline shared by every poll of this
    // recv(): a peer trickling one byte per window can no longer restart
    // the timeout with each byte and stall the receiver forever. Only an
    // actually-unready socket is a timeout.
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll_timeout(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      error_ = ready == 0 ? TransportError::kTimeout : TransportError::kClosed;
      return false;
    }
    const ssize_t n = ::read(fd_, p + got, len - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {  // EOF, or a broken connection
      error_ = TransportError::kClosed;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Message> TcpTransport::recv(int timeout_ms) {
  error_ = TransportError::kNone;
  // One overall deadline for this call's share of the frame (header +
  // payload); -1 waits forever.
  const Deadline deadline = deadline_after(timeout_ms);
  // A frame an earlier call's deadline cut short resumes where it stopped:
  // dropping the bytes already read would make the next call parse payload
  // as a header.
  FrameHeader hdr{};
  static_assert(sizeof rx_hdr_ == sizeof hdr);
  if (rx_hdr_got_ < sizeof hdr) {
    if (!read_fully(rx_hdr_, sizeof hdr, rx_hdr_got_, deadline)) return std::nullopt;
    std::memcpy(&hdr, rx_hdr_, sizeof hdr);
    if (!header_ok(hdr)) {
      close_peer();  // the peer reconnects and the protocol layer rejoins
      return corrupt_header(error_);
    }
    rx_payload_.resize(hdr.len);
    rx_payload_got_ = 0;
  } else {
    std::memcpy(&hdr, rx_hdr_, sizeof hdr);
  }
  if (!read_fully(rx_payload_.data(), hdr.len, rx_payload_got_, deadline)) return std::nullopt;
  rx_hdr_got_ = 0;  // frame complete: the next call starts a new one
  return deliver_frame(hdr, std::move(rx_payload_), error_);
}

}  // namespace vrep::net
