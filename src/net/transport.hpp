// Framed single-peer message transports. A Transport carries whole frames
// (layout and corruption rules in net/frame.hpp). TcpTransport emulates the
// SAN's write-through channel over TCP (per DESIGN.md: we have no Memory
// Channel hardware, so the two-process deployment ships the same redo
// packet stream over a socket).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vrep::net {

enum class MsgType : std::uint8_t {
  kRedoBatch = 1,      // one committed transaction's redo entries
  kHeartbeat = 2,      // primary liveness
  kConsumerAck = 3,    // backup's applied sequence (flow control / monitoring)
  kHello = 4,          // full-sync handshake: db size, starting state
  kDbChunk = 5,        // initial database image transfer
  kRejoinRequest = 6,  // backup -> primary: u64 last applied sequence
  kRejoinDelta = 7,    // primary -> backup: u64 from_seq | u64 batch count
  kEpochFence = 8,     // receiver -> stale sender: u64 current epoch
  kRedoGroup = 9,      // group commit: several contiguous kRedoBatch payloads
  kCkptBegin = 10,     // checkpoint install start: watermark + image geometry
  kCkptChunk = 11,     // checkpoint page run: u64 offset | bytes
  kCkptEnd = 12,       // checkpoint install end: watermark seq + full-image crc
  kXPrepare = 13,      // 2PC phase 1: u64 xid | staged redo batch (in-doubt)
  kXDecide = 14,       // 2PC phase 2: u64 xid | u8 commit (1) / abort (0)
  // Client <-> AsyncServer frames (net-only: these never traverse a
  // repl::ReplicationLink, so they have no repl::FrameKind counterpart).
  kClientCommit = 15,  // client -> server: u64 op_id | u64 key | op bytes
  kCommitReply = 16,   // server -> client: u64 op_id | u64 seq | u8 outcome
  kReadRequest = 17,   // client -> server: u64 op_id | u64 key | u64 off |
                       //                   u32 len | u64 min_seq
  kReadReply = 18,     // server -> client: u64 op_id | u64 at_seq | u8 status
                       //                   | data bytes (kOk only)
};

struct Message {
  MsgType type;
  std::uint64_t epoch;
  std::vector<std::uint8_t> payload;
};

enum class TransportError : std::uint8_t { kNone, kTimeout, kClosed, kCorrupt };

// Abstract single-peer message transport. TcpTransport is the real thing;
// FaultInjectingTransport decorates one with a seeded fault schedule.
class Transport {
 public:
  virtual ~Transport() = default;

  // Send one framed message stamped with `epoch`. Returns false on a broken
  // connection.
  virtual bool send(MsgType type, std::uint64_t epoch, const void* payload,
                    std::size_t len) = 0;

  // Receive the next message, waiting up to timeout_ms (-1 = forever).
  // nullopt on timeout or a broken/corrupt stream; distinguish with
  // last_error(), and for kCorrupt check connected(): a payload CRC failure
  // leaves the stream aligned and the connection open, a header CRC failure
  // closes it.
  virtual std::optional<Message> recv(int timeout_ms) = 0;

  virtual TransportError last_error() const = 0;
  virtual bool connected() const = 0;
  virtual void close_peer() = 0;

  // Raw bytes, no framing. For fault injection and torn-frame tests only:
  // lets a decorator ship a deliberately corrupted or truncated encoded
  // frame (see net/frame.hpp) through any backend.
  virtual bool send_bytes(const void* bytes, std::size_t len) = 0;
};

// A non-blocking socket listening on 127.0.0.1:port (0 = ephemeral) with
// room for `backlog` pending connections; stores the bound port in
// `bound_port`. Returns -1 on failure.
int listen_loopback(std::uint16_t port, int backlog, std::uint16_t& bound_port);

// Blocking, single-peer TCP transport. Deliberately minimal: the examples
// and integration tests run primary and backup as two local processes.
class TcpTransport final : public Transport {
 public:
  TcpTransport() = default;
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Server side: bind/listen on 127.0.0.1:port (port 0 = ephemeral; see
  // bound_port()), then accept exactly one peer. accept_peer() may be called
  // again after the peer connection is lost to accept a replacement.
  bool listen(std::uint16_t port);
  std::uint16_t bound_port() const { return port_; }
  bool accept_peer(int timeout_ms = 10'000);

  // Client side.
  bool connect_to(const std::string& host, std::uint16_t port, int timeout_ms = 10'000);

  bool connected() const override { return fd_ >= 0; }
  void close_peer() override;

  bool send(MsgType type, std::uint64_t epoch, const void* payload,
            std::size_t len) override;
  std::optional<Message> recv(int timeout_ms) override;
  TransportError last_error() const override { return error_; }
  bool send_bytes(const void* bytes, std::size_t len) override;

 private:
  // The one blocking write loop: both byte ranges, in order, in full.
  bool write_all(const void* head, std::size_t head_len, const void* tail,
                 std::size_t tail_len);
  // Read until `got` reaches `len`, honoring one absolute deadline (nullopt
  // = wait forever). `got` keeps the progress when the deadline expires, so
  // a later call resumes the same read. recv() shares one deadline between
  // its header and payload reads so each call is bounded by a single budget.
  bool read_fully(void* buf, std::size_t len, std::size_t& got,
                  const std::optional<std::chrono::steady_clock::time_point>& deadline);
  int listen_fd_ = -1;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  TransportError error_ = TransportError::kNone;
  // The frame being received (net/frame.hpp layout), kept across calls
  // whose deadline expires part way through it.
  std::uint8_t rx_hdr_[24] = {};
  std::size_t rx_hdr_got_ = 0;  // == sizeof rx_hdr_ once the header verified
  std::vector<std::uint8_t> rx_payload_;
  std::size_t rx_payload_got_ = 0;
};

}  // namespace vrep::net
