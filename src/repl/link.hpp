// Transport-agnostic replication link.
//
// The active scheme is ONE protocol — a sequenced, checksummed redo stream
// with flow control, rejoin and epoch fencing — that this repo runs over
// three very different carriers: the simulated Memory Channel ring (virtual
// time), a framed TCP byte stream (wall clock, two processes), and an
// in-process loopback queue (wall clock, two threads). `ReplicationLink` is
// the seam between the protocol engine (`repl/pipeline.hpp`) and those
// carriers: a frame is the unit of atomic, CRC-protected, epoch-stamped
// delivery, and everything below it (byte framing, ring entry packing,
// write-buffer coalescing, virtual-time cost charging, socket plumbing) is
// the backend's private business.
//
// Contract every backend provides:
//   * send() delivers the frame whole or not at all, applying backpressure
//     however the carrier does (the sim ring blocks the virtual-time CPU
//     until the consumer cursor advances; TCP blocks in the socket; the
//     loopback blocks on a condition variable). Returns false only when the
//     peer is unreachable (the frame may or may not have been lost).
//   * recv() returns the next frame, nullopt on timeout / broken stream /
//     corrupt frame — distinguished via last_error(), with the same
//     recoverable-vs-fatal split as net/transport.hpp: a kCorrupt with
//     connected() still true means the stream is aligned and the frame was
//     skipped in place; kCorrupt with connected() false (or kClosed) means
//     framing is lost and recovery is reconnect + rejoin.
//   * Every frame carries the sender's membership epoch so the engine can
//     fence stale-epoch traffic (split-brain defense) without knowing what
//     the carrier is.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace vrep::repl {

// Frame kinds, shared by every backend. Values match net::MsgType so the
// TCP/loopback adapter is a cast, not a table. Payload layouts are in
// repl/codec.hpp.
enum class FrameKind : std::uint8_t {
  kRedoBatch = 1,      // one committed transaction's redo chunks
  kHeartbeat = 2,      // primary liveness + committed sequence
  kConsumerAck = 3,    // backup's applied sequence (flow control / monitoring)
  kHello = 4,          // full-sync handshake: db size, starting state
  kDbChunk = 5,        // database image transfer
  kRejoinRequest = 6,  // backup -> primary: last applied seq, node, state epoch
  kRejoinDelta = 7,    // primary -> backup: a delta replay of N batches follows
  kEpochFence = 8,     // receiver -> stale sender: the current epoch
  kRedoGroup = 9,      // group commit: several contiguous kRedoBatch payloads
  kCkptBegin = 10,     // checkpoint install start: watermark + image geometry
  kCkptChunk = 11,     // checkpoint page run
  kCkptEnd = 12,       // checkpoint install end: watermark seq + full-image crc
  kXPrepare = 13,      // 2PC phase 1: staged redo batch held in-doubt
  kXDecide = 14,       // 2PC phase 2: commit or abort an in-doubt xid
};

struct Frame {
  FrameKind kind;
  std::uint64_t epoch;
  std::vector<std::uint8_t> payload;
};

enum class LinkError : std::uint8_t { kNone, kTimeout, kClosed, kCorrupt };

class ReplicationLink {
 public:
  virtual ~ReplicationLink() = default;

  // Send one frame stamped with `epoch`. Blocks under carrier backpressure.
  // Returns false on a broken connection.
  virtual bool send(FrameKind kind, std::uint64_t epoch, const void* payload,
                    std::size_t len) = 0;

  // Receive the next frame, waiting up to timeout_ms (0 = poll, -1 = until
  // the carrier can prove nothing further will arrive).
  virtual std::optional<Frame> recv(int timeout_ms) = 0;

  virtual LinkError last_error() const = 0;
  virtual bool connected() const = 0;

  // Push boundary: force everything accepted by send() onto the carrier
  // (drain coalescing write buffers, flush socket buffers). Used by 2-safe
  // commits before waiting for the covering acknowledgment.
  virtual void flush() {}

  // Cumulative nanoseconds this link has blocked its sender awaiting
  // acknowledgments — VIRTUAL time on co-simulated carriers (so metrics
  // derived from it stay byte-stable run to run). Wall-clock transports
  // return nullopt and the engine falls back to measuring wall time.
  virtual std::optional<std::uint64_t> blocked_wait_ns() const { return std::nullopt; }
};

}  // namespace vrep::repl
