// The payload layout of every replication frame (kinds in repl/link.hpp),
// each encoder next to its decoder. The primary end (RedoPipeline,
// repl/pipeline.hpp) and the backup end (RedoApplier, repl/applier.hpp) meet
// only here. Fields are fixed-width, in host byte order (little-endian on
// every supported target), packed without padding:
//
//   kRedoBatch     u64 seq | { u32 db_off, u32 len, len bytes }*   one transaction
//   kHeartbeat     u64 committed_seq                   (primary -> backup)
//   kConsumerAck   u64 applied_seq                     (backup -> primary)
//   kHello         u64 db_size | u64 committed_seq     full-sync handshake
//   kDbChunk       u64 offset | bytes                  full image transfer
//   kRejoinRequest u64 last_applied_seq | u64 node_id | u64 state_epoch
//                                                      (backup -> primary)
//   kRejoinDelta   u64 from_seq | u64 batch_count      (primary -> backup)
//   kEpochFence    u64 current_epoch                   (either -> stale peer)
//   kRedoGroup     u32 count | { u32 len, kRedoBatch payload }*   group commit
//   kCkptBegin     u64 watermark_seq | u64 db_size | u32 image_crc | u32 chunks
//   kCkptChunk     u64 offset | bytes                  checkpoint page run
//   kCkptEnd       u64 watermark_seq | u32 image_crc   install commit point
//   kXPrepare      u64 xid | kRedoBatch payload        2PC phase 1 (in-doubt)
//   kXDecide       u64 xid | u8 commit (1) / abort (0)  2PC phase 2
//
// A batch's offset and length are u32: RedoPipeline::stage() CHECKs that a
// chunk ends at or below 4 GiB, since larger databases need a versioned
// frame bump, not a silent wrap. A group's sub-batch sequences are
// contiguous and ascending. The simulated ring re-packs batches into its own
// entries (repl/redo_ring.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace vrep::repl {

// A frame payload, or a slice of one.
using Payload = std::span<const std::uint8_t>;

// ---- fixed-width field packer -----------------------------------------------

template <typename... F>
std::array<std::uint8_t, (sizeof(F) + ...)> pack(const F&... fields) {
  static_assert((std::is_integral_v<F> && ...));
  std::array<std::uint8_t, (sizeof(F) + ...)> out{};
  std::size_t at = 0;
  ((std::memcpy(out.data() + at, &fields, sizeof(F)), at += sizeof(F)), ...);
  return out;
}

// Fills `fields` from a payload of exactly their combined width. Any other
// size is rejected and leaves them untouched.
template <typename... F>
bool unpack(Payload payload, F&... fields) {
  static_assert((std::is_integral_v<F> && ...));
  if (payload.size() != (sizeof(F) + ...)) return false;
  std::size_t at = 0;
  ((std::memcpy(&fields, payload.data() + at, sizeof(F)), at += sizeof(F)), ...);
  return true;
}

// ---- fixed layouts ----------------------------------------------------------

struct Hello {
  std::uint64_t db_size = 0, committed_seq = 0;
};
inline auto encode(const Hello& m) { return pack(m.db_size, m.committed_seq); }
inline bool decode(Payload p, Hello* m) { return unpack(p, m->db_size, m->committed_seq); }

struct Heartbeat {
  std::uint64_t committed_seq = 0;
};
inline auto encode(const Heartbeat& m) { return pack(m.committed_seq); }
inline bool decode(Payload p, Heartbeat* m) { return unpack(p, m->committed_seq); }

struct Ack {
  std::uint64_t applied_seq = 0;
};
inline auto encode(const Ack& m) { return pack(m.applied_seq); }
inline bool decode(Payload p, Ack* m) { return unpack(p, m->applied_seq); }

struct EpochFence {
  std::uint64_t epoch = 0;
};
inline auto encode(const EpochFence& m) { return pack(m.epoch); }
inline bool decode(Payload p, EpochFence* m) { return unpack(p, m->epoch); }

struct RejoinRequest {
  std::uint64_t last_applied_seq = 0, node_id = 0, state_epoch = 0;
};
inline auto encode(const RejoinRequest& m) {
  return pack(m.last_applied_seq, m.node_id, m.state_epoch);
}
inline bool decode(Payload p, RejoinRequest* m) {
  return unpack(p, m->last_applied_seq, m->node_id, m->state_epoch);
}

struct RejoinDelta {
  std::uint64_t from_seq = 0, batch_count = 0;
};
inline auto encode(const RejoinDelta& m) { return pack(m.from_seq, m.batch_count); }
inline bool decode(Payload p, RejoinDelta* m) { return unpack(p, m->from_seq, m->batch_count); }

struct CkptBegin {
  std::uint64_t seq = 0, db_size = 0;
  std::uint32_t crc = 0, chunks = 0;
};
inline auto encode(const CkptBegin& m) { return pack(m.seq, m.db_size, m.crc, m.chunks); }
inline bool decode(Payload p, CkptBegin* m) {
  return unpack(p, m->seq, m->db_size, m->crc, m->chunks);
}

struct CkptEnd {
  std::uint64_t seq = 0;
  std::uint32_t crc = 0;
};
inline auto encode(const CkptEnd& m) { return pack(m.seq, m.crc); }
inline bool decode(Payload p, CkptEnd* m) { return unpack(p, m->seq, m->crc); }

struct XDecide {
  std::uint64_t xid = 0;
  std::uint8_t commit = 0;  // nonzero commits, 0 aborts
};
inline auto encode(const XDecide& m) { return pack(m.xid, m.commit); }
inline bool decode(Payload p, XDecide* m) { return unpack(p, m->xid, m->commit); }

// ---- image chunks (kDbChunk, kCkptChunk) ------------------------------------

struct ImageChunk {
  std::uint64_t off = 0;
  Payload bytes;
};
// Replaces `out`'s contents, so one buffer serves a whole transfer.
void encode(const ImageChunk& m, std::vector<std::uint8_t>& out);
// False below the 8-byte offset; `m->bytes` points into `p`.
bool decode(Payload p, ImageChunk* m);

// ---- redo batches (kRedoBatch) ----------------------------------------------

constexpr std::size_t kBatchHeaderBytes = 8;

// One decoded redo chunk; `data` points into the carrier's buffer.
struct RedoChunk {
  std::uint64_t db_off;
  std::uint32_t len;
  const std::uint8_t* data;
};

// The primary builds a batch in place: begin, one append per staged chunk,
// then stamp the sequence it commits under.
void batch_begin(std::vector<std::uint8_t>& batch);
void batch_append(std::vector<std::uint8_t>& batch, std::uint32_t off, const void* src,
                  std::size_t len);
void batch_stamp(std::vector<std::uint8_t>& batch, std::uint64_t seq);

// Structural validation of a kRedoBatch payload against a database size.
bool batch_valid(const std::uint8_t* payload, std::size_t size, std::size_t db_size);
// The batch's sequence number (payload must hold at least 8 bytes).
std::uint64_t batch_seq(const std::uint8_t* payload);

// Zero-copy iteration over a *validated* batch payload's chunks.
class BatchReader {
 public:
  BatchReader(const std::uint8_t* payload, std::size_t size) : payload_(payload), size_(size) {}
  bool next(RedoChunk* out);

 private:
  const std::uint8_t* payload_;
  std::size_t size_;
  std::size_t at_ = kBatchHeaderBytes;
};

// ---- redo groups (kRedoGroup) -----------------------------------------------

// Built in place: begin with the member count, then append each batch.
void group_begin(std::vector<std::uint8_t>& group, std::uint32_t count);
void group_append(std::vector<std::uint8_t>& group, Payload batch);

// Structural validation: every sub-batch, and contiguous ascending sequences.
bool group_valid(const std::uint8_t* payload, std::size_t size, std::size_t db_size);

// Zero-copy iteration over a *validated* kRedoGroup payload's sub-batches.
class GroupReader {
 public:
  GroupReader(const std::uint8_t* payload, std::size_t size);
  std::uint32_t count() const { return count_; }
  bool next(const std::uint8_t** batch, std::size_t* len);

 private:
  const std::uint8_t* payload_;
  std::size_t size_;
  std::size_t at_ = 4;
  std::uint32_t count_ = 0;
};

// ---- cross-shard prepares (kXPrepare) ---------------------------------------

struct XPrepare {
  std::uint64_t xid = 0;
  Payload batch;
};
std::vector<std::uint8_t> encode(const XPrepare& m);
// Also validates the batch against `db_size`: a decision frame carries only
// the xid, so a corrupt batch must be refused while the primary still holds
// the bytes. `m->batch` points into `p`.
bool decode(Payload p, std::size_t db_size, XPrepare* m);

}  // namespace vrep::repl
