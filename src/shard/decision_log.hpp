// The cross-shard commit decision record (presumed-abort 2PC).
//
// A cross-shard transaction's decision rides the redo stream of its HOME
// shard as ordinary committed bytes: the coordinator stages a 16-byte slot
// write into the same batch as the home shard's balance updates, so the
// decision becomes durable (and, 2-safe, quorum-durable) through exactly
// the machinery that makes every other write durable — no separate log, no
// extra fsync-equivalent, and failover replays it for free.
//
// Slot format, at `base_off + (xid % slots) * 16` inside the home shard's
// database region (above the workload's records):
//
//   [u64 xid | u64 flags]      flags bit 0: committed
//
// xids encode their home shard (top 16 bits; make_xid / xid_home), so
// in-doubt resolution can find the decision log with no side channel.
//
// Resolution rule (what a promoted backup applies to its buffered in-doubt
// transactions): a transaction is COMMITTED iff its home shard's slot holds
// its xid with the commit bit; anything else — zeroed slot, different xid —
// means the coordinator never reached its commit point, and the transaction
// is presumed aborted. This is sound because the coordinator writes the
// slot *before* sending any phase-2 decide, and 2-safe home commits make
// the slot quorum-durable before phase 2 starts — so "slot absent" proves
// no participant can have applied a commit.
//
// Ring reuse: slots recycle every `slots` transactions. That is safe as
// long as fewer than `slots` cross-shard transactions start between a
// prepare and its resolution — the coordinator is synchronous per home
// shard (holds the shard latches across both phases), so at most
// shards-many transactions are ever unresolved and a handful of slots
// suffice.
#pragma once

#include <cstdint>
#include <cstring>

#include "shard/shard_map.hpp"
#include "util/check.hpp"

namespace vrep::shard {

// A globally unique, home-shard-tagged transaction id: `counter` must be
// unique per cluster and below 2^48.
inline std::uint64_t make_xid(ShardId home, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(home) << 48) | counter;
}
inline ShardId xid_home(std::uint64_t xid) { return static_cast<ShardId>(xid >> 48); }

class DecisionLog {
 public:
  static constexpr std::size_t kSlotBytes = 16;
  static constexpr std::uint64_t kCommitted = 1;

  DecisionLog(std::uint64_t base_off, std::size_t slots) : base_off_(base_off), slots_(slots) {
    VREP_CHECK(slots_ >= 2);
  }

  std::uint64_t base_off() const { return base_off_; }
  std::size_t slots() const { return slots_; }
  std::size_t bytes() const { return slots_ * kSlotBytes; }
  std::uint64_t slot_off(std::uint64_t xid) const {
    return base_off_ + (xid % slots_) * kSlotBytes;
  }

  // Encode the commit record the coordinator stages into the home shard's
  // redo batch.
  static void encode_commit(std::uint8_t out[kSlotBytes], std::uint64_t xid) {
    std::memcpy(out, &xid, sizeof xid);
    const std::uint64_t flags = kCommitted;
    std::memcpy(out + 8, &flags, sizeof flags);
  }

  // The resolution rule, applied against the home shard's (surviving)
  // database image.
  bool committed(const std::uint8_t* home_db, std::uint64_t xid) const {
    const std::uint8_t* slot = home_db + slot_off(xid);
    std::uint64_t slot_xid = 0, flags = 0;
    std::memcpy(&slot_xid, slot, sizeof slot_xid);
    std::memcpy(&flags, slot + 8, sizeof flags);
    return slot_xid == xid && (flags & kCommitted) != 0;
  }

 private:
  std::uint64_t base_off_;
  std::size_t slots_;
};

}  // namespace vrep::shard
