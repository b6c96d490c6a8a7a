// Version 3 — improved logging (paper Section 4.4).
//
// The undo log is a single contiguous region written with a bump pointer.
// Each set_range appends one record holding the range coordinates AND the
// before-image in-line (no separate heap area, no mirror). Commit rewinds
// the bump pointer — deallocation is free. All writes are therefore strictly
// localized to the database and a small, sequentially-written log: best
// cache behaviour locally, and best write-buffer coalescing (32-byte Memory
// Channel packets) when the log is written through to a backup. This is the
// version the paper crowns for both standalone and passive primary-backup
// use, and the local scheme the active primary runs underneath its redo
// stream.
//
// Persistent record format ("publication by last word"):
//   [u32 magic | u32 db_off | u32 len | u32 stamp]  + len bytes before-image
// The first 12 header bytes and the payload are written first; the stamp —
// mixing the transaction sequence number with the store's incarnation
// counter (bumped by every recovery and abort; see publication_stamp()) —
// is written last, atomically publishing the record. Records of older
// transactions or of a crashed earlier attempt are invisible because their
// stamp doesn't match; commit is the single 8-byte bump of
// root.committed_seq, which instantly invalidates the whole log. The bump
// pointer itself is volatile: recovery rediscovers the log extent by
// scanning records with a matching stamp (bounded by magic + range
// checks).
//
// Arena layout: [root | undo log | db].
#pragma once

#include <vector>

#include "core/store_base.hpp"

namespace vrep::core {

class InlineLogStore final : public StoreBase {
 public:
  InlineLogStore(sim::MemBus& bus, rio::Arena& arena, const StoreConfig& config, bool format);

  void begin_transaction() override;
  void set_range(void* base, std::size_t len) override;
  void commit_transaction() override;
  void abort_transaction() override;
  int recover() override;
  bool validate() const override;
  VersionKind kind() const override { return VersionKind::kV3InlineLog; }
  std::vector<StoreRegion> regions() const override;

  static std::size_t arena_bytes(const StoreConfig& config);

  // Seed the persistent sequence counter of a freshly formatted store so a
  // promoted backup continues the replicated numbering (rejoin deltas and
  // any workload state derived from committed_seq depend on it). Only valid
  // outside a transaction, before the store commits anything of its own.
  void seed_committed_seq(std::uint64_t seq) {
    VREP_CHECK(!in_txn_);
    persist_committed_seq(seq);
  }

 private:
  struct RecordHeader {  // persistent, 16 bytes
    std::uint32_t magic;
    std::uint32_t db_off;
    std::uint32_t len;
    std::uint32_t seq;  // publication stamp (see publication_stamp()); written LAST
  };
  static constexpr std::uint32_t kRecordMagic = 0x554e444fu;  // "UNDO"

  // The stamp records of the current in-flight transaction carry.
  std::uint32_t publication_stamp() const;
  // Scan the log for records carrying `stamp`; returns their offsets in
  // log order. Stops at the first invalid or mismatching header.
  std::vector<std::size_t> scan_log(std::uint32_t stamp) const;
  void apply_records_reverse(const std::vector<std::size_t>& records);
  void invalidate_log();

  std::uint8_t* log_ = nullptr;
  std::size_t log_tail_ = 0;                // volatile bump pointer
  std::vector<std::size_t> txn_records_;    // volatile: record offsets this txn
};

}  // namespace vrep::core
