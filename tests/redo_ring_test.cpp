// Redo ring wire-format edge cases: transactions whose ring footprint lands
// exactly on the capacity boundary, commit markers that would wrap (pre-pad
// path), sub-header pad slivers, and a consumer lag of exactly one full
// capacity. Each case drives the real producer (McRingLink) and consumer
// (ActiveBackup) and checks the replica converges to the primary's bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "repl/active.hpp"
#include "repl/redo_ring.hpp"
#include "rio/arena.hpp"
#include "sim/node.hpp"

namespace vrep {
namespace {

using core::StoreConfig;

constexpr std::size_t kRingCapacity = 2048;

StoreConfig ring_config() {
  StoreConfig config;
  config.db_size = 64 * 1024;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 128 * 1024;
  config.heap_size = 512 * 1024;
  return config;
}

struct RingPair {
  explicit RingPair(const StoreConfig& config)
      : fabric(cost.link),
        primary(cost, 1, &fabric),
        backup_node(cost, 1, nullptr),
        layout(repl::ActiveBackupLayout::make(config.db_size, kRingCapacity)) {
    primary_arena =
        rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(config, layout));
    backup_arena = rio::Arena::create(layout.arena_bytes());
    backup = std::make_unique<repl::ActiveBackup>(backup_node.cpu(), backup_arena, layout,
                                                  fabric);
    store = std::make_unique<repl::ActivePrimary>(primary.cpu().bus(), primary_arena,
                                                  backup_arena, config, layout, backup.get(),
                                                  /*format=*/true);
  }

  // One transaction with a single contiguous write of exactly `len` bytes:
  // its ring footprint is 6 + padded(len) + 14 marker bytes (plus any wrap
  // padding), so tests can place entry and marker boundaries precisely.
  void commit_exact(std::size_t off, std::size_t len, std::uint8_t fill) {
    std::uint8_t* db = store->db();
    const std::vector<std::uint8_t> data(len, fill);
    store->begin_transaction();
    store->set_range(db + off, len);
    store->bus().write(db + off, data.data(), data.size(), sim::TrafficClass::kModified);
    store->commit_transaction();
  }

  void quiesce() {
    primary.cpu().mc()->flush();
    backup->poll(fabric.link().free_at + cost.link.propagation_ns);
  }

  sim::AlphaCostModel cost;
  sim::McFabric fabric;
  sim::Node primary;
  sim::Node backup_node;
  repl::ActiveBackupLayout layout;
  rio::Arena primary_arena;
  rio::Arena backup_arena;
  std::unique_ptr<repl::ActiveBackup> backup;
  std::unique_ptr<repl::ActivePrimary> store;
};

TEST(RedoRing, EntryFootprintArithmetic) {
  // The constants the boundary tests below are built on.
  EXPECT_EQ(sizeof(repl::RedoEntryHeader), 6u);
  EXPECT_EQ(repl::kCommitMarkerBytes, 14u);
  EXPECT_EQ(repl::redo_entry_bytes(8), 14u);
  EXPECT_EQ(repl::redo_entry_bytes(7), 14u) << "odd payloads pad to 2-byte alignment";
  EXPECT_EQ(repl::redo_entry_bytes(1), 8u);
  EXPECT_EQ(repl::redo_entry_bytes(0), 6u);
}

TEST(RedoRing, BatchFootprintExactlyCapacityWrapsCleanly) {
  // 6 + 2028 + 14 == 2048: one transaction fills the ring to the byte, so
  // the consumer lag hits exactly one full capacity and the next entry
  // starts at physical offset 0 of the next lap.
  const StoreConfig config = ring_config();
  RingPair pair(config);
  const std::size_t len = kRingCapacity - sizeof(repl::RedoEntryHeader) -
                          repl::kCommitMarkerBytes;  // 2028
  ASSERT_EQ(sizeof(repl::RedoEntryHeader) + len + repl::kCommitMarkerBytes, kRingCapacity);

  pair.commit_exact(0, len, 0xA1);
  pair.commit_exact(4096, len, 0xB2);  // producer begins this lap at phys 0
  pair.commit_exact(8192, len, 0xC3);
  pair.quiesce();

  EXPECT_EQ(pair.backup->applier().applied_seq(), 3u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
  EXPECT_EQ(pair.backup->consumer(), 3 * kRingCapacity)
      << "each transaction must occupy exactly one full ring lap";
}

TEST(RedoRing, FullRingBlocksProducerUntilConsumerAdvances) {
  // With every batch exactly one capacity, the producer finds the ring full
  // (lag == capacity, the == edge of the flow-control inequality) before
  // each subsequent commit and must wait for the cursor write-back.
  const StoreConfig config = ring_config();
  RingPair pair(config);
  const std::size_t len = kRingCapacity - sizeof(repl::RedoEntryHeader) -
                          repl::kCommitMarkerBytes;
  for (int i = 0; i < 8; ++i)
    pair.commit_exact(static_cast<std::size_t>(i) * 4096, len,
                      static_cast<std::uint8_t>(0x10 + i));
  pair.quiesce();

  EXPECT_EQ(pair.backup->applier().applied_seq(), 8u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
  EXPECT_GT(pair.store->flow_stall_ns(), 0)
      << "capacity-sized batches must have stalled on the full ring";
}

TEST(RedoRing, CommitMarkerPrePadsWhenItWouldWrap) {
  // Data entry ends 10 bytes short of the physical end: the commit marker
  // (14 bytes) cannot fit, so the producer pads the remainder (an explicit
  // 6-byte pad header + implicit sliver) and the marker starts the next lap.
  const StoreConfig config = ring_config();
  RingPair pair(config);
  // txn1: footprint 6 + 100 + 14 = 120. txn2's single data entry then spans
  // [120, 2038), leaving 10 bytes of lap — room for an explicit pad header
  // (6 <= 10) but not the 14-byte marker, which pre-pads and starts the
  // next lap at physical offset 0.
  pair.commit_exact(0, 100, 0xD4);
  const std::size_t len = 1912;  // 120 + 6 + 1912 = 2038
  ASSERT_EQ(120 + sizeof(repl::RedoEntryHeader) + len, kRingCapacity - 10);

  pair.commit_exact(4096, len, 0xE5);
  pair.commit_exact(16384, 64, 0x3C);  // rides the lap the marker opened
  pair.quiesce();

  EXPECT_EQ(pair.backup->applier().applied_seq(), 3u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
}

TEST(RedoRing, ImplicitPadSliverSmallerThanHeader) {
  // First transaction ends 4 bytes short of the physical end — too small
  // even for a pad header. Both sides must treat the sliver as implicit
  // padding: the producer skips it silently, the consumer's parser jumps it.
  const StoreConfig config = ring_config();
  RingPair pair(config);
  const std::size_t len = 2024;  // 6 + 2024 + 14 = 2044, leaving 4 < 6
  ASSERT_LT(kRingCapacity - (sizeof(repl::RedoEntryHeader) + len + repl::kCommitMarkerBytes),
            sizeof(repl::RedoEntryHeader));

  pair.commit_exact(0, len, 0xF6);
  pair.commit_exact(4096, 128, 0x17);  // first entry must skip the sliver
  pair.commit_exact(8192, 256, 0x28);
  pair.quiesce();

  EXPECT_EQ(pair.backup->applier().applied_seq(), 3u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
}

}  // namespace
}  // namespace vrep
