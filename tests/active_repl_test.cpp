// Active primary-backup: redo ring framing, backup application, flow
// control, never-torn takeover, and epoch fencing of a stale primary.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/membership.hpp"
#include "repl/active.hpp"
#include "rio/arena.hpp"
#include "sim/node.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace vrep {
namespace {

using core::StoreConfig;

StoreConfig small_config() {
  StoreConfig config;
  config.db_size = 64 * 1024;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  return config;
}

struct ActivePair {
  ActivePair(const StoreConfig& config, std::size_t ring_capacity,
             cluster::Membership* primary_membership = nullptr,
             cluster::Membership* backup_membership = nullptr)
      : fabric(cost.link),
        primary(cost, 1, &fabric),
        backup_node(cost, 1, nullptr),
        layout(repl::ActiveBackupLayout::make(config.db_size, ring_capacity)) {
    primary_arena =
        rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(config, layout));
    backup_arena = rio::Arena::create(layout.arena_bytes());
    backup = std::make_unique<repl::ActiveBackup>(backup_node.cpu(), backup_arena, layout,
                                                  fabric, backup_membership);
    store = std::make_unique<repl::ActivePrimary>(primary.cpu().bus(), primary_arena,
                                                  backup_arena, config, layout, backup.get(),
                                                  /*format=*/true, primary_membership);
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

void run_txn(core::TransactionStore& store, std::uint64_t salt, int ranges = 3) {
  std::uint8_t* db = store.db();
  Rng rng(salt);
  store.begin_transaction();
  for (int r = 0; r < ranges; ++r) {
    const std::size_t len = 8 + rng.below(40);
    const std::size_t off = rng.below(store.db_size() - len);
    store.set_range(db + off, len);
    for (std::size_t i = 0; i + 4 <= len; i += 4) {
      const std::uint32_t v = rng.next_u32() | 1;
      store.bus().write(db + off + i, &v, 4, sim::TrafficClass::kModified);
    }
  }
  store.commit_transaction();
}

TEST(ActiveRepl, BackupDatabaseTracksCommittedState) {
  const StoreConfig config = small_config();
  ActivePair pair(config, 1 << 16);
  for (int i = 0; i < 100; ++i) run_txn(*pair.store, 10 + static_cast<std::uint64_t>(i));
  // Quiesce the trailing partial packet so the last commit marker lands.
  pair.primary.cpu().mc()->flush();
  pair.backup->poll(pair.fabric.link().free_at + pair.cost.link.propagation_ns);

  EXPECT_EQ(pair.backup->applier().applied_seq(), 100u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
}

TEST(ActiveRepl, BackupLagsAtMostTheWriteBufferWindow) {
  const StoreConfig config = small_config();
  ActivePair pair(config, 1 << 16);
  for (int i = 0; i < 20; ++i) {
    run_txn(*pair.store, 700 + static_cast<std::uint64_t>(i));
    // Without explicit flushes the trailing commit marker may still sit in a
    // write buffer, so the backup can lag — but never by more than a couple
    // of transactions' worth of buffered bytes.
    EXPECT_GE(pair.backup->applier().applied_seq() + 3, pair.store->committed_seq());
  }
}

TEST(ActiveRepl, AbortShipsNothing) {
  const StoreConfig config = small_config();
  ActivePair pair(config, 1 << 16);
  run_txn(*pair.store, 1);

  std::uint8_t* db = pair.store->db();
  pair.store->begin_transaction();
  pair.store->set_range(db + 64, 16);
  const std::uint64_t junk = 0x5555555555555555ull;
  pair.store->bus().write(db + 64, &junk, 8, sim::TrafficClass::kModified);
  pair.store->abort_transaction();

  run_txn(*pair.store, 2);
  pair.primary.cpu().mc()->flush();
  pair.backup->poll(pair.fabric.link().free_at + pair.cost.link.propagation_ns);

  EXPECT_EQ(pair.backup->applier().applied_seq(), 2u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0)
      << "aborted writes must not reach the backup database";
}

TEST(ActiveRepl, RingWrapsAndPadsCorrectly) {
  const StoreConfig config = small_config();
  // Tiny ring: a few transactions per lap, many laps.
  ActivePair pair(config, 2048);
  for (int i = 0; i < 300; ++i) run_txn(*pair.store, 900 + static_cast<std::uint64_t>(i), 2);
  pair.primary.cpu().mc()->flush();
  pair.backup->poll(pair.fabric.link().free_at + pair.cost.link.propagation_ns);

  EXPECT_EQ(pair.backup->applier().applied_seq(), 300u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
}

TEST(ActiveRepl, PrimaryBlocksWhenRingFills) {
  const StoreConfig config = small_config();
  ActivePair pair(config, 1024);  // barely bigger than one transaction
  for (int i = 0; i < 50; ++i) run_txn(*pair.store, 40 + static_cast<std::uint64_t>(i), 4);
  pair.primary.cpu().mc()->flush();
  pair.backup->poll(pair.fabric.link().free_at + pair.cost.link.propagation_ns);
  EXPECT_EQ(pair.backup->applier().applied_seq(), 50u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
  EXPECT_GT(pair.store->flow_stall_ns(), 0) << "a 1 KB ring must have caused blocking";
}

TEST(ActiveRepl, TakeoverNeverServesTornTransactions) {
  // Cut the wire at many points; the backup must always hold a prefix of
  // committed transactions, each applied atomically.
  const StoreConfig config = small_config();
  for (int cut_percent = 0; cut_percent <= 100; cut_percent += 10) {
    ActivePair pair(config, 1 << 16);

    // Interpose reference snapshots after every commit.
    std::vector<std::vector<std::uint8_t>> snapshots;
    snapshots.emplace_back(pair.store->db(), pair.store->db() + config.db_size);
    for (int i = 0; i < 25; ++i) {
      run_txn(*pair.store, 60 + static_cast<std::uint64_t>(i));
      snapshots.emplace_back(pair.store->db(), pair.store->db() + config.db_size);
    }

    const sim::SimTime cut = pair.primary.cpu().clock().now() * cut_percent / 100;
    const std::uint64_t seq = pair.backup->takeover(cut);
    ASSERT_LE(seq, 25u);
    EXPECT_EQ(std::memcmp(pair.backup->db(), snapshots[seq].data(), config.db_size), 0)
        << "backup state at cut " << cut_percent << "% is not the exact prefix ending at seq "
        << seq;
  }
}

TEST(ActiveRepl, PrimaryRecoversLocallyAfterCrash) {
  const StoreConfig config = small_config();
  ActivePair pair(config, 1 << 16);
  run_txn(*pair.store, 5);
  std::vector<std::uint8_t> committed(pair.store->db(), pair.store->db() + config.db_size);

  // Crash mid-transaction (no exception machinery needed: just abandon it)
  std::uint8_t* db = pair.store->db();
  pair.store->begin_transaction();
  pair.store->set_range(db + 0, 16);
  const std::uint64_t junk = 0x7777777777777777ull;
  pair.store->bus().write(db + 0, &junk, 8, sim::TrafficClass::kModified);

  EXPECT_EQ(pair.store->recover(), 1);
  EXPECT_EQ(std::memcmp(pair.store->db(), committed.data(), config.db_size), 0);
  EXPECT_TRUE(pair.store->validate());
}

TEST(ActiveRepl, TwoSafeCommitNeverLosesAcknowledgedTransactions) {
  // With 2-safe commits, every transaction whose commit returned is on the
  // backup — a takeover at ANY instant serves the full committed history.
  const StoreConfig config = small_config();
  ActivePair pair(config, 1 << 16);
  pair.store->set_two_safe(true);
  for (int i = 0; i < 40; ++i) run_txn(*pair.store, 3000 + static_cast<std::uint64_t>(i));
  EXPECT_GT(pair.store->two_safe_wait_ns(), 0) << "2-safe must wait for the round trip";

  // Crash immediately after the last commit returned: nothing may be lost.
  const std::uint64_t seq = pair.backup->takeover(pair.primary.cpu().clock().now());
  EXPECT_EQ(seq, 40u);
  EXPECT_EQ(std::memcmp(pair.backup->db(), pair.store->db(), config.db_size), 0);
}

TEST(ActiveRepl, OneSafeCommitCanLoseTrailingTransactions) {
  // The contrast case documenting the paper's 1-safe window: a crash right
  // after commit returns may lose that transaction.
  const StoreConfig config = small_config();
  ActivePair pair(config, 1 << 16);
  for (int i = 0; i < 40; ++i) run_txn(*pair.store, 4000 + static_cast<std::uint64_t>(i));
  const std::uint64_t seq = pair.backup->takeover(pair.primary.cpu().clock().now());
  EXPECT_LE(seq, 40u);
  // (Usually < 40: the final commit marker sits in a write buffer.)
}

TEST(ActiveFencing, StaleEpochPrimaryIsFencedWithoutTouchingBackup) {
  // The split-brain regression, co-simulated: the backup takes over (epoch
  // bump) while the primary is stalled; the primary's next stale-epoch
  // commit must be fenced wholesale — not one byte lands in the ring or the
  // replica — and the primary must learn which epoch fenced it so it can
  // demote and rejoin.
  const StoreConfig config = small_config();
  cluster::Membership mem_p(0, cluster::Role::kPrimary);
  cluster::Membership mem_b(1, cluster::Role::kBackup);
  ActivePair pair(config, 1 << 16, &mem_p, &mem_b);

  for (int i = 0; i < 20; ++i) run_txn(*pair.store, 5000 + static_cast<std::uint64_t>(i));
  pair.primary.cpu().mc()->flush();
  pair.backup->poll(pair.fabric.link().free_at + pair.cost.link.propagation_ns);
  ASSERT_EQ(pair.backup->applier().applied_seq(), 20u);
  ASSERT_FALSE(pair.store->pipeline().fenced());

  // Primary stalls; the backup declares it dead and takes over in epoch 2.
  mem_b.take_over();
  ASSERT_EQ(mem_b.view().epoch, 2u);
  const std::uint32_t crc_at_takeover = Crc32::of(pair.backup->db(), config.db_size);

  // The stalled primary resumes committing in epoch 1. The very first
  // commit is fenced synchronously (the co-simulated carrier routes the
  // stale frame through the backup's applier, whose kEpochFence reply the
  // commit's drain picks up).
  run_txn(*pair.store, 6000);
  EXPECT_TRUE(pair.store->pipeline().fenced());
  EXPECT_EQ(pair.store->pipeline().fenced_by_epoch(), 2u);
  EXPECT_GT(pair.backup->applier().stats().stale_fenced, 0u);

  // Further stale commits stay local; nothing reaches the promoted node.
  for (int i = 0; i < 5; ++i) run_txn(*pair.store, 6001 + static_cast<std::uint64_t>(i));
  EXPECT_EQ(pair.backup->applier().applied_seq(), 20u);
  EXPECT_EQ(Crc32::of(pair.backup->db(), config.db_size), crc_at_takeover)
      << "stale-epoch traffic mutated the promoted backup's image";
  EXPECT_GT(pair.store->committed_seq(), 20u) << "the fenced primary diverged locally";

  // The fenced primary demotes itself into the fencing epoch, ready to
  // rejoin as a backup; the engine's lineage rule (decide_rejoin) would
  // refuse it a delta past the takeover floor.
  mem_p.demote_to_backup(pair.store->pipeline().fenced_by_epoch());
  EXPECT_FALSE(mem_p.is_primary());
  EXPECT_EQ(mem_p.view().epoch, 2u);
  EXPECT_EQ(pair.store->pipeline().decide_rejoin(pair.store->committed_seq(), 1),
            repl::RedoPipeline::RejoinDecision::kFullImage);
}

TEST(ActiveRepl, TrafficIsRedoOnly) {
  const StoreConfig config = small_config();
  ActivePair pair(config, 1 << 16);
  for (int i = 0; i < 50; ++i) run_txn(*pair.store, 80 + static_cast<std::uint64_t>(i));
  pair.primary.cpu().mc()->flush();

  const auto& traffic = pair.primary.cpu().mc()->traffic();
  EXPECT_EQ(traffic.undo(), 0u) << "active backup ships no undo data (Table 7)";
  EXPECT_GT(traffic.modified(), 0u);
  EXPECT_GT(traffic.meta(), 0u);
}

}  // namespace
}  // namespace vrep
