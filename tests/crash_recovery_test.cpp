// Crash-recovery sweep: for every version, inject a crash at EVERY store
// boundary inside a victim transaction (including its commit processing) and
// prove that recovery restores an all-or-nothing state. Also crashes the
// recovery itself to prove recovery is idempotent.
//
// This is the property the whole system exists to provide: under Rio
// semantics, memory contents at any store boundary plus the recovery
// procedure must yield exactly the last committed state (or, if the crash
// hit after the commit point, the newly committed state).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "core/api.hpp"
#include "repl/active.hpp"
#include "rio/arena.hpp"
#include "rio/crash.hpp"
#include "sim/alpha_cost_model.hpp"
#include "sim/mem_bus.hpp"
#include "sim/node.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace vrep {
namespace {

using core::StoreConfig;
using core::VersionKind;

constexpr VersionKind kAllVersions[] = {
    VersionKind::kV0Vista,
    VersionKind::kV1MirrorCopy,
    VersionKind::kV2MirrorDiff,
    VersionKind::kV3InlineLog,
};

StoreConfig small_config() {
  StoreConfig config;
  config.db_size = 64 * 1024;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  config.v0_meta_pad_bytes = 32;  // exercise the pad path too
  return config;
}

// The victim transaction: deterministic multi-range update with overlap.
void run_victim_txn(core::TransactionStore& store, std::uint64_t salt) {
  std::uint8_t* db = store.db();
  Rng rng(salt);
  store.begin_transaction();
  for (int r = 0; r < 4; ++r) {
    const std::size_t len = 8 + rng.below(48);
    const std::size_t off = rng.below(store.db_size() - len);
    store.set_range(db + off, len);
    for (std::size_t i = 0; i + 4 <= len; i += 4) {
      const std::uint32_t v = rng.next_u32() | 1;
      store.bus().write(db + off + i, &v, 4, sim::TrafficClass::kModified);
    }
  }
  store.commit_transaction();
}

void run_setup_txns(core::TransactionStore& store, int n) {
  for (int i = 0; i < n; ++i) run_victim_txn(store, 1000 + static_cast<std::uint64_t>(i));
}

class CrashSweepTest : public ::testing::TestWithParam<VersionKind> {};

TEST_P(CrashSweepTest, EveryCrashPointRecoversAllOrNothing) {
  const VersionKind kind = GetParam();
  const StoreConfig config = small_config();

  // Reference run (no crash): snapshot the database before the victim
  // transaction, after it, and after a follow-up ("epilogue") transaction.
  // Sweeping crash points through victim + epilogue guarantees we observe
  // both roll-back (early points) and the committed victim state (points in
  // the epilogue, plus post-commit-point tails of the victim where the
  // version does cleanup work after its commit write).
  std::vector<std::uint8_t> before, after, after2;
  std::uint64_t sweep_writes;
  {
    sim::MemBus bus;
    rio::CrashInjector counter;
    bus.set_write_hook(&counter);
    rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
    auto store = core::make_store(kind, bus, arena, config, /*format=*/true);
    run_setup_txns(*store, 5);
    before.assign(store->db(), store->db() + config.db_size);
    const std::uint64_t w0 = counter.writes_seen();
    run_victim_txn(*store, 77);
    after.assign(store->db(), store->db() + config.db_size);
    run_victim_txn(*store, 78);
    after2.assign(store->db(), store->db() + config.db_size);
    sweep_writes = counter.writes_seen() - w0;
  }
  ASSERT_GT(sweep_writes, 20u);

  // Crash at every store boundary within victim + epilogue.
  std::uint64_t recovered_before = 0, recovered_after = 0, recovered_after2 = 0;
  for (std::uint64_t crash_at = 0; crash_at < sweep_writes; ++crash_at) {
    sim::MemBus bus;
    rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
    rio::CrashInjector injector;
    {
      auto store = core::make_store(kind, bus, arena, config, /*format=*/true);
      run_setup_txns(*store, 5);
      bus.set_write_hook(&injector);
      injector.arm(crash_at);
      try {
        run_victim_txn(*store, 77);
        run_victim_txn(*store, 78);
        FAIL() << "crash point " << crash_at << " never fired";
      } catch (const rio::SimulatedCrash&) {
      }
      bus.set_write_hook(nullptr);
    }
    // "Reboot": new store over the surviving arena bytes.
    auto store = core::make_store(kind, bus, arena, config, /*format=*/false);
    store->recover();
    ASSERT_TRUE(store->validate()) << "crash point " << crash_at;

    const bool m0 = std::memcmp(store->db(), before.data(), config.db_size) == 0;
    const bool m1 = std::memcmp(store->db(), after.data(), config.db_size) == 0;
    const bool m2 = std::memcmp(store->db(), after2.data(), config.db_size) == 0;
    ASSERT_TRUE(m0 || m1 || m2)
        << "torn state after crash at write " << crash_at << " of " << sweep_writes;
    recovered_before += m0;
    recovered_after += m1;
    recovered_after2 += m2;

    // The recovered store must be fully usable.
    run_victim_txn(*store, 99);
    ASSERT_TRUE(store->validate());
  }
  // Sanity on the sweep itself: early crash points roll back, points inside
  // the epilogue land on the committed victim state, and the final commit
  // write of the epilogue can surface its state too.
  EXPECT_GT(recovered_before, 0u);
  EXPECT_GT(recovered_after, 0u);
}

TEST_P(CrashSweepTest, RecoveryItselfIsCrashSafe) {
  const VersionKind kind = GetParam();
  const StoreConfig config = small_config();

  // Produce a mid-transaction crash state.
  sim::MemBus bus;
  rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
  std::vector<std::uint8_t> before;
  {
    rio::CrashInjector injector;
    auto store = core::make_store(kind, bus, arena, config, /*format=*/true);
    run_setup_txns(*store, 3);
    before.assign(store->db(), store->db() + config.db_size);
    bus.set_write_hook(&injector);
    injector.arm(15);  // mid set_range
    ASSERT_THROW(run_victim_txn(*store, 77), rio::SimulatedCrash);
    bus.set_write_hook(nullptr);
  }

  // Crash during recovery at every one of its write points, then let a
  // final recovery finish. The end state must still be exact.
  for (std::uint64_t crash_at = 0;; ++crash_at) {
    rio::CrashInjector injector;
    bus.set_write_hook(&injector);
    injector.arm(crash_at);
    bool crashed = false;
    {
      auto store = core::make_store(kind, bus, arena, config, /*format=*/false);
      try {
        store->recover();
      } catch (const rio::SimulatedCrash&) {
        crashed = true;
      }
    }
    bus.set_write_hook(nullptr);
    if (!crashed) break;  // recovery completed before the injection point
    // Double-crash recovery must converge on a second, clean attempt.
    auto store = core::make_store(kind, bus, arena, config, /*format=*/false);
    store->recover();
    ASSERT_TRUE(store->validate()) << "recovery crash point " << crash_at;
    ASSERT_EQ(std::memcmp(store->db(), before.data(), config.db_size), 0)
        << "recovery crash point " << crash_at;
    // Re-install the mid-transaction crash state for the next iteration.
    {
      rio::CrashInjector mid;
      auto s2 = core::make_store(kind, bus, arena, config, /*format=*/false);
      bus.set_write_hook(&mid);
      mid.arm(15);
      try {
        run_victim_txn(*s2, 77);
        FAIL() << "expected crash";
      } catch (const rio::SimulatedCrash&) {
      }
      bus.set_write_hook(nullptr);
    }
  }

  auto store = core::make_store(kind, bus, arena, config, /*format=*/false);
  store->recover();
  EXPECT_EQ(std::memcmp(store->db(), before.data(), config.db_size), 0);
}

TEST_P(CrashSweepTest, AbortIsCrashSafeAtEveryWrite) {
  const VersionKind kind = GetParam();
  const StoreConfig config = small_config();

  // Reference: state after setup; an aborted transaction must leave it.
  auto start_victim = [](core::TransactionStore& store) {
    std::uint8_t* db = store.db();
    Rng rng(55);
    store.begin_transaction();
    for (int r = 0; r < 3; ++r) {
      const std::size_t len = 8 + rng.below(32);
      const std::size_t off = rng.below(store.db_size() - len);
      store.set_range(db + off, len);
      for (std::size_t i = 0; i + 4 <= len; i += 4) {
        const std::uint32_t v = rng.next_u32() | 1;
        store.bus().write(db + off + i, &v, 4, sim::TrafficClass::kModified);
      }
    }
  };

  std::vector<std::uint8_t> before;
  std::uint64_t abort_writes;
  {
    sim::MemBus bus;
    rio::CrashInjector counter;
    rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
    auto store = core::make_store(kind, bus, arena, config, /*format=*/true);
    run_setup_txns(*store, 3);
    before.assign(store->db(), store->db() + config.db_size);
    start_victim(*store);
    bus.set_write_hook(&counter);
    store->abort_transaction();
    abort_writes = counter.writes_seen();
  }
  ASSERT_GT(abort_writes, 0u);

  for (std::uint64_t crash_at = 0; crash_at < abort_writes; ++crash_at) {
    sim::MemBus bus;
    rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
    rio::CrashInjector injector;
    {
      auto store = core::make_store(kind, bus, arena, config, /*format=*/true);
      run_setup_txns(*store, 3);
      start_victim(*store);
      bus.set_write_hook(&injector);
      injector.arm(crash_at);
      ASSERT_THROW(store->abort_transaction(), rio::SimulatedCrash) << crash_at;
      bus.set_write_hook(nullptr);
    }
    auto store = core::make_store(kind, bus, arena, config, /*format=*/false);
    store->recover();
    ASSERT_TRUE(store->validate()) << "abort crash point " << crash_at;
    ASSERT_EQ(std::memcmp(store->db(), before.data(), config.db_size), 0)
        << "abort crash point " << crash_at;
  }
}

// ---- group-commit window crashes -------------------------------------------
//
// Kill the primary while a group-commit window is OPEN — pending group
// buffered, 1..W shipped-but-unacked sequences in flight — and prove the
// surviving backup never applies a partially-shipped group: after takeover
// its applied count sits on a group boundary and its image is bit-identical
// to the primary's state at exactly that commit.

namespace groupcrash {

constexpr unsigned kWindow = 8;
constexpr unsigned kGroup = 4;
constexpr std::uint64_t kTxns = 48;

struct Topology {
  core::StoreConfig config = small_config();
  sim::AlphaCostModel cost{};
  repl::ActiveBackupLayout layout;
  std::unique_ptr<sim::McFabric> fabric;
  std::unique_ptr<sim::Node> pnode, bnode;
  rio::Arena parena, barena;
  std::unique_ptr<repl::ActiveBackup> backup;
  std::unique_ptr<repl::ActivePrimary> primary;

  Topology() : layout(repl::ActiveBackupLayout::make(small_config().db_size, 1 << 16)) {
    fabric = std::make_unique<sim::McFabric>(cost.link);
    pnode = std::make_unique<sim::Node>(cost, 1, fabric.get());
    bnode = std::make_unique<sim::Node>(cost, 1, nullptr);
    parena = rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(config, layout));
    barena = rio::Arena::create(layout.arena_bytes());
    backup = std::make_unique<repl::ActiveBackup>(bnode->cpu(), barena, layout, *fabric);
    primary = std::make_unique<repl::ActivePrimary>(pnode->cpu().bus(), parena, barena, config,
                                                    layout, backup.get(), /*format=*/true);
    primary->set_two_safe(true);
    primary->set_commit_window(kWindow);
    primary->pipeline().set_group_size(kGroup);
    std::memcpy(backup->db(), primary->db(), config.db_size);
  }
};

// One deterministic transaction per sequence number (same salt scheme on
// the reference and crash runs, so images are comparable byte-for-byte).
void txn(core::TransactionStore& store, std::uint64_t seq) { run_victim_txn(store, 9000 + seq); }

}  // namespace groupcrash

TEST(GroupCommitCrashTest, BackupNeverAppliesPartialGroup) {
  using namespace groupcrash;

  // Reference run, fault-free: CRC of the primary image after every commit,
  // and the total store-write count of the whole history for the sweep.
  std::vector<std::uint32_t> crc_at;  // index = committed count
  std::uint64_t total_writes = 0;
  {
    Topology t;
    crc_at.push_back(Crc32::of(t.primary->db(), t.config.db_size));
    rio::CrashInjector counter;
    t.pnode->cpu().bus().set_write_hook(&counter);
    for (std::uint64_t seq = 1; seq <= kTxns; ++seq) {
      txn(*t.primary, seq);
      crc_at.push_back(Crc32::of(t.primary->db(), t.config.db_size));
    }
    t.pnode->cpu().bus().set_write_hook(nullptr);
    total_writes = counter.writes_seen();
  }
  ASSERT_GT(total_writes, 100u);

  // Sweep crashes across the history: every point must land the survivor on
  // a whole-group boundary with the exact reference image for that boundary.
  std::set<std::uint64_t> unacked_depths;
  std::set<std::uint64_t> applied_counts;
  constexpr int kSweepPoints = 24;
  for (int i = 0; i < kSweepPoints; ++i) {
    const std::uint64_t crash_at = 1 + (total_writes - 2) * static_cast<std::uint64_t>(i) /
                                           static_cast<std::uint64_t>(kSweepPoints);
    Topology t;
    rio::CrashInjector injector;
    t.pnode->cpu().bus().set_write_hook(&injector);
    injector.arm(crash_at);
    std::uint64_t committed = 0;
    try {
      for (std::uint64_t seq = 1; seq <= kTxns; ++seq) {
        txn(*t.primary, seq);
        committed = seq;
      }
      FAIL() << "crash at write " << crash_at << " of " << total_writes << " never fired";
    } catch (const rio::SimulatedCrash&) {
    }
    t.pnode->cpu().bus().set_write_hook(nullptr);

    const std::uint64_t applied = t.backup->takeover(t.pnode->cpu().clock().now());
    ASSERT_EQ(applied % kGroup, 0u)
        << "crash at write " << crash_at << ": survivor applied " << applied
        << " — a partially-shipped group was applied";
    ASSERT_LT(applied, crc_at.size());
    ASSERT_EQ(Crc32::of(t.backup->db(), t.config.db_size), crc_at[applied])
        << "crash at write " << crash_at << ": survivor image != reference at commit "
        << applied;
    ASSERT_GE(committed, applied) << "backup applied commits the primary never made";
    unacked_depths.insert(committed - applied);
    applied_counts.insert(applied);
  }
  // The sweep must actually have exercised an open window at several depths
  // (otherwise the boundary assertions above were vacuous).
  EXPECT_GE(unacked_depths.size(), 3u)
      << "sweep never varied the number of unacked transactions at the crash";
  EXPECT_GE(applied_counts.size(), 3u) << "sweep crashed at too few distinct group boundaries";
  EXPECT_GT(*unacked_depths.rbegin(), 0u) << "every crash point had an empty window";
}

TEST(CheckpointCrashTest, CrashMidCheckpointNeverPerturbsTheSurvivor) {
  using namespace groupcrash;

  // Same sweep as GroupCommitCrashTest, but the primary runs fuzzy
  // checkpointing in its commit path (4-commit builds starting every 6
  // commits, so ~half the crash points strike mid-build, and several strike
  // inside the completion/truncation step itself). The checkpoint build is
  // volatile primary state: killing the primary at ANY point must leave the
  // survivor exactly where the checkpoint-free sweep would — whole-group
  // boundary, bit-identical to the fault-free reference at that commit.
  constexpr std::uint64_t kCkptInterval = 6;
  constexpr std::size_t kCkptCopyBytes = 16 * 1024;  // 64 KiB db: 4-commit builds

  std::vector<std::uint32_t> crc_at;
  std::uint64_t total_writes = 0;
  {
    Topology t;
    t.primary->pipeline().enable_checkpoints(kCkptInterval, kCkptCopyBytes);
    crc_at.push_back(Crc32::of(t.primary->db(), t.config.db_size));
    rio::CrashInjector counter;
    t.pnode->cpu().bus().set_write_hook(&counter);
    for (std::uint64_t seq = 1; seq <= kTxns; ++seq) {
      txn(*t.primary, seq);
      crc_at.push_back(Crc32::of(t.primary->db(), t.config.db_size));
    }
    t.pnode->cpu().bus().set_write_hook(nullptr);
    total_writes = counter.writes_seen();
    // The reference run must genuinely checkpoint (and truncate) mid-sweep.
    ASSERT_GE(t.primary->pipeline().stats().checkpoints_completed, 5u);
    ASSERT_GT(t.primary->pipeline().stats().redo_truncated_bytes, 0u);
  }
  ASSERT_GT(total_writes, 100u);

  constexpr int kSweepPoints = 24;
  std::set<std::uint64_t> ckpt_phases;  // completed-count at the crash instant
  for (int i = 0; i < kSweepPoints; ++i) {
    const std::uint64_t crash_at = 1 + (total_writes - 2) * static_cast<std::uint64_t>(i) /
                                           static_cast<std::uint64_t>(kSweepPoints);
    Topology t;
    t.primary->pipeline().enable_checkpoints(kCkptInterval, kCkptCopyBytes);
    rio::CrashInjector injector;
    t.pnode->cpu().bus().set_write_hook(&injector);
    injector.arm(crash_at);
    std::uint64_t committed = 0;
    try {
      for (std::uint64_t seq = 1; seq <= kTxns; ++seq) {
        txn(*t.primary, seq);
        committed = seq;
      }
      FAIL() << "crash at write " << crash_at << " of " << total_writes << " never fired";
    } catch (const rio::SimulatedCrash&) {
    }
    t.pnode->cpu().bus().set_write_hook(nullptr);
    // Record the checkpoint phase the crash struck at (how many builds had
    // completed), for the vacuity check below.
    ckpt_phases.insert(t.primary->pipeline().stats().checkpoints_completed);

    const std::uint64_t applied = t.backup->takeover(t.pnode->cpu().clock().now());
    ASSERT_EQ(applied % kGroup, 0u)
        << "crash at write " << crash_at << ": survivor applied " << applied
        << " — a partially-shipped group was applied";
    ASSERT_LT(applied, crc_at.size());
    ASSERT_EQ(Crc32::of(t.backup->db(), t.config.db_size), crc_at[applied])
        << "crash at write " << crash_at
        << " (checkpointing enabled): survivor image != fault-free reference at commit "
        << applied;
    ASSERT_GE(committed, applied);
  }
  EXPECT_GE(ckpt_phases.size(), 3u)
      << "sweep struck too few distinct checkpoint phases — assertions near-vacuous";
}

INSTANTIATE_TEST_SUITE_P(AllVersions, CrashSweepTest, ::testing::ValuesIn(kAllVersions),
                         [](const auto& info) {
                           switch (info.param) {
                             case VersionKind::kV0Vista: return "V0Vista";
                             case VersionKind::kV1MirrorCopy: return "V1MirrorCopy";
                             case VersionKind::kV2MirrorDiff: return "V2MirrorDiff";
                             case VersionKind::kV3InlineLog: return "V3InlineLog";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace vrep
