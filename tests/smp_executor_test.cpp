// Real-SMP executor: N concurrent workers under partition latches, captured
// redo funneled through the bounded staging queue into the single-writer
// sequencer, replicated 2-safe through the group-commit window to an
// in-process backup. These tests are the TSan preset's main subject: every
// assertion holds while the sanitizer watches the worker/sequencer/backup
// handoffs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "exec/smp_executor.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport_link.hpp"
#include "net/wire_repl.hpp"
#include "util/crc32.hpp"

namespace vrep::exec {
namespace {

// In-process backup serving on its own thread: a third concurrent actor, so
// the 2-safe ack path runs against live worker/sequencer traffic.
struct BackupHarness {
  net::InprocTransport primary_end, backup_end;
  net::TransportLink link{&primary_end};
  rio::Arena arena;
  std::unique_ptr<net::WireBackup> backup;
  std::thread thread;

  void start(std::size_t db_size) {
    net::InprocTransport::pair(primary_end, backup_end);
    arena = rio::Arena::create(db_size);
    backup = std::make_unique<net::WireBackup>(arena);
    thread = std::thread([this] {
      net::WireBackup::ServeOptions options;
      options.idle_timeout_ms = 200;
      // Idle gaps (executor setup, final sync) look like primary silence;
      // keep serving until the primary really closes the connection.
      while (backup->serve(backup_end, options) ==
             net::WireBackup::ServeResult::kPrimaryFailed) {
      }
    });
  }
  void stop() {
    primary_end.close_peer();
    thread.join();
  }
};

void expect_converged(SmpExecutor& executor, BackupHarness& harness,
                      std::uint64_t expect_committed) {
  EXPECT_EQ(executor.sequenced(), expect_committed);
  EXPECT_EQ(harness.backup->applied_seq(), expect_committed);
  EXPECT_EQ(executor.check_consistency(), "");
  const std::uint32_t primary_crc = Crc32::of(executor.image(), executor.image_size());
  const std::uint32_t backup_crc = Crc32::of(harness.backup->db(), executor.image_size());
  EXPECT_EQ(primary_crc, backup_crc);
}

TEST(SmpExecutor, SingleWorkerBackupConverges) {
  SmpConfig config;
  config.workload = wl::WorkloadKind::kDebitCredit;
  config.workers = 1;
  config.partitions = 1;
  config.txns_per_worker = 500;
  config.two_safe = true;
  config.commit_window = 8;
  config.group_size = 4;
  BackupHarness harness;
  SmpExecutor executor(config, &harness.link);
  harness.start(executor.image_size());
  ASSERT_TRUE(executor.sync_backup());
  const auto result = executor.run();
  harness.stop();
  EXPECT_EQ(result.committed, 500u);
  EXPECT_GT(result.tps, 0.0);
  expect_converged(executor, harness, 500);
}

// The commit_async()/wait() race hammer: more workers than partitions (every
// latch is contended), a deliberately tiny staging queue (constant
// backpressure), and a 2-safe W=8/G=4 window (the sequencer stalls on acks
// while workers keep producing). The backup must still converge to the
// byte-exact primary image.
TEST(SmpExecutor, RaceHammerContendedWorkersConverge) {
  SmpConfig config;
  config.workload = wl::WorkloadKind::kDebitCredit;
  config.workers = 4;
  config.partitions = 2;
  config.queue_capacity = 8;
  config.txns_per_worker = 1'500;
  config.two_safe = true;
  config.commit_window = 8;
  config.group_size = 4;
  BackupHarness harness;
  SmpExecutor executor(config, &harness.link);
  harness.start(executor.image_size());
  ASSERT_TRUE(executor.sync_backup());
  const auto result = executor.run();
  harness.stop();
  EXPECT_EQ(result.committed, 6'000u);
  expect_converged(executor, harness, 6'000);
}

// Commit order through the hand-off: eight workers serialize on ONE
// partition, so consecutive transactions rewrite the same branch and teller
// rows, and a tiny ring keeps workers waiting to publish while others
// commit. Ticket order must still be the latch order, or the
// backup replays two overlapping writes out of order and its image diverges.
// Taking the ticket after releasing the latch lets two of the partition's
// commits swap places; the wider that gap, the more often this test catches
// it, while RaceHammer and TinyQueue miss it.
TEST(SmpExecutor, OnePartitionReplicatedKeepsCommitOrder) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SmpConfig config;
    config.workload = wl::WorkloadKind::kDebitCredit;
    config.workers = 8;
    config.partitions = 1;
    config.queue_capacity = 4;
    config.txns_per_worker = 2'000;
    config.two_safe = true;
    config.commit_window = 8;
    config.group_size = 4;
    config.seed = seed;
    BackupHarness harness;
    SmpExecutor executor(config, &harness.link);
    harness.start(executor.image_size());
    ASSERT_TRUE(executor.sync_backup());
    const auto result = executor.run();
    harness.stop();
    EXPECT_EQ(result.committed, 16'000u);
    expect_converged(executor, harness, 16'000);
  }
}

TEST(SmpExecutor, OrderEntryWorkloadConverges) {
  SmpConfig config;
  config.workload = wl::WorkloadKind::kOrderEntry;
  config.workers = 2;
  config.partitions = 2;
  config.partition_db_size = 4u << 20;
  config.txns_per_worker = 400;
  config.two_safe = true;
  config.commit_window = 8;
  config.group_size = 4;
  BackupHarness harness;
  SmpExecutor executor(config, &harness.link);
  harness.start(executor.image_size());
  ASSERT_TRUE(executor.sync_backup());
  const auto result = executor.run();
  harness.stop();
  EXPECT_EQ(result.committed, 800u);
  expect_converged(executor, harness, 800);
}

// All four workers on ONE partition: fully serialized by the latch, so the
// latch itself (not scheduling luck) carries correctness; runs without a
// link to cover the unreplicated path.
TEST(SmpExecutor, SinglePartitionFullContentionUnreplicated) {
  SmpConfig config;
  config.workload = wl::WorkloadKind::kDebitCredit;
  config.workers = 4;
  config.partitions = 1;
  config.txns_per_worker = 800;
  SmpExecutor executor(config, /*link=*/nullptr);
  const auto result = executor.run();
  EXPECT_EQ(result.committed, 3'200u);
  EXPECT_EQ(executor.check_consistency(), "");
  // The pipeline sequenced every transaction even with no peer attached.
  EXPECT_EQ(executor.pipeline().last_ticket_seq(), 3'200u);
}

// Backpressure: a queue of one forces a worker/sequencer handoff per txn;
// with four workers the full-queue wait path is guaranteed to execute.
TEST(SmpExecutor, TinyQueueBackpressureIsLossless) {
  SmpConfig config;
  config.workload = wl::WorkloadKind::kDebitCredit;
  config.workers = 4;
  config.partitions = 4;
  config.queue_capacity = 1;
  config.txns_per_worker = 300;
  BackupHarness harness;
  SmpConfig replicated = config;
  replicated.two_safe = true;
  SmpExecutor executor(replicated, &harness.link);
  harness.start(executor.image_size());
  ASSERT_TRUE(executor.sync_backup());
  const auto result = executor.run();
  harness.stop();
  EXPECT_EQ(result.committed, 1'200u);
  expect_converged(executor, harness, 1'200);
}

}  // namespace
}  // namespace vrep::exec
