// Fault-injecting transport + recovery machinery: deterministic fault
// schedules, in-band resync under drops/duplicates, torn-frame reconnect +
// rejoin, epoch fencing of a split-brain primary, and the full-image
// fallback when the redo history cannot serve a rejoin delta.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"
#include "net/fault_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace vrep::net {
namespace {

struct LoopbackPair {
  LoopbackPair() {
    EXPECT_TRUE(server.listen(0));
    std::thread connector(
        [this] { client_ok = client.connect_to("127.0.0.1", server.bound_port()); });
    EXPECT_TRUE(server.accept_peer());
    connector.join();
    EXPECT_TRUE(client_ok);
  }
  // Re-establish the client->server connection after a disconnect.
  void reconnect() {
    std::thread connector(
        [this] { client_ok = client.connect_to("127.0.0.1", server.bound_port()); });
    EXPECT_TRUE(server.accept_peer());
    connector.join();
    EXPECT_TRUE(client_ok);
  }
  TcpTransport server, client;
  bool client_ok = false;
};

// A backup's serve() loop on its own thread, joined on every exit path. When
// a failing ASSERT leaves the test body early, the destructor closes the
// primary's end of the connection, so serve() returns, and joins: the
// failure reports as that one test's failure, where a joinable std::thread
// would std::terminate the binary and hide every later result.
class ServeThread {
 public:
  template <typename Fn>
  ServeThread(Transport& primary_end, Fn&& serve)
      : primary_end_(&primary_end), thread_(std::forward<Fn>(serve)) {}
  ServeThread(const ServeThread&) = delete;
  ServeThread& operator=(const ServeThread&) = delete;
  ~ServeThread() {
    if (!thread_.joinable()) return;
    primary_end_->close_peer();
    thread_.join();
  }

  // Wait for serve() to return (the test ended the stream, or the backup
  // declared the primary failed).
  void join() { thread_.join(); }

 private:
  Transport* primary_end_;
  std::thread thread_;
};

// One random transaction writing `range_bytes` at a random offset. The redo
// batch ships the captured bus writes, so range_bytes also sets the batch
// (and wire frame) size.
void commit_random_txn(WirePrimary& primary, Rng& rng, std::size_t db_size,
                       std::size_t range_bytes = 32) {
  primary.begin_transaction();
  const std::size_t off = rng.below(db_size - range_bytes);
  primary.set_range(primary.db() + off, range_bytes);
  const std::vector<std::uint8_t> data(range_bytes, static_cast<std::uint8_t>(rng.next_u64()));
  primary.bus().write(primary.db() + off, data.data(), data.size(),
                      sim::TrafficClass::kModified);
  primary.commit_transaction();
}

// Drive heartbeats until the backup acknowledges `seq` (bounded wait).
// Heartbeats both carry the primary's committed sequence (so the backup can
// detect trailing gaps and resync) and drain the backup's acks.
bool await_ack(WirePrimary& primary, std::uint64_t seq, int max_iters = 3000) {
  for (int i = 0; i < max_iters && primary.pipeline().backup_acked_seq() < seq; ++i) {
    primary.pipeline().send_heartbeat();
    usleep(1000);
  }
  return primary.pipeline().backup_acked_seq() >= seq;
}

TEST(FaultInjector, ScheduleIsDeterministicPerSeed) {
  // Two injectors with the same plan over independent connections must
  // produce the identical fault sequence, and the receiver must observe
  // exactly sent - drops + duplicates frames.
  FaultPlan plan;
  plan.seed = 404;
  plan.drop = 0.10;
  plan.delay = 0.05;
  plan.max_delay_us = 100;
  plan.duplicate = 0.10;

  FaultInjectingTransport::Stats observed[2];
  std::uint64_t received[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    LoopbackPair pair;
    FaultInjectingTransport chaos(pair.client, plan);
    for (std::uint32_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(chaos.send(MsgType::kRedoBatch, 1, &i, 4));
      // Drain as we go so the loopback socket buffers never fill up.
      while (pair.server.recv(0).has_value()) received[run]++;
    }
    while (pair.server.recv(20).has_value()) received[run]++;
    observed[run] = chaos.stats();
  }
  EXPECT_EQ(observed[0].drops, observed[1].drops);
  EXPECT_EQ(observed[0].delays, observed[1].delays);
  EXPECT_EQ(observed[0].duplicates, observed[1].duplicates);
  EXPECT_GT(observed[0].faults(), 0u);
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(received[run], 300u - observed[run].drops + observed[run].duplicates);
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  // Not just the fault *count*: the per-frame drop pattern must differ
  // between seeds (counts can collide by chance).
  FaultPlan plan;
  plan.drop = 0.5;
  std::vector<std::uint32_t> arrived[2];
  for (int run = 0; run < 2; ++run) {
    plan.seed = 1000 + static_cast<std::uint64_t>(run);
    LoopbackPair pair;
    FaultInjectingTransport chaos(pair.client, plan);
    for (std::uint32_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(chaos.send(MsgType::kHeartbeat, 1, &i, 4));
      while (auto msg = pair.server.recv(0)) {
        std::uint32_t got;
        std::memcpy(&got, msg->payload.data(), 4);
        arrived[run].push_back(got);
      }
    }
    while (auto msg = pair.server.recv(20)) {
      std::uint32_t got;
      std::memcpy(&got, msg->payload.data(), 4);
      arrived[run].push_back(got);
    }
    EXPECT_GT(chaos.stats().drops, 0u);
  }
  EXPECT_NE(arrived[0], arrived[1]);
}

TEST(FaultInjector, DroppedAndDuplicatedBatchesResyncInBand) {
  // Under drop + duplicate faults the backup must converge to the primary's
  // exact image without ever losing the connection: gaps are repaired by
  // in-band rejoin requests answered from the redo history.
  LoopbackPair pair;
  FaultPlan plan;
  plan.seed = 11;
  plan.drop = 0.08;
  plan.duplicate = 0.08;
  plan.start_after_frames = 2;  // let hello + image chunk through untouched
  FaultInjectingTransport chaos(pair.client, plan);

  core::StoreConfig config;
  config.db_size = 256 * 1024;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary primary(arena, config, &chaos, /*format=*/true);
  rio::Arena replica = rio::Arena::create(config.db_size);
  WireBackup backup(replica);
  ServeThread backup_thread(pair.client, [&] { backup.serve(pair.server, 4000); });

  ASSERT_TRUE(primary.sync_backup());
  Rng rng(21);
  for (int i = 0; i < 300; ++i) commit_random_txn(primary, rng, config.db_size);
  EXPECT_TRUE(await_ack(primary, 300));
  chaos.close_peer();
  backup_thread.join();

  EXPECT_EQ(backup.applied_seq(), 300u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);
  EXPECT_GT(chaos.stats().drops, 0u);
  EXPECT_GT(chaos.stats().duplicates, 0u);
  EXPECT_GT(backup.applier().stats().duplicates_ignored, 0u);
  EXPECT_GT(backup.applier().stats().gaps_detected, 0u);
  EXPECT_GT(backup.applier().stats().resyncs, 0u);
}

TEST(FaultInjector, BitflippedFramesAreSkippedAndResynced) {
  // Payload bit-flips surface as payload-CRC failures: the backup skips the
  // frame, stays connected, and repairs the sequence gap in-band. (A flip
  // landing in the header instead closes the stream; keep the rate low and
  // the run short so this seed stays on the payload path.)
  LoopbackPair pair;
  FaultPlan plan;
  plan.seed = 1302;
  plan.bitflip = 0.04;
  plan.start_after_frames = 2;
  FaultInjectingTransport chaos(pair.client, plan);

  core::StoreConfig config;
  config.db_size = 128 * 1024;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary primary(arena, config, &chaos, /*format=*/true);
  rio::Arena replica = rio::Arena::create(config.db_size);
  WireBackup backup(replica);
  ServeThread backup_thread(pair.client, [&] { backup.serve(pair.server, 4000); });

  ASSERT_TRUE(primary.sync_backup());
  Rng rng(3);
  // 1 KB ranges keep the 24-byte header a tiny bit-flip target, so this
  // seed's flips all land in payloads.
  for (int i = 0; i < 150; ++i) commit_random_txn(primary, rng, config.db_size, 1024);
  ASSERT_TRUE(primary.pipeline().connection_alive());  // no flip hit a header
  // Chaos window over: converge over the clean transport (a flipped
  // heartbeat header would tear the stream down for nothing).
  primary.attach_transport(&pair.client);
  EXPECT_TRUE(await_ack(primary, 150));
  chaos.close_peer();
  backup_thread.join();

  EXPECT_GT(chaos.stats().bitflips, 0u);
  EXPECT_GT(backup.applier().stats().corrupt_skipped, 0u);
  EXPECT_EQ(backup.applied_seq(), 150u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);
}

TEST(FaultInjector, TornFrameThenReconnectRejoinsWithDelta) {
  // A frame truncated mid-send (sender killed) must never apply partially;
  // after reconnect the backup catches up incrementally from the redo
  // history (kRejoinDelta), not via a full image transfer.
  LoopbackPair pair;
  core::StoreConfig config;
  config.db_size = 128 * 1024;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));

  FaultPlan plan;
  plan.seed = 5;
  plan.truncate = 1.0;
  // hello + 1 image chunk + 50 clean batches; frame 53 (txn 51) is torn.
  plan.start_after_frames = 52;
  FaultInjectingTransport chaos(pair.client, plan);
  WirePrimary primary(arena, config, &chaos, /*format=*/true);

  rio::Arena replica = rio::Arena::create(config.db_size);
  WireBackup backup(replica);
  WireBackup::ServeResult phase1{};
  ServeThread backup_thread(pair.client, [&] { phase1 = backup.serve(pair.server, 2000); });

  ASSERT_TRUE(primary.sync_backup());
  Rng rng(77);
  for (int i = 0; i < 50; ++i) commit_random_txn(primary, rng, config.db_size);
  std::vector<std::uint8_t> at_50(primary.db(), primary.db() + config.db_size);
  commit_random_txn(primary, rng, config.db_size);  // txn 51: torn mid-frame
  EXPECT_FALSE(primary.pipeline().connection_alive());
  backup_thread.join();

  // The torn frame surfaced as a lost connection; nothing of txn 51 landed.
  EXPECT_EQ(phase1, WireBackup::ServeResult::kConnectionLost);
  EXPECT_EQ(backup.applied_seq(), 50u);
  EXPECT_EQ(std::memcmp(backup.db(), at_50.data(), config.db_size), 0);
  EXPECT_EQ(chaos.stats().truncations, 1u);

  // Reconnect (sans injector) and rejoin: the primary serves the delta.
  pair.reconnect();
  ASSERT_TRUE(backup.request_rejoin(pair.server));
  ServeThread backup_thread2(pair.client, [&] { backup.serve(pair.server, 2000); });
  primary.attach_transport(&pair.client);
  ASSERT_TRUE(primary.pipeline().handle_rejoin(2000));
  for (int i = 0; i < 2; ++i) commit_random_txn(primary, rng, config.db_size);
  EXPECT_TRUE(await_ack(primary, 53));
  pair.client.close_peer();
  backup_thread2.join();

  EXPECT_EQ(primary.pipeline().stats().deltas_served, 1u);
  EXPECT_EQ(primary.pipeline().stats().full_syncs_served, 0u);
  EXPECT_EQ(backup.applied_seq(), 53u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);
}

TEST(FaultInjector, CheckpointDeltaInstallUnderFaultsConvergesUntorn) {
  // A laggard whose gap outgrew the (tiny) redo history rejoins against a
  // checkpointed primary — and the serve runs through a drop/duplicate
  // injector, so checkpoint frames (Begin/Chunk/End) are lost and replayed
  // mid-install. The applier must never install a torn checkpoint: faulted
  // attempts abort cleanly (replica untouched) and the re-request converges
  // once the frames arrive whole. The full image path must stay untaken —
  // the checkpoint covers the gap even though the history no longer does.
  LoopbackPair pair;
  core::StoreConfig config;
  config.db_size = 128 * 1024;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  // History holds only the last ~14 batches; checkpoints every 10 commits
  // (4-commit fuzzy builds: 32 KiB steps over 128 KiB).
  WirePrimary primary(arena, config, &pair.client, /*format=*/true, nullptr,
                      WirePrimary::Lineage{0, 0}, /*redo_history_bytes=*/4096);
  primary.pipeline().enable_checkpoints(/*interval_txns=*/10, /*copy_bytes_per_commit=*/32 * 1024);
  rio::Arena replica = rio::Arena::create(config.db_size);
  WireBackup backup(replica);

  WireBackup::ServeResult phase1{};
  ServeThread serve1(pair.client, [&] { phase1 = backup.serve(pair.server, 2000); });
  ASSERT_TRUE(primary.sync_backup());
  Rng rng(42);
  for (int i = 0; i < 30; ++i) commit_random_txn(primary, rng, config.db_size, 256);
  ASSERT_TRUE(await_ack(primary, 30));
  pair.client.close_peer();
  serve1.join();
  ASSERT_EQ(phase1, WireBackup::ServeResult::kConnectionLost);
  ASSERT_EQ(backup.applied_seq(), 30u);
  const std::vector<std::uint8_t> at_30(backup.db(), backup.db() + config.db_size);

  // Link down, primary commits on: checkpoints complete and truncate the
  // history past sequence 30 — without them this would be a full-image
  // rejoin (see FullImageFallbackWhenHistoryEvicted above).
  for (int i = 0; i < 30; ++i) commit_random_txn(primary, rng, config.db_size, 256);
  ASSERT_GE(primary.pipeline().stats().checkpoints_completed, 2u);
  ASSERT_GT(primary.pipeline().stats().redo_truncated_bytes, 0u);

  // Reconnect; the rejoin serve goes through the injector. The install is
  // expected to tear at least once; heartbeats after the chaos window drive
  // the re-request/re-serve until it lands whole.
  pair.reconnect();
  FaultPlan plan;
  plan.seed = 909;
  plan.drop = 0.25;
  plan.duplicate = 0.25;
  FaultInjectingTransport chaos(pair.client, plan);
  ASSERT_TRUE(backup.request_rejoin(pair.server));
  ServeThread serve2(pair.client, [&] { backup.serve(pair.server, 2000); });
  primary.attach_transport(&chaos);
  ASSERT_TRUE(primary.pipeline().handle_rejoin(2000));
  // Chaos window over: converge over the clean transport (re-requests are
  // answered in-band from the heartbeat drain).
  primary.attach_transport(&pair.client);
  EXPECT_TRUE(await_ack(primary, 60));
  pair.client.close_peer();
  serve2.join();

  EXPECT_GT(chaos.stats().faults(), 0u) << "fault schedule never fired";
  EXPECT_EQ(backup.applied_seq(), 60u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0)
      << "backup after faulted checkpoint install != primary bytes";
  EXPECT_EQ(backup.applier().stats().checkpoint_installs, 1u)
      << "exactly one install may verify; torn attempts must not count";
  EXPECT_GE(primary.pipeline().stats().checkpoint_deltas_served, 1u);
  EXPECT_EQ(primary.pipeline().stats().full_syncs_served, 0u)
      << "a checkpoint-covered laggard must never fall off the full-image cliff";
  // The first serve ran under 25% drop across ~10+ frames: it tore, and the
  // applier recovered by aborting (never by installing garbage).
  EXPECT_GE(backup.applier().stats().checkpoint_aborts, 1u);
}

TEST(Fencing, SplitBrainOldPrimaryIsFencedThenRejoins) {
  // The split-brain regression: a paused-then-resumed primary keeps
  // committing in the old epoch after the backup promoted. Its frames must
  // be rejected wholesale (not one byte lands), it must learn it is fenced,
  // and it must be able to rejoin the new primary as a backup.
  LoopbackPair pair;
  core::StoreConfig config;
  config.db_size = 128 * 1024;

  cluster::Membership mem_a(0, cluster::Role::kPrimary);
  cluster::Membership mem_b(1, cluster::Role::kBackup);

  rio::Arena arena_a =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary primary_a(arena_a, config, &pair.client, /*format=*/true, &mem_a);
  rio::Arena replica_b = rio::Arena::create(config.db_size);
  WireBackup backup_b(replica_b, &mem_b, /*node_id=*/1);

  WireBackup::ServeResult phase1{};
  ServeThread serve1(pair.client, [&] {
    phase1 = backup_b.serve(pair.server, WireBackup::ServeOptions{150, nullptr});
  });
  ASSERT_TRUE(primary_a.sync_backup());
  Rng rng_a(1);
  for (int i = 0; i < 100; ++i) commit_random_txn(primary_a, rng_a, config.db_size);
  // A "pauses" (GC stall, VM freeze): silence makes B declare it dead.
  serve1.join();
  ASSERT_EQ(phase1, WireBackup::ServeResult::kPrimaryFailed);
  ASSERT_EQ(backup_b.applied_seq(), 100u);

  mem_b.take_over();
  ASSERT_EQ(mem_b.view().epoch, 2u);
  const std::uint32_t crc_at_takeover = Crc32::of(backup_b.db(), config.db_size);

  // B keeps policing the old connection while A, back from its pause,
  // resumes committing in epoch 1.
  WireBackup::ServeResult phase2{};
  ServeThread serve2(pair.client, [&] {
    phase2 = backup_b.serve(pair.server, WireBackup::ServeOptions{400, nullptr});
  });
  int stale_commits = 0;
  for (; stale_commits < 50 && !primary_a.pipeline().fenced(); ++stale_commits) {
    commit_random_txn(primary_a, rng_a, config.db_size);
    usleep(5000);
  }
  serve2.join();

  EXPECT_TRUE(primary_a.pipeline().fenced());
  EXPECT_EQ(primary_a.pipeline().fenced_by_epoch(), 2u);
  EXPECT_EQ(phase2, WireBackup::ServeResult::kPrimaryFailed);
  EXPECT_GT(backup_b.applier().stats().stale_fenced, 0u);
  // Not a single stale write reached the promoted node.
  EXPECT_EQ(backup_b.applied_seq(), 100u);
  EXPECT_EQ(Crc32::of(backup_b.db(), config.db_size), crc_at_takeover);
  // A committed locally past the takeover point: its state diverged.
  EXPECT_GT(primary_a.committed_seq(), 100u);

  // A demotes itself and rejoins with its own (divergent) state. B promotes
  // its replica and becomes the wire primary, remembering the lineage: the
  // shared prefix with epoch-1 state ends at sequence 100.
  mem_a.demote_to_backup(primary_a.pipeline().fenced_by_epoch());
  EXPECT_EQ(mem_a.view().epoch, 2u);
  rio::Arena rejoin_arena = rio::Arena::create(config.db_size);
  WireBackup rejoiner_a(rejoin_arena, &mem_a, /*node_id=*/0);
  rejoiner_a.applier().seed(primary_a.db(), config.db_size, primary_a.committed_seq(),
                            /*state_epoch=*/1);

  sim::MemBus scratch_bus;
  rio::Arena arena_b =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  { auto promoted = backup_b.promote(scratch_bus, arena_b, config); }
  WirePrimary primary_b(arena_b, config, &pair.server, /*format=*/false, &mem_b,
                        WirePrimary::Lineage{/*prev_epoch=*/1, /*takeover_floor=*/100});
  primary_b.recover();
  ASSERT_EQ(primary_b.committed_seq(), 100u);

  // Rejoin over the still-open connection. A's sequence is PAST the
  // takeover floor under the old epoch — a delta would smuggle divergent
  // state in, so B must ship the full image.
  ASSERT_TRUE(rejoiner_a.request_rejoin(pair.client));
  ServeThread serve3(pair.server, [&] { rejoiner_a.serve(pair.client, 2000); });
  ASSERT_TRUE(primary_b.pipeline().handle_rejoin(2000));
  EXPECT_EQ(primary_b.pipeline().stats().full_syncs_served, 1u);
  EXPECT_EQ(primary_b.pipeline().stats().deltas_served, 0u);

  Rng rng_b(2);
  for (int i = 0; i < 5; ++i) commit_random_txn(primary_b, rng_b, config.db_size);
  EXPECT_TRUE(await_ack(primary_b, 105));
  pair.server.close_peer();
  serve3.join();

  // Same lineage everywhere: A's divergent suffix is gone.
  EXPECT_EQ(rejoiner_a.applied_seq(), 105u);
  EXPECT_EQ(std::memcmp(rejoiner_a.db(), primary_b.db(), config.db_size), 0);
  // Adopting A as the new backup was a view change: epoch 3, both sides.
  EXPECT_EQ(mem_b.view().epoch, 3u);
  EXPECT_TRUE(mem_b.has_backup(0));
  EXPECT_EQ(mem_a.view().epoch, 3u);
  EXPECT_FALSE(mem_a.is_primary());
}

TEST(Rejoin, FullImageFallbackWhenHistoryEvicted) {
  // A rejoiner whose gap outgrew the primary's bounded redo history cannot
  // be served a delta; the primary must fall back to the full image.
  LoopbackPair pair;
  core::StoreConfig config;
  config.db_size = 64 * 1024;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  // Tiny history: ~2 KB holds only the last handful of 300-byte batches.
  WirePrimary primary(arena, config, &pair.client, /*format=*/true, nullptr,
                      WirePrimary::Lineage{0, 0}, /*redo_history_bytes=*/2048);
  rio::Arena replica = rio::Arena::create(config.db_size);
  WireBackup backup(replica);

  WireBackup::ServeResult phase1{};
  ServeThread serve1(pair.client, [&] { phase1 = backup.serve(pair.server, 2000); });
  ASSERT_TRUE(primary.sync_backup());
  Rng rng(9);
  for (int i = 0; i < 30; ++i) commit_random_txn(primary, rng, config.db_size, 256);
  ASSERT_TRUE(await_ack(primary, 30));
  pair.client.close_peer();
  serve1.join();
  ASSERT_EQ(phase1, WireBackup::ServeResult::kConnectionLost);
  ASSERT_EQ(backup.applied_seq(), 30u);

  // The link stays down while the primary commits on: the history evicts
  // everything near sequence 30.
  for (int i = 0; i < 30; ++i) commit_random_txn(primary, rng, config.db_size, 256);

  pair.reconnect();
  ASSERT_TRUE(backup.request_rejoin(pair.server));
  ServeThread serve2(pair.client, [&] { backup.serve(pair.server, 2000); });
  primary.attach_transport(&pair.client);
  ASSERT_TRUE(primary.pipeline().handle_rejoin(2000));
  EXPECT_EQ(primary.pipeline().stats().full_syncs_served, 1u);
  EXPECT_EQ(primary.pipeline().stats().deltas_served, 0u);
  EXPECT_TRUE(await_ack(primary, 60));
  pair.client.close_peer();
  serve2.join();

  EXPECT_EQ(backup.applied_seq(), 60u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);
}

}  // namespace
}  // namespace vrep::net
