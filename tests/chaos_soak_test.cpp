// Chaos soak: a primary/backup pair runs Debit-Credit under a randomized
// (but seeded, reproducible) fault schedule — drops, delays, duplicates,
// bit-flips, torn frames, spontaneous disconnects — through repeated
// hard-kill failovers and rejoins. At the end, the survivor's database must
// be byte-identical (CRC32) to a fault-free oracle run of the same
// transaction sequence.
//
// Determinism across 1-safe loss: commit returns before the batch is on the
// wire, so a crash loses the trailing transactions on purpose. The driver
// snapshots the workload RNG before every transaction; after a failover at
// survivor sequence K it rewinds to the snapshot for K+1 and re-executes the
// lost tail on the new primary. Because the promoted store continues the
// replicated sequence numbering (WireBackup::promote seeds committed_seq,
// which the Debit-Credit history ring derives its slot from), the re-run is
// bit-identical to what the oracle did — which is exactly the guarantee a
// client-side retry log would give a real 1-safe deployment.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "core/v3_inline_log.hpp"
#include "net/fault_transport.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "repl/active.hpp"
#include "shard/sharded_cluster.hpp"
#include "sim/alpha_cost_model.hpp"
#include "sim/node.hpp"
#include "util/backoff.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "workload/debit_credit.hpp"

namespace vrep::net {
namespace {

constexpr std::size_t kDbSize = 1u << 20;
constexpr int kTxns = 300;                       // >= 200 (acceptance floor)
constexpr int kKillAt[] = {75, 150, 225};        // 3 failover/rejoin cycles
constexpr std::uint64_t kWorkloadSeed = 20260806;

FaultPlan soak_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.03;
  plan.delay = 0.02;
  plan.max_delay_us = 500;
  plan.duplicate = 0.03;
  plan.bitflip = 0.01;
  plan.truncate = 0.005;
  plan.disconnect = 0.005;
  plan.start_after_frames = 8;  // hello + four 256 KB image chunks + slack
  return plan;
}

// One replica "process". The listener lives for the whole test (its port is
// the node's stable address); everything else is rebuilt as the node changes
// role, like a restarted process would.
struct Node {
  TcpTransport listener;
  TcpTransport dial;
  std::unique_ptr<FaultInjectingTransport> chaos;
  std::unique_ptr<cluster::Membership> membership;
  std::unique_ptr<rio::Arena> store_arena;    // primary role
  std::unique_ptr<WirePrimary> primary;       // primary role
  std::unique_ptr<rio::Arena> replica_arena;  // backup role
  std::unique_ptr<WireBackup> backup;         // backup role
};

// Backup-side service loop: accept the primary, announce our applied
// sequence, serve; ride out connection losses by re-accepting (the primary
// reconnects with backoff), and declare the primary failed only when no
// replacement connection shows up.
void backup_session(WireBackup* backup, TcpTransport* transport, int node_id) {
  (void)node_id;
  if (!transport->accept_peer(10'000)) return;
  backup->request_rejoin(*transport);
  while (true) {
    const auto result = backup->serve(*transport, WireBackup::ServeOptions{400, nullptr});
    if (result == WireBackup::ServeResult::kConnectionLost) {
      if (transport->accept_peer(1'500)) {
        backup->request_rejoin(*transport);
        continue;
      }
    }
    return;  // kPrimaryFailed, or nobody reconnected: takeover time
  }
}

TEST(ChaosSoak, SurvivorMatchesFaultFreeOracle) {
  const core::StoreConfig config = wl::suggest_config(wl::WorkloadKind::kDebitCredit, kDbSize);
  wl::DebitCredit bank(kDbSize);

  // ---- Oracle: the same transaction sequence, no replication, no faults.
  sim::MemBus oracle_bus;
  rio::Arena oracle_arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  core::InlineLogStore oracle(oracle_bus, oracle_arena, config, /*format=*/true);
  bank.initialize(oracle);
  {
    Rng rng(kWorkloadSeed);
    for (int i = 0; i < kTxns; ++i) bank.run_txn(oracle, rng);
  }
  ASSERT_EQ(bank.check_consistency(oracle), "");
  const std::uint32_t oracle_crc = Crc32::of(oracle.db(), kDbSize);

  // ---- Chaos run.
  Node node[2];
  ASSERT_TRUE(node[0].listener.listen(0));
  ASSERT_TRUE(node[1].listener.listen(0));

  // Node 0 boots as primary, node 1 as backup.
  int cur = 0;
  node[0].membership = std::make_unique<cluster::Membership>(0, cluster::Role::kPrimary);
  node[0].store_arena = std::make_unique<rio::Arena>(
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config)));
  node[0].chaos = std::make_unique<FaultInjectingTransport>(node[0].dial, soak_plan(1));
  node[0].primary = std::make_unique<WirePrimary>(*node[0].store_arena, config, nullptr,
                                                  /*format=*/true, node[0].membership.get());
  bank.initialize(*node[0].primary);

  node[1].membership = std::make_unique<cluster::Membership>(1, cluster::Role::kBackup);
  node[1].replica_arena = std::make_unique<rio::Arena>(rio::Arena::create(kDbSize));
  node[1].backup =
      std::make_unique<WireBackup>(*node[1].replica_arena, node[1].membership.get(), 1);
  std::thread server(backup_session, node[1].backup.get(), &node[1].listener, 1);

  Backoff backoff({/*base_ms=*/5, /*max_ms=*/50, /*multiplier=*/2.0, /*jitter=*/0.5}, 99);
  // Dial the backup and reattach after any fault-induced disconnect. One
  // attempt per call; commits never wait on the link (1-safe).
  auto ensure_link = [&](int other) {
    WirePrimary& p = *node[cur].primary;
    if (p.pipeline().connection_alive()) return;
    const auto delay = backoff.next_delay_ms();
    usleep(static_cast<useconds_t>(*delay * 1000));
    if (node[cur].dial.connect_to("127.0.0.1", node[other].listener.bound_port(), 300)) {
      p.attach_transport(node[cur].chaos.get());
      if (p.pipeline().handle_rejoin(1'500)) backoff.reset();
    }
  };

  // rng snapshots: snap[s] is the generator state just before the
  // transaction that commits as sequence s.
  std::vector<Rng> snap(static_cast<std::size_t>(kTxns) + 2, Rng(0));
  Rng rng(kWorkloadSeed);
  std::uint64_t next_seq = 1;
  int failovers = 0;
  std::uint64_t total_faults = 0;
  std::vector<std::uint64_t> takeover_seqs;

  // Watermark-read audit, threaded through the whole soak: after every
  // transaction a "client" reads the backup at min_seq = the primary's
  // advertised acked watermark (exactly what the async front end uses to
  // pick a replica). Served reads must satisfy at_seq >= min_seq
  // (read-your-writes), never exceed what the primary has committed, and
  // be monotone ACROSS failovers — a served at_seq can never go backwards,
  // because backups only ever serve their applied prefix, which is by
  // definition the surviving lineage. That is the "no read observes a
  // rolled-back sequence" acceptance bar, under the full fault schedule.
  std::uint64_t last_served_at_seq = 0;
  int reads_ok = 0;
  auto audit_read = [&] {
    const std::uint64_t min_seq = node[cur].primary->pipeline().backup_acked_seq();
    if (min_seq == 0) return;  // rejoin handshake not done in this epoch yet
    std::uint8_t out[64];
    const repl::RedoApplier::ReadResult r =
        node[cur ^ 1].backup->read(0, sizeof out, min_seq, out);
    if (r.status == repl::RedoApplier::ReadStatus::kLagging) return;
    ASSERT_EQ(r.status, repl::RedoApplier::ReadStatus::kOk);
    ASSERT_GE(r.at_seq, min_seq) << "served read older than the acked watermark";
    ASSERT_LE(r.at_seq, node[cur].primary->committed_seq())
        << "read observed a sequence the primary never committed";
    ASSERT_GE(r.at_seq, last_served_at_seq) << "served watermark went backwards";
    last_served_at_seq = r.at_seq;
    ++reads_ok;
  };

  std::vector<int> phases(std::begin(kKillAt), std::end(kKillAt));
  phases.push_back(kTxns);  // final phase: run to the end, no kill
  for (const int phase_end : phases) {
    ensure_link(cur ^ 1);
    while (next_seq <= static_cast<std::uint64_t>(phase_end)) {
      snap[next_seq] = rng;
      if (!node[cur].primary->pipeline().connection_alive()) ensure_link(cur ^ 1);
      bank.run_txn(*node[cur].primary, rng);
      ++next_seq;
      if (next_seq % 16 == 0) node[cur].primary->pipeline().send_heartbeat();
      audit_read();
    }
    // Also snapshot the state *after* the phase's last transaction: if the
    // backup is fully caught up at the kill, the rewind target is
    // snap[phase_end + 1], which no execution has recorded yet.
    snap[next_seq] = rng;
    if (phase_end == kTxns) break;

    // ---- Hard-kill the primary: socket torn, process never heard from
    // again. The backup's accept window expires and it takes over.
    const int dead = cur;
    const int heir = cur ^ 1;
    total_faults += node[dead].chaos->stats().faults();
    node[dead].chaos->close_peer();
    server.join();

    const std::uint64_t takeover_seq = node[heir].backup->applied_seq();
    takeover_seqs.push_back(takeover_seq);
    ASSERT_LE(takeover_seq, node[dead].primary->committed_seq());
    ASSERT_GT(takeover_seq, 0u);
    const std::uint64_t shared_epoch = node[heir].backup->applier().state_epoch();

    // Takeover mid-read: a client caught between the kill and the
    // promotion. Its ticket at the heir's watermark is served exactly
    // there; a ticket from the dead primary's unreplicated 1-safe tail
    // must bounce (kLagging), never be answered with older bytes — the
    // bounce is what sends that client back to re-commit on the heir.
    {
      std::uint8_t out[64];
      repl::RedoApplier::ReadResult r =
          node[heir].backup->read(0, sizeof out, takeover_seq, out);
      ASSERT_EQ(r.status, repl::RedoApplier::ReadStatus::kOk);
      ASSERT_EQ(r.at_seq, takeover_seq);
      ASSERT_GE(r.at_seq, last_served_at_seq);
      last_served_at_seq = r.at_seq;
      ++reads_ok;
      const std::uint64_t lost_tail = node[dead].primary->committed_seq();
      if (lost_tail > takeover_seq) {
        r = node[heir].backup->read(0, sizeof out, lost_tail, out);
        ASSERT_EQ(r.status, repl::RedoApplier::ReadStatus::kLagging)
            << "a rolled-back ticket was served";
        ASSERT_EQ(r.at_seq, takeover_seq);
      }
    }

    node[heir].membership->take_over();
    node[heir].store_arena = std::make_unique<rio::Arena>(
        rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config)));
    {
      sim::MemBus scratch;
      auto promoted = node[heir].backup->promote(scratch, *node[heir].store_arena, config);
      ASSERT_EQ(promoted->committed_seq(), takeover_seq);
    }
    node[heir].chaos = std::make_unique<FaultInjectingTransport>(
        node[heir].dial, soak_plan(100 + static_cast<std::uint64_t>(failovers)));
    node[heir].primary = std::make_unique<WirePrimary>(
        *node[heir].store_arena, config, nullptr, /*format=*/false, node[heir].membership.get(),
        WirePrimary::Lineage{shared_epoch, takeover_seq});
    node[heir].primary->recover();
    node[heir].backup.reset();

    // ---- The dead node "restarts" as a backup, keeping its on-disk image:
    // it rejoins from its own last applied state. Its divergent 1-safe tail
    // (committed locally, never replicated) makes the new primary ship a
    // full image; had it died exactly in sync, a delta would do.
    const std::uint64_t dead_epoch = node[dead].primary->pipeline().epoch();
    node[dead].membership = std::make_unique<cluster::Membership>(dead, cluster::Role::kBackup);
    node[dead].replica_arena = std::make_unique<rio::Arena>(rio::Arena::create(kDbSize));
    node[dead].backup =
        std::make_unique<WireBackup>(*node[dead].replica_arena, node[dead].membership.get(),
                                     static_cast<std::uint64_t>(dead));
    node[dead].backup->applier().seed(node[dead].primary->db(), kDbSize,
                                      node[dead].primary->committed_seq(), dead_epoch);
    node[dead].primary.reset();
    node[dead].store_arena.reset();
    server = std::thread(backup_session, node[dead].backup.get(), &node[dead].listener, dead);

    // ---- Resume the workload on the survivor: rewind the generator and
    // re-execute the lost tail.
    cur = heir;
    next_seq = takeover_seq + 1;
    rng = snap[next_seq];
    backoff.reset();
    ++failovers;
  }

  // ---- Converge: heartbeats carry the committed sequence, so a trailing
  // gap triggers the backup's in-band resync; keep nudging (and healing the
  // link) until it acknowledges everything.
  for (int i = 0; i < 8'000 && node[cur].primary->pipeline().backup_acked_seq() <
                                   static_cast<std::uint64_t>(kTxns);
       ++i) {
    if (!node[cur].primary->pipeline().connection_alive()) ensure_link(cur ^ 1);
    node[cur].primary->pipeline().send_heartbeat();
    usleep(1'000);
  }
  EXPECT_EQ(node[cur].primary->pipeline().backup_acked_seq(), static_cast<std::uint64_t>(kTxns));
  node[cur].chaos->close_peer();
  server.join();
  total_faults += node[cur].chaos->stats().faults();

  // ---- The acceptance bar: >=200 txns, >=3 failover/rejoin cycles, and the
  // survivor's database is byte-identical to the fault-free oracle.
  EXPECT_EQ(failovers, 3);
  RecordProperty("reads_ok", reads_ok);
  EXPECT_GE(reads_ok, 8) << "the watermark-read audit barely exercised the backup";
  EXPECT_EQ(node[cur].primary->committed_seq(), static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(bank.check_consistency(*node[cur].primary), "");
  EXPECT_EQ(Crc32::of(node[cur].primary->db(), kDbSize), oracle_crc);
  if (Crc32::of(node[cur].primary->db(), kDbSize) != oracle_crc) {
    const std::uint8_t* got = node[cur].primary->db();
    const std::uint8_t* want = oracle.db();
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < kDbSize; ++i) {
      if (got[i] != want[i] && diffs++ < 4) {
        ADD_FAILURE() << "diff at off " << i << " got " << int(got[i]) << " want "
                      << int(want[i]);
      }
    }
    ADD_FAILURE() << diffs << " differing bytes of " << kDbSize;
    // The history ring pins each sequence's (account, teller, branch,
    // amount): compare per-seq records to see which txns diverged.
    const std::size_t history_off = kDbSize - (kDbSize / 4);
    int bad_seqs = 0;
    for (int s = 1; s <= kTxns; ++s) {
      const std::size_t off = history_off + static_cast<std::size_t>(s - 1) * 16;
      if (std::memcmp(got + off, want + off, 16) != 0 && bad_seqs++ < 10) {
        std::uint32_t ga, wa;
        std::memcpy(&ga, got + off, 4);
        std::memcpy(&wa, want + off, 4);
        ADD_FAILURE() << "seq " << s << " diverged: account got " << ga << " want " << wa;
      }
    }
    ADD_FAILURE() << bad_seqs << " diverged seqs";
    for (std::size_t f = 0; f < takeover_seqs.size(); ++f) {
      ADD_FAILURE() << "failover " << f << " took over at seq " << takeover_seqs[f];
    }
  }
  // The rejoined backup tracked the survivor all the way, too.
  EXPECT_EQ(node[cur ^ 1].backup->applied_seq(), static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(std::memcmp(node[cur ^ 1].backup->db(), node[cur].primary->db(), kDbSize), 0);
  // And the chaos was real: the schedule actually perturbed the stream.
  EXPECT_GT(total_faults, 0u);
}

// ---------------------------------------------------------------------------
// Cascading failover: a primary with TWO ordered backups loses the primary,
// promotes the most-caught-up backup, loses THAT one mid-stream, and the last
// survivor finishes the workload alone. Its database must be byte-identical
// to a fault-free oracle — on all three carriers (TCP, loopback, sim ring).
//
// The wire legs run 2-safe (quorum 2, then quorum 1 after the first kill), so
// every kill has a zero-loss window and no rewind is needed. The sim leg runs
// the paper's 1-safe mode and exercises the RNG-snapshot rewind instead.

constexpr int kCascadeTxns = 120;
constexpr int kCascadeKill1 = 40;
constexpr int kCascadeKill2 = 80;

std::uint32_t cascade_oracle_crc(wl::DebitCredit& bank, const core::StoreConfig& config) {
  sim::MemBus bus;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  core::InlineLogStore oracle(bus, arena, config, /*format=*/true);
  bank.initialize(oracle);
  Rng rng(kWorkloadSeed);
  for (int i = 0; i < kCascadeTxns; ++i) bank.run_txn(oracle, rng);
  EXPECT_EQ(bank.check_consistency(oracle), "");
  return Crc32::of(oracle.db(), kDbSize);
}

// A connected transport pair; the concrete carrier differs per test leg.
struct OwnedPair {
  std::vector<std::unique_ptr<Transport>> owned;
  Transport* primary_end = nullptr;
  Transport* backup_end = nullptr;
};

OwnedPair tcp_pair() {
  OwnedPair p;
  auto server = std::make_unique<TcpTransport>();
  auto client = std::make_unique<TcpTransport>();
  EXPECT_TRUE(server->listen(0));
  EXPECT_TRUE(client->connect_to("127.0.0.1", server->bound_port(), 2'000));
  EXPECT_TRUE(server->accept_peer(2'000));
  p.primary_end = client.get();
  p.backup_end = server.get();
  p.owned.push_back(std::move(server));
  p.owned.push_back(std::move(client));
  return p;
}

OwnedPair inproc_pair() {
  OwnedPair p;
  auto a = std::make_unique<InprocTransport>();
  auto b = std::make_unique<InprocTransport>();
  InprocTransport::pair(*a, *b);
  p.primary_end = a.get();
  p.backup_end = b.get();
  p.owned.push_back(std::move(a));
  p.owned.push_back(std::move(b));
  return p;
}

// Serve until the primary dies (close_peer from our side of the test) or
// fails. No fault injection here, so there are no transient errors to ride
// out; the first terminal event ends the session.
void cascade_session(WireBackup* backup, Transport* transport) {
  backup->request_rejoin(*transport);
  backup->serve(*transport, WireBackup::ServeOptions{2'000, nullptr});
}

void run_wire_cascade(OwnedPair (*make_pair)()) {
  const core::StoreConfig config = wl::suggest_config(wl::WorkloadKind::kDebitCredit, kDbSize);
  wl::DebitCredit bank(kDbSize);
  const std::uint32_t oracle_crc = cascade_oracle_crc(bank, config);

  // ---- Phase 1: node 0 primary, nodes 1 and 2 ordered backups, 2-safe with
  // quorum 2 (every commit durable on all three replicas before it returns).
  cluster::Membership mem0(0, cluster::Role::kPrimary);
  cluster::Membership mem1(1, cluster::Role::kBackup);
  cluster::Membership mem2(2, cluster::Role::kBackup);
  mem0.adopt_backup(1);
  mem0.adopt_backup(2);
  ASSERT_EQ(mem0.view().backups, (std::vector<int>{1, 2}));

  OwnedPair link1 = make_pair();
  OwnedPair link2 = make_pair();
  rio::Arena arena0 =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary p0(arena0, config, link1.primary_end, /*format=*/true, &mem0);
  ASSERT_EQ(p0.add_backup(link2.primary_end), 1u);
  bank.initialize(p0);

  rio::Arena rep1 = rio::Arena::create(kDbSize);
  rio::Arena rep2 = rio::Arena::create(kDbSize);
  WireBackup b1(rep1, &mem1, 1);
  WireBackup b2(rep2, &mem2, 2);
  std::thread t1(cascade_session, &b1, link1.backup_end);
  std::thread t2(cascade_session, &b2, link2.backup_end);
  ASSERT_TRUE(p0.pipeline().handle_rejoin(0, 5'000));
  ASSERT_TRUE(p0.pipeline().handle_rejoin(1, 5'000));

  p0.set_two_safe(true);
  p0.pipeline().set_quorum(2);
  Rng rng(kWorkloadSeed);
  for (int i = 0; i < kCascadeKill1; ++i) bank.run_txn(p0, rng);
  ASSERT_EQ(p0.last_commit_outcome(), repl::RedoPipeline::CommitOutcome::kQuorumDurable);
  ASSERT_EQ(p0.pipeline().quorum_acked_seq(), static_cast<std::uint64_t>(kCascadeKill1));
  ASSERT_EQ(p0.pipeline().stats().two_safe_degraded, 0u);

  // ---- Kill the primary. Quorum-2 2-safety means ZERO loss window: both
  // backups hold every committed transaction.
  link1.primary_end->close_peer();
  link2.primary_end->close_peer();
  t1.join();
  t2.join();
  ASSERT_EQ(b1.applied_seq(), static_cast<std::uint64_t>(kCascadeKill1));
  ASSERT_EQ(b2.applied_seq(), static_cast<std::uint64_t>(kCascadeKill1));

  // ---- Ordered failover: equally caught up, so the FIRST backup in the
  // view (node 1) is promoted; node 2 rejoins it (a no-op delta, not an
  // image — they share lineage and nothing was lost).
  const std::uint64_t takeover_seq = b1.applied_seq();
  const std::uint64_t shared_epoch = b1.applier().state_epoch();
  mem1.take_over();
  OwnedPair link3 = make_pair();
  rio::Arena arena1 =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  {
    sim::MemBus scratch;
    auto promoted = b1.promote(scratch, arena1, config);
    ASSERT_EQ(promoted->committed_seq(), takeover_seq);
  }
  WirePrimary p1(arena1, config, link3.primary_end, /*format=*/false, &mem1,
                 WirePrimary::Lineage{shared_epoch, takeover_seq});
  p1.recover();
  std::thread t3(cascade_session, &b2, link3.backup_end);
  ASSERT_TRUE(p1.pipeline().handle_rejoin(0, 5'000));
  EXPECT_EQ(p1.pipeline().stats().deltas_served, 1u);
  EXPECT_EQ(p1.pipeline().stats().full_syncs_served, 0u);

  // ---- Phase 2: the promoted pair continues 2-safe (quorum 1 == classic).
  p1.set_two_safe(true);
  for (int i = kCascadeKill1; i < kCascadeKill2; ++i) bank.run_txn(p1, rng);
  ASSERT_EQ(p1.committed_seq(), static_cast<std::uint64_t>(kCascadeKill2));
  ASSERT_EQ(p1.pipeline().quorum_acked_seq(), static_cast<std::uint64_t>(kCascadeKill2));

  // ---- Kill the promoted primary too (cascading failure). The last
  // survivor promotes to a standalone store and finishes the run.
  link3.primary_end->close_peer();
  t3.join();
  ASSERT_EQ(b2.applied_seq(), static_cast<std::uint64_t>(kCascadeKill2));
  mem2.take_over();
  rio::Arena arena2 =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  sim::MemBus scratch;
  auto survivor = b2.promote(scratch, arena2, config);
  ASSERT_EQ(survivor->committed_seq(), static_cast<std::uint64_t>(kCascadeKill2));
  for (int i = kCascadeKill2; i < kCascadeTxns; ++i) bank.run_txn(*survivor, rng);

  ASSERT_EQ(survivor->committed_seq(), static_cast<std::uint64_t>(kCascadeTxns));
  EXPECT_EQ(bank.check_consistency(*survivor), "");
  EXPECT_EQ(Crc32::of(survivor->db(), kDbSize), oracle_crc);
}

TEST(ChaosCascade, TcpCascadingFailoverMatchesOracle) { run_wire_cascade(&tcp_pair); }

TEST(ChaosCascade, LoopbackCascadingFailoverMatchesOracle) { run_wire_cascade(&inproc_pair); }

// Simulated Memory Channel leg: two co-simulated backups behind one primary,
// 1-safe (the paper's mode), so each kill can lose a trailing window — the
// driver rewinds the workload RNG to the survivor's sequence and re-executes
// the lost tail, exactly like the TCP soak above.
TEST(ChaosCascade, SimRingCascadingFailoverMatchesOracle) {
  const core::StoreConfig config = wl::suggest_config(wl::WorkloadKind::kDebitCredit, kDbSize);
  wl::DebitCredit bank(kDbSize);
  const std::uint32_t oracle_crc = cascade_oracle_crc(bank, config);

  const sim::AlphaCostModel cost;
  const auto layout = repl::ActiveBackupLayout::make(kDbSize);

  // ---- Phase 1: primary ships to two ring shadows on one fabric.
  sim::McFabric fabric(cost.link);
  sim::Node pnode(cost, 1, &fabric);
  sim::Node bnode(cost, 2, nullptr);
  rio::Arena parena =
      rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(config, layout, 2));
  rio::Arena barena1 = rio::Arena::create(layout.arena_bytes());
  rio::Arena barena2 = rio::Arena::create(layout.arena_bytes());
  auto b1 = std::make_unique<repl::ActiveBackup>(bnode.cpu(0), barena1, layout, fabric);
  auto b2 = std::make_unique<repl::ActiveBackup>(bnode.cpu(1), barena2, layout, fabric);
  auto p0 = std::make_unique<repl::ActivePrimary>(pnode.cpu().bus(), parena, barena1, config,
                                                  layout, b1.get(), /*format=*/true);
  ASSERT_EQ(p0->add_backup(barena2, b2.get()), 1u);
  bank.initialize(*p0);
  p0->flush_initial_state();
  // Initial image seeding is out of band, as in the harness experiments.
  std::memcpy(b1->db(), p0->db(), kDbSize);
  std::memcpy(b2->db(), p0->db(), kDbSize);

  std::vector<Rng> snap(static_cast<std::size_t>(kCascadeTxns) + 2, Rng(0));
  Rng rng(kWorkloadSeed);
  std::uint64_t next_seq = 1;
  while (next_seq <= static_cast<std::uint64_t>(kCascadeKill1)) {
    snap[next_seq] = rng;
    bank.run_txn(*p0, rng);
    ++next_seq;
  }
  snap[next_seq] = rng;

  // ---- Kill the primary at its current virtual time. Both backups cut the
  // fabric and drain what physically arrived; the most-caught-up one is
  // promoted and the other is reseeded from it (out-of-band image transfer —
  // the sim carrier has no in-band rejoin channel).
  const sim::SimTime crash = pnode.cpu().clock().now();
  const std::uint64_t s1 = b1->takeover(crash);
  const std::uint64_t s2 = b2->takeover(crash);
  ASSERT_LE(s1, p0->committed_seq());
  ASSERT_LE(s2, p0->committed_seq());
  ASSERT_GT(std::max(s1, s2), 0u);
  const bool heir_is_b1 = s1 >= s2;  // ties follow view order
  repl::ActiveBackup* heir = heir_is_b1 ? b1.get() : b2.get();
  rio::Arena& survivor_arena = heir_is_b1 ? barena2 : barena1;
  const std::uint64_t heir_seq = std::max(s1, s2);
  p0.reset();

  // ---- Phase 2: promote the heir onto a fresh node; the survivor reattaches
  // over a new fabric. Its ring region still holds phase-1 bytes — wipe them
  // so the new session's ring decodes from a clean slate.
  sim::McFabric fabric2(cost.link);
  sim::Node pnode2(cost, 1, &fabric2);
  sim::Node bnode2(cost, 1, nullptr);
  std::memset(survivor_arena.data() + layout.ring_offset, 0, layout.ring_capacity);
  auto survivor2 =
      std::make_unique<repl::ActiveBackup>(bnode2.cpu(), survivor_arena, layout, fabric2);
  rio::Arena parena2 =
      rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(config, layout, 1));
  auto p1 = std::make_unique<repl::ActivePrimary>(pnode2.cpu().bus(), parena2, survivor_arena,
                                                  config, layout, survivor2.get(),
                                                  /*format=*/true);
  p1->seed_from(heir->db(), kDbSize, heir_seq);
  std::memcpy(survivor2->db(), heir->db(), kDbSize);
  survivor2->applier().adopt_image(kDbSize, heir_seq, survivor2->applier().epoch());
  b1.reset();
  b2.reset();

  next_seq = heir_seq + 1;
  rng = snap[next_seq];  // rewind: re-execute the 1-safe loss window
  while (next_seq <= static_cast<std::uint64_t>(kCascadeKill2)) {
    snap[next_seq] = rng;
    bank.run_txn(*p1, rng);
    ++next_seq;
  }
  snap[next_seq] = rng;

  // ---- Kill the promoted primary too; the last survivor finishes alone on
  // a standalone Version 3 store that continues the sequence numbering.
  const std::uint64_t s3 = survivor2->takeover(pnode2.cpu().clock().now());
  ASSERT_LE(s3, p1->committed_seq());
  ASSERT_GE(s3, heir_seq);
  p1.reset();

  sim::MemBus standalone_bus;
  rio::Arena sarena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  core::InlineLogStore survivor_store(standalone_bus, sarena, config, /*format=*/true);
  std::memcpy(survivor_store.db(), survivor2->db(), kDbSize);
  survivor_store.seed_committed_seq(s3);

  next_seq = s3 + 1;
  rng = snap[next_seq];
  while (next_seq <= static_cast<std::uint64_t>(kCascadeTxns)) {
    bank.run_txn(survivor_store, rng);
    ++next_seq;
  }
  ASSERT_EQ(survivor_store.committed_seq(), static_cast<std::uint64_t>(kCascadeTxns));
  EXPECT_EQ(bank.check_consistency(survivor_store), "");
  EXPECT_EQ(Crc32::of(survivor_store.db(), kDbSize), oracle_crc);
}

// ---- sharded cascade --------------------------------------------------------
//
// The partitioned multi-primary under cascading shard-primary kills: shard
// 1's primary dies mid-load, later shard 0's does too. The other shards
// never stop committing (their epochs and pipelines are untouched — that is
// the point of per-shard membership), and at the end every shard's
// surviving image must match a fault-free oracle replay of the combined
// history.

// Replay `runs` (seed + remote mix + trace) into flat per-shard images, the
// same deterministic plan stream the cluster drew.
std::vector<std::vector<std::uint8_t>> sharded_oracle(
    const shard::ShardedCluster& cluster,
    const std::vector<std::tuple<std::uint64_t, double,
                                 const shard::ShardedCluster::RunResult*>>& runs) {
  const unsigned n = cluster.num_shards();
  const wl::DebitCredit& workload = cluster.workload();
  const shard::ShardMap map = shard::ShardMap::uniform(n);
  const shard::Router router(map);
  std::vector<std::vector<std::uint8_t>> dbs(
      n, std::vector<std::uint8_t>(cluster.workload_bytes(), 0));
  auto bump = [](std::vector<std::uint8_t>& db, std::size_t off, std::int32_t amount) {
    std::int32_t balance;
    std::memcpy(&balance, db.data() + off, sizeof balance);
    balance += amount;
    std::memcpy(db.data() + off, &balance, sizeof balance);
  };
  for (const auto& [seed, remote_fraction, run] : runs) {
    Rng rng(seed);
    for (const auto& out : run->trace) {
      const shard::TxnDecision d =
          shard::plan_txn(router, workload, n, rng, remote_fraction);
      if (!out.committed) continue;
      auto& home = dbs[d.home];
      bump(dbs[d.cross ? d.remote : d.home], workload.account_offset(d.plan.account),
           d.plan.amount);
      bump(home, workload.teller_offset(d.plan.teller), d.plan.amount);
      bump(home, workload.branch_offset(d.plan.branch), d.plan.amount);
      const wl::DebitCredit::HistoryRecord rec{d.plan.account, d.plan.teller,
                                               d.plan.branch, d.plan.amount};
      std::memcpy(home.data() + workload.history_offset(out.home_seq - 1), &rec,
                  sizeof rec);
    }
  }
  return dbs;
}

TEST(ChaosCascade, ShardedClusterSurvivesCascadingShardPrimaryKills) {
  shard::ShardedConfig config;
  config.shards = 3;
  config.backups_per_shard = 2;  // a promoted shard must stay replicated
  shard::ShardedCluster cluster(config);
  const std::uint64_t base_epoch = 1 + config.backups_per_shard;

  // Load 1: shard 1's primary dies mid-load; shards 0 and 2 keep serving.
  shard::ChaosSchedule chaos;
  chaos.kill_after_txn = 500;
  chaos.point = shard::ChaosSchedule::Point::kBetweenTxns;
  chaos.shard = 1;
  const auto run1 = cluster.run(/*seed=*/31, 1500, /*remote_fraction=*/0.25, chaos);
  EXPECT_EQ(run1.takeovers, 1u);
  // Inline delivery keeps the replicas synchronously covered, so even the
  // kill loses no committed transaction.
  EXPECT_EQ(run1.committed, 1500u);
  EXPECT_GT(cluster.shard_epoch(1), base_epoch);
  EXPECT_EQ(cluster.shard_epoch(0), base_epoch) << "takeover on shard 1 fenced shard 0";
  EXPECT_EQ(cluster.shard_epoch(2), base_epoch);

  // Cascading failure: shard 0's primary dies too; load continues on the
  // twice-degraded cluster.
  cluster.kill_primary(0);
  const auto run2 = cluster.run(/*seed=*/77, 1000, 0.25);
  EXPECT_EQ(run2.committed, 1000u);
  EXPECT_EQ(cluster.takeovers(), 2u);
  EXPECT_EQ(cluster.shard_epoch(2), base_epoch) << "shard 2 was never fenced";

  const auto oracle = sharded_oracle(cluster, {{31, 0.25, &run1}, {77, 0.25, &run2}});
  for (unsigned s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.in_doubt(s), 0u);
    EXPECT_EQ(cluster.check_replicas(s), "") << "shard " << s;
    EXPECT_EQ(cluster.shard_crc(s), Crc32::of(oracle[s].data(), oracle[s].size()))
        << "shard " << s << " surviving image != fault-free oracle";
  }
  EXPECT_EQ(cluster.check_global_consistency(), "");
  EXPECT_EQ(cluster.resolution_conflicts(), 0u);
}

// ---- cascade with a live rebalance threaded through -------------------------
//
// Same cascading-kill schedule, but shard 0 SPLITS mid-load (its upper half
// migrates to a brand-new shard while shard 1's primary dies) and then hands
// its primary off once the migration lands. The oracle replays plan stream
// AND reconfiguration events; the watermark audit checks that every shard's
// committed sequence and every backup's applied watermark only move forward
// across the cutover and the handoff.

// Multi-run, reconfiguration-aware oracle: `map`/`staged` persist across
// runs, each run's events fire at its own 1-based txn indices. Mirrors
// rebalance_test's single-run oracle.
std::vector<std::vector<std::uint8_t>> sharded_rebalance_oracle(
    const shard::ShardedCluster& cluster, unsigned initial_shards,
    const std::vector<std::tuple<std::uint64_t, double,
                                 const shard::ShardedCluster::RunResult*>>& runs) {
  const wl::DebitCredit& workload = cluster.workload();
  shard::ShardMap map = shard::ShardMap::uniform(initial_shards);
  std::optional<shard::ShardMap> staged;
  unsigned n = initial_shards;
  const shard::Router router(map);  // observes the in-place flips below
  std::vector<std::vector<std::uint8_t>> dbs(
      cluster.num_shards(), std::vector<std::uint8_t>(cluster.workload_bytes(), 0));
  auto bump = [](std::vector<std::uint8_t>& db, std::size_t off, std::int32_t amount) {
    std::int32_t balance;
    std::memcpy(&balance, db.data() + off, sizeof balance);
    balance += amount;
    std::memcpy(db.data() + off, &balance, sizeof balance);
  };
  const auto each_moving = [&](const shard::ShardMap& from, const shard::ShardMap& to,
                               auto&& fn) {
    const auto scan = [&](unsigned kind, std::size_t count, auto offset_of) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t h =
            shard::hash_key(shard::ShardedCluster::record_key(kind, i));
        if (from.shard_of(h) != to.shard_of(h)) {
          fn(from.shard_of(h), to.shard_of(h),
             static_cast<std::uint64_t>(offset_of(i)));
        }
      }
    };
    scan(0, workload.num_accounts(),
         [&](std::size_t i) { return workload.account_offset(i); });
    scan(1, workload.num_tellers(),
         [&](std::size_t i) { return workload.teller_offset(i); });
    scan(2, workload.num_branches(),
         [&](std::size_t i) { return workload.branch_offset(i); });
  };

  for (const auto& [seed, remote_fraction, run] : runs) {
    Rng rng(seed);
    std::size_t ei = 0;
    const auto apply_events_at = [&](std::uint64_t txn) {
      while (ei < run->events.size() && run->events[ei].at_txn == txn) {
        const shard::RebalanceEvent& ev = run->events[ei++];
        switch (ev.kind) {
          case shard::RebalanceEvent::Kind::kBegin:
            staged = ev.op.kind == shard::RebalanceOp::Kind::kSplit
                         ? map.split(ev.op.at_hash)
                         : map.merged_out(ev.op.shard);
            n = ev.num_shards;
            break;
          case shard::RebalanceEvent::Kind::kCutover:
            each_moving(map, *staged,
                        [&](shard::ShardId src, shard::ShardId dst, std::uint64_t off) {
                          std::int32_t v;
                          std::memcpy(&v, dbs[src].data() + off, sizeof v);
                          bump(dbs[dst], off, v);
                          std::memset(dbs[src].data() + off, 0, sizeof v);
                        });
            map = *staged;
            staged.reset();
            n = ev.num_shards;
            break;
          case shard::RebalanceEvent::Kind::kHandoff:
          case shard::RebalanceEvent::Kind::kAddBackup:
            break;  // membership only — no data effect
        }
      }
    };
    std::uint64_t i = 1;
    for (const auto& out : run->trace) {
      apply_events_at(i);
      const shard::TxnDecision d =
          shard::plan_txn(router, workload, n, rng, remote_fraction);
      EXPECT_EQ(d.home, out.home) << "oracle diverged from the plan stream at txn " << i;
      ++i;
      if (!out.committed) continue;
      auto& home = dbs[d.home];
      bump(dbs[d.cross ? d.remote : d.home], workload.account_offset(d.plan.account),
           d.plan.amount);
      bump(home, workload.teller_offset(d.plan.teller), d.plan.amount);
      bump(home, workload.branch_offset(d.plan.branch), d.plan.amount);
      const wl::DebitCredit::HistoryRecord rec{d.plan.account, d.plan.teller,
                                               d.plan.branch, d.plan.amount};
      std::memcpy(home.data() + workload.history_offset(out.home_seq - 1), &rec,
                  sizeof rec);
    }
    apply_events_at(i);  // ops that completed after the stream drained
  }
  return dbs;
}

TEST(ChaosCascade, LiveRebalanceThreadedThroughTheCascadeStaysConsistent) {
  shard::ShardedConfig config;
  config.shards = 3;
  config.backups_per_shard = 2;
  shard::ShardedCluster cluster(config);

  // Load 1: shard 0 splits at txn 300 and hands off its primary once the
  // migration lands; shard 1's primary dies at txn 500, mid-migration.
  shard::ChaosSchedule chaos;
  chaos.kill_after_txn = 500;
  chaos.point = shard::ChaosSchedule::Point::kBetweenTxns;
  chaos.shard = 1;
  shard::RebalanceScript script;
  script.chunk_records = 16;
  script.ops.push_back({shard::RebalanceOp::Kind::kSplit, /*at_txn=*/300, /*shard=*/0, 0});
  script.ops.push_back(
      {shard::RebalanceOp::Kind::kHandoff, /*at_txn=*/1100, /*shard=*/0, 0});
  const auto run1 = cluster.run(/*seed=*/31, 1500, /*remote_fraction=*/0.25, chaos, script);
  EXPECT_EQ(run1.committed, 1500u) << "neither the kill nor the migration may lose commits";
  EXPECT_EQ(run1.takeovers, 1u);
  ASSERT_EQ(cluster.num_shards(), 4u);
  EXPECT_EQ(cluster.rebalance_counters().cutovers, 1u);
  EXPECT_EQ(cluster.rebalance_counters().handoffs, 1u);
  EXPECT_EQ(cluster.full_syncs_served(0), 0u)
      << "a planned handoff must rejoin by delta, never by full image";

  // Watermark audit, phase boundary 1: every backup sits exactly at its
  // shard's committed sequence — across the cutover AND the handoff.
  std::vector<std::uint64_t> floor(cluster.num_shards());
  for (unsigned s = 0; s < cluster.num_shards(); ++s) {
    floor[s] = cluster.shard_committed(s);
    for (std::size_t b = 0; b < cluster.backup_count(s); ++b) {
      EXPECT_EQ(cluster.backup_applied(s, b), floor[s])
          << "shard " << s << " backup " << b << " watermark lagged the cutover";
    }
  }

  // Load 2 on the rebalanced, once-degraded cluster.
  const auto run2 = cluster.run(/*seed=*/77, 1000, 0.25);
  EXPECT_EQ(run2.committed, 1000u);
  EXPECT_EQ(cluster.takeovers(), 1u) << "load 2 saw no kill";

  // Watermark audit, phase boundary 2: monotone — no shard's committed
  // sequence regressed, and every backup caught back up.
  for (unsigned s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_GE(cluster.shard_committed(s), floor[s])
        << "shard " << s << " watermark went backwards";
    for (std::size_t b = 0; b < cluster.backup_count(s); ++b) {
      EXPECT_EQ(cluster.backup_applied(s, b), cluster.shard_committed(s))
          << "shard " << s << " backup " << b;
    }
  }

  const auto oracle =
      sharded_rebalance_oracle(cluster, config.shards, {{31, 0.25, &run1}, {77, 0.25, &run2}});
  for (unsigned s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.in_doubt(s), 0u);
    EXPECT_EQ(cluster.check_replicas(s), "") << "shard " << s;
    EXPECT_EQ(cluster.shard_crc(s), Crc32::of(oracle[s].data(), oracle[s].size()))
        << "shard " << s << " surviving image != reconfiguration-aware oracle";
  }
  EXPECT_EQ(cluster.check_global_consistency(), "");
  EXPECT_EQ(cluster.resolution_conflicts(), 0u);
}

}  // namespace
}  // namespace vrep::net
