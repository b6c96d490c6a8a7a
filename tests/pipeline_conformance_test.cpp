// Cross-backend conformance: the SAME committed history driven through all
// three ReplicationLink backends — simulated Memory Channel ring, TCP, and
// in-process loopback — must leave every surviving backup with the identical
// database image (CRC-equal to the fault-free oracle). The loopback leg also
// runs under the fault injector to prove the protocol engine converges to
// the same bytes when the carrier drops, duplicates, and delays frames.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "net/fault_transport.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "repl/active.hpp"
#include "repl/inline_link.hpp"
#include "repl/link.hpp"
#include "repl/pipeline.hpp"
#include "rio/arena.hpp"
#include "shard/rebalancer.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_cluster.hpp"
#include "sim/node.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace vrep {
namespace {

using core::StoreConfig;

constexpr std::size_t kDbSize = 64 * 1024;
constexpr int kTxns = 200;

StoreConfig conformance_config() {
  StoreConfig config;
  config.db_size = kDbSize;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  return config;
}

// A Debit-Credit-flavoured history, generated ONCE so every backend replays
// bit-identical transactions: each transaction updates three fixed-size
// "balance" records at pseudo-random offsets and appends one larger
// "history" record.
struct TxnWrite {
  std::uint64_t off;
  std::vector<std::uint8_t> data;
};
using Txn = std::vector<TxnWrite>;

std::vector<Txn> debit_credit_history() {
  std::vector<Txn> history;
  Rng rng(20260806);
  for (int i = 0; i < kTxns; ++i) {
    Txn txn;
    for (int r = 0; r < 3; ++r) {  // branch / teller / account balances
      const std::size_t len = 8;
      const std::size_t off = rng.below(kDbSize - len) & ~std::size_t{7};
      std::vector<std::uint8_t> data(len);
      const std::uint64_t v = rng.next_u64() | 1;
      std::memcpy(data.data(), &v, 8);
      txn.push_back(TxnWrite{off, std::move(data)});
    }
    {  // history record
      const std::size_t len = 48;
      const std::size_t off = rng.below(kDbSize - len);
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
      txn.push_back(TxnWrite{off, std::move(data)});
    }
    history.push_back(std::move(txn));
  }
  return history;
}

const std::vector<Txn>& history() {
  static const std::vector<Txn> h = debit_credit_history();
  return h;
}

void replay(core::TransactionStore& store, const std::vector<Txn>& txns) {
  std::uint8_t* db = store.db();
  for (const auto& txn : txns) {
    store.begin_transaction();
    for (const auto& w : txn) {
      store.set_range(db + w.off, w.data.size());
      store.bus().write(db + w.off, w.data.data(), w.data.size(),
                        sim::TrafficClass::kModified);
    }
    store.commit_transaction();
  }
}

// ---- simulated Memory Channel backend -------------------------------------

struct SimResult {
  std::uint32_t primary_crc;
  std::uint32_t backup_crc;
  std::uint64_t applied_seq;
};

SimResult run_sim_backend(unsigned window = 1, unsigned group = 1, bool two_safe = false) {
  const StoreConfig config = conformance_config();
  sim::AlphaCostModel cost;
  sim::McFabric fabric(cost.link);
  sim::Node primary_node(cost, 1, &fabric);
  sim::Node backup_node(cost, 1, nullptr);
  const auto layout = repl::ActiveBackupLayout::make(config.db_size, 1 << 16);
  rio::Arena primary_arena =
      rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(config, layout));
  rio::Arena backup_arena = rio::Arena::create(layout.arena_bytes());
  repl::ActiveBackup backup(backup_node.cpu(), backup_arena, layout, fabric);
  repl::ActivePrimary primary(primary_node.cpu().bus(), primary_arena, backup_arena, config,
                              layout, &backup, /*format=*/true);
  primary.set_two_safe(two_safe);
  primary.set_commit_window(window);
  primary.pipeline().set_group_size(group);

  replay(primary, history());
  primary.sync();  // flush any buffered group, resolve outstanding tickets
  primary_node.cpu().mc()->flush();
  backup.poll(fabric.link().free_at + cost.link.propagation_ns);
  return SimResult{Crc32::of(primary.db(), config.db_size),
                   Crc32::of(backup.db(), config.db_size), backup.applier().applied_seq()};
}

// ---- framed byte-stream backends (TCP / loopback) --------------------------

struct WireResult {
  std::uint32_t primary_crc;
  std::uint32_t backup_crc;
  std::uint64_t applied_seq;
};

bool await_ack(net::WirePrimary& primary, std::uint64_t seq, int max_iters = 5000) {
  for (int i = 0; i < max_iters && primary.pipeline().backup_acked_seq() < seq; ++i) {
    primary.pipeline().send_heartbeat();
    usleep(1000);
  }
  return primary.pipeline().backup_acked_seq() >= seq;
}

// Run the history over a connected (primary_end, backup_end) transport pair;
// `primary_transport` is what the primary sends through (possibly a fault
// injector wrapping primary_end).
WireResult run_wire_backend(net::Transport& primary_transport, net::Transport& backup_end,
                            net::Transport& clean_primary_end, unsigned window = 1,
                            unsigned group = 1) {
  const StoreConfig config = conformance_config();
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  net::WirePrimary primary(arena, config, &primary_transport, /*format=*/true);
  primary.set_commit_window(window);
  primary.pipeline().set_group_size(group);
  rio::Arena replica = rio::Arena::create(config.db_size);
  net::WireBackup backup(replica);
  std::thread backup_thread([&] { backup.serve(backup_end, 4000); });

  EXPECT_TRUE(primary.sync_backup());
  replay(primary, history());
  // Converge over the clean endpoint: the chaos window is the commit
  // stream, not the drain (a dropped heartbeat would only slow the wait).
  primary.attach_transport(&clean_primary_end);
  primary.sync();  // ship any buffered tail group before awaiting coverage
  EXPECT_TRUE(await_ack(primary, kTxns));
  clean_primary_end.close_peer();
  backup_thread.join();

  return WireResult{Crc32::of(primary.db(), config.db_size),
                    Crc32::of(backup.db(), config.db_size), backup.applied_seq()};
}

struct TcpPair {
  TcpPair() {
    EXPECT_TRUE(server.listen(0));
    std::thread connector(
        [this] { client_ok = client.connect_to("127.0.0.1", server.bound_port()); });
    EXPECT_TRUE(server.accept_peer());
    connector.join();
    EXPECT_TRUE(client_ok);
  }
  net::TcpTransport server, client;
  bool client_ok = false;
};

// ---- the conformance matrix ------------------------------------------------

// The fault-free oracle: the simulated backend's final image. Computed once;
// every other backend must land on exactly these bytes.
std::uint32_t oracle_crc() {
  static const SimResult sim = [] {
    SimResult r = run_sim_backend();
    EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
    EXPECT_EQ(r.backup_crc, r.primary_crc) << "sim backup diverged from its own primary";
    return r;
  }();
  return sim.backup_crc;
}

TEST(PipelineConformance, SimulatedRingMatchesOracle) {
  // Trivially true by construction — this test pins the oracle itself and
  // fails loudly if the sim backend ever stops applying the full history.
  EXPECT_NE(oracle_crc(), 0u);
}

TEST(PipelineConformance, TcpBackendMatchesOracle) {
  TcpPair pair;
  const WireResult r = run_wire_backend(pair.client, pair.server, pair.client);
  EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(r.backup_crc, r.primary_crc);
  EXPECT_EQ(r.backup_crc, oracle_crc()) << "TCP backup image != fault-free oracle";
}

TEST(PipelineConformance, LoopbackBackendMatchesOracle) {
  net::InprocTransport a, b;
  net::InprocTransport::pair(a, b);
  const WireResult r = run_wire_backend(a, b, a);
  EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(r.backup_crc, r.primary_crc);
  EXPECT_EQ(r.backup_crc, oracle_crc()) << "loopback backup image != fault-free oracle";
}

TEST(PipelineConformance, LoopbackUnderFaultsConvergesToOracle) {
  net::InprocTransport a, b;
  net::InprocTransport::pair(a, b);
  net::FaultPlan plan;
  plan.seed = 77;
  plan.drop = 0.06;
  plan.duplicate = 0.06;
  plan.delay = 0.03;
  plan.max_delay_us = 300;
  plan.start_after_frames = 2;  // hello + image chunk land untouched
  net::FaultInjectingTransport chaos(a, plan);

  const WireResult r = run_wire_backend(chaos, b, a);
  EXPECT_GT(chaos.stats().faults(), 0u) << "fault schedule never fired";
  EXPECT_GT(chaos.stats().drops, 0u);
  EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(r.backup_crc, r.primary_crc);
  EXPECT_EQ(r.backup_crc, oracle_crc())
      << "surviving backup under faults != fault-free oracle";
}

// ---- protocol regression tests ---------------------------------------------
//
// Direct RedoPipeline tests over a scripted in-memory link: no sockets, no
// co-simulation, so misbehavior is attributable to the engine alone.

// Records every outbound frame; serves inbound frames from a queue and
// reports kTimeout when the queue is dry (an ack-swallowing link is simply
// one whose queue stays empty).
class ScriptedLink final : public repl::ReplicationLink {
 public:
  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    if (refuse_sends) return false;
    const auto* p = static_cast<const std::uint8_t*>(payload);
    sent.push_back(repl::Frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)});
    return true;
  }
  std::optional<repl::Frame> recv(int) override {
    recvs++;
    if (inbound.empty()) {
      error_ = repl::LinkError::kTimeout;
      return std::nullopt;
    }
    repl::Frame frame = std::move(inbound.front());
    inbound.pop_front();
    error_ = repl::LinkError::kNone;
    return frame;
  }
  repl::LinkError last_error() const override { return error_; }
  bool connected() const override { return true; }

  std::size_t count(repl::FrameKind kind) const {
    std::size_t n = 0;
    for (const auto& f : sent) {
      if (f.kind == kind) n++;
    }
    return n;
  }
  void push_ack(std::uint64_t seq, std::uint64_t epoch = 1) {
    repl::Frame frame{repl::FrameKind::kConsumerAck, epoch, std::vector<std::uint8_t>(8)};
    std::memcpy(frame.payload.data(), &seq, 8);
    inbound.push_back(std::move(frame));
  }

  std::deque<repl::Frame> inbound;
  std::vector<repl::Frame> sent;
  std::size_t recvs = 0;
  bool refuse_sends = false;  // a broken carrier: every send fails

 private:
  repl::LinkError error_ = repl::LinkError::kNone;
};

class MemSource final : public repl::RedoPipeline::Source {
 public:
  explicit MemSource(std::size_t size) : db_(size, 0) {}
  const std::uint8_t* db() const override { return db_.data(); }
  std::size_t db_size() const override { return db_.size(); }
  std::uint64_t committed_seq() const override { return committed; }
  // Checkpoint tests commit real writes: the fuzzy build copies from db(),
  // so the staged bytes must actually land there first.
  std::uint8_t* mutable_db() { return db_.data(); }

  std::uint64_t committed = 0;

 private:
  std::vector<std::uint8_t> db_;
};

void commit_one(repl::RedoPipeline& pipe, MemSource& source, std::uint64_t seq) {
  pipe.begin();
  std::uint8_t data[8] = {static_cast<std::uint8_t>(seq), 1, 2, 3, 4, 5, 6, 7};
  pipe.stage(0, data, sizeof data);
  source.committed = seq;
  pipe.commit(seq);
}

TEST(PipelineRegression, RejoinClaimingFutureSequenceGetsFullImageNotUnderflowedDelta) {
  // A rejoiner claiming a sequence PAST everything this lineage committed
  // (same epoch, so lineage checks pass) must get the full image. The broken
  // behavior was serving a delta whose count, committed - backup_seq,
  // underflows to ~2^64: an empty "replay" after which the backup believes
  // it is caught up on state that was never produced.
  MemSource source(4096);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) commit_one(pipe, source, seq);

  // The policy itself, pinned directly.
  EXPECT_EQ(pipe.decide_rejoin(3, 1), repl::RedoPipeline::RejoinDecision::kDelta);
  EXPECT_EQ(pipe.decide_rejoin(2, 1), repl::RedoPipeline::RejoinDecision::kDelta);
  EXPECT_EQ(pipe.decide_rejoin(4, 1), repl::RedoPipeline::RejoinDecision::kFullImage)
      << "claimed-future sequence must never be served a delta";
  EXPECT_EQ(pipe.decide_rejoin(~std::uint64_t{0}, 1),
            repl::RedoPipeline::RejoinDecision::kFullImage);

  // End-to-end through the rejoin handler: the answer on the wire must be a
  // full image (kHello + kDbChunk), never a kRejoinDelta header.
  repl::Frame request{repl::FrameKind::kRejoinRequest, 1, std::vector<std::uint8_t>(24)};
  const std::uint64_t claimed = 8, node = 7, state_epoch = 1;
  std::memcpy(request.payload.data(), &claimed, 8);
  std::memcpy(request.payload.data() + 8, &node, 8);
  std::memcpy(request.payload.data() + 16, &state_epoch, 8);
  link.inbound.push_back(std::move(request));
  link.sent.clear();
  ASSERT_TRUE(pipe.handle_rejoin(/*timeout_ms=*/0));
  EXPECT_EQ(link.count(repl::FrameKind::kRejoinDelta), 0u);
  EXPECT_EQ(link.count(repl::FrameKind::kHello), 1u);
  EXPECT_GE(link.count(repl::FrameKind::kDbChunk), 1u);
  EXPECT_EQ(pipe.stats().full_syncs_served, 1u);
  EXPECT_EQ(pipe.stats().deltas_served, 0u);
}

TEST(PipelineRegression, SilentTwoSafeDegradationIsSurfaced) {
  // A 2-safe commit whose ack never arrives exhausts its probes and falls
  // back to 1-safe. That used to be silent — commit() returned void and no
  // stat moved — so a harness could not tell a quorum-durable commit from a
  // local-only one.
  MemSource source(4096);
  ScriptedLink link;  // swallows acks: recv always times out
  repl::RedoPipeline pipe(source, &link);
  pipe.set_two_safe(true);

  pipe.begin();
  std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  pipe.stage(0, data, sizeof data);
  source.committed = 1;
  const auto outcome = pipe.commit(1);
  EXPECT_EQ(outcome, repl::RedoPipeline::CommitOutcome::kTwoSafeDegraded);
  EXPECT_EQ(pipe.last_commit_outcome(), repl::RedoPipeline::CommitOutcome::kTwoSafeDegraded);
  EXPECT_EQ(pipe.stats().two_safe_degraded, 1u);
  EXPECT_FALSE(pipe.connection_alive()) << "the silent peer should be marked down";

  // An acked 2-safe commit reports quorum durability — and does not move the
  // degradation counter.
  ScriptedLink healthy;
  pipe.attach_link(&healthy);
  healthy.push_ack(2);
  pipe.begin();
  pipe.stage(0, data, sizeof data);
  source.committed = 2;
  EXPECT_EQ(pipe.commit(2), repl::RedoPipeline::CommitOutcome::kQuorumDurable);
  EXPECT_EQ(pipe.stats().two_safe_degraded, 1u);
}

TEST(PipelineRegression, QuorumTwoSafeNeedsKAcks) {
  // Two backups, K=2: both must acknowledge before the commit is
  // quorum-durable; one ack is surfaced as degraded, not success.
  MemSource source(4096);
  ScriptedLink peer0, peer1;
  repl::RedoPipeline pipe(source, &peer0);
  ASSERT_EQ(pipe.add_peer(&peer1), 1u);
  pipe.set_two_safe(true);
  pipe.set_quorum(2);

  std::uint8_t data[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  peer0.push_ack(1);
  peer1.push_ack(1);
  pipe.begin();
  pipe.stage(0, data, sizeof data);
  source.committed = 1;
  EXPECT_EQ(pipe.commit(1), repl::RedoPipeline::CommitOutcome::kQuorumDurable);
  EXPECT_EQ(peer0.count(repl::FrameKind::kRedoBatch), 1u);
  EXPECT_EQ(peer1.count(repl::FrameKind::kRedoBatch), 1u) << "commit must fan out to all peers";
  EXPECT_EQ(pipe.quorum_acked_seq(), 1u);

  // Second commit: only peer0 acks, peer1 goes silent. K=2 cannot be met.
  peer0.push_ack(2);
  pipe.begin();
  pipe.stage(0, data, sizeof data);
  source.committed = 2;
  EXPECT_EQ(pipe.commit(2), repl::RedoPipeline::CommitOutcome::kTwoSafeDegraded);
  EXPECT_EQ(pipe.stats().two_safe_degraded, 1u);
  EXPECT_EQ(pipe.backup_acked_seq(), 2u);  // best peer
  EXPECT_EQ(pipe.quorum_acked_seq(), 1u);  // K-th best: quorum coverage stalled
  EXPECT_TRUE(pipe.peer_alive(0));
  EXPECT_FALSE(pipe.peer_alive(1));
}

// ---- group commit / bounded in-flight window -------------------------------

TEST(PipelineConformance, SimulatedRingGroupCommitMatchesOracle) {
  // G=4 coalesces four transactions into one checksummed ring unit; the
  // final image must be bit-identical to the unbatched oracle.
  const SimResult r = run_sim_backend(/*window=*/1, /*group=*/4);
  EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(r.backup_crc, r.primary_crc);
  EXPECT_EQ(r.backup_crc, oracle_crc()) << "grouped ring image != ungrouped oracle";
}

TEST(PipelineConformance, SimulatedRingWindowedTwoSafeMatchesOracle) {
  // The full pipelined configuration: 2-safe with W=8 in flight, G=4 per
  // unit. Must converge on the oracle's bytes with everything acknowledged.
  const SimResult r = run_sim_backend(/*window=*/8, /*group=*/4, /*two_safe=*/true);
  EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(r.backup_crc, r.primary_crc);
  EXPECT_EQ(r.backup_crc, oracle_crc()) << "windowed 2-safe image != oracle";
}

TEST(PipelineConformance, LoopbackGroupCommitMatchesOracle) {
  net::InprocTransport a, b;
  net::InprocTransport::pair(a, b);
  const WireResult r = run_wire_backend(a, b, a, /*window=*/8, /*group=*/4);
  EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(r.backup_crc, r.primary_crc);
  EXPECT_EQ(r.backup_crc, oracle_crc()) << "grouped loopback image != oracle";
}

TEST(PipelineConformance, LoopbackGroupCommitUnderFaultsConvergesToOracle) {
  // Group frames dropped/duplicated/delayed by the injector: the gap/dup
  // rules treat a group as one unit, and resync repairs whole groups.
  net::InprocTransport a, b;
  net::InprocTransport::pair(a, b);
  net::FaultPlan plan;
  plan.seed = 78;
  plan.drop = 0.06;
  plan.duplicate = 0.06;
  plan.delay = 0.03;
  plan.max_delay_us = 300;
  plan.start_after_frames = 2;  // hello + image chunk land untouched
  net::FaultInjectingTransport chaos(a, plan);

  const WireResult r = run_wire_backend(chaos, b, a, /*window=*/8, /*group=*/4);
  EXPECT_GT(chaos.stats().faults(), 0u) << "fault schedule never fired";
  EXPECT_EQ(r.applied_seq, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(r.backup_crc, r.primary_crc);
  EXPECT_EQ(r.backup_crc, oracle_crc())
      << "grouped backup under faults != fault-free oracle";
}

repl::RedoPipeline::CommitTicket commit_async_one(repl::RedoPipeline& pipe, MemSource& source,
                                                  std::uint64_t seq) {
  pipe.begin();
  std::uint8_t data[8] = {static_cast<std::uint8_t>(seq), 1, 2, 3, 4, 5, 6, 7};
  pipe.stage(0, data, sizeof data);
  source.committed = seq;
  return pipe.commit_async(seq);
}

TEST(PipelineWindow, FullWindowBlocksStagingNotEarlier) {
  // W=4: the first three commits ship without awaiting acks (the window has
  // room); the commit that would put a fourth unacked sequence in flight
  // must wait for coverage — and with an ack available, slides the window
  // without degrading. Only a full window with NO acks degrades, and then
  // it resolves every outstanding ticket at once.
  using Pipe = repl::RedoPipeline;
  MemSource source(4096);
  ScriptedLink link;
  Pipe pipe(source, &link);
  pipe.set_two_safe(true);
  pipe.set_commit_window(4);

  const auto t1 = commit_async_one(pipe, source, 1);
  const auto t2 = commit_async_one(pipe, source, 2);
  const auto t3 = commit_async_one(pipe, source, 3);
  EXPECT_EQ(link.count(repl::FrameKind::kRedoBatch), 3u) << "G=1: every commit ships";
  EXPECT_EQ(pipe.stats().two_safe_degraded, 0u) << "window not full: no wait, no degrade";
  EXPECT_EQ(pipe.ticket_state(t1), Pipe::TicketState::kPending);
  EXPECT_EQ(pipe.ticket_state(t3), Pipe::TicketState::kPending);

  link.push_ack(1);  // coverage for the oldest in-flight sequence
  const auto t4 = commit_async_one(pipe, source, 4);
  EXPECT_EQ(pipe.stats().two_safe_degraded, 0u)
      << "an available ack must slide the window, not degrade it";
  EXPECT_EQ(pipe.ticket_state(t1), Pipe::TicketState::kDurable);
  EXPECT_EQ(pipe.ticket_state(t2), Pipe::TicketState::kPending);
  EXPECT_EQ(pipe.ticket_state(t4), Pipe::TicketState::kPending);

  // No acks left: the next commit overflows the window, waits, exhausts its
  // probes, and resolves ALL outstanding tickets as degraded.
  const auto t5 = commit_async_one(pipe, source, 5);
  EXPECT_EQ(pipe.last_commit_outcome(), Pipe::CommitOutcome::kTwoSafeDegraded);
  EXPECT_EQ(pipe.stats().two_safe_degraded, 4u) << "tickets 2..5 resolve degraded together";
  EXPECT_EQ(pipe.ticket_state(t2), Pipe::TicketState::kDegraded);
  EXPECT_EQ(pipe.ticket_state(t5), Pipe::TicketState::kDegraded);
}

TEST(PipelineWindow, TicketResolutionFollowsSequenceOrder) {
  // Acks are watermarks: an ack covering sequence 3 resolves tickets 1..3
  // (in order), never a later one.
  using Pipe = repl::RedoPipeline;
  MemSource source(4096);
  ScriptedLink link;
  Pipe pipe(source, &link);
  pipe.set_two_safe(true);
  pipe.set_commit_window(8);

  std::vector<Pipe::CommitTicket> tickets;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    tickets.push_back(commit_async_one(pipe, source, seq));
  }
  for (const auto& t : tickets) {
    EXPECT_EQ(pipe.ticket_state(t), Pipe::TicketState::kPending);
  }

  link.push_ack(3);
  EXPECT_EQ(pipe.wait(tickets[2]), Pipe::CommitOutcome::kQuorumDurable);
  EXPECT_EQ(pipe.ticket_state(tickets[0]), Pipe::TicketState::kDurable);
  EXPECT_EQ(pipe.ticket_state(tickets[1]), Pipe::TicketState::kDurable);
  EXPECT_EQ(pipe.ticket_state(tickets[2]), Pipe::TicketState::kDurable);
  EXPECT_EQ(pipe.ticket_state(tickets[3]), Pipe::TicketState::kPending)
      << "a covering ack must never resolve a later sequence";
  EXPECT_EQ(pipe.ticket_state(tickets[4]), Pipe::TicketState::kPending);

  // wait() on an already-durable ticket answers from the watermark without
  // touching the link: no frames sent, no recv attempted.
  const std::size_t sent_before = link.sent.size();
  const std::size_t recvs_before = link.recvs;
  EXPECT_EQ(pipe.wait(tickets[0]), Pipe::CommitOutcome::kQuorumDurable);
  EXPECT_EQ(link.sent.size(), sent_before) << "wait() on a durable ticket sent frames";
  EXPECT_EQ(link.recvs, recvs_before) << "wait() on a durable ticket called recv";
}

TEST(PipelineWindow, QuorumAckCacheIsO1AndMatchesFreshScanAfterPeerRemoval) {
  // quorum_acked_seq() used to rescan every peer slot on every call; it is
  // now a cache recomputed only when an ack advances or the peer table
  // changes. The repl.primary.quorum_scans counter proves reads are O(1),
  // and removal must leave cache == a fresh K-th-highest scan.
  using Pipe = repl::RedoPipeline;
  MemSource source(4096);
  ScriptedLink p0, p1, p2;
  Pipe pipe(source, &p0);
  ASSERT_EQ(pipe.add_peer(&p1), 1u);
  ASSERT_EQ(pipe.add_peer(&p2), 2u);
  pipe.set_two_safe(true);
  pipe.set_quorum(2);
  pipe.set_commit_window(8);

  std::vector<Pipe::CommitTicket> tickets;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    tickets.push_back(commit_async_one(pipe, source, seq));
  }
  p0.push_ack(5);
  p1.push_ack(3);
  p2.push_ack(4);
  EXPECT_EQ(pipe.wait(tickets[2]), Pipe::CommitOutcome::kQuorumDurable);
  // Acks drain lazily — waiting on ticket 4 pulls peer2's queued ack in.
  EXPECT_EQ(pipe.wait(tickets[3]), Pipe::CommitOutcome::kQuorumDurable);
  EXPECT_EQ(pipe.quorum_acked_seq(), 4u) << "K=2: second-highest of {5,3,4}";

  // Reads do not rescan: the counter must not move across many queries.
  metrics::Counter& scans = metrics::counter("repl.primary.quorum_scans");
  const std::uint64_t scans_before = scans.value();
  for (int i = 0; i < 1000; ++i) {
    (void)pipe.quorum_acked_seq();
    (void)pipe.ticket_state(tickets[4]);
  }
  EXPECT_EQ(scans.value(), scans_before) << "quorum_acked_seq() reads must be O(1)";

  // Removing a peer invalidates the cache; the new value must equal a fresh
  // K-th-highest scan over the surviving slots.
  pipe.remove_peer(2);
  EXPECT_GT(scans.value(), scans_before) << "peer removal must recompute the cache";
  std::vector<std::uint64_t> acks;
  for (std::size_t p = 0; p < pipe.peer_count(); ++p) acks.push_back(pipe.peer_acked_seq(p));
  std::sort(acks.begin(), acks.end(), std::greater<>());
  EXPECT_EQ(pipe.quorum_acked_seq(), acks[pipe.quorum() - 1])
      << "cache != fresh scan after remove_peer";
  EXPECT_EQ(pipe.quorum_acked_seq(), 3u) << "second-highest of {5,3} after removal";
}

TEST(PipelineWindow, GroupBuffersUntilFullAndSyncFlushes) {
  // G=4: commits 1..3 stay buffered (nothing on the wire), the 4th ships one
  // kRedoGroup frame; sync() pushes out a partial tail group.
  using Pipe = repl::RedoPipeline;
  MemSource source(4096);
  ScriptedLink link;
  Pipe pipe(source, &link);
  pipe.set_commit_window(8);
  pipe.set_group_size(4);

  for (std::uint64_t seq = 1; seq <= 3; ++seq) commit_async_one(pipe, source, seq);
  EXPECT_EQ(link.sent.size(), 0u) << "a partial group must not ship";
  commit_async_one(pipe, source, 4);
  EXPECT_EQ(link.count(repl::FrameKind::kRedoGroup), 1u);
  EXPECT_EQ(link.count(repl::FrameKind::kRedoBatch), 0u);

  commit_async_one(pipe, source, 5);
  EXPECT_EQ(link.sent.size(), 1u) << "the next partial group buffers again";
  EXPECT_EQ(pipe.sync(), Pipe::CommitOutcome::kLocalDurable);
  // A single-transaction group ships as the classic kRedoBatch frame.
  EXPECT_EQ(link.count(repl::FrameKind::kRedoBatch), 1u)
      << "sync() must flush the partial tail group as a classic batch";
}

// ---- planned-handoff drain ---------------------------------------------------

TEST(DrainPeers, NeedsEveryLivePeerNotJustAQuorum) {
  // K=1 and peer 0 acks every commit, so each commit is quorum-durable. The
  // drain must still wait on peer 1 until it covers the watermark too.
  using Pipe = repl::RedoPipeline;
  MemSource source(4096);
  ScriptedLink p0, p1;
  Pipe pipe(source, &p0);
  ASSERT_EQ(pipe.add_peer(&p1), 1u);
  pipe.set_two_safe(true);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    p0.push_ack(seq);
    commit_one(pipe, source, seq);
    EXPECT_EQ(pipe.last_commit_outcome(), Pipe::CommitOutcome::kQuorumDurable);
  }
  ASSERT_EQ(pipe.peer_acked_seq(1), 0u);
  p1.push_ack(3);  // peer 1 answers only when the drain asks it
  EXPECT_TRUE(pipe.drain_peers());
  EXPECT_EQ(pipe.peer_acked_seq(1), 3u) << "the drain stopped at quorum coverage";

  // Coverage has to come from a live peer: once peer 0 (the whole quorum) is
  // down and peer 1 stays silent, the watermark is quorum-covered and the
  // drain still fails.
  MemSource source2(4096);
  ScriptedLink q0, q1;
  Pipe pipe2(source2, &q0);
  ASSERT_EQ(pipe2.add_peer(&q1), 1u);
  pipe2.set_two_safe(true);
  q0.push_ack(1);
  commit_one(pipe2, source2, 1);
  q0.refuse_sends = true;
  EXPECT_TRUE(pipe2.send_heartbeat());
  ASSERT_FALSE(pipe2.peer_alive(0));
  ASSERT_EQ(pipe2.quorum_acked_seq(), 1u);
  EXPECT_FALSE(pipe2.drain_peers()) << "quorum coverage alone must not pass the drain";
  EXPECT_FALSE(pipe2.peer_alive(1));
}

TEST(DrainPeers, SilentLaggardIsMarkedDownAfterTheProbeBudget) {
  MemSource source(4096);
  ScriptedLink link;  // never acks
  repl::RedoPipeline pipe(source, &link);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) commit_one(pipe, source, seq);
  link.sent.clear();

  EXPECT_FALSE(pipe.drain_peers());
  EXPECT_FALSE(pipe.peer_alive(0));
  // One opening probe, then one per silent receive inside the 20-probe budget.
  EXPECT_EQ(link.count(repl::FrameKind::kHeartbeat), 21u);
  for (const repl::Frame& frame : link.sent) {
    std::uint64_t watermark = 0;
    ASSERT_EQ(frame.payload.size(), 8u);
    std::memcpy(&watermark, frame.payload.data(), 8);
    EXPECT_EQ(watermark, 3u) << "probes must carry the full shipped watermark";
  }
}

TEST(DrainPeers, EpochFenceReplyFailsTheDrainAndFences) {
  MemSource source(4096);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  for (std::uint64_t seq = 1; seq <= 2; ++seq) commit_one(pipe, source, seq);
  const std::uint64_t newer = 5;
  repl::Frame fence{repl::FrameKind::kEpochFence, newer, std::vector<std::uint8_t>(8)};
  std::memcpy(fence.payload.data(), &newer, 8);
  link.inbound.push_back(std::move(fence));

  EXPECT_FALSE(pipe.drain_peers());
  EXPECT_TRUE(pipe.fenced());
  EXPECT_EQ(pipe.fenced_by_epoch(), newer);
}

TEST(PipelineRegressionDeathTest, StageRejectsChunksBeyondU32WireFormat) {
  // Batch offsets/lengths are u32 on the wire; stage() used to truncate the
  // offset with a static_cast, silently wrapping redo for databases at or
  // beyond 4 GiB into low addresses on every backup.
  MemSource source(64);
  repl::RedoPipeline pipe(source, nullptr);
  pipe.begin();
  std::uint8_t byte = 0xAB;
  // Highest representable chunk: ends exactly at the 4 GiB boundary.
  pipe.stage((std::uint64_t{1} << 32) - 1, &byte, 1);
  EXPECT_DEATH(pipe.stage(std::uint64_t{1} << 32, &byte, 1), "CHECK");
  EXPECT_DEATH(pipe.stage((std::uint64_t{1} << 32) - 1, &byte, 2), "CHECK");
  pipe.discard();
}

// ---- fuzzy checkpoints + O(delta) rejoin -----------------------------------
//
// The checkpoint scenario used throughout: a 64 KiB database (16 checkpoint
// pages), one 64-byte write per commit at a sequence-derived page so dirty
// pages are attributable to exact sequences, checkpoints every 4 commits
// with a 16 KiB background copy step (a build spans 4 commits — genuinely
// fuzzy, writes land mid-build). Twenty commits complete two checkpoints
// (sequences 7 and 14) and leave a third build in flight; the watermark at
// 14 truncates the redo history, so sequences 1..13 are only reachable
// through checkpoint+delta.

constexpr std::size_t kCkptDb = 64 * 1024;
constexpr std::size_t kCkptPage = repl::RedoPipeline::kCkptPageBytes;

// Page the write of sequence `seq` lands in: (seq * 5) mod 16 visits 14
// distinct pages across sequences 1..14 (pages 0 and 11 stay clean).
std::size_t ckpt_page_of(std::uint64_t seq) { return (seq * 5) % (kCkptDb / kCkptPage); }

void commit_page_txn(repl::RedoPipeline& pipe, MemSource& source, std::uint64_t seq) {
  pipe.begin();
  const std::uint64_t off = ckpt_page_of(seq) * kCkptPage + 128;
  std::uint8_t data[64];
  for (std::size_t i = 0; i < sizeof data; ++i) {
    data[i] = static_cast<std::uint8_t>(seq * 31 + i);
  }
  std::memcpy(source.mutable_db() + off, data, sizeof data);
  pipe.stage(off, data, sizeof data);
  source.committed = seq;
  pipe.commit(seq);
}

struct CkptScenario {
  MemSource source{kCkptDb};
  ScriptedLink link;
  repl::RedoPipeline pipe{source, &link};
  std::vector<std::uint8_t> db_at_13;  // a laggard backup's last-synced state
  std::vector<std::uint8_t> db_at_14;  // oracle for the checkpoint image

  CkptScenario() {
    pipe.enable_checkpoints(/*interval_txns=*/4, /*copy_bytes_per_commit=*/16 * 1024);
    for (std::uint64_t seq = 1; seq <= 20; ++seq) {
      commit_page_txn(pipe, source, seq);
      if (seq == 13) db_at_13.assign(source.db(), source.db() + kCkptDb);
      if (seq == 14) db_at_14.assign(source.db(), source.db() + kCkptDb);
    }
  }

  // Serve a rejoin claiming sequence `seq`; returns the frames that went out.
  std::vector<repl::Frame> serve(std::uint64_t seq) {
    link.sent.clear();
    repl::Frame request{repl::FrameKind::kRejoinRequest, 1, std::vector<std::uint8_t>(24)};
    const std::uint64_t node = 7, state_epoch = 1;
    std::memcpy(request.payload.data(), &seq, 8);
    std::memcpy(request.payload.data() + 8, &node, 8);
    std::memcpy(request.payload.data() + 16, &state_epoch, 8);
    link.inbound.push_back(std::move(request));
    EXPECT_TRUE(pipe.handle_rejoin(/*timeout_ms=*/0));
    return link.sent;
  }
};

class MemTarget final : public repl::RedoApplier::Target {
 public:
  explicit MemTarget(std::size_t size) : mem(size, 0) {}
  void write(std::uint64_t off, const void* src, std::size_t len) override {
    std::memcpy(mem.data() + off, src, len);
  }
  std::size_t capacity() const override { return mem.size(); }
  const std::uint8_t* data() const override { return mem.data(); }

  std::vector<std::uint8_t> mem;
};

// ---- repl::InlineLink -------------------------------------------------------

TEST(InlineLink, DeliversInlineAndQueuesRepliesForRecv) {
  MemTarget target(4096);
  repl::RedoApplier applier(target);
  repl::InlineLink link(applier);
  MemSource source(4096);
  repl::RedoPipeline pipe(source, &link);

  // Each send reaches the applier before it returns.
  ASSERT_TRUE(pipe.sync_backup());
  EXPECT_TRUE(applier.image_complete());
  commit_one(pipe, source, 1);
  EXPECT_EQ(applier.applied_seq(), 1u);
  EXPECT_EQ(target.mem[0], 1u);
  EXPECT_FALSE(link.recv(0).has_value()) << "no reply was asked for yet";
  EXPECT_EQ(link.last_error(), repl::LinkError::kTimeout);

  // The applier's answers queue, in order, for the primary's recv.
  const std::uint64_t committed = 1;
  ASSERT_TRUE(link.send(repl::FrameKind::kHeartbeat, 1, &committed, 8));
  ASSERT_TRUE(applier.request_rejoin(link.reply_link()));
  std::optional<repl::Frame> ack = link.recv(0);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, repl::FrameKind::kConsumerAck);
  std::uint64_t acked = 0;
  ASSERT_EQ(ack->payload.size(), 8u);
  std::memcpy(&acked, ack->payload.data(), 8);
  EXPECT_EQ(acked, 1u);
  std::optional<repl::Frame> request = link.recv(0);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->kind, repl::FrameKind::kRejoinRequest);
  EXPECT_FALSE(link.recv(0).has_value());
  EXPECT_EQ(link.last_error(), repl::LinkError::kTimeout);
}

TEST(InlineLink, KillSnapsBothDirections) {
  MemTarget target(4096);
  repl::RedoApplier applier(target);
  repl::InlineLink link(applier);
  const std::uint64_t seq = 0;
  ASSERT_TRUE(link.reply_link().send(repl::FrameKind::kConsumerAck, 1, &seq, 8));
  link.kill();

  EXPECT_FALSE(link.connected());
  EXPECT_FALSE(link.reply_link().connected());
  const std::uint64_t hello[2] = {4096, 0};
  EXPECT_FALSE(link.send(repl::FrameKind::kHello, 1, hello, sizeof hello));
  EXPECT_EQ(link.last_error(), repl::LinkError::kClosed);
  EXPECT_EQ(applier.db_size(), 0u) << "a send after kill() reached the applier";
  EXPECT_FALSE(link.reply_link().send(repl::FrameKind::kConsumerAck, 1, &seq, 8))
      << "the reply path must refuse frames after kill()";

  // What arrived before the kill still drains, then the link reports closed.
  EXPECT_TRUE(link.recv(0).has_value());
  EXPECT_FALSE(link.recv(0).has_value());
  EXPECT_EQ(link.last_error(), repl::LinkError::kClosed);
}

TEST(CheckpointRegression, FuzzyBuildIsConsistentAtItsWatermark) {
  // The background copy runs concurrently with commits (4 commits per
  // build), yet the finished image must equal the database at exactly the
  // completion sequence — writes behind the cursor patched in, writes ahead
  // picked up in passing.
  CkptScenario s;
  ASSERT_EQ(s.pipe.stats().checkpoints_completed, 2u);
  const auto& ckpt = s.pipe.checkpoint();
  ASSERT_TRUE(ckpt.valid);
  EXPECT_EQ(ckpt.seq, 14u);
  EXPECT_EQ(ckpt.state_epoch, 1u);
  const auto& image = s.pipe.checkpoint_image();
  ASSERT_EQ(image.size(), kCkptDb);
  EXPECT_EQ(Crc32::of(image.data(), image.size()), ckpt.crc);
  EXPECT_EQ(std::memcmp(image.data(), s.db_at_14.data(), kCkptDb), 0)
      << "fuzzy checkpoint image != database at the watermark sequence";
  EXPECT_GT(s.pipe.stats().redo_truncated_bytes, 0u)
      << "completion must truncate the redo history at the watermark";
}

TEST(CheckpointRegression, TruncatedLaggardGetsCheckpointDeltaNotFullImage) {
  // The silent cliff this PR removes: a backup whose sequence fell behind
  // the truncation watermark — but which the completed checkpoint covers —
  // used to be pushed off to a full image transfer. Pin the three-way
  // policy directly.
  using Decision = repl::RedoPipeline::RejoinDecision;
  CkptScenario s;

  // History was truncated at 14: it covers 14..20 and nothing older.
  EXPECT_EQ(s.pipe.decide_rejoin(20, 1), Decision::kDelta);
  EXPECT_EQ(s.pipe.decide_rejoin(14, 1), Decision::kDelta);
  // Behind the truncation watermark but inside the checkpoint's tracked
  // dirtiness range: checkpoint+delta, NOT the full-image cliff.
  EXPECT_EQ(s.pipe.decide_rejoin(13, 1), Decision::kCheckpointDelta);
  EXPECT_EQ(s.pipe.decide_rejoin(7, 1), Decision::kCheckpointDelta);
  EXPECT_EQ(s.pipe.decide_rejoin(1, 1), Decision::kCheckpointDelta);
  // Genuine last resorts keep getting the image: fresh joiners, claimed
  // futures, divergent lineages.
  EXPECT_EQ(s.pipe.decide_rejoin(0, 1), Decision::kFullImage);
  EXPECT_EQ(s.pipe.decide_rejoin(21, 1), Decision::kFullImage);
  EXPECT_EQ(s.pipe.decide_rejoin(~std::uint64_t{0}, 1), Decision::kFullImage);

  // Contrast: the same laggard against a checkpoint-less pipeline whose
  // small history evicted sequence 13 — that is the cliff.
  MemSource source2(kCkptDb);
  ScriptedLink link2;
  repl::RedoPipeline no_ckpt(source2, &link2, nullptr, {}, /*redo_history_bytes=*/200);
  for (std::uint64_t seq = 1; seq <= 20; ++seq) commit_page_txn(no_ckpt, source2, seq);
  EXPECT_EQ(no_ckpt.decide_rejoin(13, 1), Decision::kFullImage)
      << "without a checkpoint, an evicted gap can only be repaired by the image";
}

TEST(CheckpointRegression, CheckpointDeltaServeShipsOnlyPagesDirtiedAfterTheLaggard) {
  // The O(delta) claim on the wire: a backup at 13 rejoining against the
  // checkpoint at 14 needs exactly one page (the page sequence 14 dirtied),
  // not the 64 KiB image — plus the redo tail 15..20.
  CkptScenario s;
  const auto runs = s.pipe.checkpoint_delta_runs(13);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first, ckpt_page_of(14) * kCkptPage);
  EXPECT_EQ(runs[0].second, kCkptPage);

  const auto frames = s.serve(13);
  EXPECT_EQ(s.link.count(repl::FrameKind::kCkptBegin), 1u);
  EXPECT_EQ(s.link.count(repl::FrameKind::kCkptChunk), 1u);
  EXPECT_EQ(s.link.count(repl::FrameKind::kCkptEnd), 1u);
  EXPECT_EQ(s.link.count(repl::FrameKind::kRejoinDelta), 1u);
  EXPECT_EQ(s.link.count(repl::FrameKind::kRedoBatch), 6u) << "redo tail 15..20";
  EXPECT_EQ(s.link.count(repl::FrameKind::kHello), 0u) << "no image transfer";
  EXPECT_EQ(s.link.count(repl::FrameKind::kDbChunk), 0u);
  for (const auto& f : frames) {
    if (f.kind == repl::FrameKind::kRejoinDelta) {
      std::uint64_t from, count;
      std::memcpy(&from, f.payload.data(), 8);
      std::memcpy(&count, f.payload.data() + 8, 8);
      EXPECT_EQ(from, 14u) << "replay resumes from the watermark";
      EXPECT_EQ(count, 6u);
    }
  }
  EXPECT_EQ(s.pipe.stats().checkpoint_deltas_served, 1u);
  EXPECT_EQ(s.pipe.stats().deltas_served, 0u);
  EXPECT_EQ(s.pipe.stats().full_syncs_served, 0u)
      << "full_syncs_served must only count genuine last resorts";

  // A fresh joiner (sequence 0) IS a genuine last resort.
  s.serve(0);
  EXPECT_EQ(s.link.count(repl::FrameKind::kHello), 1u);
  EXPECT_EQ(s.pipe.stats().full_syncs_served, 1u);
}

TEST(CheckpointRegression, ApplierInstallsCheckpointDeltaAndResumesReplay) {
  // Backup-side round trip: a laggard at 13 fed the serve's frames must
  // land on the primary's exact bytes — checkpoint page installed under the
  // watermark CRC, then redo 15..20 replayed on top.
  CkptScenario s;
  MemTarget target(kCkptDb);
  repl::RedoApplier applier(target);
  applier.seed(s.db_at_13.data(), kCkptDb, /*applied_seq=*/13, /*state_epoch=*/1);

  ScriptedLink backup_link;
  for (const auto& f : s.serve(13)) applier.on_frame(f, backup_link);

  EXPECT_EQ(applier.applied_seq(), 20u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.source.db(), kCkptDb), 0)
      << "checkpoint+delta rejoin must converge to the primary's bytes";
  EXPECT_EQ(applier.stats().checkpoint_installs, 1u);
  EXPECT_EQ(applier.stats().checkpoint_aborts, 0u);
  EXPECT_EQ(applier.stats().batches_applied, 6u);
  EXPECT_EQ(applier.stats().resyncs, 1u) << "one resync: install + replay is one repair";
  EXPECT_GE(backup_link.count(repl::FrameKind::kConsumerAck), 1u);
}

TEST(CheckpointRegression, DroppedChunkAbortsInstallUntornAndRerequestConverges) {
  // A checkpoint chunk lost in flight: the End's shape check must reject
  // the torn set BEFORE any byte touches the replica, and the clean
  // re-request (from the backup's real sequence) must converge.
  CkptScenario s;
  MemTarget target(kCkptDb);
  repl::RedoApplier applier(target);
  applier.seed(s.db_at_13.data(), kCkptDb, 13, 1);

  ScriptedLink backup_link;
  for (const auto& f : s.serve(13)) {
    if (f.kind == repl::FrameKind::kCkptChunk) continue;  // dropped
    applier.on_frame(f, backup_link);
  }
  EXPECT_EQ(applier.stats().checkpoint_aborts, 1u);
  EXPECT_EQ(applier.stats().checkpoint_installs, 0u);
  EXPECT_EQ(applier.applied_seq(), 13u) << "aborted install must not advance the sequence";
  EXPECT_EQ(std::memcmp(target.mem.data(), s.db_at_13.data(), kCkptDb), 0)
      << "a torn install must never leave partial checkpoint bytes in the replica";

  // The abort re-requested from the REAL sequence (the base image is still
  // intact), not from 0 — no gratuitous full sync.
  ASSERT_GE(backup_link.count(repl::FrameKind::kRejoinRequest), 1u);
  std::uint64_t from = ~std::uint64_t{0};
  for (const auto& f : backup_link.sent) {
    if (f.kind == repl::FrameKind::kRejoinRequest) {
      std::memcpy(&from, f.payload.data(), 8);
      break;
    }
  }
  EXPECT_EQ(from, 13u);

  // Second serve, delivered whole: converges.
  for (const auto& f : s.serve(13)) applier.on_frame(f, backup_link);
  EXPECT_EQ(applier.stats().checkpoint_installs, 1u);
  EXPECT_EQ(applier.applied_seq(), 20u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.source.db(), kCkptDb), 0);
  EXPECT_EQ(s.pipe.stats().full_syncs_served, 0u);
}

TEST(CheckpointRegression, DuplicatedChunkIsDedupedAndInstalls) {
  // Duplicate faults re-deliver a chunk verbatim; the install dedupes the
  // exact copy and verifies normally.
  CkptScenario s;
  MemTarget target(kCkptDb);
  repl::RedoApplier applier(target);
  applier.seed(s.db_at_13.data(), kCkptDb, 13, 1);

  ScriptedLink backup_link;
  for (const auto& f : s.serve(13)) {
    applier.on_frame(f, backup_link);
    if (f.kind == repl::FrameKind::kCkptChunk) applier.on_frame(f, backup_link);
  }
  EXPECT_EQ(applier.stats().checkpoint_aborts, 0u);
  EXPECT_EQ(applier.stats().checkpoint_installs, 1u);
  EXPECT_EQ(applier.applied_seq(), 20u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.source.db(), kCkptDb), 0);
}

TEST(CheckpointRegression, TruncatedChunkFrameAbortsInstallCleanly) {
  // A chunk frame cut short (below even its offset header) is a torn
  // transfer: abort, replica untouched, re-request from the real sequence.
  CkptScenario s;
  MemTarget target(kCkptDb);
  repl::RedoApplier applier(target);
  applier.seed(s.db_at_13.data(), kCkptDb, 13, 1);

  ScriptedLink backup_link;
  for (auto f : s.serve(13)) {
    if (f.kind == repl::FrameKind::kCkptChunk) f.payload.resize(4);
    applier.on_frame(f, backup_link);
  }
  EXPECT_GE(applier.stats().checkpoint_aborts, 1u);
  EXPECT_EQ(applier.stats().checkpoint_installs, 0u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.db_at_13.data(), kCkptDb), 0);

  for (const auto& f : s.serve(13)) applier.on_frame(f, backup_link);
  EXPECT_EQ(applier.stats().checkpoint_installs, 1u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.source.db(), kCkptDb), 0);
}

TEST(CheckpointRegression, CorruptChunkPayloadFailsMergedCrcAndFallsBackToImage) {
  // A bit-flip in a chunk's payload passes the shape check but must fail
  // the merged-CRC verify — and since transfer faults are caught by the
  // carrier CRC, a merged-CRC mismatch means the BASE image cannot be
  // trusted: the applier re-requests as imageless (full sync) instead of
  // looping on checkpoint deltas that can never verify.
  CkptScenario s;
  MemTarget target(kCkptDb);
  repl::RedoApplier applier(target);
  applier.seed(s.db_at_13.data(), kCkptDb, 13, 1);

  ScriptedLink backup_link;
  for (auto f : s.serve(13)) {
    if (f.kind == repl::FrameKind::kCkptChunk) f.payload[100] ^= 0x40;
    applier.on_frame(f, backup_link);
  }
  EXPECT_GE(applier.stats().checkpoint_aborts, 1u);
  EXPECT_EQ(applier.stats().checkpoint_installs, 0u);
  EXPECT_EQ(applier.applied_seq(), 13u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.db_at_13.data(), kCkptDb), 0)
      << "unverifiable chunks must never be applied";
  std::uint64_t from = ~std::uint64_t{0};
  for (const auto& f : backup_link.sent) {
    if (f.kind == repl::FrameKind::kRejoinRequest) {
      std::memcpy(&from, f.payload.data(), 8);
      break;
    }
  }
  EXPECT_EQ(from, 0u) << "a distrusted base image must re-request the full sync";

  // The full sync converges.
  for (const auto& f : s.serve(0)) applier.on_frame(f, backup_link);
  EXPECT_EQ(s.pipe.stats().full_syncs_served, 1u);
  EXPECT_EQ(applier.applied_seq(), 20u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.source.db(), kCkptDb), 0);
}

TEST(CheckpointRegression, LostEndIsRetriedViaHeartbeat) {
  // The serve dies after its chunks (End lost): the next heartbeat showing
  // a committed sequence we don't hold doubles as the install retry timer.
  CkptScenario s;
  MemTarget target(kCkptDb);
  repl::RedoApplier applier(target);
  applier.seed(s.db_at_13.data(), kCkptDb, 13, 1);

  ScriptedLink backup_link;
  for (const auto& f : s.serve(13)) {
    if (f.kind == repl::FrameKind::kCkptEnd) break;  // serve dies here
    applier.on_frame(f, backup_link);
  }
  EXPECT_TRUE(applier.checkpoint_installing());

  repl::Frame heartbeat{repl::FrameKind::kHeartbeat, 1, std::vector<std::uint8_t>(8)};
  const std::uint64_t committed = 20;
  std::memcpy(heartbeat.payload.data(), &committed, 8);
  applier.on_frame(heartbeat, backup_link);
  EXPECT_FALSE(applier.checkpoint_installing());
  EXPECT_EQ(applier.stats().checkpoint_aborts, 1u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.db_at_13.data(), kCkptDb), 0);
  EXPECT_GE(backup_link.count(repl::FrameKind::kRejoinRequest), 1u);

  for (const auto& f : s.serve(13)) applier.on_frame(f, backup_link);
  EXPECT_EQ(applier.stats().checkpoint_installs, 1u);
  EXPECT_EQ(applier.applied_seq(), 20u);
  EXPECT_EQ(std::memcmp(target.mem.data(), s.source.db(), kCkptDb), 0);
}

TEST(CheckpointRegression, DisabledPipelineServesExactlyAsBefore) {
  // Checkpointing is strictly opt-in: a pipeline that never enabled it must
  // not grow new frame kinds, new stats, or new decisions.
  MemSource source(kCkptDb);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  for (std::uint64_t seq = 1; seq <= 20; ++seq) commit_page_txn(pipe, source, seq);
  EXPECT_FALSE(pipe.checkpoints_enabled());
  EXPECT_EQ(pipe.stats().checkpoints_completed, 0u);
  EXPECT_EQ(pipe.stats().redo_truncated_bytes, 0u);
  EXPECT_FALSE(pipe.checkpoint().valid);
  EXPECT_EQ(pipe.decide_rejoin(13, 1), repl::RedoPipeline::RejoinDecision::kDelta)
      << "default history still covers everything";
  EXPECT_EQ(link.count(repl::FrameKind::kCkptBegin), 0u);
  EXPECT_EQ(link.count(repl::FrameKind::kCkptEnd), 0u);
}

// ---- read-your-writes snapshot reads ---------------------------------------
//
// The backup read API: snapshot reads at the applied watermark with the
// CommitTicket min_seq contract — a reader holding ticket S bounces until
// the replica has applied S, and never observes state older than S once
// served. Wire-level coverage (epoll server, real TCP) lives in
// async_server_test; takeover-under-load coverage in chaos_soak_test.

TEST(ReadYourWrites, LaggardBackupBouncesUntilItAppliesTheTicketSeq) {
  MemSource source(4096);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) commit_one(pipe, source, seq);
  ASSERT_EQ(link.count(repl::FrameKind::kRedoBatch), 3u);

  MemTarget target(4096);
  repl::RedoApplier applier(target);
  const std::vector<std::uint8_t> zeros(4096, 0);
  applier.seed(zeros.data(), zeros.size(), 0, 1);
  ScriptedLink reply;
  // The backup lags: only sequences 1..2 arrived.
  applier.on_frame(link.sent[0], reply);
  applier.on_frame(link.sent[1], reply);
  ASSERT_EQ(applier.applied_seq(), 2u);

  std::uint8_t out[8] = {0};
  // A reader holding ticket 3 must bounce — and learn how far the replica got.
  repl::RedoApplier::ReadResult r = applier.read_at_watermark(0, 8, /*min_seq=*/3, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kLagging);
  EXPECT_EQ(r.at_seq, 2u);

  // A reader holding ticket 2 is served NOW, at watermark 2 — its own
  // commit is visible (commit_one writes its seq as the first byte).
  r = applier.read_at_watermark(0, 8, /*min_seq=*/2, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kOk);
  EXPECT_EQ(r.at_seq, 2u);
  EXPECT_EQ(out[0], 2);

  // Sequence 3 lands: the bounced reader's retry now observes its write.
  applier.on_frame(link.sent[2], reply);
  r = applier.read_at_watermark(0, 8, /*min_seq=*/3, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kOk);
  EXPECT_EQ(r.at_seq, 3u);
  EXPECT_EQ(out[0], 3) << "a served read must never show state older than min_seq";

  // Bounds discipline is separate from staleness: a range past the image
  // answers kOutOfBounds, not a park-forever kLagging.
  r = applier.read_at_watermark(4090, 8, 0, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kOutOfBounds);
}

TEST(ReadYourWrites, TakeoverMidReadNeverServesRolledBackSequences) {
  // A 1-safe primary dies with committed-but-unshipped sequences 11..15.
  // The promoted backup holds exactly 1..10: a reader holding ticket 10
  // is served; a reader holding ticket 15 (a commit the takeover rolled
  // back) must bounce forever rather than ever be told "kOk" on older
  // bytes — the bounce is what routes it to the new primary for a fresh
  // commit, preserving "never observe state older than your ticket".
  MemSource source(4096);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  pipe.set_commit_window(16);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) commit_one(pipe, source, seq);
  ASSERT_EQ(link.count(repl::FrameKind::kRedoBatch), 10u);
  // Sequences 11..15 commit locally but never ship (buffered group).
  pipe.set_group_size(8);
  for (std::uint64_t seq = 11; seq <= 15; ++seq) commit_async_one(pipe, source, seq);
  ASSERT_EQ(link.count(repl::FrameKind::kRedoBatch), 10u) << "11..15 must stay buffered";
  ASSERT_EQ(link.count(repl::FrameKind::kRedoGroup), 0u);

  MemTarget target(4096);
  repl::RedoApplier applier(target);
  const std::vector<std::uint8_t> zeros(4096, 0);
  applier.seed(zeros.data(), zeros.size(), 0, 1);
  ScriptedLink reply;
  for (const auto& f : link.sent) applier.on_frame(f, reply);
  ASSERT_EQ(applier.applied_seq(), 10u);

  // Mid-read takeover: the primary is gone (link dropped, never flushed).
  // The reader that was about to read with ticket 10 still succeeds …
  std::uint8_t out[8] = {0};
  repl::RedoApplier::ReadResult r = applier.read_at_watermark(0, 8, /*min_seq=*/10, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kOk);
  EXPECT_EQ(r.at_seq, 10u);
  EXPECT_EQ(out[0], 10);

  // … while the reader holding lost ticket 15 is refused, now and after
  // the promotion: at_seq tells it the surviving lineage ends at 10.
  r = applier.read_at_watermark(0, 8, /*min_seq=*/15, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kLagging);
  EXPECT_EQ(r.at_seq, 10u) << "no read may ever observe a rolled-back sequence";

  // The promoted lineage continues from 10 under a new epoch; a fresh
  // commit (the bounced client's retry) becomes readable at ITS ticket.
  MemSource promoted(4096);
  std::memcpy(promoted.mutable_db(), target.mem.data(), 4096);
  promoted.committed = applier.applied_seq();
  ScriptedLink new_link;
  repl::RedoPipeline new_pipe(promoted, &new_link);
  commit_one(new_pipe, promoted, 11);
  applier.on_frame(new_link.sent.back(), reply);
  r = applier.read_at_watermark(0, 8, /*min_seq=*/11, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kOk);
  EXPECT_EQ(r.at_seq, 11u);
  EXPECT_EQ(out[0], 11);
}

TEST(ReadYourWrites, WireBackupServesTheTicketSeqOnceAcked) {
  // End to end over a real transport: commit ticket S on a WirePrimary,
  // wait for the backup's covering ack (poll_acks, the async front end's
  // pump), then a locked WireBackup::read at min_seq = S must return the
  // committed bytes — while min_seq past the watermark still bounces.
  const StoreConfig config = conformance_config();
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  net::InprocTransport a, b;
  net::InprocTransport::pair(a, b);
  net::WirePrimary primary(arena, config, &a, /*format=*/true);
  primary.set_two_safe(true);
  primary.set_commit_window(8);
  rio::Arena replica = rio::Arena::create(config.db_size);
  net::WireBackup backup(replica);
  std::thread backup_thread([&] { backup.serve(b, 4000); });
  ASSERT_TRUE(primary.sync_backup());

  const std::uint64_t off = 512, value = 0x5afe5afe5afe5afeull;
  std::uint8_t* db = primary.db();
  primary.begin_transaction();
  primary.set_range(db + off, 8);
  primary.bus().write(db + off, &value, 8, sim::TrafficClass::kModified);
  primary.commit_transaction();
  const std::uint64_t ticket = primary.committed_seq();

  for (int i = 0; i < 5000 && primary.peer_acked_seq(0) < ticket; ++i) {
    primary.pipeline().poll_acks();
    usleep(200);
  }
  ASSERT_GE(primary.peer_acked_seq(0), ticket) << "backup never acked the commit";

  std::uint8_t out[8] = {0};
  repl::RedoApplier::ReadResult r = backup.read(off, 8, ticket, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kOk);
  EXPECT_GE(r.at_seq, ticket);
  std::uint64_t got;
  std::memcpy(&got, out, 8);
  EXPECT_EQ(got, value);

  r = backup.read(off, 8, backup.watermark() + 100, out);
  EXPECT_EQ(r.status, repl::RedoApplier::ReadStatus::kLagging)
      << "a ticket past the watermark must bounce, not serve stale bytes";

  a.close_peer();
  b.close_peer();
  backup_thread.join();
}

// ---- cross-shard 2PC regression tests --------------------------------------
//
// The prepare/decide hooks shard::CrossShardCoordinator drives: phase-1
// batches are buffered in-doubt on the backup (sequence consumed, bytes
// deferred), phase-2 decides apply or discard them, and takeover resolution
// replays the same rule through resolve_in_doubt().

TEST(CrossShard2pc, PrepareBuffersInDoubtAndDecideCommitApplies) {
  MemSource source(4096);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  MemTarget target(4096);
  repl::RedoApplier applier(target);
  const std::vector<std::uint8_t> zeros(4096, 0);
  applier.seed(zeros.data(), zeros.size(), 0, 1);
  ScriptedLink reply;

  commit_one(pipe, source, 1);  // an ordinary commit keeps the stream live
  pipe.begin();
  const std::uint8_t data[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  pipe.stage(64, data, sizeof data);
  source.committed = 2;
  pipe.prepare_cross(2, /*xid=*/42);
  EXPECT_EQ(pipe.in_doubt(), 1u);
  EXPECT_EQ(pipe.stats().prepares_shipped, 1u);

  for (const auto& f : link.sent) {
    ASSERT_EQ(applier.on_frame(f, reply), repl::RedoApplier::FrameResult::kOk);
  }
  EXPECT_EQ(applier.applied_seq(), 2u) << "the prepare consumes its sequence";
  EXPECT_EQ(applier.in_doubt(), 1u);
  EXPECT_EQ(applier.stats().prepares_buffered, 1u);
  EXPECT_EQ(target.mem[64], 0) << "prepared bytes must not touch the image";

  link.sent.clear();
  EXPECT_TRUE(pipe.decide_cross(42, /*commit=*/true));
  EXPECT_EQ(pipe.in_doubt(), 0u);
  EXPECT_EQ(pipe.stats().decides_shipped, 1u);
  EXPECT_FALSE(pipe.decide_cross(42, true)) << "already resolved";

  for (const auto& f : link.sent) {
    ASSERT_EQ(applier.on_frame(f, reply), repl::RedoApplier::FrameResult::kOk);
  }
  EXPECT_EQ(applier.in_doubt(), 0u);
  EXPECT_EQ(applier.stats().decides_committed, 1u);
  EXPECT_EQ(target.mem[64], 9) << "the decide applies the buffered bytes";
  EXPECT_EQ(applier.applied_seq(), 2u) << "applying the decision must not re-advance";
}

TEST(CrossShard2pc, AbortKeepsHistoryContiguousAndImageUntouched) {
  MemSource source(4096);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  commit_one(pipe, source, 1);
  pipe.begin();
  const std::uint8_t data[8] = {7, 7, 7, 7, 7, 7, 7, 7};
  pipe.stage(128, data, sizeof data);
  source.committed = 2;
  pipe.prepare_cross(2, /*xid=*/7);
  EXPECT_TRUE(pipe.decide_cross(7, /*commit=*/false));
  commit_one(pipe, source, 3);

  // Live stream: the backup consumes the aborted slot without writing.
  MemTarget target(4096);
  repl::RedoApplier applier(target);
  const std::vector<std::uint8_t> zeros(4096, 0);
  applier.seed(zeros.data(), zeros.size(), 0, 1);
  ScriptedLink reply;
  for (const auto& f : link.sent) {
    ASSERT_EQ(applier.on_frame(f, reply), repl::RedoApplier::FrameResult::kOk);
  }
  EXPECT_EQ(applier.applied_seq(), 3u);
  EXPECT_EQ(applier.stats().decides_aborted, 1u);
  EXPECT_EQ(target.mem[128], 0) << "aborted bytes leaked into the image";

  // Rejoin replay: the empty batch at the aborted sequence advances a
  // laggard past the slot — history has no hole.
  EXPECT_EQ(pipe.decide_rejoin(1, 1), repl::RedoPipeline::RejoinDecision::kDelta);
  MemTarget lag_target(4096);
  repl::RedoApplier laggard(lag_target);
  laggard.seed(zeros.data(), zeros.size(), 0, 1);
  ASSERT_EQ(laggard.on_frame(link.sent.front(), reply),
            repl::RedoApplier::FrameResult::kOk);  // seq 1 only
  ASSERT_EQ(laggard.applied_seq(), 1u);
  repl::Frame request{repl::FrameKind::kRejoinRequest, 1, std::vector<std::uint8_t>(24)};
  const std::uint64_t claimed = 1, node = 9, state_epoch = 1;
  std::memcpy(request.payload.data(), &claimed, 8);
  std::memcpy(request.payload.data() + 8, &node, 8);
  std::memcpy(request.payload.data() + 16, &state_epoch, 8);
  link.inbound.push_back(std::move(request));
  link.sent.clear();
  ASSERT_TRUE(pipe.handle_rejoin(/*timeout_ms=*/0));
  EXPECT_EQ(link.count(repl::FrameKind::kRejoinDelta), 1u);
  for (const auto& f : link.sent) {
    ASSERT_EQ(laggard.on_frame(f, reply), repl::RedoApplier::FrameResult::kOk);
  }
  EXPECT_EQ(laggard.applied_seq(), 3u);
  EXPECT_EQ(lag_target.mem[128], 0);
}

TEST(CrossShard2pc, TakeoverResolutionAppliesOrDiscardsTheBufferedBatch) {
  MemSource source(4096);
  ScriptedLink link;
  repl::RedoPipeline pipe(source, &link);
  pipe.begin();
  const std::uint8_t data[8] = {5, 5, 5, 5, 5, 5, 5, 5};
  pipe.stage(256, data, sizeof data);
  source.committed = 1;
  pipe.prepare_cross(1, /*xid=*/99);

  // Two replicas of the same in-doubt state; the takeover driver resolves
  // one commit, one abort (as two different decision logs would).
  MemTarget commit_target(4096), abort_target(4096);
  repl::RedoApplier commit_side(commit_target), abort_side(abort_target);
  const std::vector<std::uint8_t> zeros(4096, 0);
  commit_side.seed(zeros.data(), zeros.size(), 0, 1);
  abort_side.seed(zeros.data(), zeros.size(), 0, 1);
  ScriptedLink reply;
  for (const auto& f : link.sent) {
    ASSERT_EQ(commit_side.on_frame(f, reply), repl::RedoApplier::FrameResult::kOk);
    ASSERT_EQ(abort_side.on_frame(f, reply), repl::RedoApplier::FrameResult::kOk);
  }
  ASSERT_EQ(commit_side.in_doubt_xids(), std::vector<std::uint64_t>{99});

  EXPECT_FALSE(commit_side.resolve_in_doubt(/*xid=*/1, true)) << "unknown xid";
  EXPECT_TRUE(commit_side.resolve_in_doubt(99, /*commit=*/true));
  EXPECT_TRUE(abort_side.resolve_in_doubt(99, /*commit=*/false));
  EXPECT_EQ(commit_side.in_doubt(), 0u);
  EXPECT_EQ(abort_side.in_doubt(), 0u);
  EXPECT_EQ(commit_target.mem[256], 5);
  EXPECT_EQ(abort_target.mem[256], 0);
  EXPECT_EQ(commit_side.applied_seq(), 1u);
  EXPECT_EQ(abort_side.applied_seq(), 1u);
}

// ---- cross-version 2PC (reconfigurable commit) ------------------------------
// Every transaction is stamped with the ShardMap version it was planned
// against. A prepare that straddles a reconfiguration must resolve exactly
// once against exactly one layout: decided after a cutover it re-routes to
// the new owner (abort-and-retry, counted in retried_2pc); decided against a
// range mid-migration it applies once at the source and the dual-write
// window re-ships the residual — never a dual apply.

// Visits every Debit-Credit record whose owner differs between two maps
// (same key rule as the Rebalancer: record_key -> hash -> owner).
template <typename Fn>
void for_each_moved_record(const shard::ShardMap& from, const shard::ShardMap& to,
                           const wl::DebitCredit& workload, Fn&& fn) {
  const auto scan = [&](unsigned kind, std::size_t count, auto offset_of) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t h =
          shard::hash_key(shard::ShardedCluster::record_key(kind, i));
      const shard::ShardId src = from.shard_of(h);
      const shard::ShardId dst = to.shard_of(h);
      if (src != dst) fn(src, dst, static_cast<std::uint64_t>(offset_of(i)));
    }
  };
  scan(0, workload.num_accounts(), [&](std::size_t i) { return workload.account_offset(i); });
  scan(1, workload.num_tellers(), [&](std::size_t i) { return workload.teller_offset(i); });
  scan(2, workload.num_branches(), [&](std::size_t i) { return workload.branch_offset(i); });
}

TEST(CrossVersionTwoPC, StalePrepareDecidedAfterCutoverReroutesToTheNewOwner) {
  shard::ShardedConfig config;
  config.shards = 2;
  shard::ShardedCluster cluster(config);
  ASSERT_EQ(cluster.run(9, 300, 0.25).committed, 300u);  // seed some balances

  // Plan a batch against the v1 map...
  const shard::ShardMap v1 = cluster.map();
  const shard::Router router(cluster.map());
  Rng rng(10);
  std::vector<shard::TxnDecision> stale;
  for (int i = 0; i < 200; ++i) {
    stale.push_back(
        shard::plan_txn(router, cluster.workload(), cluster.num_shards(), rng, 0.25));
  }

  // ...then run a split to completion BEFORE any of them decide.
  shard::Rebalancer rebalancer(cluster, shard::Rebalancer::Config{16});
  rebalancer.begin_split(0);
  rebalancer.run_to_completion();
  ASSERT_EQ(cluster.map().version(), 2u);

  // One local stale plan whose home range moved: its whole effect must land
  // on the new owner — the old owner's image stays byte-identical (single
  // placement, no dual apply).
  const shard::Router live(cluster.map());
  std::size_t moved = stale.size();
  for (std::size_t i = 0; i < stale.size(); ++i) {
    if (!stale[i].cross && live.route(stale[i].key) != stale[i].home) {
      moved = i;
      break;
    }
  }
  ASSERT_LT(moved, stale.size()) << "no local plan landed in the moved range";
  const shard::ShardId old_home = stale[moved].home;
  const shard::ShardId new_home = live.route(stale[moved].key);
  const std::uint32_t old_crc = cluster.shard_crc(old_home);
  const std::uint32_t new_crc = cluster.shard_crc(new_home);
  ASSERT_TRUE(cluster.execute(stale[moved]));
  EXPECT_EQ(cluster.shard_crc(old_home), old_crc)
      << "the old owner must not see a stale-stamped transaction post-cutover";
  EXPECT_NE(cluster.shard_crc(new_home), new_crc)
      << "the re-routed transaction never reached the new owner";

  // The rest of the batch resolves exactly once each, against the new map.
  for (std::size_t i = 0; i < stale.size(); ++i) {
    if (i != moved) ASSERT_TRUE(cluster.execute(stale[i]));
  }
  EXPECT_GT(cluster.rebalance_counters().retried_2pc, 0u);
  EXPECT_EQ(cluster.resolution_conflicts(), 0u);
  for (unsigned s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.check_replicas(s), "");
  }
  EXPECT_EQ(cluster.check_global_consistency(), "");
  (void)v1;
}

TEST(CrossVersionTwoPC, PrepareAgainstAMidMigrationRangeAppliesOnceAtTheSource) {
  shard::ShardedConfig config;
  config.shards = 2;
  shard::ShardedCluster cluster(config);
  ASSERT_EQ(cluster.run(12, 300, 0.25).committed, 300u);

  const shard::ShardMap v1 = cluster.map();
  const shard::Router router(cluster.map());
  Rng rng(13);
  std::vector<shard::TxnDecision> plans;
  for (int i = 0; i < 120; ++i) {
    plans.push_back(
        shard::plan_txn(router, cluster.workload(), cluster.num_shards(), rng, 0.25));
  }

  // Start the migration but do NOT cut over: the live map is still v1, so
  // the v1-stamped prepares decide against the old layout at the source.
  // Post-transfer commits dirty their records and the dual-write window
  // re-ships the residuals until the cutover finds the moving set clean.
  shard::Rebalancer rebalancer(cluster, shard::Rebalancer::Config{8});
  rebalancer.begin_split(0);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(cluster.execute(plans[i]));
    rebalancer.step();  // interleave chunks; commits keep dirtying records
  }
  bool done = false;
  for (int guard = 0; !done && guard < 10'000; ++guard) {
    if (!rebalancer.step()) done = rebalancer.cutover();
  }
  ASSERT_TRUE(done) << "the migration never converged to a clean cutover";

  // Post-cutover: every moved record's balance lives on the destination
  // only — the source copy is exactly zero. A dual apply would leave the
  // source nonzero (and break the global balance invariant below).
  for_each_moved_record(v1, cluster.map(), cluster.workload(),
                        [&](shard::ShardId src, shard::ShardId, std::uint64_t off) {
                          std::int32_t v;
                          std::memcpy(&v, cluster.primary_db(src) + off, sizeof v);
                          EXPECT_EQ(v, 0) << "residual on the source at offset " << off;
                        });
  EXPECT_EQ(cluster.resolution_conflicts(), 0u);
  EXPECT_EQ(cluster.check_global_consistency(), "");
}

}  // namespace
}  // namespace vrep
