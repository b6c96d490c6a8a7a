// The shard layer: hash-range map + router, the 2PC decision log, shard-id
// frame routing (net/shard_mux), and the partitioned multi-primary cluster —
// randomized multi-seed cross-shard conformance against a fault-free oracle,
// including kill-one-shard's-primary chaos at every 2PC stage, and a
// threaded cross-shard commit hammer (the TSan preset's second subject).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "net/shard_mux.hpp"
#include "shard/decision_log.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace vrep {
namespace {

// ---- ShardMap / Router ------------------------------------------------------

TEST(ShardMap, UniformPartitionCoversTheHashSpace) {
  const shard::ShardMap map = shard::ShardMap::uniform(4);
  EXPECT_EQ(map.num_shards(), 4u);
  EXPECT_EQ(map.version(), 1u);
  EXPECT_EQ(map.upper_bound(3), ~std::uint64_t{0});
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(~std::uint64_t{0}), 3u);
  // Boundary semantics: an upper bound is inclusive, the next hash belongs
  // to the next shard.
  for (shard::ShardId s = 0; s + 1 < 4; ++s) {
    EXPECT_EQ(map.shard_of(map.upper_bound(s)), s);
    EXPECT_EQ(map.shard_of(map.upper_bound(s) + 1), s + 1);
  }
}

TEST(ShardMap, SingleShardOwnsEverything) {
  const shard::ShardMap map = shard::ShardMap::uniform(1);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(map.shard_of(rng.next_u64()), 0u);
}

TEST(ShardMap, RouterSpreadsKeysOverEveryShard) {
  const shard::ShardMap map = shard::ShardMap::uniform(3);
  const shard::Router router(map);
  std::vector<int> hits(3, 0);
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) hits[router.route(rng.next_u64())] += 1;
  for (int s = 0; s < 3; ++s) {
    EXPECT_GT(hits[s], 600) << "shard " << s << " starved: splitmix64 not spreading";
  }
  // Routing is a pure function of the key.
  EXPECT_EQ(router.route(12345), router.route(12345));
  EXPECT_EQ(router.map_version(), 1u);
}

TEST(ShardMap, JsonRoundTripPreservesBoundsVersionAndNames) {
  const shard::ShardMap map({1ull << 40, 1ull << 60, ~std::uint64_t{0}}, /*version=*/7,
                            {"alpha", "béta-ü", "gamma"});
  const Json encoded = map.to_json();
  const std::optional<shard::ShardMap> decoded = shard::ShardMap::from_json(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == map);
  EXPECT_EQ(decoded->name(1), "béta-ü") << "BMP names must survive the round trip";

  // And through the wire text, not just the tree.
  std::optional<Json> reparsed = Json::parse(encoded.dump());
  ASSERT_TRUE(reparsed.has_value());
  const std::optional<shard::ShardMap> redecoded = shard::ShardMap::from_json(*reparsed);
  ASSERT_TRUE(redecoded.has_value());
  EXPECT_TRUE(*redecoded == map);
}

TEST(ShardMap, FromJsonRejectsMalformedMaps) {
  const shard::ShardMap map = shard::ShardMap::uniform(2);
  Json good = map.to_json();
  EXPECT_TRUE(shard::ShardMap::from_json(good).has_value());

  Json no_version = Json::parse("{\"shards\": []}").value();
  EXPECT_FALSE(shard::ShardMap::from_json(no_version).has_value());

  // Last bound must be 2^64-1 (otherwise some hash has no owner).
  Json truncated = Json::parse(
      "{\"version\": 1, \"shards\": ["
      "{\"id\": 0, \"name\": \"a\", \"upper\": 100}]}").value();
  EXPECT_FALSE(shard::ShardMap::from_json(truncated).has_value());

  // A structurally well-formed document whose RANGE SET is inconsistent must
  // also be rejected — these used to slip straight into a router.
  const auto doc = [](const char* ranges) {
    std::string text =
        "{\"version\": 1, \"shards\": ["
        "{\"id\": 0, \"name\": \"a\"}, {\"id\": 1, \"name\": \"b\"}],"
        "\"ranges\": [";
    text += ranges;
    text += "]}";
    return Json::parse(text).value();
  };

  // Overlapping / unsorted uppers: two ranges claim the same hashes.
  EXPECT_FALSE(shard::ShardMap::from_json(doc(
                   "{\"upper\": 100, \"owner\": 0},"
                   "{\"upper\": 100, \"owner\": 1},"
                   "{\"upper\": 18446744073709551615, \"owner\": 0}"))
                   .has_value())
      << "duplicate uppers overlap";
  EXPECT_FALSE(shard::ShardMap::from_json(doc(
                   "{\"upper\": 200, \"owner\": 0},"
                   "{\"upper\": 100, \"owner\": 1},"
                   "{\"upper\": 18446744073709551615, \"owner\": 0}"))
                   .has_value())
      << "descending uppers overlap";

  // Non-covering: the last upper stops short of 2^64-1.
  EXPECT_FALSE(shard::ShardMap::from_json(doc(
                   "{\"upper\": 100, \"owner\": 0},"
                   "{\"upper\": 18446744073709551614, \"owner\": 1}"))
                   .has_value())
      << "a hole at the top of the hash space has no owner";

  // Owner referencing a shard the document never declared.
  EXPECT_FALSE(shard::ShardMap::from_json(doc(
                   "{\"upper\": 100, \"owner\": 0},"
                   "{\"upper\": 18446744073709551615, \"owner\": 7}"))
                   .has_value())
      << "owner out of range";

  // Version 0 is reserved (0 stamps mean \"legacy, unstamped\" in 2PC).
  Json v0 = Json::parse(
                "{\"version\": 0, \"shards\": [{\"id\": 0, \"name\": \"a\"}],"
                "\"ranges\": [{\"upper\": 18446744073709551615, \"owner\": 0}]}")
                .value();
  EXPECT_FALSE(shard::ShardMap::from_json(v0).has_value());

  // Wrong field types never coerce.
  Json typed = Json::parse(
                   "{\"version\": 1, \"shards\": [{\"id\": 0, \"name\": \"a\"}],"
                   "\"ranges\": [{\"upper\": \"max\", \"owner\": 0}]}")
                   .value();
  EXPECT_FALSE(shard::ShardMap::from_json(typed).has_value());

  // And a consistent new-format document with an explicit owner permutation
  // round-trips (owners are decoupled from range order after a merge).
  Json perm = Json::parse(
                  "{\"version\": 3, \"shards\": ["
                  "{\"id\": 0, \"name\": \"a\"}, {\"id\": 1, \"name\": \"b\"}],"
                  "\"ranges\": [{\"upper\": 100, \"owner\": 1},"
                  "{\"upper\": 18446744073709551615, \"owner\": 0}]}")
                  .value();
  const std::optional<shard::ShardMap> ok = shard::ShardMap::from_json(perm);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->shard_of(50), 1u);
  EXPECT_EQ(ok->shard_of(101), 0u);
  EXPECT_TRUE(shard::ShardMap::from_json(ok->to_json()).has_value());
}

// ---- DecisionLog ------------------------------------------------------------

TEST(DecisionLog, CommitRuleReadsExactlyTheEncodedSlot) {
  const shard::DecisionLog dlog(/*base_off=*/1024, /*slots=*/8);
  std::vector<std::uint8_t> db(2048, 0);

  const std::uint64_t xid = (std::uint64_t{3} << 48) | 41;
  EXPECT_FALSE(dlog.committed(db.data(), xid)) << "zeroed slot = presumed abort";

  std::uint8_t slot[shard::DecisionLog::kSlotBytes];
  shard::DecisionLog::encode_commit(slot, xid);
  std::memcpy(db.data() + dlog.slot_off(xid), slot, sizeof slot);
  EXPECT_TRUE(dlog.committed(db.data(), xid));

  // A different xid hashing to the same slot must NOT read as committed.
  const std::uint64_t other = xid + dlog.slots();
  EXPECT_EQ(dlog.slot_off(other), dlog.slot_off(xid));
  EXPECT_FALSE(dlog.committed(db.data(), other));
}

TEST(DecisionLog, SlotsRecycleModuloTheRing) {
  const shard::DecisionLog dlog(/*base_off=*/0, /*slots=*/4);
  EXPECT_EQ(dlog.slot_off(0), 0u);
  EXPECT_EQ(dlog.slot_off(5), 1 * shard::DecisionLog::kSlotBytes);
  EXPECT_EQ(dlog.slot_off(7), 3 * shard::DecisionLog::kSlotBytes);
  EXPECT_EQ(dlog.bytes(), 4 * shard::DecisionLog::kSlotBytes);
}

TEST(DecisionLog, XidsEncodeTheirHomeShard) {
  const std::uint64_t a = shard::make_xid(2, 1);
  const std::uint64_t b = shard::make_xid(0, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(shard::xid_home(a), 2u);
  EXPECT_EQ(shard::xid_home(b), 0u);
}

// ---- net/shard_mux ----------------------------------------------------------

// A loopback carrier: everything sent comes back on recv (what the other
// side of a real transport would deliver).
class LoopCarrier final : public repl::ReplicationLink {
 public:
  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    const auto* p = static_cast<const std::uint8_t*>(payload);
    inbound.push_back(repl::Frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)});
    return true;
  }
  std::optional<repl::Frame> recv(int) override {
    if (inbound.empty()) {
      err_ = repl::LinkError::kTimeout;
      return std::nullopt;
    }
    repl::Frame f = std::move(inbound.front());
    inbound.pop_front();
    err_ = repl::LinkError::kNone;
    return f;
  }
  repl::LinkError last_error() const override { return err_; }
  bool connected() const override { return true; }

  std::deque<repl::Frame> inbound;

 private:
  repl::LinkError err_ = repl::LinkError::kNone;
};

TEST(ShardMux, RoutesInterleavedFramesByShardId) {
  LoopCarrier carrier;
  net::ShardChannel channel(&carrier);
  repl::ReplicationLink& lane2 = channel.lane(2);
  repl::ReplicationLink& lane7 = channel.lane(7);

  // Interleave sends from both lanes; each frame's kind/epoch stay its own.
  const std::uint8_t a[4] = {0xa, 0xa, 0xa, 0xa};
  const std::uint8_t b[4] = {0xb, 0xb, 0xb, 0xb};
  ASSERT_TRUE(lane2.send(repl::FrameKind::kRedoBatch, 5, a, sizeof a));
  ASSERT_TRUE(lane7.send(repl::FrameKind::kHeartbeat, 9, b, sizeof b));
  ASSERT_TRUE(lane2.send(repl::FrameKind::kConsumerAck, 5, b, sizeof b));

  // lane 7's recv pumps past lane 2's frames (parking them) to its own.
  std::optional<repl::Frame> f7 = lane7.recv(0);
  ASSERT_TRUE(f7.has_value());
  EXPECT_EQ(f7->kind, repl::FrameKind::kHeartbeat);
  EXPECT_EQ(f7->epoch, 9u);
  EXPECT_EQ(f7->payload, std::vector<std::uint8_t>(b, b + 4));

  // lane 2 then drains its parked frames in order.
  std::optional<repl::Frame> f2 = lane2.recv(0);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->kind, repl::FrameKind::kRedoBatch);
  EXPECT_EQ(f2->payload, std::vector<std::uint8_t>(a, a + 4));
  f2 = lane2.recv(0);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->kind, repl::FrameKind::kConsumerAck);
  EXPECT_FALSE(lane2.recv(0).has_value()) << "no third frame for shard 2";
  EXPECT_EQ(lane2.last_error(), repl::LinkError::kTimeout);
  EXPECT_EQ(channel.unroutable(), 0u);
}

TEST(ShardMux, FramesForUnknownShardsAreCountedNotFatal) {
  LoopCarrier carrier;
  net::ShardChannel channel(&carrier);
  repl::ReplicationLink& lane0 = channel.lane(0);

  // A frame for shard 3 (no lane) and a runt frame (no envelope).
  const std::uint32_t three = 3;
  std::vector<std::uint8_t> wrapped(4 + 2, 0);
  std::memcpy(wrapped.data(), &three, 4);
  carrier.inbound.push_back(
      repl::Frame{repl::FrameKind::kHeartbeat, 1, wrapped});
  carrier.inbound.push_back(
      repl::Frame{repl::FrameKind::kHeartbeat, 1, std::vector<std::uint8_t>(2, 0)});
  const std::uint8_t payload[1] = {0x5};
  ASSERT_TRUE(lane0.send(repl::FrameKind::kRedoBatch, 1, payload, 1));

  std::optional<repl::Frame> f = lane0.recv(0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, repl::FrameKind::kRedoBatch);
  EXPECT_EQ(channel.unroutable(), 2u);
}

TEST(ShardMux, StalledLaneInboxIsBoundedAndDropsAreCounted) {
  LoopCarrier carrier;
  net::ShardChannel channel(&carrier);
  repl::ReplicationLink& live = channel.lane(1);
  channel.lane(2);  // opened but never drained: the stalled lane
  channel.set_inbox_capacity(8);
  ASSERT_EQ(channel.inbox_capacity(), 8u);

  // Skewed traffic: a flood for the stalled lane, one frame for the live
  // one behind it. Pumping the live lane's recv must park at most
  // capacity frames for lane 2 and drop (not queue) the rest.
  repl::ReplicationLink& stalled = channel.lane(2);
  const std::uint8_t byte = 0x5;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(stalled.send(repl::FrameKind::kHeartbeat, 1, &byte, 1));
  }
  ASSERT_TRUE(live.send(repl::FrameKind::kRedoBatch, 1, &byte, 1));

  std::optional<repl::Frame> f = live.recv(0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, repl::FrameKind::kRedoBatch);
  EXPECT_EQ(channel.inbox_dropped(), 92u) << "100 parked minus capacity 8";
  EXPECT_EQ(channel.inbox_highwater(), 8u);

  // The stalled lane still drains the frames that fit, then sees the gap
  // as an ordinary empty carrier (its protocol engine resyncs in-band).
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(stalled.recv(0).has_value()) << "parked frame " << i;
  }
  EXPECT_FALSE(stalled.recv(0).has_value());

  // Draining freed space: new traffic parks again instead of dropping.
  ASSERT_TRUE(stalled.send(repl::FrameKind::kHeartbeat, 1, &byte, 1));
  ASSERT_TRUE(live.send(repl::FrameKind::kRedoBatch, 1, &byte, 1));
  ASSERT_TRUE(live.recv(0).has_value());
  EXPECT_TRUE(stalled.recv(0).has_value());
  EXPECT_EQ(channel.inbox_dropped(), 92u) << "no new drops after the drain";
}

// A carrier on which a frame for `lane` arrives every 20 ms, `frames` times,
// after which it falls silent. recv waits for the next arrival within its
// timeout, like a real transport.
class PacedCarrier final : public repl::ReplicationLink {
 public:
  PacedCarrier(std::uint32_t lane, int frames) : lane_(lane), frames_(frames) {}
  bool send(repl::FrameKind, std::uint64_t, const void*, std::size_t) override { return true; }
  std::optional<repl::Frame> recv(int timeout_ms) override {
    constexpr int kPaceMs = 20;
    if (frames_ == 0 || (timeout_ms >= 0 && timeout_ms < kPaceMs)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(std::max(timeout_ms, 0)));
      err_ = repl::LinkError::kTimeout;
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPaceMs));
    frames_--;
    err_ = repl::LinkError::kNone;
    std::vector<std::uint8_t> wrapped(net::ShardChannel::kEnvelopeBytes);
    std::memcpy(wrapped.data(), &lane_, sizeof lane_);
    return repl::Frame{repl::FrameKind::kHeartbeat, 1, std::move(wrapped)};
  }
  repl::LinkError last_error() const override { return err_; }
  bool connected() const override { return true; }

 private:
  std::uint32_t lane_;
  int frames_;
  repl::LinkError err_ = repl::LinkError::kNone;
};

TEST(ShardMux, LaneRecvHonoursOneDeadlineAcrossNeighbourFrames) {
  // Regression: recv_for handed the full timeout to every carrier recv, so
  // each frame parked for a neighbour lane restarted the wait — 50 neighbour
  // frames 20 ms apart held a 100 ms recv for over a second.
  PacedCarrier carrier(/*lane=*/7, /*frames=*/50);
  net::ShardChannel channel(&carrier);
  repl::ReplicationLink& mine = channel.lane(2);
  repl::ReplicationLink& neighbour = channel.lane(7);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(mine.recv(100).has_value());
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_EQ(mine.last_error(), repl::LinkError::kTimeout);
  EXPECT_LT(elapsed_ms, 500) << "the neighbour's frames extended a 100 ms recv";
  EXPECT_TRUE(neighbour.recv(0).has_value()) << "frames that arrived meanwhile stay parked";
}

// ---- cross-shard conformance vs a fault-free oracle -------------------------

using Cluster = shard::ShardedCluster;

// Independently replay the cluster's history: the same seed drives the same
// plan_txn stream; the cluster's trace supplies only the outcomes (commit /
// chaos-abort) and the home commit sequences for audit-ring placement. Any
// divergence between these images and the cluster's surviving replicas is a
// replication or 2PC bug.
std::vector<std::vector<std::uint8_t>> replay_oracle(const Cluster& cluster,
                                                     std::uint64_t seed,
                                                     double remote_fraction,
                                                     const Cluster::RunResult& run) {
  const unsigned n = cluster.num_shards();
  const wl::DebitCredit& workload = cluster.workload();
  const shard::ShardMap map = shard::ShardMap::uniform(n);
  const shard::Router router(map);
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> dbs(
      n, std::vector<std::uint8_t>(cluster.workload_bytes(), 0));
  auto bump = [](std::vector<std::uint8_t>& db, std::size_t off, std::int32_t amount) {
    std::int32_t balance;
    std::memcpy(&balance, db.data() + off, sizeof balance);
    balance += amount;
    std::memcpy(db.data() + off, &balance, sizeof balance);
  };

  for (const Cluster::TxnOutcome& out : run.trace) {
    const shard::TxnDecision d =
        shard::plan_txn(router, workload, n, rng, remote_fraction);
    EXPECT_EQ(d.cross, out.cross) << "oracle diverged from the cluster's plan stream";
    EXPECT_EQ(d.home, out.home);
    EXPECT_EQ(d.remote, out.remote);
    if (!out.committed) continue;  // chaos-aborted 2PC: no effects anywhere
    auto& home = dbs[d.home];
    bump(dbs[d.cross ? d.remote : d.home], workload.account_offset(d.plan.account),
         d.plan.amount);
    bump(home, workload.teller_offset(d.plan.teller), d.plan.amount);
    bump(home, workload.branch_offset(d.plan.branch), d.plan.amount);
    const wl::DebitCredit::HistoryRecord rec{d.plan.account, d.plan.teller,
                                             d.plan.branch, d.plan.amount};
    // The audit record lands in the slot of the home commit that carried it.
    std::memcpy(home.data() + workload.history_offset(out.home_seq - 1), &rec,
                sizeof rec);
  }
  return dbs;
}

void expect_converged(const Cluster& cluster,
                      const std::vector<std::vector<std::uint8_t>>& oracle) {
  for (unsigned s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.in_doubt(s), 0u) << "shard " << s << " still holds in-doubt state";
    EXPECT_EQ(cluster.check_replicas(s), "") << "shard " << s;
    const std::uint32_t want = Crc32::of(oracle[s].data(), oracle[s].size());
    EXPECT_EQ(cluster.shard_crc(s), want)
        << "shard " << s << " surviving image != fault-free oracle";
  }
  EXPECT_EQ(cluster.check_global_consistency(), "");
  EXPECT_EQ(cluster.resolution_conflicts(), 0u)
      << "a transaction was resolved both ways";
}

TEST(ShardConformance, MultiSeedCrossShardHistoriesMatchTheOracle) {
  for (const std::uint64_t seed : {1ull, 42ull, 977ull}) {
    shard::ShardedConfig config;
    config.shards = 3;
    config.backups_per_shard = 2;
    Cluster cluster(config);
    const Cluster::RunResult run = cluster.run(seed, 2000, /*remote_fraction=*/0.3);
    EXPECT_EQ(run.committed, 2000u) << "fault-free: every transaction commits";
    EXPECT_GT(run.cross_committed, 300u) << "remote mix never fired (seed " << seed << ")";
    EXPECT_LT(run.cross_committed, 1200u);
    expect_converged(cluster, replay_oracle(cluster, seed, 0.3, run));
  }
}

TEST(ShardConformance, RemoteFractionZeroNeverCrosses) {
  shard::ShardedConfig config;
  config.shards = 4;
  Cluster cluster(config);
  const Cluster::RunResult run = cluster.run(5, 1000, 0.0);
  EXPECT_EQ(run.committed, 1000u);
  EXPECT_EQ(run.cross_committed, 0u);
  expect_converged(cluster, replay_oracle(cluster, 5, 0.0, run));
}

TEST(ShardConformance, EveryTransactionCrossesAtFractionOne) {
  shard::ShardedConfig config;
  config.shards = 3;
  Cluster cluster(config);
  const Cluster::RunResult run = cluster.run(9, 500, 1.0);
  EXPECT_EQ(run.committed, 500u);
  EXPECT_EQ(run.cross_committed, 500u);
  expect_converged(cluster, replay_oracle(cluster, 9, 1.0, run));
}

// ---- chaos: kill one shard's primary mid-load -------------------------------

struct ChaosCase {
  shard::ChaosSchedule::Point point;
  const char* name;
};

class ShardChaos : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ShardChaos, KillOneShardsPrimaryOthersKeepServing) {
  const ChaosCase& c = GetParam();
  for (const std::uint64_t seed : {3ull, 1234ull}) {
    shard::ShardedConfig config;
    config.shards = 3;
    config.backups_per_shard = 2;  // the promoted shard must stay replicated
    Cluster cluster(config);

    shard::ChaosSchedule chaos;
    chaos.kill_after_txn = 400;
    chaos.point = c.point;
    // 2PC-stage kills target the victim txn's home shard; the between-txns
    // kill takes a fixed shard.
    chaos.target = c.point == shard::ChaosSchedule::Point::kBetweenTxns
                       ? shard::ChaosSchedule::Target::kFixedShard
                       : shard::ChaosSchedule::Target::kHomeShard;
    chaos.shard = 1;

    const double remote_fraction = 0.3;
    const Cluster::RunResult run = cluster.run(seed, 1500, remote_fraction, chaos);
    EXPECT_EQ(run.takeovers, 1u) << c.name;

    // Zero committed-transaction loss: every commit the run reported is in
    // the surviving images (the oracle replays exactly those), and the
    // trace is complete.
    EXPECT_EQ(run.committed + run.chaos_aborted, 1500u) << c.name;
    if (c.point == shard::ChaosSchedule::Point::kAfterPrepare) {
      EXPECT_EQ(run.chaos_aborted, 1u)
          << c.name << ": the in-flight 2PC txn must presume abort";
    } else {
      EXPECT_EQ(run.chaos_aborted, 0u) << c.name;
    }
    expect_converged(cluster, replay_oracle(cluster, seed, remote_fraction, run));

    // The cluster never stopped: transactions kept committing after the kill.
    std::uint64_t post_kill_commits = 0;
    for (std::size_t i = chaos.kill_after_txn; i < run.trace.size(); ++i) {
      if (run.trace[i].committed) post_kill_commits += 1;
    }
    EXPECT_GT(post_kill_commits, 500u)
        << c.name << ": the cluster stalled after the kill";

    // The takeover fenced exactly one shard: its epoch moved, the others'
    // did not (initial epoch = 1 + backups adopted at construction).
    const std::uint64_t base_epoch = 1 + config.backups_per_shard;
    unsigned bumped = 0;
    for (unsigned s = 0; s < cluster.num_shards(); ++s) {
      if (cluster.shard_epoch(s) > base_epoch) {
        bumped += 1;
      } else {
        EXPECT_EQ(cluster.shard_epoch(s), base_epoch);
      }
      EXPECT_EQ(cluster.backup_count(s),
                cluster.shard_epoch(s) > base_epoch ? config.backups_per_shard - 1
                                                    : config.backups_per_shard);
    }
    EXPECT_EQ(bumped, 1u) << c.name << ": a takeover on one shard fenced another";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, ShardChaos,
    ::testing::Values(
        ChaosCase{shard::ChaosSchedule::Point::kBetweenTxns, "between-txns"},
        ChaosCase{shard::ChaosSchedule::Point::kAfterPrepare, "after-prepare"},
        ChaosCase{shard::ChaosSchedule::Point::kAfterHomeCommit, "after-home-commit"}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      std::string n = info.param.name;
      for (char& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

TEST(ShardChaos, KillingTheRemoteAfterHomeCommitStillCommits) {
  // The remote's primary dies after the decision became durable: the
  // transaction IS committed, and the remote's promoted backup must resolve
  // its buffered prepare as commit from the home shard's decision record.
  shard::ShardedConfig config;
  config.shards = 3;
  config.backups_per_shard = 2;
  Cluster cluster(config);
  shard::ChaosSchedule chaos;
  chaos.kill_after_txn = 100;
  chaos.point = shard::ChaosSchedule::Point::kAfterHomeCommit;
  chaos.target = shard::ChaosSchedule::Target::kRemoteShard;
  const Cluster::RunResult run = cluster.run(21, 800, 0.4, chaos);
  EXPECT_EQ(run.takeovers, 1u);
  EXPECT_EQ(run.chaos_aborted, 0u);
  EXPECT_EQ(run.committed, 800u) << "an after-commit kill must lose nothing";
  // The takeover resolved the in-doubt txn as COMMIT.
  bool found_commit_resolution = false;
  for (const auto& [xid, committed] : cluster.resolutions()) {
    if (committed) found_commit_resolution = true;
  }
  EXPECT_TRUE(found_commit_resolution);
  expect_converged(cluster, replay_oracle(cluster, 21, 0.4, run));
}

TEST(ShardChaos, KillingTheRemoteAfterPrepareAborts) {
  // The remote's primary dies holding a prepare, before the home commit:
  // no decision record exists, so the transaction presumes abort and the
  // remote's promoted backup must resolve its buffered prepare as abort —
  // the only resolution this transaction gets.
  shard::ShardedConfig config;
  config.shards = 3;
  config.backups_per_shard = 2;
  Cluster cluster(config);
  shard::ChaosSchedule chaos;
  chaos.kill_after_txn = 100;
  chaos.point = shard::ChaosSchedule::Point::kAfterPrepare;
  chaos.target = shard::ChaosSchedule::Target::kRemoteShard;
  const Cluster::RunResult run = cluster.run(21, 800, 0.4, chaos);
  EXPECT_EQ(run.takeovers, 1u);
  EXPECT_EQ(run.chaos_aborted, 1u) << "the in-flight 2PC txn must presume abort";
  EXPECT_EQ(run.committed, 799u);
  std::size_t aborts = 0;
  for (const auto& [xid, committed] : cluster.resolutions()) {
    if (!committed) aborts += 1;
  }
  EXPECT_EQ(aborts, 1u) << "the takeover resolved the in-doubt prepare as abort, once";
  expect_converged(cluster, replay_oracle(cluster, 21, 0.4, run));
}

// ---- concurrency hammer (TSan subject) --------------------------------------

TEST(ShardHammer, ConcurrentCrossShardCommitsStayConsistent) {
  shard::ShardedConfig config;
  config.shards = 4;
  config.backups_per_shard = 1;
  Cluster cluster(config);
  const shard::Router router(cluster.map());

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 400;
  // Plans are drawn up front (the Rng is not shared); execution interleaves.
  std::vector<std::vector<shard::TxnDecision>> plans(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(0x5eed + t);
    for (int i = 0; i < kTxnsPerThread; ++i) {
      plans[t].push_back(shard::plan_txn(router, cluster.workload(),
                                         cluster.num_shards(), rng, 0.4));
    }
  }
  std::atomic<std::uint64_t> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const shard::TxnDecision& d : plans[t]) {
        if (cluster.execute(d)) committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(committed.load(), static_cast<std::uint64_t>(kThreads * kTxnsPerThread));
  for (unsigned s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.in_doubt(s), 0u);
    EXPECT_EQ(cluster.check_replicas(s), "") << "shard " << s;
  }
  EXPECT_EQ(cluster.check_global_consistency(), "");
  EXPECT_EQ(cluster.resolution_conflicts(), 0u);
}

}  // namespace
}  // namespace vrep
