// shard_2pc: one driver thread runs pre-drawn Debit-Credit plans through
// ShardedCluster::execute() on 2 shards with 1 backup each, 2-safe, 30% of
// them cross-shard. The pure CPU cost of the coordinator, the decision log,
// prepare_cross/decide_cross, in-doubt buffering and the inline carrier,
// with no thread handoff and no latch convoy.
#include "bench.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace vrep::perfbench {
namespace {

constexpr unsigned kShards = 2;
constexpr double kRemoteFraction = 0.30;
constexpr std::size_t kPlanRing = 1u << 17;  // timed rounds cycle through these
constexpr double kNominalTps = 500'000;
constexpr std::uint64_t kMaxTracedTxns = 200'000;

Round run_round(std::uint64_t seed, const Budget& budget, Tracer* trace) {
  Round r;
  const auto t0 = Clock::now();
  shard::ShardedConfig config;
  config.shards = kShards;
  config.backups_per_shard = 1;
  config.two_safe = true;
  shard::ShardedCluster cluster(config);
  const shard::Router router(cluster.map());
  Rng rng(seed);
  // Debit-Credit balances are 32-bit and a timed round cycles through the
  // plans many times, so each lap must leave every balance where it began:
  // the second half of the plans repeats the first with the amounts negated.
  // Otherwise a lap's net drift adds up, lap after lap, until a branch
  // balance wraps and check_global_consistency() fails.
  std::vector<shard::TxnDecision> plans(budget.ops != 0 ? budget.ops : kPlanRing);
  const std::size_t half = plans.size() / 2;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (i < half || i == 2 * half) {
      plans[i] = shard::plan_txn(router, cluster.workload(), kShards, rng, kRemoteFraction);
    } else {
      plans[i] = plans[i - half];
      plans[i].plan.amount = -plans[i].plan.amount;
    }
  }
  SpanLog* log = trace != nullptr ? trace->log("shard_2pc.driver") : nullptr;
  r.setup_s = seconds_since(t0);

  metrics::Counter& prepares = metrics::counter("shard.coord.prepares");
  metrics::Counter& aborts = metrics::counter("shard.coord.aborts");
  const std::uint64_t prepares0 = prepares.value();
  const std::uint64_t aborts0 = aborts.value();
  std::uint64_t cross = 0;
  Slicer slicer(r.slices);
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  slicer.start();
  const std::uint64_t deadline_ns = now_ns() + static_cast<std::uint64_t>(budget.seconds * 1e9);
  std::uint64_t op0 = now_ns();
  for (std::uint64_t i = 0; budget.ops != 0 ? i < budget.ops : op0 < deadline_ns; ++i) {
    const shard::TxnDecision& plan = plans[i % plans.size()];
    bool committed;
    {
      ScopedSpan span(log, plan.cross ? "shard.cross" : "shard.local", i);
      committed = cluster.execute(plan);
    }
    const std::uint64_t op1 = now_ns();
    r.commit_ns.add(op1 - op0);
    r.attempted += 1;
    cross += plan.cross ? 1 : 0;
    if (committed) {
      r.committed += 1;
    } else {
      r.failed += 1;
    }
    slicer.tick(op1, r.committed);
    op0 = op1;
  }
  slicer.finish(r.committed);
  r.timed_s = seconds_since(start);
  r.cpu_s = process_cpu_s() - cpu0;

  // Correctness gate: balance sums, every replica converged, nothing in
  // doubt, and each cross-shard commit burned one prepare seq on its remote.
  std::uint64_t seqs = 0;
  Crc32 digest;
  for (shard::ShardId id = 0; id < kShards && r.error.empty(); ++id) {
    seqs += cluster.shard_committed(id);
    const std::uint32_t crc = cluster.shard_crc(id);
    digest.update(&crc, sizeof crc);
    if (const std::string err = cluster.check_replicas(id); !err.empty()) {
      r.error = "shard_2pc: " + err;
    } else if (cluster.in_doubt(id) != 0) {
      r.error = "shard_2pc: shard " + std::to_string(id) + " left transactions in doubt";
    }
  }
  if (r.error.empty()) {
    if (const std::string err = cluster.check_global_consistency(); !err.empty()) {
      r.error = "shard_2pc: " + err;
    } else if (seqs != r.committed + cross) {
      r.error = "shard_2pc: " + std::to_string(seqs) + " shard seqs for " +
                std::to_string(r.committed) + " commits and " + std::to_string(cross) + " cross";
    }
  }
  r.fingerprint = digest.value();

  if (trace != nullptr) {
    const double txns = static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
    add_percentiles_us(r.layers, "shard.local_us", trace->durations("shard.local"));
    add_percentiles_us(r.layers, "shard.cross_us", trace->durations("shard.cross"));
    r.layers.push_back({"shard.cross_frac", static_cast<double>(cross) / txns, "frac"});
    r.layers.push_back({"shard.prepares_per_cross",
                        static_cast<double>(prepares.value() - prepares0) /
                            static_cast<double>(std::max<std::uint64_t>(1, cross)),
                        "count"});
    r.layers.push_back(
        {"shard.coord.aborts", static_cast<double>(aborts.value() - aborts0), "count"});
  }
  return r;
}

}  // namespace

Workload shard_2pc_workload() {
  return Workload{
      "shard_2pc",
      "one driver thread, 2 shards x 1 backup, 2-safe, 30% cross-shard 2PC",
      /*threads=*/1,
      /*connections=*/0,
      /*round_seconds=*/1.5,
      // Capped: every traced op is a span, and the spans are written out at
      // exit.
      [](double seconds) {
        return std::min<std::uint64_t>(kMaxTracedTxns,
                                       static_cast<std::uint64_t>(seconds * kNominalTps));
      },
      run_round,
  };
}

}  // namespace vrep::perfbench
