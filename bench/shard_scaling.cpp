// Wall-clock shard scaling: throughput of the partitioned multi-primary
// cluster (shard/sharded_cluster.hpp) as the shard count grows, crossed with
// the Debit-Credit remote-branch fraction. One driver thread per shard
// executes pre-drawn transaction plans through the thread-safe
// ShardedCluster::execute() path, so local transactions from different
// threads latch disjoint shards while cross-shard ones pay the 2PC
// prepare/decide round through ShardedCluster's single-remote commit.
//
// Wall-clock numbers are machine-dependent: the emitted JSON marks the root
// with "wallclock": true and check_drift.py compares only the deterministic
// fields (committed / cross_committed counts, config identity, the
// consistency verdict) exactly, sanity-checking seconds/tps. The transaction
// plans are drawn from fixed per-thread seeds BEFORE timing starts, so the
// deterministic fields never depend on thread interleaving.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace vrep::bench {
namespace {

// "--shards 1,2,4" -> {1,2,4}; any non-digit separates.
std::vector<unsigned> parse_list(const std::string& spec, std::vector<unsigned> fallback) {
  std::vector<unsigned> out;
  unsigned cur = 0;
  bool have = false;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<unsigned>(c - '0');
      have = true;
    } else {
      if (have) out.push_back(cur);
      cur = 0;
      have = false;
    }
  }
  if (have) out.push_back(cur);
  if (out.empty()) out = std::move(fallback);
  return out;
}

int run_main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  JsonReport report(args, "shard_scaling");
  const unsigned hw = std::thread::hardware_concurrency();
  report.set_root("wallclock", Json(true));
  report.set_root("hw_threads", Json(hw));

  std::uint64_t total_txns = 24'000;
  if (args.has("quick")) total_txns = 4'000;
  total_txns =
      static_cast<std::uint64_t>(args.get_int("txns", static_cast<std::int64_t>(total_txns)));
  const std::vector<unsigned> shard_sweep = parse_list(args.get_string("shards", ""), {1, 2, 4});
  const std::vector<unsigned> remote_sweep = parse_list(args.get_string("remote", ""), {0, 10, 30});

  Table table("Shard scaling (wall clock, 2-safe, 1 backup/shard, hw_threads=" +
              std::to_string(hw) + ")");
  table.set_header({"shards", "remote%", "threads", "committed", "cross", "seconds", "tps"});

  for (const unsigned shards : shard_sweep) {
    for (const unsigned remote_pct : remote_sweep) {
      shard::ShardedConfig config;
      config.shards = shards;
      config.backups_per_shard = 1;
      config.two_safe = true;
      shard::ShardedCluster cluster(config);
      const shard::Router router(cluster.map());
      const double remote_fraction = static_cast<double>(remote_pct) / 100.0;

      // One driver thread per shard; plans drawn up front from fixed
      // per-thread seeds so the cross-shard mix is reproducible.
      const unsigned threads = shards;
      const std::uint64_t per_thread = total_txns / threads;
      std::vector<std::vector<shard::TxnDecision>> plans(threads);
      std::uint64_t cross_planned = 0;
      for (unsigned t = 0; t < threads; ++t) {
        Rng rng(0x5ca1e000 + 977 * shards + 31 * remote_pct + t);
        plans[t].reserve(per_thread);
        for (std::uint64_t n = 0; n < per_thread; ++n) {
          plans[t].push_back(
              shard::plan_txn(router, cluster.workload(), shards, rng, remote_fraction));
          cross_planned += plans[t].back().cross ? 1 : 0;
        }
      }

      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> drivers;
      drivers.reserve(threads);
      for (unsigned t = 0; t < threads; ++t) {
        drivers.emplace_back([&cluster, &plans, t] {
          for (const shard::TxnDecision& decision : plans[t]) {
            VREP_CHECK(cluster.execute(decision));
          }
        });
      }
      for (std::thread& d : drivers) d.join();
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

      // The bench doubles as a correctness gate: every replica of every
      // shard byte-identical and the global balance invariant intact.
      std::uint64_t committed = 0;
      bool consistent = cluster.check_global_consistency().empty();
      for (shard::ShardId id = 0; id < shards; ++id) {
        committed += cluster.shard_committed(id);
        consistent = consistent && cluster.check_replicas(id).empty() && cluster.in_doubt(id) == 0;
      }
      VREP_CHECK(consistent);
      // Each cross-shard commit burns a prepare seq on the remote as well.
      VREP_CHECK(committed == per_thread * threads + cross_planned);
      const std::uint64_t txns = per_thread * threads;
      const double tps = seconds > 0 ? static_cast<double>(txns) / seconds : 0.0;

      Json cell = Json::object();
      cell.set("name", "s" + std::to_string(shards) + "_r" + std::to_string(remote_pct));
      cell.set("workload", "debit_credit");
      cell.set("shards", Json(shards));
      cell.set("remote_pct", Json(remote_pct));
      cell.set("threads", Json(threads));
      cell.set("txns", Json(txns));
      cell.set("committed", Json(txns));
      cell.set("cross_committed", Json(cross_planned));
      cell.set("consistent", Json(consistent));
      cell.set("seconds", Json(seconds));
      cell.set("tps", Json(tps));
      report.add_cell(std::move(cell));

      char secs[32];
      std::snprintf(secs, sizeof secs, "%.3f", seconds);
      table.add_row({std::to_string(shards), std::to_string(remote_pct),
                     std::to_string(threads), Table::num(txns), Table::num(cross_planned), secs,
                     tps_cell(tps)});
    }
  }
  table.print();
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vrep::bench

int main(int argc, char** argv) { return vrep::bench::run_main(argc, argv); }
