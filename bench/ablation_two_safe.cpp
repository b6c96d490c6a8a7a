// Extension bench: 1-safe vs 2-safe active commits, and the group-commit
// window sweep that buys the 2-safe cost back.
//
// The paper's designs are 1-safe (Section 2.1): commit returns as soon as
// it is durable locally, leaving a microseconds-wide window in which a
// failure loses the last committed transaction. The natural hardening is
// 2-safe: commit waits for the backup's acknowledgment. This bench
// quantifies what that costs on the simulated hardware — the round trip is
// ~2x the SAN propagation delay, which at 600 MHz is many thousands of
// instructions per commit.
//
// The second half sweeps the group-commit knobs on the hardest topology
// (2 backups, 2-safe, quorum K=2): G transactions coalesce into one ring
// unit and up to W shipped sequences may await acks before a commit blocks
// (see repl/pipeline.hpp). W=1/G=1 is the classic blocking commit; the
// sweep shows how overlapping the ack round trip with subsequent commits
// recovers most of the 1-safe throughput while every transaction still
// gets a provable durability verdict via wait()/sync().
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "repl/active.hpp"
#include "sim/alpha_cost_model.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"
#include "workload/debit_credit.hpp"

using namespace vrep;
using harness::ExperimentConfig;
using harness::Mode;

namespace {

struct SweepResult {
  std::uint64_t committed = 0;
  double seconds = 0;        // virtual time (including the final sync)
  double two_safe_wait = 0;  // seconds of commit time spent awaiting acks
};

// 2 backups, 2-safe, quorum K=2 — the topology where every commit's ack
// round trip is fully exposed — with the group-commit knobs applied.
SweepResult run_sweep_cell(unsigned window, unsigned group, std::uint64_t txns) {
  constexpr std::size_t kDbSize = 1u << 20;
  constexpr int kBackups = 2;
  const core::StoreConfig config =
      wl::suggest_config(wl::WorkloadKind::kDebitCredit, kDbSize);
  const sim::AlphaCostModel cost;
  const auto layout = repl::ActiveBackupLayout::make(kDbSize);

  sim::McFabric fabric(cost.link);
  sim::Node pnode(cost, 1, &fabric);
  sim::Node bnode(cost, kBackups, nullptr);

  rio::Arena parena = rio::Arena::create(
      repl::ActivePrimary::primary_arena_bytes(config, layout, kBackups));
  std::vector<rio::Arena> barenas;
  std::vector<std::unique_ptr<repl::ActiveBackup>> backups;
  for (int i = 0; i < kBackups; ++i) {
    barenas.push_back(rio::Arena::create(layout.arena_bytes()));
  }
  for (int i = 0; i < kBackups; ++i) {
    backups.push_back(std::make_unique<repl::ActiveBackup>(
        bnode.cpu(static_cast<std::size_t>(i)), barenas[static_cast<std::size_t>(i)], layout,
        fabric));
  }
  repl::ActivePrimary primary(pnode.cpu().bus(), parena, barenas[0], config, layout,
                              backups[0].get(), /*format=*/true);
  for (int i = 1; i < kBackups; ++i) {
    primary.add_backup(barenas[static_cast<std::size_t>(i)],
                       backups[static_cast<std::size_t>(i)].get());
  }
  primary.set_two_safe(true);
  primary.pipeline().set_quorum(2);
  primary.set_commit_window(window);
  primary.pipeline().set_group_size(group);

  wl::DebitCredit bank(kDbSize);
  bank.initialize(primary);
  primary.flush_initial_state();
  for (auto& b : backups) std::memcpy(b->db(), primary.db(), kDbSize);

  SweepResult r;
  Rng rng(20260806);
  const sim::SimTime start = pnode.cpu().clock().now();
  for (std::uint64_t i = 0; i < txns; ++i) bank.run_txn(primary, rng);
  // Resolve the open window: throughput is measured commit-to-durable, not
  // commit-to-staged, so wider windows cannot cheat by leaving a tail.
  primary.sync();
  const sim::SimTime end = pnode.cpu().clock().now();
  r.committed = primary.committed_seq();
  r.seconds = static_cast<double>(end - start) / 1e9;
  r.two_safe_wait = static_cast<double>(primary.two_safe_wait_ns()) / 1e9;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::uint64_t txns = args.has("quick") ? 15'000 : 60'000;

  Table table("Extension: 1-safe vs 2-safe active commits");
  table.set_header({"benchmark", "safety", "TPS", "us/txn", "loss window"});
  bench::JsonReport report(args, "ablation_two_safe");
  for (const auto workload :
       {wl::WorkloadKind::kDebitCredit, wl::WorkloadKind::kOrderEntry}) {
    for (const bool two_safe : {false, true}) {
      ExperimentConfig config;
      config.mode = Mode::kActive;
      config.workload = workload;
      config.txns_per_stream = txns;
      config.two_safe = two_safe;
      const auto r = run_experiment(config);
      report.add(std::string(wl::workload_name(workload)) + "/" +
                     (two_safe ? "2-safe" : "1-safe"),
                 config, r);
      char per_txn[32];
      std::snprintf(per_txn, sizeof per_txn, "%.2f", 1e6 / r.tps);
      table.add_row({wl::workload_name(workload), two_safe ? "2-safe" : "1-safe",
                     bench::tps_cell(r.tps), per_txn,
                     two_safe ? "none" : "last in-flight commits"});
    }
  }
  table.print();

  // Group-commit sweep on the 2-backup / 2-safe / K=2 topology. --window N
  // --group N appends one extra custom point to the fixed grid.
  const std::uint64_t sweep_txns =
      static_cast<std::uint64_t>(args.get_int("txns", args.has("quick") ? 2'000 : 10'000));
  struct Point {
    unsigned window;
    unsigned group;
  };
  std::vector<Point> points = {{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}, {8, 8}};
  if (args.has("window") || args.has("group")) {
    points.push_back(Point{static_cast<unsigned>(args.get_int("window", 1)),
                           static_cast<unsigned>(args.get_int("group", 1))});
  }

  Table sweep("Group-commit sweep (2 backups, 2-safe, quorum K=2, Debit-Credit)");
  sweep.set_header({"window W", "group G", "TPS", "us/txn", "2-safe wait", "vs W=1/G=1"});
  double baseline_tps = 0;
  for (const Point& p : points) {
    const SweepResult r = run_sweep_cell(p.window, p.group, sweep_txns);
    const double tps = static_cast<double>(r.committed) / r.seconds;
    if (p.window == 1 && p.group == 1 && baseline_tps == 0) baseline_tps = tps;
    char per_txn[32], wait[32], speedup[32];
    std::snprintf(per_txn, sizeof per_txn, "%.2f",
                  r.seconds * 1e6 / static_cast<double>(r.committed));
    std::snprintf(wait, sizeof wait, "%.1f%%", 100.0 * r.two_safe_wait / r.seconds);
    std::snprintf(speedup, sizeof speedup, "%.2fx",
                  baseline_tps == 0 ? 0 : tps / baseline_tps);
    sweep.add_row({Table::num(static_cast<std::uint64_t>(p.window)), Table::num(static_cast<std::uint64_t>(p.group)), bench::tps_cell(tps),
                   per_txn, wait, speedup});

    Json cell = Json::object();
    cell.set("name", "quorum2/W=" + Table::num(static_cast<std::uint64_t>(p.window)) + "/G=" + Table::num(static_cast<std::uint64_t>(p.group)));
    cell.set("window", Json(static_cast<std::uint64_t>(p.window)));
    cell.set("group", Json(static_cast<std::uint64_t>(p.group)));
    cell.set("committed", Json(r.committed));
    cell.set("seconds", Json(r.seconds));
    cell.set("tps", Json(tps));
    cell.set("two_safe_wait_seconds", Json(r.two_safe_wait));
    cell.set("speedup_vs_blocking", Json(baseline_tps == 0 ? 0 : tps / baseline_tps));
    report.add_cell(std::move(cell));
  }
  sweep.print();
  return report.write() ? 0 : 1;
}
