// Extension bench: availability vs. replication degree and commit safety.
//
// The paper's active scheme ships redo to ONE backup; the generalized
// pipeline fans a commit out to N ordered backups and (in 2-safe mode)
// waits for a quorum K of acknowledgments. This bench quantifies the two
// sides of that trade on the simulated hardware:
//
//   * cost  — virtual-time throughput and the per-commit 2-safe wait as the
//     fan-out and the quorum grow;
//   * availability — at a primary kill right after the last commit: the
//     *proven-durable lag* per survivor (committed sequence minus the
//     highest acknowledgment visibly received — acks ride the cursor
//     write-back one propagation delay behind the apply, and a 1-safe
//     commit never waits for them), the physical loss after the survivors
//     drain their rings, and the promoted survivor's takeover latency.
//
// 2-safe quorum K closes the proven-durable window for the K fastest
// replicas; the unproven tail on the others is what a cascading second
// failure gambles on. All topologies run the identical seeded Debit-Credit
// prefix, so the cells are directly comparable and byte-stable under
// check_drift.py.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "repl/active.hpp"
#include "sim/alpha_cost_model.hpp"
#include "sim/node.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "workload/debit_credit.hpp"

using namespace vrep;

namespace {

struct Topology {
  const char* name;
  int backups;
  bool two_safe;
  unsigned quorum;
};

struct CellResult {
  std::uint64_t committed = 0;
  double seconds = 0;        // virtual time
  double two_safe_wait = 0;  // seconds of commit time spent awaiting acks
  std::uint64_t unacked_best = 0;   // committed - best proven-durable survivor
  std::uint64_t unacked_worst = 0;  // committed - worst proven-durable survivor
  std::uint64_t loss_best = 0;      // committed - most-caught-up survivor (drained)
  std::uint64_t loss_worst = 0;     // committed - least-caught-up survivor (drained)
  double takeover_ms = 0;           // promoted survivor's ring-drain latency
};

CellResult run_cell(const Topology& topo, std::uint64_t txns) {
  constexpr std::size_t kDbSize = 1u << 20;
  const core::StoreConfig config =
      wl::suggest_config(wl::WorkloadKind::kDebitCredit, kDbSize);
  const sim::AlphaCostModel cost;
  const auto layout = repl::ActiveBackupLayout::make(kDbSize);

  sim::McFabric fabric(cost.link);
  sim::Node pnode(cost, 1, &fabric);
  sim::Node bnode(cost, topo.backups, nullptr);

  rio::Arena parena = rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(
      config, layout, static_cast<std::size_t>(topo.backups)));
  std::vector<rio::Arena> barenas;
  std::vector<std::unique_ptr<repl::ActiveBackup>> backups;
  for (int i = 0; i < topo.backups; ++i) {
    barenas.push_back(rio::Arena::create(layout.arena_bytes()));
  }
  for (int i = 0; i < topo.backups; ++i) {
    backups.push_back(std::make_unique<repl::ActiveBackup>(
        bnode.cpu(static_cast<std::size_t>(i)), barenas[static_cast<std::size_t>(i)], layout,
        fabric));
  }
  repl::ActivePrimary primary(pnode.cpu().bus(), parena, barenas[0], config, layout,
                              backups[0].get(), /*format=*/true);
  for (int i = 1; i < topo.backups; ++i) {
    primary.add_backup(barenas[static_cast<std::size_t>(i)], backups[static_cast<std::size_t>(i)].get());
  }
  primary.set_two_safe(topo.two_safe);
  primary.pipeline().set_quorum(topo.quorum);

  wl::DebitCredit bank(kDbSize);
  bank.initialize(primary);
  primary.flush_initial_state();
  for (auto& b : backups) std::memcpy(b->db(), primary.db(), kDbSize);

  CellResult r;
  Rng rng(20260806);
  const sim::SimTime start = pnode.cpu().clock().now();
  for (std::uint64_t i = 0; i < txns; ++i) bank.run_txn(primary, rng);
  const sim::SimTime end = pnode.cpu().clock().now();
  r.committed = primary.committed_seq();
  r.seconds = static_cast<double>(end - start) / 1e9;
  r.two_safe_wait = static_cast<double>(primary.two_safe_wait_ns()) / 1e9;

  // Kill the primary at its current virtual time. First measure what it can
  // PROVE each replica holds at that instant (visible acknowledgments);
  // then let every backup cut the fabric and drain what physically arrived.
  // Ordered failover promotes the most-caught-up survivor (loss_best);
  // loss_worst is the extra exposure a cascading second failure would add.
  std::vector<std::uint64_t> acked;
  for (auto& b : backups) acked.push_back(b->applied_visible(end));
  r.unacked_best = r.committed - *std::max_element(acked.begin(), acked.end());
  r.unacked_worst = r.committed - *std::min_element(acked.begin(), acked.end());

  std::vector<std::uint64_t> survived;
  for (auto& b : backups) survived.push_back(b->takeover(end));
  const std::uint64_t best = *std::max_element(survived.begin(), survived.end());
  const std::uint64_t worst = *std::min_element(survived.begin(), survived.end());
  r.loss_best = r.committed - best;
  r.loss_worst = r.committed - worst;
  const std::size_t heir = static_cast<std::size_t>(
      std::max_element(survived.begin(), survived.end()) - survived.begin());
  r.takeover_ms =
      static_cast<double>(backups[heir]->cpu().clock().now() - end) / 1e6;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::uint64_t txns =
      static_cast<std::uint64_t>(args.get_int("txns", args.has("quick") ? 2'000 : 10'000));

  const Topology topologies[] = {
      {"1-backup/1-safe", 1, false, 1},
      {"1-backup/2-safe", 1, true, 1},
      {"2-backup/2-safe/K=1", 2, true, 1},
      {"2-backup/2-safe/K=2", 2, true, 2},
  };

  Table table("Extension: availability vs. replication degree and quorum");
  table.set_header({"topology", "TPS", "us/txn", "2-safe wait", "unacked@best",
                    "unacked@worst", "takeover"});
  bench::JsonReport report(args, "availability_failover");

  for (const Topology& topo : topologies) {
    const CellResult r = run_cell(topo, txns);
    char per_txn[32], wait[32], takeover[32];
    std::snprintf(per_txn, sizeof per_txn, "%.2f",
                  r.seconds * 1e6 / static_cast<double>(r.committed));
    std::snprintf(wait, sizeof wait, "%.1f%%", 100.0 * r.two_safe_wait / r.seconds);
    std::snprintf(takeover, sizeof takeover, "%.3f ms", r.takeover_ms);
    const double tps = static_cast<double>(r.committed) / r.seconds;
    table.add_row({topo.name, bench::tps_cell(tps), per_txn, wait,
                   Table::num(r.unacked_best) + " txns",
                   Table::num(r.unacked_worst) + " txns", takeover});

    Json cell = Json::object();
    cell.set("name", topo.name);
    cell.set("backups", Json(topo.backups));
    cell.set("two_safe", Json(topo.two_safe));
    cell.set("quorum", Json(static_cast<std::uint64_t>(topo.quorum)));
    cell.set("committed", Json(r.committed));
    cell.set("seconds", Json(r.seconds));
    cell.set("tps", Json(tps));
    cell.set("two_safe_wait_seconds", Json(r.two_safe_wait));
    cell.set("unacked_window_best_txns", Json(r.unacked_best));
    cell.set("unacked_window_worst_txns", Json(r.unacked_worst));
    cell.set("loss_window_best_txns", Json(r.loss_best));
    cell.set("loss_window_worst_txns", Json(r.loss_worst));
    cell.set("takeover_ms", Json(r.takeover_ms));
    report.add_cell(std::move(cell));
  }
  table.print();
  return report.write() ? 0 : 1;
}
