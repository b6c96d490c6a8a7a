// Experiment runner: assembles a complete simulated configuration
// (version x replication mode x workload x database size x #streams),
// executes it on the virtual machine, and reports the measurements the
// paper's tables are built from — transaction throughput and the
// modified/undo/meta breakdown of the bytes shipped to the backup.
#pragma once

#include <cstdint>
#include <string>

#include "core/api.hpp"
#include "sim/alpha_cost_model.hpp"
#include "sim/traffic.hpp"
#include "util/histogram.hpp"
#include "workload/workload.hpp"

namespace vrep::harness {

enum class Mode { kStandalone, kPassive, kActive };

const char* mode_name(Mode m);

struct ExperimentConfig {
  core::VersionKind version = core::VersionKind::kV3InlineLog;
  Mode mode = Mode::kStandalone;
  wl::WorkloadKind workload = wl::WorkloadKind::kDebitCredit;
  std::size_t db_size = 50ull << 20;
  int streams = 1;                        // >1 = SMP primary (Section 8)
  std::uint64_t txns_per_stream = 100'000;
  std::uint64_t seed = 1;
  // Ablation: undo the Section 5.1 optimisation and write the mirror
  // versions' range array through to the backup as well.
  bool ship_everything_passive = false;
  // Extension: 2-safe active commits (wait for the backup's ack).
  bool two_safe = false;
  sim::AlphaCostModel cost{};
};

struct ExperimentResult {
  double seconds = 0;              // virtual elapsed time (max over streams)
  double tps = 0;                  // aggregate committed transactions / s
  std::uint64_t committed = 0;
  sim::TrafficStats traffic{};     // bytes written through to the backup
  std::uint64_t packets = 0;       // Memory Channel packets on the wire
  double avg_packet_bytes = 0;
  double link_utilization = 0;     // link busy time / elapsed time
  double mc_stall_seconds = 0;     // CPU stalled on a full adapter FIFO
  double flow_stall_seconds = 0;   // active: CPU blocked on a full redo ring
  // Per-transaction virtual-time commit latency (ns), across all streams.
  Histogram commit_latency_ns{};
};

ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace vrep::harness
