#include "harness/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "repl/active.hpp"
#include "repl/passive.hpp"
#include "rio/arena.hpp"
#include "sim/node.hpp"
#include "util/metrics.hpp"

namespace vrep::harness {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kStandalone:
      return "standalone";
    case Mode::kPassive:
      return "passive backup";
    case Mode::kActive:
      return "active backup";
  }
  return "unknown";
}

namespace {

// Extra bytes of bookkeeping per V0 undo record (see StoreConfig and
// DESIGN.md).
constexpr std::size_t kV0MetaPadBytes = 195;

// Everything belonging to one transaction stream (one primary CPU).
struct Stream {
  rio::Arena primary_arena;
  rio::Arena backup_arena;
  std::unique_ptr<core::TransactionStore> store;
  std::unique_ptr<repl::ActiveBackup> active_backup;
  std::unique_ptr<wl::Workload> workload;
  Rng rng{1};
  std::uint64_t remaining = 0;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const bool replicated = config.mode != Mode::kStandalone;

  std::unique_ptr<sim::McFabric> fabric;
  if (replicated) fabric = std::make_unique<sim::McFabric>(config.cost.link);

  sim::Node primary(config.cost, config.streams, fabric.get());
  // The active scheme involves the backup's CPUs (one per stream, matching
  // the paper's SMP backup); passive backups have no active CPU but we still
  // need bus contexts for takeover in tests — not here.
  std::unique_ptr<sim::Node> backup_node;
  if (config.mode == Mode::kActive) {
    backup_node = std::make_unique<sim::Node>(config.cost, config.streams, nullptr);
  }

  core::StoreConfig store_config = wl::suggest_config(config.workload, config.db_size);
  store_config.v0_meta_pad_bytes = kV0MetaPadBytes;

  std::vector<std::unique_ptr<Stream>> streams;
  for (int s = 0; s < config.streams; ++s) {
    auto stream = std::make_unique<Stream>();
    sim::Cpu& cpu = primary.cpu(static_cast<std::size_t>(s));

    if (config.mode == Mode::kActive) {
      const auto layout = repl::ActiveBackupLayout::make(config.db_size);
      stream->primary_arena =
          rio::Arena::create(repl::ActivePrimary::primary_arena_bytes(store_config, layout));
      stream->backup_arena = rio::Arena::create(layout.arena_bytes());
      stream->active_backup = std::make_unique<repl::ActiveBackup>(
          backup_node->cpu(static_cast<std::size_t>(s)), stream->backup_arena, layout, *fabric);
      auto active_primary = std::make_unique<repl::ActivePrimary>(
          cpu.bus(), stream->primary_arena, stream->backup_arena, store_config, layout,
          stream->active_backup.get(), /*format=*/true);
      active_primary->pipeline().set_two_safe(config.two_safe);
      stream->store = std::move(active_primary);
    } else {
      const std::size_t arena_bytes = core::required_arena_size(config.version, store_config);
      stream->primary_arena = rio::Arena::create(arena_bytes);
      stream->store =
          core::make_store(config.version, cpu.bus(), stream->primary_arena, store_config,
                           /*format=*/true);
      if (config.mode == Mode::kPassive) {
        stream->backup_arena = rio::Arena::create(arena_bytes);
        repl::setup_passive_replication(*stream->store, stream->primary_arena,
                                        stream->backup_arena,
                                        config.ship_everything_passive);
      }
    }

    stream->workload = wl::make_workload(config.workload, config.db_size);
    stream->workload->initialize(*stream->store);
    stream->store->flush_initial_state();
    if (config.mode == Mode::kPassive) {
      // Ship the initial database image out of band (off the measured path),
      // exactly as an operator would seed a backup before enabling it.
      std::memcpy(stream->backup_arena.data(), stream->primary_arena.data(),
                  stream->primary_arena.size());
    } else if (config.mode == Mode::kActive) {
      std::memcpy(stream->active_backup->db(), stream->store->db(), config.db_size);
    }

    stream->rng = Rng(config.seed * 1000003u + static_cast<std::uint64_t>(s));
    stream->remaining = config.txns_per_stream;
    streams.push_back(std::move(stream));
  }

  // Run. Each step advances the stream with the smallest virtual clock, so
  // with several streams contention for the shared link is resolved in
  // (approximately transaction-granular) timestamp order.
  // Commit latency = this stream's virtual-clock delta across one txn
  // (dispatch + workload + replication stalls); feeds the per-run result
  // histogram and the process-wide registry timer.
  ExperimentResult result;
  metrics::Timer& latency_timer = metrics::timer("harness.commit_latency_ns");
  while (true) {
    Stream* best = nullptr;
    sim::Cpu* best_cpu = nullptr;
    for (int s = 0; s < config.streams; ++s) {
      if (streams[s]->remaining == 0) continue;
      sim::Cpu& cpu = primary.cpu(static_cast<std::size_t>(s));
      if (best == nullptr || cpu.clock().now() < best_cpu->clock().now()) {
        best = streams[s].get();
        best_cpu = &cpu;
      }
    }
    if (best == nullptr) break;
    const sim::SimTime t0 = best_cpu->clock().now();
    best_cpu->bus().charge(config.cost.txn_dispatch_ns);
    best->workload->run_txn(*best->store, best->rng);
    result.commit_latency_ns.add(static_cast<std::uint64_t>(best_cpu->clock().now() - t0));
    --best->remaining;
  }
  latency_timer.merge(result.commit_latency_ns);

  // Quiesce: resolve outstanding tickets (a provable no-op at the default
  // W=1, G=1 the harness runs), then drain write buffers and deliver
  // everything in flight.
  for (int s = 0; s < config.streams; ++s) {
    sim::Cpu& cpu = primary.cpu(static_cast<std::size_t>(s));
    if (auto* active = dynamic_cast<repl::ActivePrimary*>(streams[s]->store.get())) {
      active->pipeline().sync();
    }
    if (cpu.mc() != nullptr) {
      cpu.mc()->flush();
      result.traffic += cpu.mc()->traffic();
      result.mc_stall_seconds += sim::to_seconds(cpu.mc()->stall_ns());
    }
    result.committed += streams[s]->store->committed_seq();
    result.seconds = std::max(result.seconds, sim::to_seconds(cpu.clock().now()));
    if (auto* active = dynamic_cast<repl::ActivePrimary*>(streams[s]->store.get())) {
      result.flow_stall_seconds += sim::to_seconds(active->flow_stall_ns());
    }
  }
  if (fabric != nullptr) {
    fabric->deliver_all();
    result.packets = fabric->total_packets();
    result.avg_packet_bytes =
        result.packets == 0
            ? 0
            : static_cast<double>(fabric->total_bytes()) / static_cast<double>(result.packets);
    result.link_utilization =
        result.seconds == 0 ? 0 : sim::to_seconds(fabric->link().busy_ns) / result.seconds;
  }
  result.tps = result.seconds == 0 ? 0 : static_cast<double>(result.committed) / result.seconds;
  return result;
}

}  // namespace vrep::harness
