// blob_tcp: one client thread commits 64 KiB transactions at random
// page-aligned offsets of a 256 MiB database through WirePrimary, 2-safe
// with W=1, over a real TcpTransport on loopback to one WireBackup thread.
// The undo copy, stage copy, encode, CRC, socket I/O and apply dominate,
// and the working set is far larger than the CPU caches. setup_s is a fresh
// backup's full-image join. exec and the client front end are absent.
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "core/api.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace vrep::perfbench {
namespace {

constexpr std::size_t kDbSize = 256u << 20;
constexpr std::size_t kTxnBytes = 64u << 10;
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kPayloads = 32;    // distinct pre-drawn 64 KiB payloads
constexpr std::size_t kPlanRing = 4096;  // pre-drawn (offset, payload) picks
constexpr double kNominalTps = 2'000;

core::StoreConfig store_config() {
  core::StoreConfig config;
  config.db_size = kDbSize;
  config.max_ranges_per_txn = 4;
  config.undo_log_capacity = 1u << 20;
  config.heap_size = 64u << 10;
  return config;
}

struct Pick {
  std::uint64_t off;
  std::uint32_t payload;
};

Round run_round(std::uint64_t seed, const Budget& budget, Tracer* trace) {
  Round r;
  const auto t0 = Clock::now();
  SpanLog* client_log = trace != nullptr ? trace->log("blob_tcp.client") : nullptr;
  SpanLog* backup_log = trace != nullptr ? trace->log("blob_tcp.backup") : nullptr;

  // Inputs, drawn from the seed before anything is timed.
  Rng rng(seed);
  std::vector<std::uint8_t> payloads(kPayloads * kTxnBytes);
  for (std::size_t i = 0; i < payloads.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(payloads.data() + i, &v, 8);
  }
  std::vector<Pick> picks(kPlanRing);
  for (Pick& p : picks) {
    p.off = rng.below((kDbSize - kTxnBytes) / kPageBytes + 1) * kPageBytes;
    p.payload = static_cast<std::uint32_t>(rng.below(kPayloads));
  }

  const auto arena_t0 = Clock::now();
  rio::Arena arena = rio::Arena::create(
      core::required_arena_size(core::VersionKind::kV3InlineLog, store_config()));
  const double arena_create_s = seconds_since(arena_t0);
  rio::Arena replica = rio::Arena::create(kDbSize);

  net::TcpTransport primary_tcp, backup_tcp;
  if (!primary_tcp.listen(0)) {
    r.error = "blob_tcp: listen failed";
    return r;
  }
  std::optional<TracedTransport> primary_traced, backup_traced;
  net::Transport* primary_tx = &primary_tcp;
  net::Transport* backup_tx = &backup_tcp;
  if (trace != nullptr) {
    primary_tx = &primary_traced.emplace(primary_tcp, *client_log, CarrierTrace::Side::kPrimary);
    backup_tx = &backup_traced.emplace(backup_tcp, *backup_log, CarrierTrace::Side::kBackup);
  }
  net::WireBackup backup(replica);
  const std::uint16_t port = primary_tcp.bound_port();
  std::thread serve([&] {
    if (backup_tcp.connect_to("127.0.0.1", port)) serve_until_closed(backup, *backup_tx);
  });
  bool joined = primary_tcp.accept_peer();
  net::WirePrimary primary(arena, store_config(), primary_tx, /*format=*/true);
  primary.set_two_safe(true);
  primary.set_commit_window(1);
  const auto sync_t0 = Clock::now();
  joined = joined && primary.sync_backup();
  const double full_sync_s = seconds_since(sync_t0);
  r.setup_s = seconds_since(t0);

  std::uint8_t* db = primary.db();
  const std::uint64_t bytes0 = primary_traced ? primary_traced->trace().data_bytes_sent() : 0;
  Slicer slicer(r.slices);
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  slicer.start();
  const auto deadline = start + std::chrono::duration<double>(budget.seconds);
  for (std::uint64_t i = 0; joined && (budget.ops != 0 ? i < budget.ops : Clock::now() < deadline);
       ++i) {
    const Pick& pick = picks[i % kPlanRing];
    std::uint8_t* target = db + pick.off;
    const std::uint8_t* bytes = payloads.data() + std::size_t{pick.payload} * kTxnBytes;
    const std::uint64_t op0 = now_ns();
    primary.begin_transaction();
    {
      ScopedSpan span(client_log, "core.set_range", i);
      primary.set_range(target, kTxnBytes);
    }
    {
      ScopedSpan span(client_log, "repl.stage", i);
      primary.bus().write(target, bytes, kTxnBytes, sim::TrafficClass::kModified);
    }
    {
      ScopedSpan span(client_log, "repl.commit", i);
      primary.commit_transaction();
    }
    const std::uint64_t op1 = now_ns();
    r.commit_ns.add(op1 - op0);
    r.attempted += 1;
    if (primary.last_commit_outcome() == repl::RedoPipeline::CommitOutcome::kQuorumDurable) {
      r.committed += 1;
    } else {
      r.failed += 1;
    }
    slicer.tick(op1, r.committed);
  }
  slicer.finish(r.committed);
  r.timed_s = seconds_since(start);
  r.cpu_s = process_cpu_s() - cpu0;
  const std::uint64_t wire_bytes =
      primary_traced ? primary_traced->trace().data_bytes_sent() - bytes0 : 0;
  primary_tcp.close_peer();
  serve.join();

  // Correctness gate. A self-check pass (an op budget) compares image CRCs,
  // which give its fingerprint and the util.crc_mb_per_s measurement; a
  // timed round compares the bytes, far cheaper than two byte-at-a-time
  // CRCs over 256 MiB (about 1.8 s at ~290 MiB/s).
  bool images_equal = true;
  double crc_s = 0;
  if (budget.ops != 0) {
    const auto crc_t0 = Clock::now();
    const std::uint32_t primary_crc = Crc32::of(primary.db(), kDbSize);
    r.fingerprint = Crc32::of(backup.db(), kDbSize);
    crc_s = seconds_since(crc_t0);
    images_equal = primary_crc == r.fingerprint;
  } else {
    images_equal = std::memcmp(primary.db(), backup.db(), kDbSize) == 0;
  }
  if (!joined) {
    r.error = "blob_tcp: backup join failed";
  } else if (backup.applied_seq() != primary.committed_seq() ||
             primary.committed_seq() != r.attempted) {
    r.error = "blob_tcp: backup applied " + std::to_string(backup.applied_seq()) + " of " +
              std::to_string(primary.committed_seq()) + " committed";
  } else if (!images_equal) {
    r.error = "blob_tcp: backup image differs from the primary image";
  }

  if (trace != nullptr) {
    const Samples apply = trace->durations("repl.apply");
    add_percentiles_us(r.layers, "core.set_range_us", trace->durations("core.set_range"));
    add_percentiles_us(r.layers, "repl.stage_us", trace->durations("repl.stage"));
    add_span_us(r.layers, *trace, "repl.commit");
    add_percentiles_us(r.layers, "net.send_us", trace->durations("net.send"));
    add_percentiles_us(r.layers, "net.ack_wait_us", trace->durations("net.ack_wait"));
    add_percentiles_us(r.layers, "repl.apply_us", apply);
    r.layers.push_back({"repl.backup_busy_frac", apply.sum() / 1e9 / r.timed_s, "frac"});
    r.layers.push_back({"repl.wire_bytes_per_user_byte",
                        static_cast<double>(wire_bytes) /
                            static_cast<double>(std::max<std::uint64_t>(1, r.committed) * kTxnBytes),
                        "B/B"});
    r.layers.push_back({"util.crc_mb_per_s", 2.0 * kDbSize / (1u << 20) / crc_s, "MiB/s"});
    r.layers.push_back({"rio.arena_create_s", arena_create_s, "s"});
    r.layers.push_back({"repl.full_sync_s", full_sync_s, "s"});
  }
  return r;
}

}  // namespace

Workload blob_tcp_workload() {
  return Workload{
      "blob_tcp",
      "64 KiB 2-safe W=1 commits over loopback TCP into a 256 MiB database",
      /*threads=*/2,
      /*connections=*/1,
      /*round_seconds=*/10,
      [](double seconds) { return static_cast<std::uint64_t>(seconds * kNominalTps); },
      run_round,
  };
}

}  // namespace vrep::perfbench
