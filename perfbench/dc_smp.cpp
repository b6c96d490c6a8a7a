// dc_smp: Debit-Credit through exec::SmpExecutor — 2 workers, the
// sequencer, and a live WireBackup thread over an InprocTransport, 2-safe
// with W=8/G=4: 4 threads. The only workload that runs exec, the staging
// queue, group fill and the ack window. Transactions are ~100 B, so a
// byte-path change should not move it.
#include <thread>

#include "bench.hpp"
#include "exec/smp_executor.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport_link.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "workload/debit_credit.hpp"

namespace vrep::perfbench {
namespace {

constexpr unsigned kWorkers = 2;
// SmpExecutor::run() is callable once and exposes no boundary inside, so a
// round is one executor run and also the unit of its slices: at ~45k txn/s
// this is about 1.3 s, long enough that set-up and checks stay a small
// share of a run's wall time.
constexpr std::uint64_t kRoundTxnsPerWorker = 30'000;
constexpr double kNominalTps = 45'000;

Round run_round(std::uint64_t seed, const Budget& budget, Tracer* trace) {
  Round r;
  const auto t0 = Clock::now();
  exec::SmpConfig config;
  config.workload = wl::WorkloadKind::kDebitCredit;
  config.workers = kWorkers;
  config.txns_per_worker = budget.ops != 0 ? budget.ops / kWorkers : kRoundTxnsPerWorker;
  config.two_safe = true;
  config.commit_window = 8;
  config.group_size = 4;
  config.seed = seed;

  net::InprocTransport primary_end, backup_end;
  net::InprocTransport::pair(primary_end, backup_end);
  net::TransportLink link{&primary_end};
  std::optional<TracedLink> primary_traced;
  std::optional<TracedTransport> backup_traced;
  repl::ReplicationLink* primary_link = &link;
  net::Transport* backup_tx = &backup_end;
  if (trace != nullptr) {
    primary_link = &primary_traced.emplace(link, *trace->log("dc_smp.sequencer"));
    backup_tx = &backup_traced.emplace(backup_end, *trace->log("dc_smp.backup"),
                                       CarrierTrace::Side::kBackup);
  }
  exec::SmpExecutor executor(config, primary_link);
  rio::Arena replica = rio::Arena::create(executor.image_size());
  net::WireBackup backup(replica);
  std::thread serve([&] { serve_until_closed(backup, *backup_tx); });
  const bool synced = executor.sync_backup();
  r.setup_s = seconds_since(t0);

  metrics::Counter& wait_ns = metrics::counter("repl.primary.commit_wait_ns");
  const std::uint64_t wait0 = wait_ns.value();
  const double cpu0 = process_cpu_s();
  const exec::SmpExecutor::Result result = executor.run();
  r.cpu_s = process_cpu_s() - cpu0;
  r.timed_s = result.seconds;
  r.slices.push_back(Slice{result.seconds, result.committed, r.cpu_s});
  const std::uint64_t wait_delta = wait_ns.value() - wait0;
  primary_end.close_peer();
  serve.join();

  // Correctness gate: every commit quorum-durable and applied, images equal.
  const std::uint64_t expected = config.txns_per_worker * kWorkers;
  const std::uint64_t degraded = executor.pipeline().stats().two_safe_degraded;
  r.attempted = expected;
  r.committed = result.committed;
  r.failed = (expected - std::min(expected, result.committed)) + degraded;
  const std::uint8_t* image = executor.image();
  if (!synced) {
    r.error = "dc_smp: backup join failed";
  } else if (backup.applied_seq() != result.committed) {
    r.error = "dc_smp: backup applied " + std::to_string(backup.applied_seq()) + " of " +
              std::to_string(result.committed) + " committed";
  } else if (Crc32::of(image, executor.image_size()) !=
             Crc32::of(backup.db(), executor.image_size())) {
    r.error = "dc_smp: backup CRC differs from the primary image";
  } else if (const std::string err = executor.check_consistency(); !err.empty()) {
    r.error = "dc_smp: " + err;
  }
  // The audit ring's slot order follows how the two workers interleave, so
  // only the balance records (everything below the ring) are a function of
  // the seed alone.
  const std::size_t stride = config.partition_db_size;
  const std::size_t balances = wl::DebitCredit(stride).history_offset(0);
  Crc32 digest;
  for (unsigned p = 0; p < executor.partition_count(); ++p) {
    digest.update(backup.db() + p * stride, balances);
  }
  r.fingerprint = digest.value();

  if (trace != nullptr) {
    const double txns = static_cast<double>(std::max<std::uint64_t>(1, result.committed));
    const Samples apply = trace->durations("repl.apply");
    r.layers.push_back({"exec.queue_full_waits_per_ktxn",
                        1e3 * static_cast<double>(result.queue_full_waits) / txns, "1/ktxn"});
    r.layers.push_back({"exec.latch_contended_per_ktxn",
                        1e3 * static_cast<double>(result.latch_contended) / txns, "1/ktxn"});
    r.layers.push_back(
        {"repl.txns_per_frame",
         static_cast<double>(executor.pipeline().stats().txns_shipped) /
             static_cast<double>(
                 std::max<std::uint64_t>(1, primary_traced->trace().redo_frames_sent())),
         "txn/frame"});
    r.layers.push_back(
        {"repl.commit_wait_ns_per_txn", static_cast<double>(wait_delta) / txns, "ns"});
    r.layers.push_back({"repl.backup_busy_frac", apply.sum() / 1e9 / result.seconds, "frac"});
    add_percentiles_us(r.layers, "repl.apply_us", apply);
    add_percentiles_us(r.layers, "net.send_us", trace->durations("net.send"));
    add_percentiles_us(r.layers, "net.ack_wait_us", trace->durations("net.ack_wait"));
  }
  return r;
}

}  // namespace

Workload dc_smp_workload() {
  return Workload{
      "dc_smp",
      "Debit-Credit via SmpExecutor, 2 workers, 2-safe W=8 G=4 to a live backup",
      /*threads=*/4,
      /*connections=*/0,
      /*round_seconds=*/0,  // rounds are kRoundTxnsPerWorker per worker, not timed
      [](double seconds) {
        return static_cast<std::uint64_t>(seconds * kNominalTps) / kWorkers * kWorkers;
      },
      run_round,
  };
}

}  // namespace vrep::perfbench
