// The repo benchmark's measuring program. Usually started by run.py, which
// builds it; see README.md in this directory.
//
//   vrep_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// --trace 0: the named workload, untraced, in rounds (each one a fresh
//   set-up, a timed window, and the correctness gate) until S seconds of
//   timed windows and at least min_rounds set-ups have run. Prints the
//   end-to-end metrics.
// --trace 1: every workload, each as a self-check pair: an untraced and a
//   traced pass over the same op sequence (S/8 seconds each). Their commit
//   counts and end-state digests must agree; the time difference is the
//   tracing overhead. Prints the per-layer metrics of all four workloads
//   and writes every span to --trace-out.
//
// Human-readable lines first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. A failed correctness check
// prints correct=false with no metric values and exits 1.
#include <cpuid.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"

namespace vrep::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

// Client-observed latencies of the workloads that have a per-op boundary.
std::vector<Metric> latency_metrics(const Samples& commit_ns, const Samples& read_ns) {
  std::vector<Metric> out;
  for (const auto& [name, ns] : {std::pair{"commit", &commit_ns}, std::pair{"read", &read_ns}}) {
    if (ns->size() == 0) continue;
    out.push_back({std::string(name) + "_p50_us", ns->percentile(0.50) / 1e3, "us"});
    out.push_back({std::string(name) + "_p99_us", ns->percentile(0.99) / 1e3, "us"});
  }
  return out;
}

// Seed of round `round` of a run with seed `seed` (splitmix64 finalizer).
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + round + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : correct ? metrics : std::vector<Metric>{}) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_metric(const Metric& m) {
  std::printf("  %-48s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

// Every timed run sets up at least this many times; setup_s is the median.
constexpr unsigned kMinRounds = 3;

// --trace 0: rounds of the named workload until the time budget is spent.
// The time is split evenly into max(kMinRounds, seconds / round_seconds)
// rounds; a workload whose rounds are a fixed op count (round_seconds 0)
// repeats them until the timed windows add up to the budget.
int run_timed(const Workload& w, const Args& args) {
  const unsigned rounds =
      w.round_seconds > 0
          ? std::max(kMinRounds, static_cast<unsigned>(std::ceil(args.seconds / w.round_seconds)))
          : kMinRounds;
  const double window = w.round_seconds > 0 ? args.seconds / rounds : 0;
  std::vector<double> setup;
  std::vector<Slice> slices;
  std::vector<std::vector<Metric>> latencies;  // per round
  std::uint64_t attempted = 0, failed = 0, committed = 0;
  double timed = 0, cpu = 0;
  std::string error;
  std::printf("# workload %s: %s\n", w.name, w.why);
  std::printf("# %-6s %10s %10s %12s %14s %12s\n", "round", "setup_s", "timed_s", "committed",
              "txn/s", "cpu_us/txn");
  for (std::uint64_t round = 0;
       error.empty() && (round < rounds || (window == 0 && timed < args.seconds)); ++round) {
    const Round r = w.run_round(round_seed(args.seed, round), Budget{window, 0}, nullptr);
    attempted += r.attempted;
    failed += r.failed;
    committed += r.committed;
    error = r.error;
    timed += r.timed_s;
    cpu += r.cpu_s;
    setup.push_back(r.setup_s);
    slices.insert(slices.end(), r.slices.begin(), r.slices.end());
    latencies.push_back(latency_metrics(r.commit_ns, r.read_ns));
    std::printf("# %-6llu %10.4f %10.4f %12llu %14.1f %12.3f\n",
                static_cast<unsigned long long>(round), r.setup_s, r.timed_s,
                static_cast<unsigned long long>(r.committed),
                static_cast<double>(r.committed) / r.timed_s,
                r.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, r.committed)));
  }
  if (!error.empty() || failed != 0 || slices.empty()) {
    std::printf("# CHECK FAILED: %s (%llu of %llu ops failed)\n",
                !error.empty() ? error.c_str() : failed != 0 ? "failed ops" : "no timed slice",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    print_result(false, std::max<std::uint64_t>(1, attempted), failed, {});
    return 1;
  }

  std::vector<double> tps, cpu_per_txn;
  for (const Slice& s : slices) {
    tps.push_back(static_cast<double>(s.committed) / s.seconds);
    cpu_per_txn.push_back(s.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, s.committed)));
  }
  // End-to-end metrics (BENCHMARK.json). Throughput and CPU cost are the
  // upper/lower quartile over slices: the rate the code reaches whenever
  // the host runs at speed (README.md, "Why slices").
  const std::vector<Metric> e2e = {
      {"commit_tps", quantile(tps, 0.75), "txn/s"},
      {"cpu_us_per_txn", quantile(cpu_per_txn, 0.25), "us"},
      {"setup_s", quantile(setup, 0.5), "s"},
      {"max_rss_mb", max_rss_mb(), "MiB"},
  };
  std::printf("# slices: %zu of ~%.2f s; whole window %.1f txn/s, %.3f us CPU/txn\n",
              slices.size(), Slicer::kSliceSeconds, static_cast<double>(committed) / timed,
              cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, committed)));
  std::printf("# slice txn/s    q25 %.1f  median %.1f  q75 %.1f\n", quantile(tps, 0.25),
              quantile(tps, 0.5), quantile(tps, 0.75));
  std::printf("# slice cpu_us   q25 %.3f  median %.3f  q75 %.3f\n", quantile(cpu_per_txn, 0.25),
              quantile(cpu_per_txn, 0.5), quantile(cpu_per_txn, 0.75));
  // Latencies exist where the workload has a per-op boundary; dc_smp has
  // none (SmpExecutor::run exposes no per-txn completion).
  std::printf("# latency: median over %zu rounds of each round's percentiles (first %zu ops)\n",
              latencies.size(), Samples::kMaxSamples);
  for (std::size_t i = 0; i < latencies.front().size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& round : latencies) values.push_back(round[i].value);
    print_metric({latencies.front()[i].name, quantile(values, 0.5), latencies.front()[i].unit});
  }
  std::printf("# end-to-end\n");
  for (const Metric& m : e2e) print_metric(m);
  std::printf("  ops_attempted: %llu  ops_failed: %llu\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  print_result(true, attempted, failed, e2e);
  return 0;
}

// --trace 1: a self-check pair per workload; per-layer metrics of all four.
int run_traced(const std::vector<Workload>& all, const Args& args) {
  std::FILE* spans = args.trace_out.empty() ? nullptr : std::fopen(args.trace_out.c_str(), "w");
  std::vector<Metric> layers;
  std::uint64_t attempted = 0, failed = 0;
  std::string error;
  for (const Workload& w : all) {
    const Budget budget{0, w.pass_ops(args.seconds / 8)};
    const std::uint64_t seed = round_seed(args.seed, 0);
    const Round plain = w.run_round(seed, budget, nullptr);
    Tracer tracer;
    const Round traced = w.run_round(seed, budget, &tracer);
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    if (error.empty()) error = !plain.error.empty() ? plain.error : traced.error;
    if (error.empty() &&
        (plain.committed != traced.committed || plain.fingerprint != traced.fingerprint)) {
      error = std::string(w.name) + ": traced and untraced passes disagree (" +
              std::to_string(plain.committed) + " vs " + std::to_string(traced.committed) +
              " commits)";
    }
    const double overhead = (traced.timed_s / plain.timed_s - 1) * 100;
    std::printf("# %s: %llu ops per pass, untraced %.4f s, traced %.4f s, overhead %.2f%%\n",
                w.name, static_cast<unsigned long long>(budget.ops), plain.timed_s,
                traced.timed_s, overhead);
    // The untraced pass's client latencies ride along: they are end-to-end
    // numbers, but only the workloads with a per-op boundary have them.
    std::vector<Metric> metrics = latency_metrics(plain.commit_ns, plain.read_ns);
    metrics.insert(metrics.end(), traced.layers.begin(), traced.layers.end());
    metrics.push_back({"trace.overhead_pct", overhead, "%"});
    for (const Metric& m : metrics) {
      layers.push_back({std::string(w.name) + "." + m.name, m.value, m.unit});
    }
    if (spans != nullptr) tracer.write_jsonl(spans, w.name);
  }
  if (spans != nullptr) std::fclose(spans);
  if (!error.empty() || failed != 0) {
    std::printf("# CHECK FAILED: %s (%llu of %llu ops failed)\n",
                error.empty() ? "failed ops" : error.c_str(),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    print_result(false, std::max<std::uint64_t>(1, attempted), failed, {});
    return 1;
  }
  std::printf("# per-layer (traced passes)\n");
  for (const Metric& m : layers) print_metric(m);
  print_result(true, attempted, failed, layers);
  return 0;
}

int run_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: vrep_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const std::vector<Workload> all = {dc_smp_workload(), blob_tcp_workload(), kv_ryw_workload(),
                                     shard_2pc_workload()};
  const Workload* chosen = nullptr;
  for (const Workload& w : all) {
    if (args.workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (dc_smp, blob_tcp, kv_ryw, shard_2pc)\n",
                 args.workload.c_str());
    return 2;
  }
  const unsigned cpus = nproc();
  std::printf("# host nproc=%u cpu=\"%s\" sse4_2=%d seed=%llu seconds=%g trace=%d\n", cpus,
              cpu_model().c_str(), __builtin_cpu_supports("sse4.2") ? 1 : 0,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  // A thread or connection budget above nproc turns scheduling into the
  // measurement; refuse it rather than report a number.
  for (const Workload& w : all) {
    if (!args.trace && &w != chosen) continue;  // a traced run runs all four
    if (w.threads > cpus || w.connections > cpus) {
      std::fprintf(stderr, "%s needs %u threads and %u connections, host has nproc=%u\n",
                   w.name, w.threads, w.connections, cpus);
      return 2;
    }
  }
  return args.trace ? run_traced(all, args) : run_timed(*chosen, args);
}

}  // namespace
}  // namespace vrep::perfbench

int main(int argc, char** argv) { return vrep::perfbench::run_main(argc, argv); }
