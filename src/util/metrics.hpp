// Process-wide named metrics: counters, gauges, and Histogram-backed timers.
//
// Every hot layer (sim bus, Memory Channel interface, replication schemes,
// TCP transport, harness) records into the global Registry so any binary —
// bench, example, or test — can snapshot one coherent picture of what the
// run did and serialize it (see Snapshot::to_json and bench_common.hpp's
// JsonReport).
//
// Cost model: instruments are created once (first use of a name) and then
// updated lock-free — a Counter/Gauge update is one relaxed atomic RMW, so
// sprinkling them on per-store paths is safe. Timers take a mutex per
// record (they update a full Histogram); keep them on per-transaction /
// per-frame paths, not per-byte ones. The recommended call-site pattern is
// a function-local static reference:
//
//   static metrics::Counter& c = metrics::counter("repl.primary.quorum_scans");
//   c.add(1);
//
// which resolves the name exactly once per process. References stay valid
// forever: Registry::reset() zeroes values but never destroys instruments.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.hpp"

namespace vrep {

class Json;

namespace metrics {

// Monotonically increasing event/byte count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-written (or running) signed level, plus a monotone-max helper for
// high-watermarks like peak ring occupancy.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Distribution of u64 samples (latency in ns, sizes in bytes) behind a
// mutex; snapshot() returns a consistent copy.
class Timer {
 public:
  void record(std::uint64_t value, std::uint64_t count = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    h_.add(value, count);
  }
  // Fold a locally-accumulated histogram in with one lock acquisition —
  // cheaper than per-sample record() on hot loops.
  void merge(const Histogram& h) {
    std::lock_guard<std::mutex> lock(mu_);
    h_.merge(h);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return h_;
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    h_.reset();
  }

 private:
  mutable std::mutex mu_;
  Histogram h_;
};

// Point-in-time copy of every instrument, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram>> timers;

  bool empty() const { return counters.empty() && gauges.empty() && timers.empty(); }
  // {"counters": {...}, "gauges": {...}, "timers": {name: {count, mean,
  //  p50, p90, p99, max}}} — zero-valued counters/gauges are kept so a field
  // that legitimately stayed at 0 is distinguishable from one never touched.
  Json to_json() const;
};

class Registry {
 public:
  // The process-wide registry every convenience accessor below resolves in.
  static Registry& global();

  // Get-or-create by name; the returned reference is valid for the process
  // lifetime (instruments are never destroyed, reset() only zeroes them).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);

  Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

inline Counter& counter(const std::string& name) { return Registry::global().counter(name); }
inline Gauge& gauge(const std::string& name) { return Registry::global().gauge(name); }
inline Timer& timer(const std::string& name) { return Registry::global().timer(name); }

}  // namespace metrics
}  // namespace vrep
