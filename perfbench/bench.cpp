#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace vrep::perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::percentile(double q) const {
  if (v_.empty()) return 0;
  std::vector<std::uint64_t> copy = v_;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(copy.size())));
  const std::size_t k = std::min(copy.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(k), copy.end());
  return static_cast<double>(copy[k]);
}

double Samples::sum() const {
  return static_cast<double>(std::accumulate(v_.begin(), v_.end(), std::uint64_t{0}));
}

void add_percentiles_us(std::vector<Metric>& out, const std::string& prefix, const Samples& ns) {
  out.push_back({prefix + "_p50", ns.percentile(0.50) / 1e3, "us"});
  out.push_back({prefix + "_p99", ns.percentile(0.99) / 1e3, "us"});
}

void add_span_us(std::vector<Metric>& out, const Tracer& trace, const char* span) {
  add_percentiles_us(out, std::string(span) + "_us", trace.durations(span));
  add_percentiles_us(out, std::string(span) + "_self_us", trace.durations(span, /*self=*/true));
}

// ---- slices -------------------------------------------------------------------

void Slicer::start() {
  slice_start_ns_ = now_ns();
  slice_end_ns_ = slice_start_ns_ + static_cast<std::uint64_t>(kSliceSeconds * 1e9);
  committed0_ = 0;
  cpu0_ = process_cpu_s();
}

void Slicer::cut(std::uint64_t now, std::uint64_t committed) {
  const double cpu = process_cpu_s();
  out_.push_back(Slice{static_cast<double>(now - slice_start_ns_) / 1e9, committed - committed0_,
                       cpu - cpu0_});
  slice_start_ns_ = now;
  slice_end_ns_ = now + static_cast<std::uint64_t>(kSliceSeconds * 1e9);
  committed0_ = committed;
  cpu0_ = cpu;
}

void Slicer::finish(std::uint64_t committed) {
  const std::uint64_t now = now_ns();
  if (static_cast<double>(now - slice_start_ns_) >= kSliceSeconds * 0.5e9) cut(now, committed);
}

// ---- spans ------------------------------------------------------------------

void SpanLog::open(const char* name, std::uint64_t op) {
  stack_.push_back(Open{name, now_ns(), 0, op});
}

void SpanLog::close() {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end - o.start_ns;
  spans_.push_back(Span{o.name, o.start_ns, end, dur - std::min(dur, o.child_ns), o.op});
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

void SpanLog::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint64_t op) {
  const std::uint64_t dur = end_ns - start_ns;
  spans_.push_back(Span{name, start_ns, end_ns, dur, op});
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

SpanLog* Tracer::log(const std::string& thread) {
  logs_.push_back(std::make_unique<SpanLog>(thread));
  return logs_.back().get();
}

Samples Tracer::durations(const char* name, bool self) const {
  Samples out;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (std::string_view(s.name) == name) out.add(self ? s.self_ns : s.end_ns - s.start_ns);
    }
  }
  return out;
}

void Tracer::write_jsonl(std::FILE* out, const std::string& pass) const {
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(out,
                   "{\"pass\":\"%s\",\"thread\":\"%s\",\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"self_ns\":%llu,\"op\":%llu}\n",
                   pass.c_str(), log->thread().c_str(), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.self_ns),
                   static_cast<unsigned long long>(s.op));
    }
  }
}

void serve_until_closed(net::WireBackup& backup, net::Transport& transport) {
  net::WireBackup::ServeOptions options;
  options.idle_timeout_ms = 1000;
  while (backup.serve(transport, options) == net::WireBackup::ServeResult::kPrimaryFailed) {
  }
}

// ---- carrier tracing ------------------------------------------------------------

bool CarrierTrace::is_redo(std::uint8_t type) {
  const auto t = static_cast<net::MsgType>(type);
  return t == net::MsgType::kRedoBatch || t == net::MsgType::kRedoGroup;
}

bool CarrierTrace::is_data(std::uint8_t type) {
  const auto t = static_cast<net::MsgType>(type);
  return is_redo(type) || t == net::MsgType::kXPrepare || t == net::MsgType::kXDecide;
}

}  // namespace vrep::perfbench
