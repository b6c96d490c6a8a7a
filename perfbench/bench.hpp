// Shared pieces of the repo benchmark: rounds and slices, latency samples,
// and the outside-in tracing shims (span logs, a net::Transport decorator and
// a repl::ReplicationLink decorator).
//
// Everything here lives in the benchmark, not the library: spans are taken
// around calls into the library's public functions, so a traced run needs
// no change to src/. README.md in this directory explains the workloads and
// which end-to-end metric each per-layer metric should move.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "repl/link.hpp"

namespace vrep::perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Process user+sys CPU seconds, summed over every thread.
double process_cpu_s();
// Peak resident set size of the process so far, in MiB.
double max_rss_mb();

// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

// Raw samples (latencies in ns); percentiles are exact order statistics.
// Only the first kMaxSamples are kept, so the memory they take, and with it
// the process's peak RSS, does not grow with throughput.
class Samples {
 public:
  static constexpr std::size_t kMaxSamples = std::size_t{1} << 18;

  void add(std::uint64_t v) {
    if (v_.size() < kMaxSamples) v_.push_back(v);
  }
  std::size_t size() const { return v_.size(); }
  // Value at rank ceil(q * n) (nearest rank); 0 when empty.
  double percentile(double q) const;
  double sum() const;

 private:
  std::vector<std::uint64_t> v_;
};

// ---- slices -------------------------------------------------------------------

// One slice of a timed window: its length, the txns it committed, and the
// process CPU it used. A run's throughput and CPU cost are quantiles over
// its slices (see README.md, "Why slices").
struct Slice {
  double seconds;
  std::uint64_t committed;
  double cpu_s;
};

// Cuts a timed window into slices of kSliceSeconds. The driver loop calls
// tick() after every op with the clock it already read; only a slice
// boundary costs a getrusage() call.
class Slicer {
 public:
  static constexpr double kSliceSeconds = 0.25;

  explicit Slicer(std::vector<Slice>& out) : out_(out) {}
  void start();
  void tick(std::uint64_t now, std::uint64_t committed) {
    if (now >= slice_end_ns_) cut(now, committed);
  }
  // Closes the window. A last slice shorter than half the target is not a
  // sample (its commits still count in the round's totals).
  void finish(std::uint64_t committed);

 private:
  void cut(std::uint64_t now, std::uint64_t committed);

  std::vector<Slice>& out_;
  std::uint64_t slice_start_ns_ = 0;
  std::uint64_t slice_end_ns_ = 0;
  std::uint64_t committed0_ = 0;
  double cpu0_ = 0;
};

// ---- tracing ----------------------------------------------------------------

// One finished span. `self_ns` is the duration minus the time covered by
// spans that opened and closed inside it on the same thread; `op` ties the
// spans of one request together (0 when there is no request identity).
struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t self_ns;
  std::uint64_t op;
};

// The spans of ONE thread, kept in memory until the run ends. Nesting is a
// per-log stack, so a span opened inside another becomes its child.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {}
  void open(const char* name, std::uint64_t op = 0);
  void close();
  // A span whose interval was measured by the caller (a leaf).
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t op = 0);
  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t op;
  };
  std::string thread_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; a null log
// (an untraced pass) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op = 0) : log_(log) {
    if (log_ != nullptr) log_->open(name, op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// Owns one SpanLog per traced thread. Create every log before the thread
// that writes it starts, and read them only after it is joined.
class Tracer {
 public:
  SpanLog* log(const std::string& thread);
  // Durations (or self times) in ns of every span called `name`.
  Samples durations(const char* name, bool self = false) const;
  // Appends every span as one JSON object per line, tagged with `pass`.
  void write_jsonl(std::FILE* out, const std::string& pass) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

inline std::uint8_t frame_type(const net::Message& m) { return static_cast<std::uint8_t>(m.type); }
inline std::uint8_t frame_type(const repl::Frame& f) { return static_cast<std::uint8_t>(f.kind); }

// Frame accounting and spans of ONE end of a replication carrier, shared by
// the two decorators below. Only data-path frames (redo batches/groups and
// 2PC prepare/decide) are traced, so the image transfer at join time stays
// out of the spans.
//   primary end: span "net.send" around every data send and "net.ack_wait"
//                around every blocking recv (timeout != 0); zero-timeout
//                polls are not spans.
//   backup end:  span "repl.apply" from the return of a recv that delivered
//                a data frame to the next recv call — the applier's work on
//                it, including the ack it sends back.
// Counts data frames and their wire bytes (frame header included).
class CarrierTrace {
 public:
  enum class Side { kPrimary, kBackup };
  CarrierTrace(SpanLog& log, Side side) : log_(log), side_(side) {}

  template <typename Send>
  bool send(std::uint8_t type, std::size_t len, Send&& inner_send);
  template <typename Recv>
  auto recv(int timeout_ms, Recv&& inner_recv);

  std::uint64_t redo_frames_sent() const { return redo_frames_sent_; }
  std::uint64_t data_bytes_sent() const { return data_bytes_sent_; }

 private:
  static bool is_data(std::uint8_t type);
  static bool is_redo(std::uint8_t type);

  SpanLog& log_;
  Side side_;
  bool applying_ = false;
  std::uint64_t apply_start_ns_ = 0;
  std::uint64_t redo_frames_sent_ = 0;
  std::uint64_t data_bytes_sent_ = 0;
};

template <typename Send>
bool CarrierTrace::send(std::uint8_t type, std::size_t len, Send&& inner_send) {
  if (!is_data(type)) return inner_send();
  data_bytes_sent_ += sizeof(net::FrameHeader) + len;
  if (is_redo(type)) redo_frames_sent_ += 1;
  ScopedSpan span(&log_, "net.send");
  return inner_send();
}

template <typename Recv>
auto CarrierTrace::recv(int timeout_ms, Recv&& inner_recv) {
  if (side_ == Side::kPrimary) {
    if (timeout_ms == 0) return inner_recv();
    ScopedSpan span(&log_, "net.ack_wait");
    return inner_recv();
  }
  if (applying_) {
    log_.add("repl.apply", apply_start_ns_, now_ns());
    applying_ = false;
  }
  auto msg = inner_recv();
  if (msg.has_value() && is_data(frame_type(*msg))) {
    applying_ = true;
    apply_start_ns_ = now_ns();
  }
  return msg;
}

// net::Transport decorator: one traced end of a framed carrier.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(net::Transport& inner, SpanLog& log, CarrierTrace::Side side)
      : inner_(inner), trace_(log, side) {}

  bool send(net::MsgType type, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    return trace_.send(static_cast<std::uint8_t>(type), len,
                       [&] { return inner_.send(type, epoch, payload, len); });
  }
  std::optional<net::Message> recv(int timeout_ms) override {
    return trace_.recv(timeout_ms, [&] { return inner_.recv(timeout_ms); });
  }
  net::TransportError last_error() const override { return inner_.last_error(); }
  bool connected() const override { return inner_.connected(); }
  void close_peer() override { inner_.close_peer(); }
  bool send_bytes(const void* bytes, std::size_t len) override {
    return inner_.send_bytes(bytes, len);
  }

  const CarrierTrace& trace() const { return trace_; }

 private:
  net::Transport& inner_;
  CarrierTrace trace_;
};

// repl::ReplicationLink decorator: the primary end as SmpExecutor's
// sequencer sees it.
class TracedLink final : public repl::ReplicationLink {
 public:
  TracedLink(repl::ReplicationLink& inner, SpanLog& log)
      : inner_(inner), trace_(log, CarrierTrace::Side::kPrimary) {}

  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    return trace_.send(static_cast<std::uint8_t>(kind), len,
                       [&] { return inner_.send(kind, epoch, payload, len); });
  }
  std::optional<repl::Frame> recv(int timeout_ms) override {
    return trace_.recv(timeout_ms, [&] { return inner_.recv(timeout_ms); });
  }
  repl::LinkError last_error() const override { return inner_.last_error(); }
  bool connected() const override { return inner_.connected(); }
  void flush() override { inner_.flush(); }
  std::optional<std::uint64_t> blocked_wait_ns() const override {
    return inner_.blocked_wait_ns();
  }

  const CarrierTrace& trace() const { return trace_; }

 private:
  repl::ReplicationLink& inner_;
  CarrierTrace trace_;
};

// Runs a backup's receive loop until its carrier closes. Idle silence is not
// a failure here: the benchmark's primaries never die.
void serve_until_closed(net::WireBackup& backup, net::Transport& transport);

// ---- workloads ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// How long one round's timed window runs: a wall-clock budget (timed runs)
// or an exact op count (the traced/untraced self-check pair).
struct Budget {
  double seconds = 0;
  std::uint64_t ops = 0;
};

// One round: set up from scratch, run the timed window, verify.
struct Round {
  double setup_s = 0;  // round start -> first timed op
  double timed_s = 0;  // the timed window
  double cpu_s = 0;    // process CPU over the timed window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t committed = 0;  // txns (kv_ryw: commit+read pairs)
  std::vector<Slice> slices;
  Samples commit_ns;
  Samples read_ns;
  // Digest of the replicated end state; equal op sequences must give equal
  // digests whether or not the pass was traced.
  std::uint32_t fingerprint = 0;
  std::string error;           // first failed check; empty when all passed
  std::vector<Metric> layers;  // per-layer metrics (traced passes only)
};

struct Workload {
  const char* name;
  const char* why;
  unsigned threads;      // threads running at once, the driver included
  unsigned connections;  // client connections held open
  // Length of one round's timed window in a timed run; the run repeats
  // rounds (each a fresh set-up) until its time budget is spent.
  double round_seconds;
  // Round budget of a traced/untraced self-check pass lasting ~`seconds`.
  std::uint64_t (*pass_ops)(double seconds);
  // `trace` null = untraced (no decorators installed).
  Round (*run_round)(std::uint64_t seed, const Budget& budget, Tracer* trace);
};

Workload dc_smp_workload();
Workload blob_tcp_workload();
Workload kv_ryw_workload();
Workload shard_2pc_workload();

// Appends `<prefix>_p50` / `<prefix>_p99` in µs for a set of ns samples.
void add_percentiles_us(std::vector<Metric>& out, const std::string& prefix, const Samples& ns);
// For a span that has child spans: `<span>_us_p50/_p99` of its durations
// and `<span>_self_us_p50/_p99` of its self times.
void add_span_us(std::vector<Metric>& out, const Tracer& trace, const char* span);

}  // namespace vrep::perfbench
