// kv_ryw: one client thread drives 4 TCP connections into net::AsyncServer,
// each with one op in flight and no think time. An op commits an 8-byte
// value, then reads it back from the shard's BACKUP at min_seq = the commit
// ticket (read-your-writes). Behind the server: 2 shards, each WirePrimary
// -> WireBackup over an InprocTransport, 2-safe with W=32. Threads: the
// client, the epoll loop and two backups. The only workload that runs the
// front end's parse/dispatch/tick, poll_acks, ticket resolution and
// read_at_watermark.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "net/async_server.hpp"
#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "sim/traffic.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace vrep::perfbench {
namespace {

constexpr std::size_t kDbSize = 1u << 20;
constexpr unsigned kShards = 2;
constexpr unsigned kConns = 4;
constexpr std::uint64_t kValueOff = 4096;  // per-connection value slots
constexpr std::size_t kValuePool = 4096;
constexpr double kNominalPairsPerS = 4'000;

core::StoreConfig shard_config() {
  core::StoreConfig config;
  config.db_size = kDbSize;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  return config;
}

// Hook-level tracing of one shard. Every hook, the replica read included
// (AsyncServer consults replicas from its own loop), runs on the epoll
// thread, so the shards share the epoll thread's log.
struct ShardTrace {
  SpanLog* log = nullptr;
  std::uint64_t polls = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> submitted_at;  // seq -> submit return
  std::unordered_map<std::uint64_t, std::uint64_t> op_of_seq;     // seq -> value (op id)
};

struct Shard {
  // `epoll_log` null = untraced; otherwise the backup end gets a log of its
  // own from `tracer`.
  Shard(unsigned id, SpanLog* epoll_log, Tracer* tracer)
      : arena(rio::Arena::create(
            core::required_arena_size(core::VersionKind::kV3InlineLog, shard_config()))),
        replica(rio::Arena::create(kDbSize)) {
    trace.log = epoll_log;
    net::InprocTransport::pair(primary_end, backup_end);
    net::Transport* primary_tx = &primary_end;
    net::Transport* backup_tx = &backup_end;
    if (epoll_log != nullptr) {
      primary_tx = &primary_traced.emplace(primary_end, *epoll_log, CarrierTrace::Side::kPrimary);
      backup_tx = &backup_traced.emplace(
          backup_end, *tracer->log("kv_ryw.backup" + std::to_string(id)),
          CarrierTrace::Side::kBackup);
    }
    primary = std::make_unique<net::WirePrimary>(arena, shard_config(), primary_tx,
                                                 /*format=*/true);
    primary->set_two_safe(true);
    primary->set_commit_window(32);
    backup = std::make_unique<net::WireBackup>(replica);
    backup_thread = std::thread([this, backup_tx] { serve_until_closed(*backup, *backup_tx); });
    synced = primary->sync_backup();
  }
  ~Shard() { stop(); }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void stop() {
    if (!backup_thread.joinable()) return;
    primary_end.close_peer();
    backup_thread.join();
  }

  // op bytes: u64 offset | u64 value.
  std::uint64_t submit(const std::uint8_t* op, std::size_t len) {
    if (len < 16) return 0;
    std::uint64_t off, value;
    std::memcpy(&off, op, 8);
    std::memcpy(&value, op + 8, 8);
    if (off + 8 > kDbSize) return 0;
    ScopedSpan span(trace.log, "net.async.submit", value);
    std::uint8_t* db = primary->db();
    primary->begin_transaction();
    primary->set_range(db + off, 8);
    primary->bus().write(db + off, &value, 8, sim::TrafficClass::kModified);
    primary->commit_transaction();
    const std::uint64_t seq = primary->committed_seq();
    if (trace.log != nullptr) trace.op_of_seq[seq] = value;
    return seq;
  }

  repl::RedoPipeline::TicketState ticket_state(std::uint64_t seq) {
    const repl::RedoPipeline::TicketState state =
        primary->pipeline().ticket_state(repl::RedoPipeline::CommitTicket{seq});
    if (trace.log != nullptr && state != repl::RedoPipeline::TicketState::kPending) {
      // First resolution of this ticket: the wait since submit returned.
      if (auto it = trace.submitted_at.find(seq); it != trace.submitted_at.end()) {
        trace.log->add("net.async.ticket_wait", it->second, now_ns(), trace.op_of_seq[seq]);
        trace.submitted_at.erase(it);
      }
    }
    return state;
  }

  net::AsyncServer::ShardEndpoint endpoint() {
    net::AsyncServer::ShardEndpoint ep;
    ep.submit = [this](std::uint64_t, const std::uint8_t* op, std::size_t len) {
      const std::uint64_t seq = submit(op, len);
      if (trace.log != nullptr && seq != 0) trace.submitted_at[seq] = now_ns();
      return seq;
    };
    ep.ticket_state = [this](std::uint64_t seq) { return ticket_state(seq); };
    ep.poll = [this] {
      trace.polls += 1;
      ScopedSpan span(trace.log, "net.async.poll");
      primary->pipeline().poll_acks();
    };
    ep.replicas.push_back(net::AsyncServer::Replica{
        [this](std::uint64_t off, std::uint32_t len, std::uint64_t min_seq, std::uint8_t* out) {
          ScopedSpan span(trace.log, "net.async.replica_read");
          return backup->read(off, len, min_seq, out);
        },
        [this] { return primary->peer_acked_seq(0); }});
    return ep;
  }

  rio::Arena arena;
  rio::Arena replica;
  net::InprocTransport primary_end, backup_end;
  std::optional<TracedTransport> primary_traced, backup_traced;
  std::unique_ptr<net::WirePrimary> primary;
  std::unique_ptr<net::WireBackup> backup;
  ShardTrace trace;
  bool synced = false;
  std::thread backup_thread;  // last: joined before the members it uses go
};

// ---- client side ----------------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// One client connection: its value slot, the op in flight, and reply bytes
// not yet parsed.
struct Conn {
  int fd = -1;
  std::uint64_t key = 0;  // routes to shard key % kShards
  std::uint64_t off = 0;  // its value slot in that shard's image
  std::uint64_t ops = 0;  // ops started
  bool in_flight = false;
  bool reading = false;
  std::uint64_t value = 0;
  std::uint64_t ticket = 0;
  std::uint64_t sent_ns = 0;
  std::vector<std::uint8_t> in;
};

Round run_round(std::uint64_t seed, const Budget& budget, Tracer* trace) {
  Round r;
  const auto t0 = Clock::now();
  // Pre-drawn value pool; an op's value is unique: pool bits above, the
  // connection and op index below.
  Rng rng(seed);
  std::vector<std::uint64_t> pool(kValuePool);
  for (std::uint64_t& v : pool) v = rng.next_u64() & 0xffff'ff00'0000'0000ull;

  SpanLog* epoll_log = trace != nullptr ? trace->log("kv_ryw.epoll") : nullptr;
  std::vector<std::unique_ptr<Shard>> shards;
  net::AsyncServer server;
  bool ok = true;
  for (unsigned s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<Shard>(s, epoll_log, trace));
    ok = ok && shards.back()->synced;
    server.add_shard(shards.back()->endpoint());
  }
  server.set_router([](std::uint64_t key) { return static_cast<std::uint32_t>(key % kShards); });
  ok = ok && server.listen(0) && server.start();
  std::array<Conn, kConns> conns;
  std::array<pollfd, kConns> pfds{};
  for (unsigned c = 0; c < kConns; ++c) {
    conns[c].key = c;
    conns[c].off = kValueOff + (c / kShards) * 8;
    conns[c].fd = ok ? connect_loopback(server.bound_port()) : -1;
    ok = ok && conns[c].fd >= 0;
    pfds[c] = pollfd{conns[c].fd, POLLIN, 0};
  }
  r.setup_s = seconds_since(t0);

  std::unordered_map<std::uint64_t, std::uint64_t> client_commit_ns;  // op id -> latency
  const std::uint64_t ops_per_conn = budget.ops / kConns;
  Slicer slicer(r.slices);
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  slicer.start();
  const auto deadline = start + std::chrono::duration<double>(budget.seconds);
  auto start_op = [&](Conn& c, unsigned index) {
    const bool more = budget.ops != 0 ? c.ops < ops_per_conn : Clock::now() < deadline;
    if (!more) return;
    c.value = pool[c.ops % kValuePool] | (std::uint64_t{index} << 32) | (c.ops + 1);
    c.ops += 1;
    std::uint8_t payload[32];
    const std::uint64_t op_id = c.ops * 2;
    std::memcpy(payload, &op_id, 8);
    std::memcpy(payload + 8, &c.key, 8);
    std::memcpy(payload + 16, &c.off, 8);
    std::memcpy(payload + 24, &c.value, 8);
    c.in_flight = true;
    c.reading = false;
    c.sent_ns = now_ns();
    r.attempted += 1;
    if (!send_all(c.fd, net::encode_frame(net::MsgType::kClientCommit, 1, payload, 32))) {
      r.failed += 1;
      c.in_flight = false;
    }
  };
  // A retried read keeps its first send time: its latency includes bounces.
  auto send_read = [&](Conn& c) {
    std::uint8_t payload[36];
    const std::uint64_t op_id = c.ops * 2 + 1;
    const std::uint32_t len = 8;
    std::memcpy(payload, &op_id, 8);
    std::memcpy(payload + 8, &c.key, 8);
    std::memcpy(payload + 16, &c.off, 8);
    std::memcpy(payload + 24, &len, 4);
    std::memcpy(payload + 28, &c.ticket, 8);
    if (!c.reading) c.sent_ns = now_ns();
    c.reading = true;
    return send_all(c.fd, net::encode_frame(net::MsgType::kReadRequest, 1, payload, 36));
  };
  // Handles one reply; false ends the connection's op as failed.
  auto on_reply = [&](Conn& c, net::MsgType type, const std::uint8_t* p, std::size_t len) {
    const std::uint64_t latency = now_ns() - c.sent_ns;
    if (!c.reading) {
      if (type != net::MsgType::kCommitReply || len != 17 ||
          p[16] != static_cast<std::uint8_t>(repl::RedoPipeline::TicketState::kDurable)) {
        return false;
      }
      std::memcpy(&c.ticket, p + 8, 8);
      r.commit_ns.add(latency);
      if (trace != nullptr) client_commit_ns[c.value] = latency;
      return c.ticket != 0 && send_read(c);
    }
    if (type != net::MsgType::kReadReply || len < 17) return false;
    if (p[16] == static_cast<std::uint8_t>(repl::RedoApplier::ReadStatus::kLagging)) {
      return send_read(c);  // the watermark bounce: ask again
    }
    std::uint64_t at_seq = 0, got = 0;
    std::memcpy(&at_seq, p + 8, 8);
    if (p[16] != static_cast<std::uint8_t>(repl::RedoApplier::ReadStatus::kOk) || len != 25 ||
        at_seq < c.ticket) {
      return false;
    }
    std::memcpy(&got, p + 17, 8);
    if (got != c.value) return false;
    r.read_ns.add(latency);
    r.committed += 1;
    c.in_flight = false;
    return true;
  };

  if (ok) {
    for (unsigned c = 0; c < kConns; ++c) start_op(conns[c], c);
  }
  for (;;) {
    bool busy = false;
    for (const Conn& c : conns) busy = busy || c.in_flight;
    if (!busy) break;
    if (::poll(pfds.data(), kConns, 10'000) <= 0) {
      r.error = "kv_ryw: no reply within 10 s";
      break;
    }
    for (unsigned i = 0; i < kConns; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        r.error = "kv_ryw: server closed a connection";
        c.in_flight = false;
        r.failed += 1;
        continue;
      }
      c.in.insert(c.in.end(), chunk, chunk + n);
      std::size_t used = 0;
      while (c.in_flight && c.in.size() - used >= sizeof(net::FrameHeader)) {
        net::FrameHeader hdr;
        std::memcpy(&hdr, c.in.data() + used, sizeof hdr);
        if (net::frame_header_crc(hdr) != hdr.header_crc) {
          r.error = "kv_ryw: corrupt reply header";
          c.in_flight = false;
          break;
        }
        if (c.in.size() - used < sizeof hdr + hdr.len) break;
        const std::uint8_t* payload = c.in.data() + used + sizeof hdr;
        used += sizeof hdr + hdr.len;
        if (Crc32::of(payload, hdr.len) != hdr.payload_crc ||
            !on_reply(c, static_cast<net::MsgType>(hdr.type), payload, hdr.len)) {
          r.failed += 1;
          c.in_flight = false;
          break;
        }
        if (!c.in_flight) start_op(c, i);
      }
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(used));
    }
    slicer.tick(now_ns(), r.committed);
  }
  slicer.finish(r.committed);
  r.timed_s = seconds_since(start);
  r.cpu_s = process_cpu_s() - cpu0;
  for (const Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  server.stop();

  // Correctness gate per shard: drain the window, then the backup must hold
  // every commit and the primary's exact image.
  Crc32 digest;
  for (unsigned s = 0; s < kShards && ok; ++s) {
    Shard& shard = *shards[s];
    shard.primary->sync();
    const std::uint64_t committed = shard.primary->committed_seq();
    shard.stop();
    const std::uint32_t backup_crc = Crc32::of(shard.backup->db(), kDbSize);
    digest.update(&backup_crc, sizeof backup_crc);
    if (shard.backup->applied_seq() != committed) {
      r.error = "kv_ryw: shard " + std::to_string(s) + " backup applied " +
                std::to_string(shard.backup->applied_seq()) + " of " +
                std::to_string(committed);
    } else if (Crc32::of(shard.primary->db(), kDbSize) != backup_crc) {
      r.error = "kv_ryw: shard " + std::to_string(s) + " backup CRC differs from the primary";
    }
  }
  r.fingerprint = digest.value();
  if (!ok) r.error = "kv_ryw: setup failed";
  if (r.error.empty() && r.committed + r.failed != r.attempted) {
    r.error = "kv_ryw: " + std::to_string(r.attempted - r.committed - r.failed) +
              " ops never completed";
  }

  if (trace != nullptr) {
    const net::AsyncServer::Stats& stats = server.stats();
    const Samples ticket_wait = trace->durations("net.async.ticket_wait");
    const Samples apply = trace->durations("repl.apply");
    add_span_us(r.layers, *trace, "net.async.submit");
    add_percentiles_us(r.layers, "net.async.poll_us", trace->durations("net.async.poll"));
    std::uint64_t polls = 0;
    for (const auto& shard : shards) polls += shard->trace.polls;
    r.layers.push_back({"net.async.polls_per_s", static_cast<double>(polls) / r.timed_s, "1/s"});
    add_percentiles_us(r.layers, "net.async.ticket_wait_us", ticket_wait);
    add_percentiles_us(r.layers, "net.async.replica_read_us",
                       trace->durations("net.async.replica_read"));
    // Front-end self time per commit: client latency minus the submit hook
    // and the ticket wait of the same op.
    std::unordered_map<std::uint64_t, std::uint64_t> hooks_ns;
    for (const Span& s : epoll_log->spans()) {
      const std::string_view name(s.name);
      if (name == "net.async.submit" || name == "net.async.ticket_wait") {
        hooks_ns[s.op] += s.end_ns - s.start_ns;
      }
    }
    Samples server_ns;
    for (const auto& [op, latency] : client_commit_ns) {
      const std::uint64_t hooks = hooks_ns[op];
      server_ns.add(latency - std::min(latency, hooks));
    }
    add_percentiles_us(r.layers, "net.async.server_us", server_ns);
    r.layers.push_back({"net.async.reads_parked_per_kop",
                        1e3 * static_cast<double>(stats.reads_parked.load()) /
                            static_cast<double>(std::max<std::uint64_t>(1, r.committed)),
                        "1/kop"});
    r.layers.push_back(
        {"net.async.reads_bounced", static_cast<double>(stats.reads_bounced.load()), "count"});
    add_percentiles_us(r.layers, "net.send_us", trace->durations("net.send"));
    add_percentiles_us(r.layers, "repl.apply_us", apply);
    r.layers.push_back(
        {"repl.backup_busy_frac", apply.sum() / 1e9 / kShards / r.timed_s, "frac"});
  }
  return r;
}

}  // namespace

Workload kv_ryw_workload() {
  return Workload{
      "kv_ryw",
      "4 TCP connections into AsyncServer: commit 8 B, then read it from the backup",
      /*threads=*/4,
      /*connections=*/kConns,
      /*round_seconds=*/5,
      [](double seconds) {
        return static_cast<std::uint64_t>(seconds * kNominalPairsPerS) / kConns * kConns;
      },
      run_round,
  };
}

}  // namespace vrep::perfbench
