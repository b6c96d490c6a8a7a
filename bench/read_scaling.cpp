// Wall-clock read scaling through the epoll front end: N TCP client
// connections multiplexed by one net::AsyncServer onto two replicated
// shards (WirePrimary -> WireBackup over in-process transports, 2-safe with
// an open commit window, so every write is an asynchronous ticket resolved
// by poll_acks). Each client runs a think-time loop: commit an 8-byte value
// (ticket S), then read it back from the shard's BACKUP with min_seq = S —
// the read-your-writes path — pausing a drawn think time between ops so the
// server juggles many idle connections, not N busy pollers.
//
// Reported per connection-count cell: total op throughput plus p99/p999
// client-observed commit and read latency. The bench doubles as a
// correctness gate: every commit must resolve kDurable, every read must
// eventually be served kOk at at_seq >= its ticket with the bytes the
// client wrote ("watermark_consistent").
//
// Wall-clock numbers are machine-dependent: the JSON root carries
// "wallclock": true and check_drift.py compares only the deterministic
// fields (connections, ops_per_conn, read/write op counts, the consistency
// verdict) exactly, sanity-checking seconds/tps and the latency
// percentiles.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/async_server.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "rio/arena.hpp"
#include "sim/traffic.hpp"
#include "util/check.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace vrep::bench {
namespace {

constexpr std::size_t kDbSize = 1u << 20;
constexpr unsigned kShards = 2;
constexpr std::uint64_t kValueOff = 4096;  // client slots start past page 0

core::StoreConfig shard_config() {
  core::StoreConfig config;
  config.db_size = kDbSize;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  return config;
}

// One replicated shard behind the server: the same composition the
// async_server tests use, sized for an open-loop client crowd.
struct Shard {
  Shard()
      : arena(rio::Arena::create(
            core::required_arena_size(core::VersionKind::kV3InlineLog, shard_config()))),
        replica(rio::Arena::create(kDbSize)) {
    net::InprocTransport::pair(primary_end, backup_end);
    primary = std::make_unique<net::WirePrimary>(arena, shard_config(), &primary_end,
                                                 /*format=*/true);
    primary->set_two_safe(true);
    primary->set_commit_window(32);
    backup = std::make_unique<net::WireBackup>(replica);
    backup_thread = std::thread(
        [this] { backup->serve(backup_end, net::WireBackup::ServeOptions{10'000, nullptr}); });
    VREP_CHECK(primary->sync_backup());
  }

  ~Shard() {
    primary_end.close_peer();
    backup_end.close_peer();
    backup_thread.join();
  }

  std::uint64_t submit(const std::uint8_t* op, std::size_t len) {
    if (len < 16) return 0;
    std::uint64_t off, value;
    std::memcpy(&off, op, 8);
    std::memcpy(&value, op + 8, 8);
    if (off + 8 > kDbSize) return 0;
    std::uint8_t* db = primary->db();
    primary->begin_transaction();
    primary->set_range(db + off, 8);
    primary->bus().write(db + off, &value, 8, sim::TrafficClass::kModified);
    primary->commit_transaction();
    return primary->committed_seq();
  }

  net::AsyncServer::ShardEndpoint endpoint() {
    net::AsyncServer::ShardEndpoint ep;
    ep.submit = [this](std::uint64_t, const std::uint8_t* op, std::size_t len) {
      return submit(op, len);
    };
    ep.ticket_state = [this](std::uint64_t seq) {
      return primary->pipeline().ticket_state(repl::RedoPipeline::CommitTicket{seq});
    };
    ep.poll = [this] { primary->pipeline().poll_acks(); };
    ep.replicas.push_back(net::AsyncServer::Replica{
        [this](std::uint64_t off, std::uint32_t len, std::uint64_t min_seq,
               std::uint8_t* out) { return backup->read(off, len, min_seq, out); },
        [this] { return primary->peer_acked_seq(0); }});
    return ep;
  }

  rio::Arena arena;
  rio::Arena replica;
  net::InprocTransport primary_end, backup_end;
  std::unique_ptr<net::WirePrimary> primary;
  std::unique_ptr<net::WireBackup> backup;
  std::thread backup_thread;
};

// ---- client side ------------------------------------------------------------

struct ClientResult {
  Histogram commit_ns;
  Histogram read_ns;
  std::uint64_t read_bounces = 0;
  bool consistent = true;
};

// One connection's think-time loop. Offsets are per-connection, so the
// read-back value check is exact even with every client in flight at once.
void run_client(std::uint16_t port, unsigned conn, std::uint64_t ops, unsigned think_max_us,
                ClientResult* result) {
  net::TcpTransport client;
  if (!client.connect_to("127.0.0.1", port, 10'000)) {
    result->consistent = false;
    return;
  }
  Rng rng(0xbeadc0de + conn);
  const std::uint64_t key = conn;  // routes to shard conn % kShards
  const std::uint64_t off = kValueOff + (conn / kShards) * 8;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t value = (std::uint64_t{conn} << 32) | (op + 1);
    std::uint8_t payload[36];
    const std::uint64_t op_id = op * 2 + 1;

    auto t0 = std::chrono::steady_clock::now();
    std::memcpy(payload, &op_id, 8);
    std::memcpy(payload + 8, &key, 8);
    std::memcpy(payload + 16, &off, 8);
    std::memcpy(payload + 24, &value, 8);
    if (!client.send(net::MsgType::kClientCommit, 1, payload, 32)) {
      result->consistent = false;
      return;
    }
    std::optional<net::Message> reply = client.recv(10'000);
    if (!reply.has_value() || reply->type != net::MsgType::kCommitReply ||
        reply->payload.size() != 17) {
      result->consistent = false;
      return;
    }
    std::uint64_t ticket;
    std::memcpy(&ticket, reply->payload.data() + 8, 8);
    const std::uint8_t outcome = reply->payload[16];
    result->commit_ns.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0)
            .count()));
    if (outcome != static_cast<std::uint8_t>(repl::RedoPipeline::TicketState::kDurable) ||
        ticket == 0) {
      result->consistent = false;
      return;
    }

    // Read-your-write from the backup at min_seq = the commit's ticket;
    // a kLagging bounce (watermark patience exhausted) is retried.
    t0 = std::chrono::steady_clock::now();
    bool served = false;
    for (int attempt = 0; attempt < 1000 && !served; ++attempt) {
      const std::uint64_t read_id = op * 2 + 2;
      const std::uint32_t len = 8;
      std::memcpy(payload, &read_id, 8);
      std::memcpy(payload + 8, &key, 8);
      std::memcpy(payload + 16, &off, 8);
      std::memcpy(payload + 24, &len, 4);
      std::memcpy(payload + 28, &ticket, 8);
      if (!client.send(net::MsgType::kReadRequest, 1, payload, 36)) break;
      reply = client.recv(10'000);
      if (!reply.has_value() || reply->type != net::MsgType::kReadReply ||
          reply->payload.size() < 17) {
        break;
      }
      const std::uint8_t status = reply->payload[16];
      if (status == static_cast<std::uint8_t>(repl::RedoApplier::ReadStatus::kLagging)) {
        result->read_bounces += 1;
        continue;
      }
      std::uint64_t at_seq, got = 0;
      std::memcpy(&at_seq, reply->payload.data() + 8, 8);
      served = status == static_cast<std::uint8_t>(repl::RedoApplier::ReadStatus::kOk) &&
               reply->payload.size() == 25 && at_seq >= ticket;
      if (served) {
        std::memcpy(&got, reply->payload.data() + 17, 8);
        served = got == value;
      }
      break;
    }
    result->read_ns.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0)
            .count()));
    if (!served) {
      result->consistent = false;
      return;
    }
    usleep(static_cast<useconds_t>(rng.below(think_max_us + 1)));
  }
}

// "--conns 8,64" -> {8,64}; any non-digit separates.
std::vector<unsigned> parse_list(const std::string& spec, std::vector<unsigned> fallback) {
  std::vector<unsigned> out;
  unsigned cur = 0;
  bool have = false;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<unsigned>(c - '0');
      have = true;
    } else {
      if (have) out.push_back(cur);
      cur = 0;
      have = false;
    }
  }
  if (have) out.push_back(cur);
  if (out.empty()) out = std::move(fallback);
  return out;
}

int run_main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  JsonReport report(args, "read_scaling");
  const unsigned hw = std::thread::hardware_concurrency();
  report.set_root("wallclock", Json(true));
  report.set_root("hw_threads", Json(hw));

  std::vector<unsigned> conn_sweep = parse_list(args.get_string("conns", ""), {8, 64, 256});
  std::uint64_t ops_per_conn = 64;
  unsigned think_max_us = 200;
  if (args.has("quick")) {
    conn_sweep = parse_list(args.get_string("conns", ""), {4, 16});
    ops_per_conn = 16;
  }
  ops_per_conn = static_cast<std::uint64_t>(
      args.get_int("ops", static_cast<std::int64_t>(ops_per_conn)));

  Table table("Read scaling (wall clock, epoll front end, " + std::to_string(kShards) +
              " shards 2-safe, hw_threads=" + std::to_string(hw) + ")");
  table.set_header({"conns", "ops/conn", "consistent", "seconds", "tps", "commit p99 us",
                    "p999 us", "read p99 us", "p999 us", "bounces"});

  for (const unsigned conns : conn_sweep) {
    std::vector<std::unique_ptr<Shard>> shards;
    net::AsyncServer server;
    for (unsigned s = 0; s < kShards; ++s) {
      shards.push_back(std::make_unique<Shard>());
      server.add_shard(shards.back()->endpoint());
    }
    server.set_router([](std::uint64_t key) { return static_cast<std::uint32_t>(key % kShards); });
    VREP_CHECK(server.listen(0));
    VREP_CHECK(server.start());

    std::vector<ClientResult> results(conns);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(conns);
    for (unsigned c = 0; c < conns; ++c) {
      clients.emplace_back(run_client, server.bound_port(), c, ops_per_conn, think_max_us,
                           &results[c]);
    }
    for (std::thread& t : clients) t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    server.stop();

    Histogram commit_ns, read_ns;
    std::uint64_t bounces = 0;
    bool consistent = true;
    for (const ClientResult& r : results) {
      commit_ns.merge(r.commit_ns);
      read_ns.merge(r.read_ns);
      bounces += r.read_bounces;
      consistent = consistent && r.consistent;
    }
    VREP_CHECK(consistent);
    const std::uint64_t write_ops = static_cast<std::uint64_t>(conns) * ops_per_conn;
    const std::uint64_t read_ops = write_ops;  // one RYW read per commit
    const double tps =
        seconds > 0 ? static_cast<double>(write_ops + read_ops) / seconds : 0.0;

    Json cell = Json::object();
    cell.set("name", "c" + std::to_string(conns));
    cell.set("workload", "ryw_kv");
    cell.set("connections", Json(conns));
    cell.set("ops_per_conn", Json(ops_per_conn));
    cell.set("write_ops", Json(write_ops));
    cell.set("read_ops", Json(read_ops));
    cell.set("watermark_consistent", Json(consistent));
    cell.set("seconds", Json(seconds));
    cell.set("tps", Json(tps));
    cell.set("commit_p99_ns", Json(commit_ns.percentile(0.99)));
    cell.set("commit_p999_ns", Json(commit_ns.percentile(0.999)));
    cell.set("read_p99_ns", Json(read_ns.percentile(0.99)));
    cell.set("read_p999_ns", Json(read_ns.percentile(0.999)));
    cell.set("read_bounces", Json(bounces));
    cell.set("commit_latency_ns", JsonReport::histogram_json(commit_ns));
    cell.set("read_latency_ns", JsonReport::histogram_json(read_ns));
    report.add_cell(std::move(cell));

    char secs[32];
    std::snprintf(secs, sizeof secs, "%.3f", seconds);
    auto us = [](std::uint64_t ns) { return Table::num((ns + 500) / 1000); };
    table.add_row({std::to_string(conns), std::to_string(ops_per_conn),
                   consistent ? "yes" : "NO", secs, tps_cell(tps),
                   us(commit_ns.percentile(0.99)), us(commit_ns.percentile(0.999)),
                   us(read_ns.percentile(0.99)), us(read_ns.percentile(0.999)),
                   Table::num(bounces)});
  }
  table.print();
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vrep::bench

int main(int argc, char** argv) { return vrep::bench::run_main(argc, argv); }
