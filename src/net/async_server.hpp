// Epoll front end: many client connections multiplexed onto the replication
// engine's asynchronous primitives — commit_async() tickets for writes and
// backup watermark reads for reads. This replaces the one-blocking-loop
// model for client traffic; replication between primary and backups keeps
// its own (blocking, single-peer) transports.
//
// Client protocol (frames behind the same net/frame.hpp codec the
// replication stream uses — 24-byte CRC'd header, identical corruption
// rules: header-CRC failure closes the connection, payload-CRC failure
// skips the frame):
//
//   kClientCommit  u64 op_id | u64 key | op bytes      (client -> server)
//   kCommitReply   u64 op_id | u64 seq | u8 outcome    (server -> client)
//   kReadRequest   u64 op_id | u64 key | u64 off | u32 len | u64 min_seq
//   kReadReply     u64 op_id | u64 at_seq | u8 status | data (kOk only)
//
// `op_id` is an opaque client cookie echoed on the reply (replies can
// interleave across ops on one connection). `key` picks the shard via the
// router hook; `off`/`len` address the shard's replica image. The commit
// outcome byte is repl::RedoPipeline::TicketState (kDurable/kDegraded/
// kLost), or kRejectedOutcome when the shard refused the op. The read
// status byte is repl::RedoApplier::ReadStatus — kLagging is the
// read-your-writes bounce: no replica had applied `min_seq` within
// read_park_ms, retry (the reply's at_seq says how far the freshest
// consulted replica had got).
//
// Consistency: writes go to the shard's primary (commit_async ticket; the
// reply carries the commit's sequence, which becomes the client's
// read-your-writes min_seq). Reads go to the shard's replicas at their
// applied watermark; replicas whose advertised watermark (the primary's
// per-peer acked sequence) lags min_seq are skipped without being touched.
// A read that no replica can serve yet parks and is retried each tick
// until the watermark catches up or read_park_ms expires.
//
// Threading: one epoll thread owns every connection AND every shard
// endpoint hook — submit/ticket_state/poll run only on that thread, so a
// single-threaded RedoPipeline needs no locking. Replica read/watermark
// hooks must be thread-safe against the backup's own apply thread
// (WireBackup::read/watermark lock internally, see wire_repl.hpp).
//
// Dependency note: net/ must not link shard/ — shard routing arrives as a
// std::function hook the composition layer (bench, tests) binds to
// shard::Router.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "repl/applier.hpp"
#include "repl/pipeline.hpp"

namespace vrep::net {

class AsyncServer {
 public:
  // Commit outcome byte for an op the shard refused outright (fenced
  // primary / closed window): distinct from every TicketState value.
  static constexpr std::uint8_t kRejectedOutcome = 0xff;

  // One readable replica of a shard (typically a WireBackup, but the
  // primary itself can serve as a replica of last resort).
  struct Replica {
    // Serve `len` bytes at `off` iff the replica has applied `min_seq`
    // (see RedoApplier::read_at_watermark). Must be thread-safe vs the
    // replica's apply thread.
    std::function<repl::RedoApplier::ReadResult(
        std::uint64_t off, std::uint32_t len, std::uint64_t min_seq, std::uint8_t* out)>
        read;
    // Advertised watermark used to SKIP the replica without touching it —
    // e.g. the primary's peer_acked_seq for this backup. May lag the
    // replica's true applied_seq (it only ever under-promises).
    std::function<std::uint64_t()> watermark;
  };

  // One shard's write/read surface. All hooks except the replicas' are
  // called only from the epoll thread.
  struct ShardEndpoint {
    // Apply + commit one client op; returns the commit's sequence (the
    // ticket), or 0 to reject. May block briefly for window backpressure.
    std::function<std::uint64_t(std::uint64_t key, const std::uint8_t* op, std::size_t len)>
        submit;
    // Resolution state of ticket `seq` right now (no blocking).
    std::function<repl::RedoPipeline::TicketState(std::uint64_t seq)> ticket_state;
    // Non-blocking ack pump (RedoPipeline::poll_acks); called every tick so
    // parked tickets resolve and advertised watermarks advance.
    std::function<void()> poll;
    std::vector<Replica> replicas;
  };

  struct Options {
    int read_park_ms = 200;       // lagging-read patience before the bounce
    int tick_ms = 1;              // parked-work retry cadence
    int accept_backoff_ms = 100;  // listen re-arm delay after fd exhaustion
  };

  struct Stats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> conns_open{0};
    std::atomic<std::uint64_t> accept_overloads{0};  // EMFILE/ENFILE backoffs
    std::atomic<std::uint64_t> commits_submitted{0};
    std::atomic<std::uint64_t> commits_rejected{0};
    std::atomic<std::uint64_t> reads_served{0};
    std::atomic<std::uint64_t> reads_parked{0};
    std::atomic<std::uint64_t> reads_bounced{0};
    std::atomic<std::uint64_t> frames_skipped{0};  // payload-CRC failures
    std::atomic<std::uint64_t> conns_corrupt{0};   // header-CRC closes
  };

  AsyncServer() = default;
  explicit AsyncServer(const Options& options) : options_(options) {}
  ~AsyncServer();
  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  // Shard id is the index of the add_shard call; the router must return
  // ids < the number of add_shard calls. Configure before start().
  void add_shard(ShardEndpoint endpoint) { shards_.push_back(std::move(endpoint)); }
  void set_router(std::function<std::uint32_t(std::uint64_t key)> router) {
    router_ = std::move(router);
  }

  // Bind/listen on 127.0.0.1:port (0 = ephemeral), then run the epoll loop
  // on its own thread. stop() joins it and closes every connection.
  bool listen(std::uint16_t port);
  std::uint16_t bound_port() const { return port_; }
  bool start();
  void stop();

  const Stats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> in;      // unparsed inbound bytes
    std::deque<std::vector<std::uint8_t>> out;  // queued frames
    std::size_t out_off = 0;           // sent prefix of out.front()
    bool want_write = false;           // EPOLLOUT currently armed
  };

  struct PendingCommit {
    std::uint64_t conn_id;
    std::uint64_t op_id;
    std::uint64_t epoch;  // echoed on the reply
    std::uint64_t seq;
    std::uint32_t shard;
  };

  struct ParkedRead {
    std::uint64_t conn_id;
    std::uint64_t op_id;
    std::uint64_t epoch;
    std::uint32_t shard;
    std::uint64_t off;
    std::uint32_t len;
    std::uint64_t min_seq;
    std::chrono::steady_clock::time_point deadline;
  };

  void run();
  void accept_ready();
  void conn_readable(Conn& conn);
  void conn_writable(Conn& conn);
  // Parse every complete frame in conn.in; returns false when the
  // connection must close (header corruption / protocol violation).
  bool parse_frames(Conn& conn);
  void dispatch(Conn& conn, std::uint8_t type, std::uint64_t epoch,
                const std::uint8_t* payload, std::size_t len);
  void handle_commit(Conn& conn, std::uint64_t epoch, const std::uint8_t* payload,
                     std::size_t len);
  void handle_read(Conn& conn, std::uint64_t epoch, const std::uint8_t* payload,
                   std::size_t len);
  // One attempt: consult replicas (advertised watermark first), reply on
  // success. Returns false if every replica lags min_seq.
  bool try_read(std::uint64_t conn_id, std::uint64_t op_id, std::uint64_t epoch,
                std::uint32_t shard, std::uint64_t off, std::uint32_t len,
                std::uint64_t min_seq);
  void tick();
  void send_commit_reply(std::uint64_t conn_id, std::uint64_t op_id, std::uint64_t epoch,
                         std::uint64_t seq, std::uint8_t outcome);
  void send_read_reply(std::uint64_t conn_id, std::uint64_t op_id, std::uint64_t epoch,
                       std::uint64_t at_seq, std::uint8_t status, const std::uint8_t* data,
                       std::size_t len);
  void enqueue(Conn& conn, std::vector<std::uint8_t> frame);
  void flush_out(Conn& conn);
  // Tears the connection down (fd, epoll, by_fd_, gauges) but does NOT
  // destroy the Conn: callers up the stack (parse_frames, conn_readable)
  // may still hold a reference. The id parks on dead_conns_ and the object
  // is reaped by reap_dead() once the event-loop iteration unwinds.
  void close_conn(Conn& conn);
  void reap_dead();
  // nullptr for unknown ids AND for closed conns awaiting reap_dead().
  Conn* find_conn(std::uint64_t conn_id);

  Options options_;
  std::vector<ShardEndpoint> shards_;
  std::function<std::uint32_t(std::uint64_t)> router_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: kicks the loop out of epoll_wait on stop
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};

  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Conn> conns_;   // id -> connection (stable refs)
  std::map<int, std::uint64_t> by_fd_;    // fd -> id (epoll event lookup)
  std::vector<std::uint64_t> dead_conns_;  // closed, awaiting reap_dead()
  bool listen_armed_ = true;  // EPOLLIN interest on listen_fd_ (EMFILE backoff)
  std::chrono::steady_clock::time_point listen_rearm_at_{};
  std::vector<PendingCommit> pending_commits_;
  std::vector<ParkedRead> parked_reads_;
  std::vector<std::uint8_t> read_buf_;  // scratch for replica reads
  Stats stats_;
};

}  // namespace vrep::net
