#include "net/async_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/frame.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

namespace {

template <typename T>
T read_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

AsyncServer::~AsyncServer() { stop(); }

bool AsyncServer::listen(std::uint16_t port) {
  listen_fd_ = listen_loopback(port, /*backlog=*/512, port_);
  return listen_fd_ >= 0;
}

bool AsyncServer::start() {
  VREP_CHECK(listen_fd_ >= 0);
  VREP_CHECK(!shards_.empty());
  VREP_CHECK(static_cast<bool>(router_));
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return false;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) return false;
  listen_armed_ = true;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) return false;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

void AsyncServer::stop() {
  if (thread_.joinable()) {
    running_.store(false, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
    thread_.join();
  }
  for (auto& [id, conn] : conns_) {
    if (conn.fd < 0) continue;  // closed mid-iteration, not yet reaped
    ::close(conn.fd);
    // Same accounting as close_conn: the gauge must come back to zero even
    // for connections that were still open when the server shut down.
    stats_.conns_open.fetch_sub(1, std::memory_order_relaxed);
    metrics::gauge("net.async.conns_open").add(-1);
  }
  conns_.clear();
  by_fd_.clear();
  dead_conns_.clear();
  pending_commits_.clear();
  parked_reads_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_), wake_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_), epoll_fd_ = -1;
  if (listen_fd_ >= 0) ::close(listen_fd_), listen_fd_ = -1;
}

void AsyncServer::run() {
  constexpr int kMaxEvents = 128;
  constexpr int kTickMs = 1;  // parked-work retry cadence
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, kTickMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      // The connection may have been closed by an earlier event in this
      // same batch; look it up fresh.
      auto it = by_fd_.find(fd);
      if (it == by_fd_.end()) continue;
      Conn& conn = conns_.at(it->second);
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) conn_writable(conn);
      // conn_writable never closes on its own unless the socket died.
      if (by_fd_.find(fd) == by_fd_.end()) continue;
      if (events[i].events & EPOLLIN) conn_readable(conns_.at(by_fd_.at(fd)));
    }
    tick();
    reap_dead();
  }
}

void AsyncServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds. The listen socket is level-triggered, so returning
        // with the backlog still pending would make epoll_wait re-fire
        // immediately and busy-spin the loop at 100% CPU. Disarm accept
        // interest; tick() re-arms it after accept_backoff_ms.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listen_armed_ = false;
        listen_rearm_at_ = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(options_.accept_backoff_ms);
        stats_.accept_overloads.fetch_add(1, std::memory_order_relaxed);
        metrics::counter("net.async.accept_overloads").add(1);
        return;
      }
      return;  // EAGAIN: drained
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    conn.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    by_fd_[fd] = id;
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.conns_open.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("net.async.accepts").add(1);
    metrics::gauge("net.async.conns_open").add(1);
  }
}

void AsyncServer::conn_readable(Conn& conn) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      if (n < static_cast<ssize_t>(sizeof chunk)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      close_conn(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(conn);
    return;
  }
  if (!parse_frames(conn)) close_conn(conn);
}

bool AsyncServer::parse_frames(Conn& conn) {
  std::size_t consumed = 0;
  while (conn.in.size() - consumed >= sizeof(FrameHeader)) {
    FrameHeader hdr;
    std::memcpy(&hdr, conn.in.data() + consumed, sizeof hdr);
    if (!header_ok(hdr)) {  // framing is lost for good: close the connection
      stats_.conns_corrupt.fetch_add(1, std::memory_order_relaxed);
      metrics::counter("net.async.corrupt_headers").add(1);
      return false;
    }
    if (conn.in.size() - consumed < sizeof hdr + hdr.len) break;  // partial frame
    const std::uint8_t* payload = conn.in.data() + consumed + sizeof hdr;
    if (!payload_ok(hdr, payload)) {
      // The frame is whole and the stream stays aligned: skip it (the client
      // times out on the missing reply and retries).
      stats_.frames_skipped.fetch_add(1, std::memory_order_relaxed);
      metrics::counter("net.async.corrupt_payloads").add(1);
    } else {
      dispatch(conn, hdr.type, hdr.epoch, payload, hdr.len);
      if (conn.fd < 0) return true;  // dispatch closed the connection
    }
    consumed += sizeof hdr + hdr.len;
  }
  if (consumed > 0) {
    conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return true;
}

void AsyncServer::dispatch(Conn& conn, std::uint8_t type, std::uint64_t epoch,
                           const std::uint8_t* payload, std::size_t len) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kClientCommit:
      handle_commit(conn, epoch, payload, len);
      return;
    case MsgType::kReadRequest:
      handle_read(conn, epoch, payload, len);
      return;
    default:
      // Not part of the client protocol: a confused peer. Close.
      close_conn(conn);
      return;
  }
}

void AsyncServer::handle_commit(Conn& conn, std::uint64_t epoch, const std::uint8_t* payload,
                                std::size_t len) {
  if (len < 16) {
    close_conn(conn);
    return;
  }
  const std::uint64_t op_id = read_le<std::uint64_t>(payload);
  const std::uint64_t key = read_le<std::uint64_t>(payload + 8);
  const std::uint32_t shard = router_(key);
  if (shard >= shards_.size()) {
    close_conn(conn);
    return;
  }
  const std::uint64_t seq = shards_[shard].submit(key, payload + 16, len - 16);
  if (seq == 0) {
    stats_.commits_rejected.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("net.async.commits_rejected").add(1);
    send_commit_reply(conn.id, op_id, epoch, 0, kRejectedOutcome);
    return;
  }
  stats_.commits_submitted.fetch_add(1, std::memory_order_relaxed);
  metrics::counter("net.async.commits_submitted").add(1);
  // 1-safe (or an already-covered window) resolves immediately; otherwise
  // the ticket parks until poll_acks advances the watermarks.
  const repl::RedoPipeline::TicketState state = shards_[shard].ticket_state(seq);
  if (state != repl::RedoPipeline::TicketState::kPending) {
    send_commit_reply(conn.id, op_id, epoch, seq, static_cast<std::uint8_t>(state));
    return;
  }
  pending_commits_.push_back(PendingCommit{conn.id, op_id, epoch, seq, shard});
}

void AsyncServer::handle_read(Conn& conn, std::uint64_t epoch, const std::uint8_t* payload,
                              std::size_t len) {
  if (len < 36) {
    close_conn(conn);
    return;
  }
  const std::uint64_t op_id = read_le<std::uint64_t>(payload);
  const std::uint64_t key = read_le<std::uint64_t>(payload + 8);
  const std::uint64_t off = read_le<std::uint64_t>(payload + 16);
  const std::uint32_t rlen = read_le<std::uint32_t>(payload + 24);
  const std::uint64_t min_seq = read_le<std::uint64_t>(payload + 28);
  const std::uint32_t shard = router_(key);
  if (shard >= shards_.size() || shards_[shard].replicas.empty() ||
      rlen > kMaxFramePayload - kReadReplyHeader) {
    close_conn(conn);
    return;
  }
  if (try_read(conn.id, op_id, epoch, shard, off, rlen, min_seq)) return;
  // Every replica lags min_seq: park and retry each tick until the
  // watermark catches up (read-your-writes) or patience runs out (bounce).
  stats_.reads_parked.fetch_add(1, std::memory_order_relaxed);
  metrics::counter("net.async.reads_parked").add(1);
  parked_reads_.push_back(
      ParkedRead{conn.id, op_id, epoch, shard, off, rlen, min_seq,
                 std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options_.read_park_ms)});
}

bool AsyncServer::try_read(std::uint64_t conn_id, std::uint64_t op_id, std::uint64_t epoch,
                           std::uint32_t shard, std::uint64_t off, std::uint32_t len,
                           std::uint64_t min_seq) {
  for (Replica& replica : shards_[shard].replicas) {
    // Skip stale replicas by their advertised watermark without touching
    // them. The advertisement only under-promises (acked <= applied), so a
    // skipped replica truly might lag; a consulted one may still bounce if
    // the advertisement ran ahead of this exact moment — fall through.
    if (replica.watermark() < min_seq) continue;
    read_buf_.resize(kReadReplyHeader + len);  // read straight into the reply
    const repl::RedoApplier::ReadResult r =
        replica.read(off, len, min_seq, read_buf_.data() + kReadReplyHeader);
    switch (r.status) {
      case repl::RedoApplier::ReadStatus::kOk:
        stats_.reads_served.fetch_add(1, std::memory_order_relaxed);
        metrics::counter("net.async.reads_served").add(1);
        send_read_reply(conn_id, op_id, epoch, r.at_seq, static_cast<std::uint8_t>(r.status),
                        len);
        return true;
      case repl::RedoApplier::ReadStatus::kOutOfBounds:
        // The range itself is bad; no replica will ever serve it.
        send_read_reply(conn_id, op_id, epoch, r.at_seq, static_cast<std::uint8_t>(r.status), 0);
        return true;
      case repl::RedoApplier::ReadStatus::kLagging:
        continue;
    }
  }
  return false;
}

void AsyncServer::tick() {
  // Re-arm accept interest once the EMFILE backoff has elapsed (some fds
  // have likely been released by then; if not, accept_ready disarms again).
  if (!listen_armed_ && std::chrono::steady_clock::now() >= listen_rearm_at_) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) listen_armed_ = true;
  }

  for (ShardEndpoint& shard : shards_) shard.poll();

  // Resolve parked commit tickets against the freshly pumped watermarks.
  std::size_t kept = 0;
  for (PendingCommit& pc : pending_commits_) {
    const repl::RedoPipeline::TicketState state = shards_[pc.shard].ticket_state(pc.seq);
    if (state == repl::RedoPipeline::TicketState::kPending) {
      pending_commits_[kept++] = pc;
      continue;
    }
    send_commit_reply(pc.conn_id, pc.op_id, pc.epoch, pc.seq,
                      static_cast<std::uint8_t>(state));
  }
  pending_commits_.resize(kept);

  // Retry parked reads; bounce the ones whose patience expired.
  const auto now = std::chrono::steady_clock::now();
  kept = 0;
  for (ParkedRead& pr : parked_reads_) {
    if (find_conn(pr.conn_id) == nullptr) continue;  // client went away
    if (try_read(pr.conn_id, pr.op_id, pr.epoch, pr.shard, pr.off, pr.len, pr.min_seq)) {
      continue;
    }
    if (now < pr.deadline) {
      parked_reads_[kept++] = pr;
      continue;
    }
    // Bounce: tell the client how far the freshest replica had got so it
    // can retry here or route the read to its own primary.
    std::uint64_t best = 0;
    for (Replica& replica : shards_[pr.shard].replicas) {
      best = std::max(best, replica.watermark());
    }
    stats_.reads_bounced.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("net.async.reads_bounced").add(1);
    send_read_reply(pr.conn_id, pr.op_id, pr.epoch, best,
                    static_cast<std::uint8_t>(repl::RedoApplier::ReadStatus::kLagging), 0);
  }
  parked_reads_.resize(kept);
}

void AsyncServer::send_commit_reply(std::uint64_t conn_id, std::uint64_t op_id,
                                    std::uint64_t epoch, std::uint64_t seq,
                                    std::uint8_t outcome) {
  Conn* conn = find_conn(conn_id);
  if (conn == nullptr) return;
  std::uint8_t payload[17];
  std::memcpy(payload, &op_id, 8);
  std::memcpy(payload + 8, &seq, 8);
  payload[16] = outcome;
  enqueue(*conn, encode_frame(MsgType::kCommitReply, epoch, payload, sizeof payload));
}

void AsyncServer::send_read_reply(std::uint64_t conn_id, std::uint64_t op_id,
                                  std::uint64_t epoch, std::uint64_t at_seq,
                                  std::uint8_t status, std::size_t len) {
  Conn* conn = find_conn(conn_id);
  if (conn == nullptr) return;
  read_buf_.resize(kReadReplyHeader + len);  // keeps the data try_read left
  std::memcpy(read_buf_.data(), &op_id, 8);
  std::memcpy(read_buf_.data() + 8, &at_seq, 8);
  read_buf_[16] = status;
  enqueue(*conn, encode_frame(MsgType::kReadReply, epoch, read_buf_.data(), read_buf_.size()));
}

void AsyncServer::enqueue(Conn& conn, std::vector<std::uint8_t> frame) {
  conn.out.push_back(std::move(frame));
  flush_out(conn);
}

void AsyncServer::flush_out(Conn& conn) {
  while (!conn.out.empty()) {
    const std::vector<std::uint8_t>& front = conn.out.front();
    const ssize_t n = ::send(conn.fd, front.data() + conn.out_off,
                             front.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    conn.out_off += static_cast<std::size_t>(n);
    if (conn.out_off == front.size()) {
      conn.out.pop_front();
      conn.out_off = 0;
    }
  }
  const bool want = !conn.out.empty();
  if (want != conn.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_write = want;
  }
}

void AsyncServer::conn_writable(Conn& conn) { flush_out(conn); }

void AsyncServer::close_conn(Conn& conn) {
  if (conn.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  by_fd_.erase(conn.fd);
  conn.fd = -1;
  stats_.conns_open.fetch_sub(1, std::memory_order_relaxed);
  metrics::gauge("net.async.conns_open").add(-1);
  // Do NOT conns_.erase here: dispatch/handle_commit/handle_read close mid
  // parse while parse_frames and conn_readable still hold the Conn& — the
  // object must outlive the whole call stack. Reaped in reap_dead().
  dead_conns_.push_back(conn.id);
}

void AsyncServer::reap_dead() {
  for (const std::uint64_t id : dead_conns_) conns_.erase(id);
  dead_conns_.clear();
}

AsyncServer::Conn* AsyncServer::find_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.fd < 0) return nullptr;
  return &it->second;
}

}  // namespace vrep::net
