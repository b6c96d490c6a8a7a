// The epoll front end: real TCP clients multiplexed onto commit_async
// tickets (writes) and backup watermark reads (reads). Covers the
// read-your-writes contract end to end — a client that commits ticket S and
// immediately reads with min_seq = S must observe its own write — plus the
// laggard bounce, stale-replica skipping, shard routing, and a
// many-connection sweep through one server.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "net/async_server.hpp"
#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "rio/arena.hpp"
#include "sim/traffic.hpp"
#include "util/crc32.hpp"

namespace vrep {
namespace {

using core::StoreConfig;
using ReadStatus = repl::RedoApplier::ReadStatus;
using TicketState = repl::RedoPipeline::TicketState;

constexpr std::size_t kDbSize = 64 * 1024;

StoreConfig small_config() {
  StoreConfig config;
  config.db_size = kDbSize;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  return config;
}

// One replicated shard: a WirePrimary commit path over an in-process
// transport to a WireBackup serving on its own thread — the replication
// plumbing the AsyncServer front end composes over.
struct Shard {
  Shard()
      : arena(rio::Arena::create(
            core::required_arena_size(core::VersionKind::kV3InlineLog, small_config()))),
        replica(rio::Arena::create(kDbSize)) {
    net::InprocTransport::pair(primary_end, backup_end);
    primary = std::make_unique<net::WirePrimary>(arena, small_config(), &primary_end,
                                                 /*format=*/true);
    // 2-safe with an open window: commit_async returns a PENDING ticket the
    // server must resolve via poll_acks — the asynchronous path under test.
    primary->set_two_safe(true);
    primary->set_commit_window(8);
    backup = std::make_unique<net::WireBackup>(replica);
    backup_thread = std::thread(
        [this] { backup->serve(backup_end, net::WireBackup::ServeOptions{4000, nullptr}); });
    EXPECT_TRUE(primary->sync_backup());
  }

  ~Shard() {
    primary_end.close_peer();
    backup_end.close_peer();
    if (backup_thread.joinable()) backup_thread.join();
  }

  // Client op payload: [u64 off | u64 value] — write an 8-byte value.
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
        // Advertised watermark: what the primary knows the backup acked —
        // skippable-staleness without touching the backup.
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

// ---- client-side helpers ----------------------------------------------------

bool send_commit(net::TcpTransport& client, std::uint64_t op_id, std::uint64_t key,
                 std::uint64_t off, std::uint64_t value) {
  std::uint8_t payload[32];
  std::memcpy(payload, &op_id, 8);
  std::memcpy(payload + 8, &key, 8);
  std::memcpy(payload + 16, &off, 8);
  std::memcpy(payload + 24, &value, 8);
  return client.send(net::MsgType::kClientCommit, 1, payload, sizeof payload);
}

bool send_read(net::TcpTransport& client, std::uint64_t op_id, std::uint64_t key,
               std::uint64_t off, std::uint32_t len, std::uint64_t min_seq) {
  std::uint8_t payload[36];
  std::memcpy(payload, &op_id, 8);
  std::memcpy(payload + 8, &key, 8);
  std::memcpy(payload + 16, &off, 8);
  std::memcpy(payload + 24, &len, 4);
  std::memcpy(payload + 28, &min_seq, 8);
  return client.send(net::MsgType::kReadRequest, 1, payload, sizeof payload);
}

struct CommitReply {
  std::uint64_t op_id;
  std::uint64_t seq;
  std::uint8_t outcome;
};

std::optional<CommitReply> recv_commit_reply(net::TcpTransport& client,
                                             int timeout_ms = 5000) {
  std::optional<net::Message> msg = client.recv(timeout_ms);
  if (!msg.has_value() || msg->type != net::MsgType::kCommitReply ||
      msg->payload.size() != 17) {
    return std::nullopt;
  }
  CommitReply reply;
  std::memcpy(&reply.op_id, msg->payload.data(), 8);
  std::memcpy(&reply.seq, msg->payload.data() + 8, 8);
  reply.outcome = msg->payload[16];
  return reply;
}

struct ReadReply {
  std::uint64_t op_id;
  std::uint64_t at_seq;
  std::uint8_t status;
  std::vector<std::uint8_t> data;
};

std::optional<ReadReply> recv_read_reply(net::TcpTransport& client, int timeout_ms = 5000) {
  std::optional<net::Message> msg = client.recv(timeout_ms);
  if (!msg.has_value() || msg->type != net::MsgType::kReadReply ||
      msg->payload.size() < 17) {
    return std::nullopt;
  }
  ReadReply reply;
  std::memcpy(&reply.op_id, msg->payload.data(), 8);
  std::memcpy(&reply.at_seq, msg->payload.data() + 8, 8);
  reply.status = msg->payload[16];
  reply.data.assign(msg->payload.begin() + 17, msg->payload.end());
  return reply;
}

void connect_client(net::TcpTransport& client, std::uint16_t port) {
  ASSERT_TRUE(client.connect_to("127.0.0.1", port, 5000));
}

// ---- tests ------------------------------------------------------------------

TEST(AsyncServer, CommitTicketThenReadYourWriteFromTheBackup) {
  Shard shard;
  net::AsyncServer server;
  server.add_shard(shard.endpoint());
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport client;
  connect_client(client, server.bound_port());
  const std::uint64_t off = 4096, value = 0xfeedfacecafe0001ull;
  ASSERT_TRUE(send_commit(client, /*op_id=*/7, /*key=*/1, off, value));
  std::optional<CommitReply> commit = recv_commit_reply(client);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->op_id, 7u);
  EXPECT_EQ(commit->outcome, static_cast<std::uint8_t>(TicketState::kDurable))
      << "2-safe ticket must resolve durable once the backup acks";
  ASSERT_GT(commit->seq, 0u);

  // Read-your-writes: min_seq = the commit's own sequence. The server may
  // park the read until the backup's watermark covers it, but the reply
  // must carry the committed bytes at a watermark >= S.
  ASSERT_TRUE(send_read(client, /*op_id=*/8, /*key=*/1, off, 8, commit->seq));
  std::optional<ReadReply> read = recv_read_reply(client);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->op_id, 8u);
  EXPECT_EQ(read->status, static_cast<std::uint8_t>(ReadStatus::kOk));
  EXPECT_GE(read->at_seq, commit->seq);
  ASSERT_EQ(read->data.size(), 8u);
  std::uint64_t got;
  std::memcpy(&got, read->data.data(), 8);
  EXPECT_EQ(got, value);

  server.stop();
  EXPECT_GE(server.stats().reads_served.load(), 1u);
}

TEST(AsyncServer, LaggardReplicaBouncesAfterThePatienceWindow) {
  // A shard whose only replica never catches up: the read parks for
  // read_park_ms, then bounces with kLagging and the replica's watermark.
  net::AsyncServer::Options options;
  options.read_park_ms = 50;
  net::AsyncServer server(options);
  net::AsyncServer::ShardEndpoint ep;
  ep.submit = [](std::uint64_t, const std::uint8_t*, std::size_t) { return std::uint64_t{0}; };
  ep.ticket_state = [](std::uint64_t) { return TicketState::kDurable; };
  ep.poll = [] {};
  ep.replicas.push_back(net::AsyncServer::Replica{
      [](std::uint64_t, std::uint32_t, std::uint64_t, std::uint8_t*) {
        return repl::RedoApplier::ReadResult{ReadStatus::kLagging, 3};
      },
      [] { return std::uint64_t{3}; }});
  server.add_shard(std::move(ep));
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport client;
  connect_client(client, server.bound_port());
  const auto started = std::chrono::steady_clock::now();
  ASSERT_TRUE(send_read(client, 1, 1, 0, 8, /*min_seq=*/100));
  std::optional<ReadReply> read = recv_read_reply(client);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, static_cast<std::uint8_t>(ReadStatus::kLagging));
  EXPECT_EQ(read->at_seq, 3u) << "bounce must report how far the replica got";
  EXPECT_TRUE(read->data.empty());
  EXPECT_GE(elapsed, 45) << "bounced before the patience window";
  server.stop();
  EXPECT_EQ(server.stats().reads_bounced.load(), 1u);
  EXPECT_EQ(server.stats().reads_parked.load(), 1u);
}

TEST(AsyncServer, StaleReplicaIsSkippedByItsAdvertisedWatermark) {
  Shard shard;
  net::AsyncServer::ShardEndpoint ep = shard.endpoint();
  // Prepend a "stale backup": its advertised watermark is permanently 0, so
  // the server must route the read past it WITHOUT touching it.
  auto touched = std::make_shared<bool>(false);
  ep.replicas.insert(ep.replicas.begin(),
                     net::AsyncServer::Replica{
                         [touched](std::uint64_t, std::uint32_t, std::uint64_t,
                                   std::uint8_t*) {
                           *touched = true;
                           return repl::RedoApplier::ReadResult{ReadStatus::kLagging, 0};
                         },
                         [] { return std::uint64_t{0}; }});
  net::AsyncServer server;
  server.add_shard(std::move(ep));
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport client;
  connect_client(client, server.bound_port());
  ASSERT_TRUE(send_commit(client, 1, 1, 128, 0xabcdull));
  std::optional<CommitReply> commit = recv_commit_reply(client);
  ASSERT_TRUE(commit.has_value());
  ASSERT_GT(commit->seq, 0u);
  ASSERT_TRUE(send_read(client, 2, 1, 128, 8, commit->seq));
  std::optional<ReadReply> read = recv_read_reply(client);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, static_cast<std::uint8_t>(ReadStatus::kOk));
  server.stop();
  EXPECT_FALSE(*touched) << "a replica advertising watermark < min_seq must be skipped";
}

TEST(AsyncServer, RoutesCommitsAndReadsAcrossTwoShards) {
  Shard shard0, shard1;
  net::AsyncServer server;
  server.add_shard(shard0.endpoint());
  server.add_shard(shard1.endpoint());
  server.set_router([](std::uint64_t key) { return static_cast<std::uint32_t>(key % 2); });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport client;
  connect_client(client, server.bound_port());
  // Interleaved commits to both shards on one connection, distinct offsets.
  struct Op {
    std::uint64_t key, off, value, seq = 0;
  };
  std::vector<Op> ops = {{0, 1024, 0x11}, {1, 2048, 0x22}, {2, 3072, 0x33}, {3, 4096, 0x44}};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(send_commit(client, i, ops[i].key, ops[i].off, ops[i].value));
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::optional<CommitReply> reply = recv_commit_reply(client);
    ASSERT_TRUE(reply.has_value());
    ASSERT_LT(reply->op_id, ops.size());
    EXPECT_NE(reply->outcome, net::AsyncServer::kRejectedOutcome);
    ops[reply->op_id].seq = reply->seq;
  }
  // Each value must be readable from its OWN shard's backup at its seq.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(send_read(client, 100 + i, ops[i].key, ops[i].off, 8, ops[i].seq));
    std::optional<ReadReply> read = recv_read_reply(client);
    ASSERT_TRUE(read.has_value());
    ASSERT_EQ(read->status, static_cast<std::uint8_t>(ReadStatus::kOk)) << "op " << i;
    std::uint64_t got;
    std::memcpy(&got, read->data.data(), 8);
    const std::size_t idx = read->op_id - 100;
    EXPECT_EQ(got, ops[idx].value) << "shard routing misdelivered op " << idx;
  }
  server.stop();
}

TEST(AsyncServer, ManyConnectionsMultiplexOntoOneShard) {
  Shard shard;
  net::AsyncServer server;
  server.add_shard(shard.endpoint());
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  constexpr int kClients = 64;
  std::vector<std::unique_ptr<net::TcpTransport>> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    auto client = std::make_unique<net::TcpTransport>();
    ASSERT_TRUE(client->connect_to("127.0.0.1", server.bound_port(), 5000)) << "client " << i;
    clients.push_back(std::move(client));
  }
  // All commits in flight before any reply is drained: the epoll loop must
  // interleave them all.
  for (int i = 0; i < kClients; ++i) {
    const std::uint64_t off = 64 + static_cast<std::uint64_t>(i) * 8;
    ASSERT_TRUE(send_commit(*clients[i], static_cast<std::uint64_t>(i), 1, off,
                            0x1000u + static_cast<std::uint64_t>(i)));
  }
  std::uint64_t max_seq = 0;
  for (int i = 0; i < kClients; ++i) {
    std::optional<CommitReply> reply = recv_commit_reply(*clients[i]);
    ASSERT_TRUE(reply.has_value()) << "client " << i;
    EXPECT_EQ(reply->op_id, static_cast<std::uint64_t>(i));
    EXPECT_NE(reply->outcome, net::AsyncServer::kRejectedOutcome);
    max_seq = std::max(max_seq, reply->seq);
  }
  // Every client reads its own write back (read-your-writes per client).
  for (int i = 0; i < kClients; ++i) {
    const std::uint64_t off = 64 + static_cast<std::uint64_t>(i) * 8;
    ASSERT_TRUE(send_read(*clients[i], static_cast<std::uint64_t>(i), 1, off, 8, max_seq));
  }
  for (int i = 0; i < kClients; ++i) {
    std::optional<ReadReply> read = recv_read_reply(*clients[i]);
    ASSERT_TRUE(read.has_value()) << "client " << i;
    ASSERT_EQ(read->status, static_cast<std::uint8_t>(ReadStatus::kOk));
    std::uint64_t got;
    std::memcpy(&got, read->data.data(), 8);
    EXPECT_EQ(got, 0x1000u + static_cast<std::uint64_t>(i));
  }
  server.stop();
  EXPECT_EQ(server.stats().accepted.load(), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(server.stats().reads_served.load(), static_cast<std::uint64_t>(kClients));
}

TEST(AsyncServer, MidBatchProtocolViolationClosesTheConnNotTheServer) {
  // Regression (heap use-after-free): close_conn used to conns_.erase the
  // Conn while parse_frames still held the reference, so any mid-dispatch
  // close — protocol violation, bad shard route — read a destroyed object
  // on the next loop iteration (ASan tripped). The close is now deferred to
  // a dead-list reaped after the event-loop iteration unwinds.
  Shard shard;
  net::AsyncServer server;
  server.add_shard(shard.endpoint());
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport client;
  connect_client(client, server.bound_port());
  // Three frames in ONE send so they land in the same parse batch: a valid
  // commit, a protocol violation (unknown frame type closes the connection
  // mid-parse), and a trailing commit that must never be processed.
  auto commit_payload = [](std::uint64_t op_id, std::uint64_t off, std::uint64_t value) {
    std::vector<std::uint8_t> p(32);
    std::memcpy(p.data(), &op_id, 8);
    const std::uint64_t key = 1;
    std::memcpy(p.data() + 8, &key, 8);
    std::memcpy(p.data() + 16, &off, 8);
    std::memcpy(p.data() + 24, &value, 8);
    return p;
  };
  std::vector<std::uint8_t> wire;
  auto append = [&wire](const std::vector<std::uint8_t>& frame) {
    wire.insert(wire.end(), frame.begin(), frame.end());
  };
  const std::vector<std::uint8_t> first = commit_payload(1, 512, 0x1111);
  const std::vector<std::uint8_t> trailing = commit_payload(2, 520, 0x2222);
  append(net::encode_frame(net::MsgType::kClientCommit, 1, first.data(), first.size()));
  append(net::encode_frame(static_cast<net::MsgType>(0x6e), 1, nullptr, 0));
  append(net::encode_frame(net::MsgType::kClientCommit, 1, trailing.data(), trailing.size()));
  ASSERT_TRUE(client.send_bytes(wire.data(), wire.size()));

  // The violation closes the connection before the first (2-safe, pending)
  // ticket can resolve, so no reply ever arrives — only the close. The
  // ticket still resolves inside the server and is dropped on the floor
  // (reply-to-a-dead-conn path).
  EXPECT_FALSE(recv_commit_reply(client, 2000).has_value());
  EXPECT_EQ(client.last_error(), net::TransportError::kClosed);
  EXPECT_EQ(server.stats().commits_submitted.load(), 1u)
      << "the frame behind the violation must never dispatch";

  // The server itself shrugs it off: a fresh client round-trips.
  net::TcpTransport client2;
  connect_client(client2, server.bound_port());
  ASSERT_TRUE(send_commit(client2, 9, 1, 256, 0xbeef));
  std::optional<CommitReply> reply = recv_commit_reply(client2);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->outcome, net::AsyncServer::kRejectedOutcome);
  server.stop();
  EXPECT_EQ(server.stats().conns_open.load(), 0u);
}

// One whole kClientCommit frame, as send_commit would put it on the wire.
std::vector<std::uint8_t> encode_commit(std::uint64_t op_id, std::uint64_t key,
                                        std::uint64_t off, std::uint64_t value) {
  std::uint8_t payload[32];
  std::memcpy(payload, &op_id, 8);
  std::memcpy(payload + 8, &key, 8);
  std::memcpy(payload + 16, &off, 8);
  std::memcpy(payload + 24, &value, 8);
  return net::encode_frame(net::MsgType::kClientCommit, 1, payload, sizeof payload);
}

TEST(AsyncServer, CorruptPayloadIsSkippedAndTheConnectionServesOn) {
  // A client frame whose payload CRC fails arrived whole, so the stream is
  // still aligned: the server skips that frame and answers the next commit
  // on the same connection.
  Shard shard;
  net::AsyncServer server;
  server.add_shard(shard.endpoint());
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport client;
  connect_client(client, server.bound_port());
  std::vector<std::uint8_t> bad = encode_commit(1, 1, 64, 0x11);
  bad.back() ^= 0x01;  // a payload bit; the header CRC still matches
  ASSERT_TRUE(client.send_bytes(bad.data(), bad.size()));
  ASSERT_TRUE(send_commit(client, 2, 1, 72, 0x22));
  std::optional<CommitReply> reply = recv_commit_reply(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->op_id, 2u) << "the corrupt commit must never be answered";
  EXPECT_NE(reply->outcome, net::AsyncServer::kRejectedOutcome);
  EXPECT_TRUE(client.connected());
  server.stop();
  EXPECT_EQ(server.stats().frames_skipped.load(), 1u);
  EXPECT_EQ(server.stats().conns_corrupt.load(), 0u);
  EXPECT_EQ(server.stats().commits_submitted.load(), 1u);
}

TEST(AsyncServer, CorruptHeaderClosesOnlyItsConnection) {
  // A header that fails its CRC, or that claims more than kMaxFramePayload,
  // leaves the frame length untrusted: the server closes that connection
  // and keeps serving every other one.
  for (const bool oversized : {false, true}) {
    SCOPED_TRACE(oversized ? "length above kMaxFramePayload" : "flipped header bit");
    Shard shard;
    net::AsyncServer server;
    server.add_shard(shard.endpoint());
    server.set_router([](std::uint64_t) { return 0u; });
    ASSERT_TRUE(server.listen(0));
    ASSERT_TRUE(server.start());

    net::TcpTransport bad, good;
    connect_client(bad, server.bound_port());
    connect_client(good, server.bound_port());
    std::vector<std::uint8_t> frame = encode_commit(1, 1, 64, 0x11);
    if (oversized) {
      net::FrameHeader hdr;
      std::memcpy(&hdr, frame.data(), sizeof hdr);
      hdr.len = static_cast<std::uint32_t>(net::kMaxFramePayload + 1);
      hdr.header_crc = net::frame_header_crc(hdr);  // a well-formed lie
      std::memcpy(frame.data(), &hdr, sizeof hdr);
    } else {
      frame[0] ^= 0x01;  // an epoch bit: the header CRC no longer matches
    }
    ASSERT_TRUE(bad.send_bytes(frame.data(), frame.size()));
    EXPECT_FALSE(bad.recv(2000).has_value());
    EXPECT_EQ(bad.last_error(), net::TransportError::kClosed);

    ASSERT_TRUE(send_commit(good, 2, 1, 72, 0x22));
    std::optional<CommitReply> reply = recv_commit_reply(good);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->op_id, 2u);
    EXPECT_NE(reply->outcome, net::AsyncServer::kRejectedOutcome);
    server.stop();
    EXPECT_EQ(server.stats().conns_corrupt.load(), 1u);
    EXPECT_EQ(server.stats().frames_skipped.load(), 0u);
    EXPECT_EQ(server.stats().commits_submitted.load(), 1u);
  }
}

TEST(AsyncServer, StopAccountsForConnectionsItCloses) {
  // Regression: stop() closed still-open connections without decrementing
  // conns_open, leaving the gauge permanently inflated across a restart.
  Shard shard;
  net::AsyncServer server;
  server.add_shard(shard.endpoint());
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport a, b;
  connect_client(a, server.bound_port());
  connect_client(b, server.bound_port());
  // Round-trip on both so each accept has definitely been registered.
  ASSERT_TRUE(send_commit(a, 1, 1, 64, 0x0a));
  ASSERT_TRUE(send_commit(b, 2, 1, 72, 0x0b));
  ASSERT_TRUE(recv_commit_reply(a).has_value());
  ASSERT_TRUE(recv_commit_reply(b).has_value());
  EXPECT_EQ(server.stats().conns_open.load(), 2u);
  server.stop();
  EXPECT_EQ(server.stats().conns_open.load(), 0u);
}

TEST(AsyncServer, FdExhaustionBacksOffAndRecovers) {
  // EMFILE on accept4 with a level-triggered listen socket used to make
  // epoll_wait re-fire immediately forever (100% CPU busy-spin). The server
  // now disarms accept interest and re-arms after accept_backoff_ms; a
  // connection pending through the exhaustion window is accepted once fds
  // free up.
  net::AsyncServer::Options options;
  options.accept_backoff_ms = 50;
  Shard shard;
  net::AsyncServer server(options);
  server.add_shard(shard.endpoint());
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  // Cap the fd table just above what is currently in use (the next free fd
  // number plus headroom), then hoard the headroom so accept4 has nothing
  // left. Probing keeps the hoard small on boxes with huge default limits.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int probe = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit capped = saved;
  capped.rlim_cur = std::min<rlim_t>(static_cast<rlim_t>(probe) + 32, saved.rlim_max);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
  std::vector<int> hoard;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    hoard.push_back(fd);
  }
  ASSERT_FALSE(hoard.empty());
  // Free exactly one fd for the client's socket: the TCP handshake
  // completes via the listen backlog, but the server's accept4 hits EMFILE.
  ::close(hoard.back());
  hoard.pop_back();
  net::TcpTransport client;
  ASSERT_TRUE(client.connect_to("127.0.0.1", server.bound_port(), 5000));
  const auto overload_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().accept_overloads.load() == 0 &&
         std::chrono::steady_clock::now() < overload_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().accept_overloads.load(), 1u);

  // Relieve the pressure; after the backoff the listener re-arms and the
  // parked connection is finally accepted and served.
  for (const int fd : hoard) ::close(fd);
  hoard.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(send_commit(client, 1, 1, 96, 0x77));
  std::optional<CommitReply> reply = recv_commit_reply(client, 10'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->outcome, net::AsyncServer::kRejectedOutcome);
  server.stop();
}

TEST(AsyncServer, OutOfBoundsReadAnswersInsteadOfParking) {
  Shard shard;
  net::AsyncServer server;
  server.add_shard(shard.endpoint());
  server.set_router([](std::uint64_t) { return 0u; });
  ASSERT_TRUE(server.listen(0));
  ASSERT_TRUE(server.start());

  net::TcpTransport client;
  connect_client(client, server.bound_port());
  // Commit once so the backup has a complete image and a nonzero watermark.
  ASSERT_TRUE(send_commit(client, 1, 1, 0, 0x77));
  ASSERT_TRUE(recv_commit_reply(client).has_value());
  // A range past the image can never be served; the reply must be an
  // immediate kOutOfBounds, not a park-then-bounce.
  ASSERT_TRUE(send_read(client, 2, 1, kDbSize - 4, 8, 0));
  std::optional<ReadReply> read = recv_read_reply(client);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, static_cast<std::uint8_t>(ReadStatus::kOutOfBounds));
  EXPECT_TRUE(read->data.empty());
  server.stop();
}

}  // namespace
}  // namespace vrep
