// TCP transport framing and wire replication (loopback, two threads).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "util/rng.hpp"

namespace vrep::net {
namespace {

struct LoopbackPair {
  LoopbackPair() {
    EXPECT_TRUE(server.listen(0));
    std::thread connector([this] { client_ok = client.connect_to("127.0.0.1", server.bound_port()); });
    EXPECT_TRUE(server.accept_peer());
    connector.join();
    EXPECT_TRUE(client_ok);
  }
  TcpTransport server, client;
  bool client_ok = false;
};

TEST(Transport, RoundTripsFramedMessages) {
  LoopbackPair pair;
  const char payload[] = "hello backup";
  ASSERT_TRUE(pair.client.send(MsgType::kHeartbeat, /*epoch=*/7, payload, sizeof payload));
  auto msg = pair.server.recv(1000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::kHeartbeat);
  EXPECT_EQ(msg->epoch, 7u);
  ASSERT_EQ(msg->payload.size(), sizeof payload);
  EXPECT_EQ(std::memcmp(msg->payload.data(), payload, sizeof payload), 0);
}

TEST(Transport, ManyMessagesArriveInOrder) {
  const auto expect_seq = [](const std::optional<Message>& msg, std::uint32_t want) {
    ASSERT_TRUE(msg.has_value());
    std::uint32_t got;
    std::memcpy(&got, msg->payload.data(), 4);
    ASSERT_EQ(got, want);
  };
  {
    SCOPED_TRACE("tcp");
    LoopbackPair pair;
    for (std::uint32_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(pair.client.send(MsgType::kRedoBatch, 1, &i, 4));
    }
    for (std::uint32_t i = 0; i < 500; ++i) expect_seq(pair.server.recv(1000), i);
  }
  {
    // Two sends per recv(0) drain: the backlog grows, so the read offset sits
    // mid-buffer whenever new bytes arrive behind it.
    SCOPED_TRACE("inproc");
    InprocTransport a, b;
    InprocTransport::pair(a, b);
    std::uint32_t received = 0;
    for (std::uint32_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(a.send(MsgType::kRedoBatch, 1, &i, 4));
      if (i % 2 == 1) expect_seq(b.recv(0), received++);
    }
    while (received < 500) expect_seq(b.recv(0), received++);
    EXPECT_FALSE(b.recv(0).has_value());
    EXPECT_EQ(b.last_error(), TransportError::kTimeout);
    a.close_peer();
    EXPECT_FALSE(b.recv(0).has_value());
    EXPECT_EQ(b.last_error(), TransportError::kClosed);
  }
}

TEST(Transport, InprocZeroTimeoutPollDoesNotSleep) {
  // Regression: recv(0) on an empty in-process stream armed a timed wait on
  // a deadline that had already passed, and the thread's timer slack turned
  // each poll into a ~55 us sleep (about 550 ms for this loop). A poll that
  // finds nothing must return at once, as TcpTransport's poll(0) does.
  InprocTransport a, b;
  InprocTransport::pair(a, b);
  constexpr int kPolls = 10'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPolls; ++i) {
    ASSERT_FALSE(b.recv(0).has_value());
    ASSERT_EQ(b.last_error(), TransportError::kTimeout);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(200))
      << kPolls << " empty polls took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count() << " ms";
}

TEST(Transport, LargePayload) {
  LoopbackPair pair;
  std::vector<std::uint8_t> big(3u << 20);
  Rng rng(5);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_u32());
  std::thread sender([&] { pair.client.send(MsgType::kDbChunk, 1, big.data(), big.size()); });
  auto msg = pair.server.recv(5000);
  sender.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, big);
}

// Runs `check(sender, receiver)` over both byte-stream carriers: a TCP
// loopback pair and an in-process pair. Each must apply the frame rules of
// net/frame.hpp the same way.
template <typename Check>
void over_both_carriers(const Check& check) {
  {
    SCOPED_TRACE("tcp");
    LoopbackPair pair;
    check(pair.client, pair.server);
  }
  {
    SCOPED_TRACE("inproc");
    InprocTransport a, b;
    InprocTransport::pair(a, b);
    check(a, b);
  }
}

TEST(Transport, EncodedHeaderIsPinnedByteForByte) {
  // The 24-byte header, literally: u64 epoch, u32 payload length, u32
  // CRC32C of the payload, u32 CRC32C over (epoch, length, type), u8 type,
  // three zero pad bytes, all little-endian.
  const char payload[] = {'a', 'b', 'c'};
  const auto frame =
      encode_frame(MsgType::kHeartbeat, 0x0102030405060708ull, payload, sizeof payload);
  const std::vector<std::uint8_t> want = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // epoch
      0x03, 0x00, 0x00, 0x00,                          // payload length
      0xb7, 0x3f, 0x4b, 0x36,                          // payload CRC32C
      0xca, 0x2e, 0xed, 0xaf,                          // header CRC32C
      0x02,                                            // type (kHeartbeat)
      0x00, 0x00, 0x00,                                // pad
      'a',  'b',  'c'};
  EXPECT_EQ(frame, want);
}

TEST(Transport, TcpSendWritesExactlyTheEncodedFrame) {
  // TcpTransport::send puts header and payload on the socket itself; a raw
  // socket on the far end must read exactly encode_frame's bytes.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  TcpTransport client;
  ASSERT_TRUE(client.connect_to("127.0.0.1", ntohs(addr.sin_port)));
  const int raw = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  ASSERT_GE(raw, 0);

  std::vector<std::uint8_t> payload(5000);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_TRUE(client.send(MsgType::kRedoBatch, 9, payload.data(), payload.size()));
  ASSERT_TRUE(client.send(MsgType::kHeartbeat, 9, nullptr, 0));
  std::vector<std::uint8_t> want =
      encode_frame(MsgType::kRedoBatch, 9, payload.data(), payload.size());
  const auto empty = encode_frame(MsgType::kHeartbeat, 9, nullptr, 0);
  want.insert(want.end(), empty.begin(), empty.end());
  std::vector<std::uint8_t> got(want.size());
  std::size_t have = 0;
  while (have < got.size()) {
    const ssize_t n = ::recv(raw, got.data() + have, got.size() - have, 0);
    ASSERT_GT(n, 0);
    have += static_cast<std::size_t>(n);
  }
  ::close(raw);
  EXPECT_EQ(got, want);
}

TEST(Transport, PayloadCorruptionIsSkippableInStream) {
  // A frame whose payload CRC fails must leave the stream aligned: the
  // receiver reports kCorrupt but stays connected and can read the next
  // frame.
  over_both_carriers([](Transport& sender, Transport& receiver) {
    const char good[] = "intact";
    auto bad = encode_frame(MsgType::kRedoBatch, 1, good, sizeof good);
    bad.back() ^= 0x01;  // flip a payload bit; header CRC still matches
    ASSERT_TRUE(sender.send_bytes(bad.data(), bad.size()));
    ASSERT_TRUE(sender.send(MsgType::kHeartbeat, 1, good, sizeof good));

    auto first = receiver.recv(1000);
    EXPECT_FALSE(first.has_value());
    EXPECT_EQ(receiver.last_error(), TransportError::kCorrupt);
    EXPECT_TRUE(receiver.connected());
    auto second = receiver.recv(1000);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, MsgType::kHeartbeat);
  });
}

TEST(Transport, HeaderCorruptionClosesTheStream) {
  // If the header CRC fails, the length field cannot be trusted and framing
  // is lost for good: the transport reports kCorrupt and disconnects.
  over_both_carriers([](Transport& sender, Transport& receiver) {
    const char payload[] = "doomed";
    auto frame = encode_frame(MsgType::kRedoBatch, 1, payload, sizeof payload);
    frame[8] ^= 0x40;  // flip a bit in the length field
    ASSERT_TRUE(sender.send_bytes(frame.data(), frame.size()));
    auto msg = receiver.recv(1000);
    EXPECT_FALSE(msg.has_value());
    EXPECT_EQ(receiver.last_error(), TransportError::kCorrupt);
    EXPECT_FALSE(receiver.connected());
  });
}

TEST(Transport, TornFrameReportsClosedNotGarbage) {
  // Kill the sender mid-frame: the receiver must report kClosed (torn
  // stream), never hand out a partial message.
  over_both_carriers([](Transport& sender, Transport& receiver) {
    std::vector<std::uint8_t> payload(4096, 0xab);
    const auto frame = encode_frame(MsgType::kRedoBatch, 1, payload.data(), payload.size());
    ASSERT_TRUE(sender.send_bytes(frame.data(), frame.size() / 2));
    sender.close_peer();
    auto msg = receiver.recv(1000);
    EXPECT_FALSE(msg.has_value());
    EXPECT_EQ(receiver.last_error(), TransportError::kClosed);
  });
}

TEST(Transport, RecvTimesOutWhenSilent) {
  LoopbackPair pair;
  auto msg = pair.server.recv(50);
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(pair.server.last_error(), TransportError::kTimeout);
}

TEST(Transport, ClosedPeerIsDetected) {
  LoopbackPair pair;
  pair.client.close_peer();
  auto msg = pair.server.recv(1000);
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(pair.server.last_error(), TransportError::kClosed);
}

// Sends `frame` one byte every `interval` from a background thread until
// stopped — a peer that is alive but trickling below any useful rate.
struct Trickler {
  Trickler(TcpTransport& t, std::vector<std::uint8_t> frame,
           std::chrono::milliseconds interval)
      : transport(t), bytes(std::move(frame)) {
    thread = std::thread([this, interval] {
      for (std::size_t i = 0; i < bytes.size() && !stop.load(); ++i) {
        if (!transport.send_bytes(bytes.data() + i, 1)) return;
        std::this_thread::sleep_for(interval);
      }
    });
  }
  ~Trickler() {
    stop.store(true);
    thread.join();
  }
  TcpTransport& transport;
  std::vector<std::uint8_t> bytes;
  std::atomic<bool> stop{false};
  std::thread thread;
};

TEST(Transport, TricklingHeaderCannotStallRecvPastItsDeadline) {
  // Regression: read_fully used to restart the full timeout on every poll()
  // that saw a byte, so a peer dribbling one byte per window kept recv()
  // blocked indefinitely. The deadline must cap the WHOLE receive.
  LoopbackPair pair;
  std::vector<std::uint8_t> payload(256, 0x5a);
  auto frame = encode_frame(MsgType::kRedoBatch, 1, payload.data(), payload.size());
  Trickler trickler(pair.client, std::move(frame), std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  auto msg = pair.server.recv(150);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(pair.server.last_error(), TransportError::kTimeout);
  // Pre-fix behavior would sit through ~280 polls x 20ms (several seconds);
  // the budget is 150ms, so even a loaded CI box stays well under a second.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1'000);
}

TEST(Transport, RecvDeadlineSpansHeaderAndPayload) {
  // The header arriving promptly must not grant the payload a fresh budget:
  // one deadline covers the whole frame.
  LoopbackPair pair;
  std::vector<std::uint8_t> payload(256, 0xc3);
  auto frame = encode_frame(MsgType::kRedoBatch, 1, payload.data(), payload.size());
  constexpr std::size_t kHeader = sizeof(FrameHeader);
  ASSERT_TRUE(pair.client.send_bytes(frame.data(), kHeader));  // header at once
  std::vector<std::uint8_t> rest(frame.begin() + kHeader, frame.end());
  Trickler trickler(pair.client, std::move(rest), std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  auto msg = pair.server.recv(150);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(pair.server.last_error(), TransportError::kTimeout);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1'000);
}

TEST(Transport, SlowButSteadyPeerStillCompletesWithinDeadline) {
  // The overall deadline must not break a legitimate multi-read receive:
  // a frame delivered in a few chunks well inside the budget goes through.
  LoopbackPair pair;
  std::vector<std::uint8_t> payload(4096, 0x11);
  auto frame = encode_frame(MsgType::kRedoBatch, 1, payload.data(), payload.size());
  std::thread chunked([&] {
    const std::size_t half = frame.size() / 2;
    ASSERT_TRUE(pair.client.send_bytes(frame.data(), half));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(pair.client.send_bytes(frame.data() + half, frame.size() - half));
  });
  auto msg = pair.server.recv(2'000);
  chunked.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload.size(), payload.size());
}

TEST(Transport, CloseWithUnreadInputStillDeliversWhatWasSent) {
  // Regression: frames send() had accepted were lost when input from the
  // peer met the close. Input still unread at close() makes the kernel send
  // RST at once; input arriving after close() — the peer acking an earlier
  // frame — makes it abort the orphaned connection. Either way the kernel
  // drops whatever it has not yet delivered (a torn-frame close lost the
  // batches before it). close_peer() must deliver everything sent before it.
  std::vector<std::uint8_t> payload(64 * 1024, 0x42);
  constexpr int kFrames = 200;
  // The sender holds one unread ack from the start. With `late_ack`, the
  // reader acks again after all but the last 16 frames, while the tail is
  // still queued at the sender, so that ack lands after the close.
  const auto round = [&](bool late_ack) {
    LoopbackPair pair;
    const std::uint64_t acked = 1;
    ASSERT_TRUE(pair.server.send(MsgType::kConsumerAck, 1, &acked, sizeof acked));
    int received = 0;
    std::thread reader([&] {
      while (pair.server.recv(2000)) {
        if (++received == kFrames - 16 && late_ack) {
          pair.server.send(MsgType::kConsumerAck, 1, &acked, sizeof acked);
        }
      }
    });
    // More than the socket buffers hold, so the tail is still queued in the
    // kernel when the sender closes.
    int sent = 0;
    while (sent < kFrames &&
           pair.client.send(MsgType::kRedoBatch, 1, payload.data(), payload.size())) {
      sent++;
    }
    pair.client.close_peer();
    reader.join();
    EXPECT_EQ(sent, kFrames);
    EXPECT_EQ(received, kFrames) << "frames accepted by send() were lost at close";
    EXPECT_EQ(pair.server.last_error(), TransportError::kClosed);
  };
  // Whether a late ack beats the drain is timing: one round without the fix
  // does not always lose frames, eight make the regression fail reliably.
  constexpr int kRounds = 8;
  for (const bool late_ack : {false, true}) {
    SCOPED_TRACE(late_ack ? "ack arrives after the close" : "unread input at close");
    for (int r = 0; r < kRounds && !::testing::Test::HasFailure(); ++r) round(late_ack);
  }
}

TEST(Transport, TimeoutMidFrameResumesOnTheNextRecv) {
  // Regression: a recv whose deadline expired part way through a frame threw
  // away the bytes it had read, so the next recv parsed payload bytes as a
  // header, reported kCorrupt and closed the stream. The frame must resume
  // intact on the next call — split inside the header, at its end, and
  // inside the payload, over both byte-stream transports, after both a poll
  // (recv(0)) and a timed wait.
  std::vector<std::uint8_t> payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);
  const auto frame = encode_frame(MsgType::kRedoBatch, 4, payload.data(), payload.size());
  const auto check = [&](Transport& sender, Transport& receiver) {
    for (const std::size_t split : {std::size_t{10}, sizeof(FrameHeader),
                                    sizeof(FrameHeader) + 100}) {
      SCOPED_TRACE("split at byte " + std::to_string(split));
      ASSERT_TRUE(sender.send_bytes(frame.data(), split));
      for (const int timeout_ms : {0, 50}) {
        EXPECT_FALSE(receiver.recv(timeout_ms).has_value()) << "timeout " << timeout_ms;
        EXPECT_EQ(receiver.last_error(), TransportError::kTimeout) << "timeout " << timeout_ms;
      }
      ASSERT_TRUE(sender.send_bytes(frame.data() + split, frame.size() - split));
      const auto msg = receiver.recv(1000);
      ASSERT_TRUE(msg.has_value()) << "error " << static_cast<int>(receiver.last_error());
      EXPECT_TRUE(receiver.connected());
      EXPECT_EQ(msg->type, MsgType::kRedoBatch);
      EXPECT_EQ(msg->epoch, 4u);
      EXPECT_EQ(msg->payload, payload);
    }
    // The stream is still aligned for the next whole frame.
    const char beat[] = "ok";
    ASSERT_TRUE(sender.send(MsgType::kHeartbeat, 4, beat, sizeof beat));
    const auto next = receiver.recv(1000);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->type, MsgType::kHeartbeat);
  };
  over_both_carriers(check);
}

// ---- accept_peer / connect_to deadline semantics ---------------------------

// A no-op handler installed WITHOUT SA_RESTART, so pthread_kill genuinely
// interrupts blocking syscalls with EINTR instead of restarting them.
void install_interrupting_handler(int signo) {
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(signo, &sa, nullptr), 0);
}

TEST(Transport, SignalInterruptedAcceptStillAcceptsThePeer) {
  // Regression: accept_peer treated poll() < 0 as kTimeout, so an EINTR —
  // a profiler tick, a child reaping, any signal — made the accept "time
  // out" instantly. It must retry against its one absolute deadline and
  // accept the (deliberately late) peer.
  install_interrupting_handler(SIGUSR1);
  TcpTransport server;
  ASSERT_TRUE(server.listen(0));
  const std::uint16_t port = server.bound_port();

  std::atomic<bool> stop{false};
  const pthread_t accepter = pthread_self();
  std::thread pepper([&] {
    // Shower the accepting thread with signals while it sits in poll().
    while (!stop.load()) {
      pthread_kill(accepter, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  TcpTransport client;
  bool client_ok = false;
  std::thread connector([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    client_ok = client.connect_to("127.0.0.1", port);
  });

  const bool accepted = server.accept_peer(5'000);
  stop.store(true);
  pepper.join();
  connector.join();
  EXPECT_TRUE(accepted) << "EINTR misclassified as timeout or failure";
  EXPECT_TRUE(client_ok);
  EXPECT_EQ(server.last_error(), TransportError::kNone);
}

TEST(Transport, SignalInterruptedAcceptStillHonorsItsDeadline) {
  // The EINTR retry must not restart the budget: with nobody connecting and
  // a steady signal stream, accept_peer still returns kTimeout close to its
  // deadline instead of looping forever (or bailing early).
  install_interrupting_handler(SIGUSR1);
  TcpTransport server;
  ASSERT_TRUE(server.listen(0));
  std::atomic<bool> stop{false};
  const pthread_t accepter = pthread_self();
  std::thread pepper([&] {
    while (!stop.load()) {
      pthread_kill(accepter, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  const bool accepted = server.accept_peer(150);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  stop.store(true);
  pepper.join();
  EXPECT_FALSE(accepted);
  EXPECT_EQ(server.last_error(), TransportError::kTimeout);
  EXPECT_GE(elapsed, 140) << "an EINTR must not be reported as a timeout early";
  EXPECT_LT(elapsed, 2'000) << "the retry must not restart the budget";
}

TEST(Transport, ConnectToNeverListeningPeerTimesOutOnSchedule) {
  // Regression: connect_to budgeted by attempt count (timeout_ms / 50 + 1),
  // not wall clock. Against a never-listening port it must give up close to
  // timeout_ms — neither instantly nor after an attempt-count-shaped
  // overshoot — and report kTimeout.
  std::uint16_t dead_port;
  {
    TcpTransport placeholder;  // grab an ephemeral port, then free it
    ASSERT_TRUE(placeholder.listen(0));
    dead_port = placeholder.bound_port();
  }
  TcpTransport client;
  const auto t0 = std::chrono::steady_clock::now();
  const bool connected = client.connect_to("127.0.0.1", dead_port, 300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(connected);
  EXPECT_EQ(client.last_error(), TransportError::kTimeout);
  EXPECT_GE(elapsed, 250) << "gave up before the budget was spent";
  EXPECT_LT(elapsed, 2'000) << "overshot a 300ms budget";
}

TEST(Transport, ConnectToUnresponsivePeerHonorsDeadline) {
  // Regression: connect_to used a blocking ::connect(), so a peer that
  // swallows the SYN (blackholed address, full accept queue) parked the
  // call in the kernel's SYN-retransmit schedule for minutes regardless of
  // timeout_ms. Simulate the blackhole locally: a listener that never calls
  // accept() with its backlog already full drops further SYNs on the floor,
  // leaving the client hanging mid-handshake.
  TcpTransport server;
  ASSERT_TRUE(server.listen(0));  // backlog 1, nobody ever accepts
  std::vector<std::unique_ptr<TcpTransport>> fillers;
  for (int i = 0; i < 4; ++i) {
    auto filler = std::make_unique<TcpTransport>();
    // Ignore the result: the early ones land in the accept queue, the rest
    // are the queue overflowing — both leave it saturated. Keep them alive
    // so their queue slots stay occupied.
    filler->connect_to("127.0.0.1", server.bound_port(), 250);
    fillers.push_back(std::move(filler));
  }
  TcpTransport client;
  const auto t0 = std::chrono::steady_clock::now();
  const bool connected = client.connect_to("127.0.0.1", server.bound_port(), 300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(connected);
  EXPECT_EQ(client.last_error(), TransportError::kTimeout);
  EXPECT_GE(elapsed, 250) << "gave up before the budget was spent";
  EXPECT_LT(elapsed, 5'000) << "a swallowed SYN must not hold connect_to past its budget";
}

TEST(TransportDeathTest, SendRefusesPayloadAboveFrameBound) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The u32 length field used to truncate silently — a >4 GiB payload (or
  // anything above the receive-side 64 MiB cap) would corrupt framing at the
  // receiver. The bound is CHECKed before any socket state, so no peer is
  // needed and the payload pointer is never dereferenced.
  TcpTransport transport;
  EXPECT_DEATH(transport.send(MsgType::kDbChunk, 1, nullptr, kMaxFramePayload + 1),
               "len <= kMaxFramePayload");
}

TEST(TransportDeathTest, EncodeFrameRefusesPayloadAboveFrameBound) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(encode_frame(MsgType::kDbChunk, 1, nullptr, kMaxFramePayload + 1),
               "len <= kMaxFramePayload");
}

TEST(WireRepl, BackupTracksPrimaryOverTcp) {
  LoopbackPair pair;
  core::StoreConfig config;
  config.db_size = 256 * 1024;

  rio::Arena primary_arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary primary(primary_arena, config, &pair.client, /*format=*/true);
  // 2-safe: every commit waits for the backup's ack, so the abrupt close
  // below cannot strand in-flight redo. 1-safe is *documented* to lose
  // trailing transactions on a primary crash — with it this test only passed
  // when the backup outran the primary (it does not under TSan slowdown).
  primary.set_two_safe(true);

  rio::Arena backup_arena = rio::Arena::create(config.db_size);
  WireBackup backup(backup_arena);
  std::thread backup_thread([&] {
    // Serve until the primary closes (test end) or goes silent.
    backup.serve(pair.server, WireBackup::ServeOptions{2000, nullptr});
  });

  ASSERT_TRUE(primary.sync_backup());
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    primary.begin_transaction();
    const std::size_t off = rng.below(config.db_size - 64);
    primary.set_range(primary.db() + off, 32);
    const std::uint64_t v = rng.next_u64();
    primary.bus().write(primary.db() + off, &v, 8, sim::TrafficClass::kModified);
    primary.commit_transaction();
  }
  pair.client.close_peer();  // "primary crashes"
  backup_thread.join();

  EXPECT_EQ(backup.applied_seq(), 200u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);

  // Promote and keep serving.
  sim::MemBus bus;
  rio::Arena new_arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  auto promoted = backup.promote(bus, new_arena, config);
  EXPECT_EQ(std::memcmp(promoted->db(), primary.db(), config.db_size), 0);
  promoted->begin_transaction();
  promoted->set_range(promoted->db(), 8);
  const std::uint64_t v = 42;
  bus.write(promoted->db(), &v, 8, sim::TrafficClass::kModified);
  promoted->commit_transaction();
  EXPECT_TRUE(promoted->validate());
}

TEST(WireRepl, AbortedTransactionsNeverReachTheBackup) {
  LoopbackPair pair;
  core::StoreConfig config;
  config.db_size = 64 * 1024;
  rio::Arena primary_arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary primary(primary_arena, config, &pair.client, true);
  rio::Arena backup_arena = rio::Arena::create(config.db_size);
  WireBackup backup(backup_arena);
  std::thread backup_thread([&] {
    backup.serve(pair.server, WireBackup::ServeOptions{2000, nullptr});
  });

  ASSERT_TRUE(primary.sync_backup());
  primary.begin_transaction();
  primary.set_range(primary.db(), 16);
  const std::uint64_t junk = ~0ull;
  primary.bus().write(primary.db(), &junk, 8, sim::TrafficClass::kModified);
  primary.abort_transaction();

  primary.begin_transaction();
  primary.set_range(primary.db() + 100, 16);
  const std::uint64_t v = 7;
  primary.bus().write(primary.db() + 100, &v, 8, sim::TrafficClass::kModified);
  primary.commit_transaction();

  pair.client.close_peer();
  backup_thread.join();
  EXPECT_EQ(backup.applied_seq(), 1u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);
}

}  // namespace
}  // namespace vrep::net
