// The wire frame of every framed byte stream (TCP, the in-process loopback,
// the fault injector that perturbs encoded frames, and the AsyncServer
// client protocol), and the one place a frame is built or checked.
//
// Frame format (24-byte header, then payload), little-endian:
//   [u64 epoch | u32 payload_len | u32 payload_crc | u32 header_crc |
//    u8 type | u8 pad[3]] payload
//
// Every frame carries the sender's membership epoch so the protocol layer
// can fence stale-epoch traffic (split-brain defense; see
// cluster/membership.hpp). Two CRC32Cs split corruption into a fatal and a
// recoverable class, and every receiver applies the same two rules:
//   * close: header_ok() fails (header_crc, over epoch, payload_len and
//     type, does not match, or the length exceeds kMaxFramePayload). The
//     length cannot be trusted, so framing is lost for good and the stream
//     closes. A transport reports TransportError::kCorrupt and disconnects;
//     recovery is a reconnect and a rejoin.
//   * skip: payload_ok() fails. The frame was read in full, so the stream
//     stays aligned; the receiver drops the frame and resynchronises in
//     band. A transport reports kCorrupt and stays connected.
// The CRCs also make a torn frame (a killed sender) detectable, as the
// simulated ring's checksummed commit markers are.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "net/transport.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace vrep::net {

// Largest payload a frame carries. The send side CHECKs it before framing,
// so the u32 length field never silently truncates a larger payload, and
// header_ok() rejects any header claiming more.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

struct FrameHeader {
  std::uint64_t epoch;
  std::uint32_t len;
  std::uint32_t payload_crc;
  std::uint32_t header_crc;  // over epoch, len, type
  std::uint8_t type;
  std::uint8_t pad[3];
};
static_assert(sizeof(FrameHeader) == 24);

inline std::uint32_t frame_header_crc(const FrameHeader& hdr) {
  Crc32 c;
  c.update(&hdr.epoch, sizeof hdr.epoch);
  c.update(&hdr.len, sizeof hdr.len);
  c.update(&hdr.type, sizeof hdr.type);
  return c.value();
}

// The header that precedes `len` bytes at `payload` on the wire.
inline FrameHeader frame_header(MsgType type, std::uint64_t epoch, const void* payload,
                                std::size_t len) {
  VREP_CHECK(len <= kMaxFramePayload);
  FrameHeader hdr{};
  hdr.epoch = epoch;
  hdr.len = static_cast<std::uint32_t>(len);
  hdr.type = static_cast<std::uint8_t>(type);
  hdr.payload_crc = Crc32::of(payload, len);
  hdr.header_crc = frame_header_crc(hdr);
  return hdr;
}

// The close rule: false means framing is lost and the stream must close.
inline bool header_ok(const FrameHeader& hdr) {
  return frame_header_crc(hdr) == hdr.header_crc && hdr.len <= kMaxFramePayload;
}

// The skip rule, over the hdr.len payload bytes that followed `hdr`.
inline bool payload_ok(const FrameHeader& hdr, const void* payload) {
  return Crc32::of(payload, hdr.len) == hdr.payload_crc;
}

// One whole frame, exactly as a transport's send() puts it on the wire.
inline std::vector<std::uint8_t> encode_frame(MsgType type, std::uint64_t epoch,
                                              const void* payload, std::size_t len) {
  const FrameHeader hdr = frame_header(type, epoch, payload, len);
  std::vector<std::uint8_t> frame(sizeof hdr + len);
  std::memcpy(frame.data(), &hdr, sizeof hdr);
  if (len > 0) std::memcpy(frame.data() + sizeof hdr, payload, len);
  return frame;
}

// The two byte-stream transports' side of the rules, and the net.transport.*
// frame counters they share (defined in transport.cpp).
void count_frame_sent(std::size_t frame_bytes);
// A header failed header_ok(): counts it and reports kCorrupt. The caller
// closes the stream.
std::nullopt_t corrupt_header(TransportError& error);
// A whole frame arrived: skips it with kCorrupt if payload_ok() fails,
// otherwise counts and delivers it.
std::optional<Message> deliver_frame(const FrameHeader& hdr, std::vector<std::uint8_t> payload,
                                     TransportError& error);

}  // namespace vrep::net
