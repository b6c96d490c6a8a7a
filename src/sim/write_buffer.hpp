// Model of the Alpha 21164A's six 32-byte write buffers.
//
// Section 2.3 of the paper: "The Alpha chip has 6 32-byte write buffers.
// Contiguous stores share a write buffer and are flushed to the system bus
// together. The Memory Channel interface simply converts the PCI write to a
// similar-size Memory Channel packet ... so the maximum packet size supported
// by the system as a whole is 32 bytes."
//
// This is the mechanism behind the paper's central result: versions whose
// I/O-space writes are contiguous coalesce into 32-byte packets and enjoy the
// full 80 MB/s, while scattered 4-byte writes pay the per-packet overhead on
// every word and see ~14 MB/s.
//
// We model: stores to I/O space land in the buffer covering their 32-byte
// aligned block (merging with previous stores); a buffer is flushed as one or
// more packets (one per contiguous run of valid bytes) when (a) it becomes
// completely full, (b) all six buffers are busy and a new block needs one
// (oldest is evicted), or (c) an explicit flush/barrier is executed (commit).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>

#include "sim/clock.hpp"

namespace vrep::sim {

constexpr std::size_t kWriteBufferBytes = 32;
constexpr std::size_t kNumWriteBuffers = 6;

// One Memory Channel packet: up to 32 contiguous bytes at an I/O-space offset.
struct Packet {
  std::uint64_t io_offset = 0;
  std::uint32_t len = 0;
  std::array<std::uint8_t, kWriteBufferBytes> data{};
};

class WriteBufferSet {
 public:
  using PacketSink = std::function<void(const Packet&)>;

  // `coalescing` false models hardware without merging write buffers: every
  // store drains immediately as its own packet (the ablation in
  // bench/ablation_coalescing.cpp).
  explicit WriteBufferSet(PacketSink sink, bool coalescing = true)
      : coalescing_(coalescing), sink_(std::move(sink)) {}

  // Store `len` bytes at I/O-space offset `io_offset`. May emit packets via
  // the sink (evictions / full buffers).
  void store(std::uint64_t io_offset, const void* src, std::size_t len);

  // Drain every buffer (memory barrier before advancing a commit flag).
  void flush_all();

 private:
  struct Buffer {
    bool valid = false;
    std::uint64_t block = 0;  // io_offset / 32
    std::uint32_t mask = 0;   // bit i set => byte i valid
    std::uint64_t age = 0;    // allocation order, for oldest-first eviction
    std::array<std::uint8_t, kWriteBufferBytes> data{};
  };

  void store_within_block(std::uint64_t io_offset, const std::uint8_t* src, std::size_t len);
  void flush(Buffer& b);

  bool coalescing_ = true;
  std::array<Buffer, kNumWriteBuffers> buffers_{};
  std::uint64_t next_age_ = 0;
  PacketSink sink_;
};

}  // namespace vrep::sim
