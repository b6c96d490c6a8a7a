// Persistent size-segregated heap, as used by Version 0 (Vista).
//
// Vista allocates every undo log record and every before-image area from a
// heap living in recoverable memory; the allocator's own metadata writes are
// therefore part of the data that a straightforward write-through
// primary-backup configuration ships to the backup — which is exactly why
// the paper's Table 2 shows Version 0 drowning in meta-data traffic.
//
// Design: segregated LIFO free lists over power-of-two size classes, growing
// by bumping a watermark. Freed blocks keep their size-class forever (no
// split/merge), which makes the heap trivially recoverable: after crash
// recovery has released every live object, reset() restores a pristine heap
// in O(1). All intra-heap references are offsets, so the same bytes are
// valid in the backup's replica at a different virtual address.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/mem_bus.hpp"

namespace vrep::rio {

class PersistentHeap {
 public:
  static constexpr std::size_t kNumBins = 16;
  static constexpr std::size_t kMinClassLog2 = 5;  // 32-byte minimum block

  // Attach to (format=false) or initialise (format=true) a heap over
  // [base, base+len). All metadata writes go through `bus` as kMeta traffic.
  PersistentHeap(sim::MemBus* bus, std::uint8_t* base, std::size_t len, bool format);

  // Allocate at least n bytes; returns the payload offset from base, or 0 if
  // the heap is exhausted.
  std::uint64_t alloc(std::size_t n);
  void free(std::uint64_t payload_off);

  void* ptr(std::uint64_t payload_off) { return base_ + payload_off; }
  const void* ptr(std::uint64_t payload_off) const { return base_ + payload_off; }

  // O(1) reset to a pristine heap (every object must already be dead).
  void reset();

  // Scan all block headers for structural consistency.
  bool validate() const;

  std::uint64_t bytes_in_use() const;

 private:
  struct Header {  // persistent, 16 bytes, precedes every payload
    std::uint64_t size;    // block size including header
    std::uint32_t bin;
    std::uint32_t status;  // kUsed / kFree
  };
  struct HeapRoot {  // persistent, at base_
    std::uint64_t magic;
    std::uint64_t watermark;  // offset of first never-allocated byte
    std::uint64_t in_use;
    std::uint64_t bin_head[kNumBins];  // offset of first free block (0 = none)
  };

  static constexpr std::uint64_t kMagic = 0x52696f4865617030ull;  // "RioHeap0"
  static constexpr std::uint32_t kUsed = 0xA110C8EDu;
  static constexpr std::uint32_t kFree = 0xF7EEF7EEu;

  static std::size_t bin_of(std::size_t n);
  Header* header_at(std::uint64_t block_off) {
    return reinterpret_cast<Header*>(base_ + block_off);
  }
  const Header* header_at(std::uint64_t block_off) const {
    return reinterpret_cast<const Header*>(base_ + block_off);
  }

  sim::MemBus* bus_;
  std::uint8_t* base_;
  std::size_t len_;
  HeapRoot* root_;
};

}  // namespace vrep::rio
