#include "rio/heap.hpp"

#include <bit>

#include "sim/traffic.hpp"
#include "util/check.hpp"

namespace vrep::rio {

using sim::TrafficClass;

PersistentHeap::PersistentHeap(sim::MemBus* bus, std::uint8_t* base, std::size_t len, bool format)
    : bus_(bus), base_(base), len_(len) {
  VREP_CHECK(len > sizeof(HeapRoot) + 64);
  root_ = reinterpret_cast<HeapRoot*>(base_);
  if (format) {
    HeapRoot fresh{};
    fresh.magic = kMagic;
    fresh.watermark = (sizeof(HeapRoot) + 63) & ~std::uint64_t{63};
    bus_->write(root_, &fresh, sizeof fresh, TrafficClass::kMeta);
  } else {
    VREP_CHECK(root_->magic == kMagic);
  }
}

std::size_t PersistentHeap::bin_of(std::size_t n) {
  const std::size_t total = n + sizeof(Header);
  std::size_t log2 = static_cast<std::size_t>(
      std::bit_width(std::max(total, std::size_t{1} << kMinClassLog2) - 1));
  VREP_CHECK(log2 - kMinClassLog2 < kNumBins);
  return log2 - kMinClassLog2;
}

std::uint64_t PersistentHeap::alloc(std::size_t n) {
  bus_->charge(bus_->cost().malloc_ns);
  const std::size_t bin = bin_of(n);
  const std::uint64_t block_size = std::uint64_t{1} << (bin + kMinClassLog2);

  std::uint64_t block;
  bus_->read(&root_->bin_head[bin], 8);
  if (root_->bin_head[bin] != 0) {
    // Pop the LIFO free list: the freed block's first payload word holds the
    // offset of the next free block.
    block = root_->bin_head[bin];
    Header* h = header_at(block);
    VREP_DCHECK(h->status == kFree && h->bin == bin);
    const std::uint64_t next = *reinterpret_cast<std::uint64_t*>(base_ + block + sizeof(Header));
    bus_->read(base_ + block, sizeof(Header) + 8);
    bus_->write_pod(&root_->bin_head[bin], next, TrafficClass::kMeta);
    bus_->write_pod(&h->status, kUsed, TrafficClass::kMeta);
  } else {
    // Grow: carve a fresh block at the watermark.
    block = root_->watermark;
    if (block + block_size > len_) return 0;  // exhausted
    bus_->write_pod(&root_->watermark, block + block_size, TrafficClass::kMeta);
    Header h{block_size, static_cast<std::uint32_t>(bin), kUsed};
    bus_->write(header_at(block), &h, sizeof h, TrafficClass::kMeta);
  }
  bus_->write_pod(&root_->in_use, root_->in_use + block_size, TrafficClass::kMeta);
  return block + sizeof(Header);
}

void PersistentHeap::free(std::uint64_t payload_off) {
  bus_->charge(bus_->cost().free_ns);
  const std::uint64_t block = payload_off - sizeof(Header);
  Header* h = header_at(block);
  VREP_CHECK(h->status == kUsed);
  const std::size_t bin = h->bin;
  bus_->write_pod(&h->status, kFree, TrafficClass::kMeta);
  // Push onto the LIFO free list.
  bus_->write_pod(reinterpret_cast<std::uint64_t*>(base_ + payload_off), root_->bin_head[bin],
                  TrafficClass::kMeta);
  bus_->write_pod(&root_->bin_head[bin], block, TrafficClass::kMeta);
  bus_->write_pod(&root_->in_use, root_->in_use - h->size, TrafficClass::kMeta);
}

void PersistentHeap::reset() {
  HeapRoot fresh{};
  fresh.magic = kMagic;
  fresh.watermark = (sizeof(HeapRoot) + 63) & ~std::uint64_t{63};
  bus_->write(root_, &fresh, sizeof fresh, TrafficClass::kMeta);
}

bool PersistentHeap::validate() const {
  if (root_->magic != kMagic) return false;
  std::uint64_t off = (sizeof(HeapRoot) + 63) & ~std::uint64_t{63};
  std::uint64_t in_use = 0;
  while (off < root_->watermark) {
    const Header* h = header_at(off);
    if (h->status != kUsed && h->status != kFree) return false;
    if (h->bin >= kNumBins) return false;
    if (h->size != std::uint64_t{1} << (h->bin + kMinClassLog2)) return false;
    if (h->status == kUsed) in_use += h->size;
    off += h->size;
  }
  return off == root_->watermark && in_use == root_->in_use;
}

std::uint64_t PersistentHeap::bytes_in_use() const { return root_->in_use; }

}  // namespace vrep::rio
