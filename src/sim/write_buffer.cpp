#include "sim/write_buffer.hpp"

#include "util/check.hpp"

namespace vrep::sim {

void WriteBufferSet::store(std::uint64_t io_offset, const void* src, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  while (len > 0) {
    const std::size_t in_block = kWriteBufferBytes - (io_offset % kWriteBufferBytes);
    const std::size_t chunk = len < in_block ? len : in_block;
    store_within_block(io_offset, p, chunk);
    io_offset += chunk;
    p += chunk;
    len -= chunk;
  }
}

void WriteBufferSet::store_within_block(std::uint64_t io_offset, const std::uint8_t* src,
                                        std::size_t len) {
  const std::uint64_t block = io_offset / kWriteBufferBytes;
  Buffer* target = nullptr;
  for (auto& b : buffers_) {
    if (b.valid && b.block == block) {
      target = &b;
      break;
    }
  }
  if (target == nullptr) {
    // Need a fresh buffer: take an invalid one, else evict the oldest.
    Buffer* oldest = nullptr;
    for (auto& b : buffers_) {
      if (!b.valid) {
        target = &b;
        break;
      }
      if (oldest == nullptr || b.age < oldest->age) oldest = &b;
    }
    if (target == nullptr) {
      flush(*oldest);
      target = oldest;
    }
    target->valid = true;
    target->block = block;
    target->mask = 0;
    target->age = next_age_++;
  }

  const std::size_t at = io_offset % kWriteBufferBytes;
  std::memcpy(target->data.data() + at, src, len);
  target->mask |= ((len == kWriteBufferBytes ? 0u : (1u << len)) - 1u) << at;
  if (!coalescing_ || target->mask == 0xffffffffu) flush(*target);
}

void WriteBufferSet::flush(Buffer& b) {
  VREP_DCHECK(b.valid && b.mask != 0);
  // Emit one packet per contiguous run of valid bytes.
  std::uint32_t mask = b.mask;
  std::size_t i = 0;
  while (i < kWriteBufferBytes) {
    if ((mask & (1u << i)) == 0) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < kWriteBufferBytes && (mask & (1u << j)) != 0) ++j;
    Packet pkt;
    pkt.io_offset = b.block * kWriteBufferBytes + i;
    pkt.len = static_cast<std::uint32_t>(j - i);
    std::memcpy(pkt.data.data(), b.data.data() + i, j - i);
    sink_(pkt);
    i = j;
  }
  b.valid = false;
  b.mask = 0;
}

void WriteBufferSet::flush_all() {
  // Flush in allocation order to preserve store ordering as seen remotely.
  while (true) {
    Buffer* oldest = nullptr;
    for (auto& b : buffers_) {
      if (b.valid && (oldest == nullptr || b.age < oldest->age)) oldest = &b;
    }
    if (oldest == nullptr) return;
    flush(*oldest);
  }
}

}  // namespace vrep::sim
