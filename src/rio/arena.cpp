#include "rio/arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace vrep::rio {

Arena Arena::create(std::size_t len) {
  // Anonymous pages read as zero and become resident only when first
  // written, so a database region a workload never touches costs no memory.
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  VREP_CHECK(p != MAP_FAILED);
  Arena a;
  a.data_ = static_cast<std::uint8_t*>(p);
  a.size_ = len;
  a.file_backed_ = false;
  return a;
}

Arena Arena::map_file(const std::string& path, std::size_t len) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  VREP_CHECK(fd >= 0);
  VREP_CHECK(::ftruncate(fd, static_cast<off_t>(len)) == 0);
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  VREP_CHECK(p != MAP_FAILED);
  Arena a;
  a.data_ = static_cast<std::uint8_t*>(p);
  a.size_ = len;
  a.file_backed_ = true;
  return a;
}

Arena::Arena(Arena&& o) noexcept : data_(o.data_), size_(o.size_), file_backed_(o.file_backed_) {
  o.data_ = nullptr;
  o.size_ = 0;
}

Arena& Arena::operator=(Arena&& o) noexcept {
  if (this != &o) {
    this->~Arena();
    data_ = std::exchange(o.data_, nullptr);
    size_ = std::exchange(o.size_, 0);
    file_backed_ = o.file_backed_;
  }
  return *this;
}

Arena::~Arena() {
  if (data_ == nullptr) return;
  ::munmap(data_, size_);
  data_ = nullptr;
}

void Arena::sync() {
  if (file_backed_ && data_ != nullptr) ::msync(data_, size_, MS_SYNC);
}

void SnapshotCursor::reset(const std::uint8_t* base, std::size_t len) {
  base_ = base;
  len_ = len;
  off_ = 0;
}

std::size_t SnapshotCursor::step(std::uint8_t* shadow_base, std::size_t max_bytes) {
  if (off_ >= len_) return 0;
  const std::size_t n = std::min(max_bytes, len_ - off_);
  std::memcpy(shadow_base + off_, base_ + off_, n);
  off_ += n;
  return n;
}

std::uint8_t* Layout::carve(std::size_t len, std::size_t align) {
  std::size_t off = (off_ + align - 1) & ~(align - 1);
  VREP_CHECK(off + len <= len_);
  off_ = off + len;
  return base_ + off;
}

}  // namespace vrep::rio
