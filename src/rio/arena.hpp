// Rio-style recoverable memory arenas.
//
// Rio (Chen et al., ASPLOS'96) makes ordinary main memory survive operating
// system crashes and power failures; Vista builds transactions directly on
// top of it, with no disk I/O on the critical path. We reproduce the
// *guarantee* rather than the kernel mechanism: an Arena is a contiguous
// region whose contents survive a simulated crash.
//
//  * In-memory arenas are used by tests and benchmarks. A "crash" is
//    simulated by abandoning all volatile execution state (the engine object)
//    while the arena bytes remain, then running recovery against them —
//    exactly the state a Rio machine reboots with.
//  * File-backed arenas (mmap, MAP_SHARED) are used by the two-process
//    failover example: the contents survive a real process kill.
//
// Layout within an arena is computed deterministically by the engine from
// its configuration, so recovery code finds every structure again without
// any volatile state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace vrep::rio {

class Arena {
 public:
  // Anonymous arena (zero-initialised).
  static Arena create(std::size_t len);
  // File-backed arena; creates or opens `path` and maps it shared. Existing
  // contents are preserved (that is the point).
  static Arena map_file(const std::string& path, std::size_t len);

  Arena() = default;
  Arena(Arena&&) noexcept;
  Arena& operator=(Arena&&) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena();

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

  // Flush a file-backed arena to stable storage (no-op for anonymous).
  void sync();

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool file_backed_ = false;  // map_file(): sync() flushes it
};

// Incremental chunked iteration over a memory region — the building block
// for fuzzy (write-while-serving) snapshots of an arena: each step() copies
// one bounded chunk into the same offset of a shadow region, so a caller can
// spread a full-image copy across many short slices of work (e.g. one per
// commit) while the source keeps being written. Writes that land *behind*
// the cursor are the caller's to patch (see RedoPipeline::step_checkpoint);
// writes ahead of it are picked up when the cursor passes them.
class SnapshotCursor {
 public:
  SnapshotCursor() = default;
  SnapshotCursor(const std::uint8_t* base, std::size_t len) : base_(base), len_(len) {}

  // Restart the iteration over a (possibly different) source region.
  void reset(const std::uint8_t* base, std::size_t len);

  // Copy up to `max_bytes` from the source at the cursor into the same
  // offset of `shadow_base` (a region of at least the source's length) and
  // advance. Returns the bytes copied (0 when done).
  std::size_t step(std::uint8_t* shadow_base, std::size_t max_bytes);

  bool done() const { return off_ >= len_; }
  std::size_t offset() const { return off_; }
  std::size_t length() const { return len_; }

 private:
  const std::uint8_t* base_ = nullptr;
  std::size_t len_ = 0;
  std::size_t off_ = 0;
};

// Deterministic sequential carving of an arena into sub-regions.
class Layout {
 public:
  explicit Layout(Arena& arena) : base_(arena.data()), len_(arena.size()) {}
  Layout(std::uint8_t* base, std::size_t len) : base_(base), len_(len) {}

  // Carve `len` bytes aligned to `align` (power of two).
  std::uint8_t* carve(std::size_t len, std::size_t align = 64);

  template <typename T>
  T* carve_as(std::size_t count = 1) {
    return reinterpret_cast<T*>(carve(sizeof(T) * count, alignof(T) < 8 ? 8 : alignof(T)));
  }

  std::size_t used() const { return off_; }
  std::size_t remaining() const { return len_ - off_; }

 private:
  std::uint8_t* base_;
  std::size_t len_;
  std::size_t off_ = 0;
};

}  // namespace vrep::rio
