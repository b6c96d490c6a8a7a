#include "repl/active.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/v3_inline_log.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace vrep::repl {

using sim::TrafficClass;

ActiveBackupLayout ActiveBackupLayout::make(std::size_t db_size, std::size_t ring_capacity) {
  VREP_CHECK(ring_capacity % 64 == 0);
  ActiveBackupLayout layout;
  layout.ring_offset = 0;
  layout.ring_capacity = ring_capacity;
  layout.db_offset = ring_capacity;
  layout.db_size = db_size;
  return layout;
}

// ---------------------------------------------------------------------------
// ActiveBackup
// ---------------------------------------------------------------------------

ActiveBackup::ActiveBackup(sim::Cpu& cpu, rio::Arena& arena, const ActiveBackupLayout& layout,
                           sim::McFabric& fabric, cluster::Membership* membership,
                           std::uint64_t node_id)
    : cpu_(&cpu), arena_(&arena), layout_(layout), fabric_(&fabric),
      applier_(*this, membership, node_id) {
  VREP_CHECK(arena.size() >= layout.arena_bytes());
  data_ = arena.data() + layout.ring_offset;
  cpu_->bus().register_region(data_, layout.ring_capacity);
  cpu_->bus().register_region(db(), layout.db_size);
  // The replica image is installed out-of-band (the harness formats both
  // arenas identically before enabling replication).
  applier_.adopt_image(layout.db_size, 0, applier_.epoch());
}

void ActiveBackup::write(std::uint64_t off, const void* src, std::size_t len) {
  // The busy-wait parse + apply is the backup CPU's only job (Section 6.1:
  // "it can easily keep up"). Entry-header parse cost, then the copy from
  // the ring replica into the database copy through the cache model.
  sim::MemBus& bus = cpu_->bus();
  bus.charge(bus.cost().access_base_ns * 4);
  bus.copy(db() + off, static_cast<const std::uint8_t*>(src), len, TrafficClass::kModified);
}

std::uint32_t ActiveBackup::ring_crc(std::uint64_t from, std::uint64_t to) const {
  // Checksum the raw ring bytes of [from, to) in cursor space (may wrap).
  Crc32 crc;
  const std::uint64_t cap = layout_.ring_capacity;
  std::uint64_t pos = from;
  while (pos < to) {
    const std::uint64_t phys = pos % cap;
    const std::uint64_t chunk = std::min(to - pos, cap - phys);
    crc.update(data_ + phys, chunk);
    pos += chunk;
  }
  cpu_->bus().charge(static_cast<sim::SimTime>(
      static_cast<double>(to - from) * cpu_->cost().checksum_byte_ns));
  return crc.value();
}

bool ActiveBackup::try_apply_one() {
  sim::MemBus& bus = cpu_->bus();
  const std::uint64_t cap = layout_.ring_capacity;

  // First pass: decode the ring wire format, walking the entry stream up to
  // this transaction's commit marker. Nothing is applied unless the marker
  // has arrived (1-safety: all-or-nothing per transaction). The sequencing
  // rule itself belongs to the applier — the expected-seq check here is the
  // decoder's stale-lap early-out, identical to the rule apply_decoded
  // re-checks.
  std::vector<RedoChunk> chunks;
  std::uint64_t pos = consumer_;
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;
  bool found = false;
  while (pos - consumer_ < cap) {
    const std::uint64_t phys = pos % cap;
    if (cap - phys < sizeof(RedoEntryHeader)) {  // implicit pad sliver
      pos += cap - phys;
      continue;
    }
    RedoEntryHeader hdr;
    bus.read(data_ + phys, sizeof hdr);
    std::memcpy(&hdr, data_ + phys, sizeof hdr);
    if (hdr.db_off == RedoEntryHeader::kPadMarker) {
      pos += cap - phys;
      continue;
    }
    if (hdr.db_off == RedoEntryHeader::kCommitMarker) {
      if (hdr.len != 8 || kCommitMarkerBytes > cap - phys) break;  // torn / stale
      std::uint32_t seq;
      std::memcpy(&seq, data_ + phys + sizeof hdr, 4);
      if (seq != static_cast<std::uint32_t>(applier_.next_expected_seq())) break;  // stale lap
      std::uint32_t crc;
      std::memcpy(&crc, data_ + phys + sizeof hdr + 4, 4);
      if (crc != ring_crc(consumer_, pos)) break;  // torn: bytes still in flight
      pos += kCommitMarkerBytes;
      first_seq = last_seq = applier_.next_expected_seq();
      found = true;
      break;
    }
    if (hdr.db_off == RedoEntryHeader::kGroupMarker) {
      // Group unit {first, last, crc}: apply all of the group's transactions
      // or none of them (the checksum covers every byte back to consumer_).
      if (hdr.len != 12 || kGroupMarkerBytes > cap - phys) break;  // torn / stale
      std::uint32_t first32;
      std::uint32_t last32;
      std::uint32_t crc;
      std::memcpy(&first32, data_ + phys + sizeof hdr, 4);
      std::memcpy(&last32, data_ + phys + sizeof hdr + 4, 4);
      std::memcpy(&crc, data_ + phys + sizeof hdr + 8, 4);
      if (first32 != static_cast<std::uint32_t>(applier_.next_expected_seq())) break;  // stale lap
      if (last32 < first32) break;  // stale garbage
      if (crc != ring_crc(consumer_, pos)) break;  // torn: bytes still in flight
      pos += kGroupMarkerBytes;
      first_seq = applier_.next_expected_seq();
      last_seq = first_seq + (last32 - first32);
      found = true;
      break;
    }
    if (hdr.db_off + std::uint64_t{hdr.len} > layout_.db_size || hdr.len == 0) break;
    if (redo_entry_bytes(hdr.len) > cap - phys) break;  // would straddle: stale bytes
    chunks.push_back(RedoChunk{hdr.db_off, hdr.len, data_ + phys + sizeof hdr});
    pos += redo_entry_bytes(hdr.len);
  }
  if (!found) return false;

  // Second pass: hand the decoded unit (one transaction, or a whole group)
  // to the shared protocol engine, which applies it through our Target
  // (charging the cache model).
  if (!applier_.apply_decoded(first_seq, last_seq, chunks.data(), chunks.size(),
                              applier_.epoch())) {
    return false;
  }
  consumer_ = pos;
  return true;
}

void ActiveBackup::poll(sim::SimTime t) {
  cpu_->clock().advance_to(t);
  fabric_->deliver_until(cpu_->clock().now());
  bool applied = false;
  while (try_apply_one()) applied = true;
  if (applied) {
    // The cursor write-back reaches the primary one propagation delay after
    // the apply finishes.
    visibility_.push_back(Visibility{cpu_->clock().now() + cpu_->cost().link.propagation_ns,
                                     consumer_, applier_.applied_seq()});
  }
}

std::uint64_t ActiveBackup::consumer_visible(sim::SimTime t) const {
  while (!visibility_.empty() && visibility_.front().at <= t) {
    last_visible_ = visibility_.front().cursor;
    last_visible_seq_ = visibility_.front().seq;
    visibility_.pop_front();
  }
  return last_visible_;
}

std::uint64_t ActiveBackup::applied_visible(sim::SimTime t) const {
  consumer_visible(t);
  return last_visible_seq_;
}

sim::SimTime ActiveBackup::next_visibility_after(sim::SimTime t) const {
  for (const auto& v : visibility_) {
    if (v.at > t) return v.at;
  }
  return kNever;
}

std::uint64_t ActiveBackup::takeover(sim::SimTime crash_time) {
  metrics::counter("repl.backup.takeovers").add(1);
  fabric_->crash_at(crash_time);
  cpu_->clock().advance_to(crash_time);
  while (try_apply_one()) {
  }
  return applier_.applied_seq();
}

// ---------------------------------------------------------------------------
// ActivePrimary
// ---------------------------------------------------------------------------

namespace {
std::uint8_t* ring_shadow(rio::Arena& primary_arena, const core::StoreConfig& config) {
  // The local V3 store occupies the front of the primary arena; the shadow
  // copy of the ring (local halves of the doubled writes) sits behind it.
  const std::size_t local_bytes = core::InlineLogStore::arena_bytes(config);
  return primary_arena.data() + ((local_bytes + 63) & ~std::size_t{63});
}
}  // namespace

std::size_t ActivePrimary::primary_arena_bytes(const core::StoreConfig& config,
                                               const ActiveBackupLayout& layout,
                                               std::size_t backups) {
  // One ring shadow per backup, all behind the local store (64-byte aligned).
  return core::InlineLogStore::arena_bytes(config) + backups * layout.ring_capacity + 128;
}

ActivePrimary::ActivePrimary(sim::MemBus& bus, rio::Arena& primary_arena,
                             rio::Arena& backup_arena, const core::StoreConfig& config,
                             const ActiveBackupLayout& layout, ActiveBackup* backup, bool format,
                             cluster::Membership* membership, Lineage lineage)
    : ReplicatedStore(bus, primary_arena, config, format, membership, lineage,
                      RedoPipeline::kDefaultRedoHistoryBytes),
      primary_arena_(&primary_arena), layout_(layout) {
  VREP_CHECK(primary_arena.size() >= primary_arena_bytes(config, layout));
  // Region order sets the cache model's virtual addresses: the ring shadow
  // registers after the local store, which the base constructor registered.
  std::uint8_t* ring_data = ring_shadow(primary_arena, config);
  bus.register_region(ring_data, layout.ring_capacity);
  bus.replicate_region(ring_data, backup_arena.data() + layout.ring_offset);
  add_link(std::make_unique<McRingLink>(bus, ring_data, layout.ring_capacity, backup));
}

std::size_t ActivePrimary::add_backup(rio::Arena& backup_arena, ActiveBackup* backup) {
  // Further backups get their own ring shadow behind the first one; every
  // ring is the same size (shared layout), so the shadows stay 64-aligned.
  std::uint8_t* base = ring(0).ring_data() + link_count() * layout_.ring_capacity;
  VREP_CHECK(base + layout_.ring_capacity <= primary_arena_->data() + primary_arena_->size());
  bus().register_region(base, layout_.ring_capacity);
  bus().replicate_region(base, backup_arena.data() + layout_.ring_offset);
  return add_link(std::make_unique<McRingLink>(bus(), base, layout_.ring_capacity, backup));
}

sim::SimTime ActivePrimary::flow_stall_ns() const {
  sim::SimTime total = 0;
  for (std::size_t i = 0; i < link_count(); ++i) total += ring(i).flow_stall_ns();
  return total;
}

sim::SimTime ActivePrimary::two_safe_wait_ns() const {
  sim::SimTime total = 0;
  for (std::size_t i = 0; i < link_count(); ++i) total += ring(i).two_safe_wait_ns();
  return total;
}

}  // namespace vrep::repl
