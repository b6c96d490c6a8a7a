#include "repl/mc_ring_link.hpp"

#include <algorithm>

#include "repl/active.hpp"
#include "repl/codec.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace vrep::repl {

using sim::TrafficClass;

McRingLink::McRingLink(sim::MemBus& bus, std::uint8_t* ring_data, std::size_t ring_capacity,
                       ActiveBackup* backup)
    : bus_(&bus),
      ring_data_(ring_data),
      ring_capacity_(ring_capacity),
      backup_(backup),
      stale_(backup->applier()) {}

bool McRingLink::send(FrameKind kind, std::uint64_t epoch, const void* payload,
                      std::size_t len) {
  if (backup_->applier().epoch() > epoch) {
    // Stale-epoch traffic after a takeover: the backup's applier fences it
    // (counting repl.backup.stale_fenced) and its kEpochFence reply queues
    // on stale_ for the engine's next drain.
    return stale_.send(kind, epoch, payload, len);
  }
  switch (kind) {
    case FrameKind::kRedoBatch:
      encode_batch(static_cast<const std::uint8_t*>(payload), len);
      return true;
    case FrameKind::kRedoGroup:
      encode_group(static_cast<const std::uint8_t*>(payload), len);
      return true;
    default:
      // Heartbeats are meaningless between co-simulated nodes (the backup is
      // polled synchronously at exact virtual times), and image transfer /
      // rejoin happen out-of-band (the harness seeds replica arenas by
      // direct copy). Accept and drop.
      return true;
  }
}

std::optional<Frame> McRingLink::recv(int timeout_ms) {
  if (std::optional<Frame> fence = stale_.recv(0)) {
    error_ = LinkError::kNone;
    return fence;
  }
  const sim::SimTime now = bus_->clock()->now();
  std::uint64_t visible = backup_->applied_visible(now);
  if (visible <= last_reported_ack_ && timeout_ms != 0) {
    // Block until the backup's next cursor write-back arrives — this is the
    // 2-safe commit's round-trip wait, paid in virtual time.
    const sim::SimTime resume = backup_->next_visibility_after(now);
    VREP_CHECK(resume != ActiveBackup::kNever && "backup never acknowledged");
    static metrics::Counter& wait_ns = metrics::counter("repl.link.two_safe_wait_ns");
    wait_ns.add(static_cast<std::uint64_t>(resume - now));
    two_safe_wait_ns_ += resume - now;
    bus_->clock()->advance_to(resume);
    visible = backup_->applied_visible(resume);
  }
  if (visible > last_reported_ack_) {
    last_reported_ack_ = visible;
    const auto ack = encode(Ack{visible});
    Frame frame{FrameKind::kConsumerAck, backup_->applier().epoch(), {ack.begin(), ack.end()}};
    error_ = LinkError::kNone;
    return frame;
  }
  error_ = LinkError::kTimeout;
  return std::nullopt;
}

void McRingLink::flush() {
  bus_->mc()->flush();
  backup_->poll(bus_->mc()->fabric()->link().free_at +
                bus_->mc()->fabric()->model().propagation_ns);
}

void McRingLink::reserve_ring_space(std::uint64_t bytes) {
  VREP_CHECK(bytes <= ring_capacity_);
  bool flushed = false;
  while (true) {
    const sim::SimTime now = bus_->clock()->now();
    if (producer_ + bytes <= backup_->consumer_visible(now) + ring_capacity_) return;
    // Ring full as far as the primary can see: block ("the primary processor
    // must block", Section 6.1) until a newer cursor write-back arrives.
    const sim::SimTime resume = backup_->next_visibility_after(now);
    if (resume == ActiveBackup::kNever) {
      // Unapplied commits may still sit in the write buffers; push them out
      // and let the backup catch up once.
      VREP_CHECK(!flushed && "redo ring smaller than one transaction");
      flushed = true;
      bus_->mc()->flush();
      backup_->poll(bus_->mc()->fabric()->link().free_at +
                    bus_->mc()->fabric()->model().propagation_ns);
      continue;
    }
    static metrics::Counter& stalls = metrics::counter("repl.link.flow_stalls");
    static metrics::Counter& stall_ns = metrics::counter("repl.link.flow_stall_ns");
    stalls.add(1);
    stall_ns.add(static_cast<std::uint64_t>(resume - now));
    flow_stall_ns_ += resume - now;
    bus_->clock()->advance_to(resume);
  }
}

void McRingLink::ring_write(const void* src, std::size_t len, TrafficClass cls) {
  const std::uint64_t phys = producer_ % ring_capacity_;
  VREP_CHECK(phys + len <= ring_capacity_);
  bus_->write(ring_data_ + phys, src, len, cls);
  producer_ += len;
}

void McRingLink::emit_entry(const RedoEntryHeader& hdr, const void* payload,
                            std::size_t payload_len) {
  const std::uint64_t need = sizeof hdr + ((payload_len + 1u) & ~std::size_t{1});
  const std::uint64_t phys = producer_ % ring_capacity_;
  const std::uint64_t remaining = ring_capacity_ - phys;
  if (remaining < need) {
    reserve_ring_space(remaining + need);
    if (remaining >= sizeof hdr) {
      const RedoEntryHeader pad{RedoEntryHeader::kPadMarker, 0};
      bus_->write(ring_data_ + phys, &pad, sizeof pad, TrafficClass::kMeta);
    }
    producer_ += remaining;  // < 6 bytes: both sides treat it as implicit pad
  } else {
    reserve_ring_space(need);
  }
  ring_write(&hdr, sizeof hdr, TrafficClass::kMeta);
  if (payload_len > 0) {
    const bool is_data = hdr.db_off < RedoEntryHeader::kCommitMarker;
    ring_write(payload, payload_len, is_data ? TrafficClass::kModified : TrafficClass::kMeta);
    const std::uint64_t slack = need - sizeof hdr - payload_len;
    if (slack > 0) {
      static const std::uint8_t kZero[8] = {};
      ring_write(kZero, slack, TrafficClass::kMeta);
    }
  }
}

void McRingLink::encode_chunks(const std::uint8_t* payload, std::size_t len) {
  BatchReader reader(payload, len);
  RedoChunk chunk;
  while (reader.next(&chunk)) {
    std::uint64_t off = chunk.db_off;
    const std::uint8_t* p = chunk.data;
    std::size_t remaining = chunk.len;
    while (remaining > 0) {  // chunks exceeding the u16 length field are split
      const std::size_t piece = remaining < kMaxRedoChunk ? remaining : kMaxRedoChunk;
      emit_entry(
          RedoEntryHeader{static_cast<std::uint32_t>(off), static_cast<std::uint16_t>(piece)},
          p, piece);
      off += piece;
      p += piece;
      remaining -= piece;
    }
  }
}

// Pre-pad if the marker would wrap, so the checksummed range ends exactly
// at the marker header on both sides.
void McRingLink::pre_pad_for_marker(std::uint64_t marker_bytes) {
  const std::uint64_t phys = producer_ % ring_capacity_;
  const std::uint64_t remaining = ring_capacity_ - phys;
  if (remaining < marker_bytes) {
    reserve_ring_space(remaining + marker_bytes);
    if (remaining >= sizeof(RedoEntryHeader)) {
      const RedoEntryHeader pad{RedoEntryHeader::kPadMarker, 0};
      bus_->write(ring_data_ + phys, &pad, sizeof pad, TrafficClass::kMeta);
    }
    producer_ += remaining;
  }
}

// Checksum the unit's ring bytes from txn_start up to the current producer
// cursor (see redo_ring.hpp for why).
std::uint32_t McRingLink::seal_crc(std::uint64_t txn_start) {
  Crc32 crc;
  std::uint64_t pos = txn_start;
  while (pos < producer_) {
    const std::uint64_t phys = pos % ring_capacity_;
    const std::uint64_t chunk_len = std::min(producer_ - pos, ring_capacity_ - phys);
    crc.update(ring_data_ + phys, chunk_len);
    pos += chunk_len;
  }
  bus_->charge(static_cast<sim::SimTime>(
      static_cast<double>(producer_ - txn_start) * bus_->cost().checksum_byte_ns));
  return crc.value();
}

void McRingLink::finish_unit() {
  // No barrier, no pointer write: the sequential stream self-describes, so
  // the write buffers emit full 32-byte packets. Poll the (busy-waiting)
  // backup at the time the traffic generated so far lands.
  backup_->poll(bus_->mc()->fabric()->link().free_at +
                bus_->mc()->fabric()->model().propagation_ns);

  static metrics::Gauge& occupancy = metrics::gauge("repl.link.ring_occupancy_peak");
  occupancy.update_max(static_cast<std::int64_t>(
      producer_ - backup_->consumer_visible(bus_->clock()->now())));
}

void McRingLink::encode_batch(const std::uint8_t* payload, std::size_t len) {
  const std::uint64_t txn_start = producer_;
  encode_chunks(payload, len);
  pre_pad_for_marker(kCommitMarkerBytes);
  struct {
    std::uint32_t seq;
    std::uint32_t crc;
  } marker{static_cast<std::uint32_t>(batch_seq(payload)), 0};
  marker.crc = seal_crc(txn_start);
  emit_entry(RedoEntryHeader{RedoEntryHeader::kCommitMarker, 8}, &marker, 8);
  finish_unit();
}

void McRingLink::encode_group(const std::uint8_t* payload, std::size_t len) {
  const std::uint64_t txn_start = producer_;
  GroupReader reader(payload, len);
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;
  const std::uint8_t* sub = nullptr;
  std::size_t sub_len = 0;
  while (reader.next(&sub, &sub_len)) {
    const std::uint64_t seq = batch_seq(sub);
    if (first_seq == 0) first_seq = seq;
    last_seq = seq;
    encode_chunks(sub, sub_len);
  }
  VREP_CHECK(first_seq != 0 && "empty redo group");
  pre_pad_for_marker(kGroupMarkerBytes);
  struct {
    std::uint32_t first;
    std::uint32_t last;
    std::uint32_t crc;
  } marker{static_cast<std::uint32_t>(first_seq), static_cast<std::uint32_t>(last_seq), 0};
  marker.crc = seal_crc(txn_start);
  emit_entry(RedoEntryHeader{RedoEntryHeader::kGroupMarker, 12}, &marker, 12);
  finish_unit();
}

}  // namespace vrep::repl
