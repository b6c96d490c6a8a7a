// ReplicationLink backend over the simulated Memory Channel redo ring.
//
// This is the paper's actual carrier (Section 6): a circular buffer in
// write-through SAN memory. send(kRedoBatch) re-packs the engine's batch
// payload into 6-byte ring entries (redo_ring.hpp wire format: headers and
// padding as kMeta, redo data as kModified), charges every byte through the
// instrumented bus, appends the checksummed commit marker, and polls the
// co-simulated backup at the virtual time the traffic lands. Flow control is
// the ring itself: when the producer would overrun the consumer cursor the
// primary CPU blocks ("the primary processor must block", Section 6.1)
// until a newer cursor write-back becomes visible.
//
// recv() synthesizes kConsumerAck frames from the backup's cursor
// write-backs: non-blocking (timeout 0) reports whatever is visible now;
// blocking advances the virtual clock to the next write-back (this is the
// 2-safe commit wait, accounted in repl.link.two_safe_wait_ns).
//
// Epoch fencing is co-simulated at the send boundary: in the real system
// the backup's network interface would reject stale-epoch traffic, but both
// nodes live in one process here, so a send stamped with an older epoch
// than the backup's membership view is routed through the backup's
// RedoApplier over an InlineLink (the applier fences it and its kEpochFence
// reply queues there for recv()) instead of being written to the ring.
#pragma once

#include <cstdint>

#include "repl/inline_link.hpp"
#include "repl/link.hpp"
#include "repl/redo_ring.hpp"
#include "sim/mem_bus.hpp"

namespace vrep::repl {

class ActiveBackup;

class McRingLink final : public ReplicationLink {
 public:
  McRingLink(sim::MemBus& bus, std::uint8_t* ring_data, std::size_t ring_capacity,
             ActiveBackup* backup);

  bool send(FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override;
  std::optional<Frame> recv(int timeout_ms) override;
  LinkError last_error() const override { return error_; }
  bool connected() const override { return true; }
  // Push the trailing partial packet out of the write buffers and let the
  // backup apply; the 2-safe commit wait starts here.
  void flush() override;
  std::optional<std::uint64_t> blocked_wait_ns() const override {
    return static_cast<std::uint64_t>(two_safe_wait_ns_);
  }

  std::uint64_t producer() const { return producer_; }
  // Base of this link's local ring shadow (multi-backup primaries place the
  // next backup's shadow right behind it).
  std::uint8_t* ring_data() const { return ring_data_; }
  sim::SimTime flow_stall_ns() const { return flow_stall_ns_; }
  sim::SimTime two_safe_wait_ns() const { return two_safe_wait_ns_; }

 private:
  void encode_batch(const std::uint8_t* payload, std::size_t len);
  // Group commit: all sub-batches' entries followed by ONE checksummed group
  // marker {first_seq, last_seq, crc} — the backup applies the whole group
  // or nothing (see redo_ring.hpp).
  void encode_group(const std::uint8_t* payload, std::size_t len);
  void encode_chunks(const std::uint8_t* payload, std::size_t len);
  void pre_pad_for_marker(std::uint64_t marker_bytes);
  std::uint32_t seal_crc(std::uint64_t txn_start);
  void finish_unit();
  void emit_entry(const RedoEntryHeader& hdr, const void* payload, std::size_t payload_len);
  void reserve_ring_space(std::uint64_t bytes);
  void ring_write(const void* src, std::size_t len, sim::TrafficClass cls);

  sim::MemBus* bus_;
  std::uint8_t* ring_data_;  // local (shadow) half of the doubled writes
  std::size_t ring_capacity_;
  ActiveBackup* backup_;
  InlineLink stale_;  // stale-epoch sends, fenced inline by the backup
  std::uint64_t producer_ = 0;
  std::uint64_t last_reported_ack_ = 0;
  LinkError error_ = LinkError::kNone;
  sim::SimTime flow_stall_ns_ = 0;
  sim::SimTime two_safe_wait_ns_ = 0;
};

}  // namespace vrep::repl
