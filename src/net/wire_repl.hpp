// Active replication over the TCP transport: the same redo-shipping design
// as repl/active.hpp, but between two real processes on wall-clock time.
// Used by the bank_failover example, the chaos soak and the integration
// tests.
//
// All protocol logic — sequencing, batching, the bounded redo history,
// rejoin/delta-vs-full-image decisions, epoch fencing, 1-safe/2-safe commit
// modes — lives in repl::RedoPipeline / repl::RedoApplier (repl/pipeline.hpp),
// and the primary's store, capture and commit path in repl::ReplicatedStore
// (repl/replicated_store.hpp). This file is pure composition: it binds the
// primary to net::Transport carriers via net::TransportLink, and the backup's
// applier to a replica arena and a receive loop.
//
// Frame payloads (all frames CRC-protected and epoch-stamped by the
// transport; kinds in repl/link.hpp):
//   kHello         u64 db_size | u64 committed_seq     (primary -> backup)
//   kDbChunk       u64 offset  | bytes                 full image transfer
//   kRedoBatch     u64 seq | { u32 db_off, u32 len, bytes }*  one transaction
//   kRedoGroup     u32 count | { u32 len, kRedoBatch payload }*  group commit
//   kHeartbeat     u64 committed_seq
//   kConsumerAck   u64 applied_seq                     (backup -> primary)
//   kRejoinRequest u64 last_applied_seq | u64 node_id | u64 state_epoch
//                                                      (backup -> primary)
//   kRejoinDelta   u64 from_seq | u64 batch_count      (primary -> backup)
//   kEpochFence    u64 current_epoch                   (either -> stale peer)
//   kCkptBegin     u64 watermark_seq | u64 db_size | u32 image_crc | u32 chunks
//                                                      (primary -> backup)
//   kCkptChunk     u64 offset | bytes                  checkpoint page run
//   kCkptEnd       u64 watermark_seq | u32 image_crc   install commit point
//
// 1-safety: commit returns after the local commit; the batch send is not
// awaited. A primary crash can lose the trailing transactions, but a batch
// frame is applied atomically (framing + CRC), so the backup never holds a
// torn transaction. set_two_safe(true) upgrades commits to wait for the
// backup's covering acknowledgment.
//
// Fault tolerance on top of the 1-safe stream: epoch fencing (split-brain
// defense), in-band resync of dropped/corrupt batches from the redo
// history, and reconnect + rejoin (delta or full image) — see
// repl/pipeline.hpp for the rules, README "Failover, fencing, and chaos
// testing" for the story.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "cluster/failure_detector.hpp"
#include "cluster/membership.hpp"
#include "core/api.hpp"
#include "net/transport.hpp"
#include "net/transport_link.hpp"
#include "repl/pipeline.hpp"
#include "repl/replicated_store.hpp"
#include "rio/arena.hpp"
#include "sim/mem_bus.hpp"

namespace vrep::net {

namespace detail {
// Base-from-member: the pass-through bus must exist before the
// ReplicatedStore base that builds the local store on it.
struct PassThroughBus {
  sim::MemBus pass_through_bus;  // wall-clock deployment: no costs
};
}  // namespace detail

// The replicated store over net::Transport carriers: one TransportLink per
// backup. Everything else is repl::ReplicatedStore — reach the engine
// through pipeline().
class WirePrimary final : private detail::PassThroughBus, public repl::ReplicatedStore {
 public:
  // The local store runs Version 3 on a pass-through bus over `arena`.
  // `format=false` attaches to existing state (e.g. an arena a promoted
  // backup built via WireBackup::promote) — call recover() afterwards.
  // With a `membership`, outgoing frames carry its epoch and stale inbound
  // traffic is fenced; without one, everything runs in a fixed epoch 1.
  WirePrimary(rio::Arena& arena, const core::StoreConfig& config, Transport* transport,
              bool format, cluster::Membership* membership = nullptr,
              Lineage lineage = Lineage{0, 0},
              std::size_t redo_history_bytes = repl::RedoPipeline::kDefaultRedoHistoryBytes);

  // Attach another backup over its own transport; returns the pipeline peer
  // index (the constructor's transport is peer 0).
  std::size_t add_backup(Transport* transport);

  // Point a peer at a new transport after a reconnect (same or different
  // object).
  void attach_transport(Transport* transport) { attach_transport(0, transport); }
  void attach_transport(std::size_t peer, Transport* transport);
};

// Backup-side replica state: a database image plus the applied sequence.
// The protocol state machine is repl::RedoApplier; this class supplies the
// arena as the apply target and runs the receive loop.
class WireBackup : private repl::RedoApplier::Target {
 public:
  // `arena` must hold at least the hello'd db_size bytes (file-backed in the
  // failover example so the image survives the process). With a
  // `membership`, stale-epoch frames are fenced and the epoch follows the
  // primary's hello/delta frames; `node_id` identifies this node in rejoin
  // requests so the primary can adopt it into the view.
  explicit WireBackup(rio::Arena& arena, cluster::Membership* membership = nullptr,
                      std::uint64_t node_id = 1)
      : arena_(&arena), applier_(*this, membership, node_id) {}

  enum class ServeResult {
    kPrimaryFailed,   // sustained silence: declare the primary dead, take over
    kConnectionLost,  // socket closed or framing lost: reconnect + rejoin
    kCorrupt,         // unrecoverable protocol violation (should not happen)
  };

  struct ServeOptions {
    // recv granularity; without a detector, also the silence budget after
    // which the primary is declared failed.
    int idle_timeout_ms = 500;
    // Optional debounce: silence only fails the primary once the detector's
    // missed-interval threshold trips (fed from every received frame).
    cluster::HeartbeatDetector* detector = nullptr;
  };

  // Receive and apply until the primary fails, the connection drops, or the
  // stream is irrecoverably violated.
  ServeResult serve(Transport& transport, const ServeOptions& options);
  // Legacy spelling: idle timeout only, no detector.
  ServeResult serve(Transport& transport, int timeout_ms) {
    ServeOptions options;
    options.idle_timeout_ms = timeout_ms;
    return serve(transport, options);
  }

  // Announce our applied sequence after a (re)connect; the primary answers
  // with a delta replay or a full image sync. A fresh backup (nothing
  // applied, no image) asks from sequence 0, which always yields the image.
  bool request_rejoin(Transport& transport) {
    TransportLink link(&transport);
    return applier_.request_rejoin(link);
  }

  // Protocol engine (shared with the simulated backend): seeding from a
  // demoted primary's image, stats, state epoch and in-doubt resolution at
  // takeover. Its unlocked reads are quiesced-only (serve() stopped or same
  // thread).
  repl::RedoApplier& applier() { return applier_; }
  const repl::RedoApplier& applier() const { return applier_; }

  // ---- thread-safe snapshot reads ----------------------------------------
  // serve() applies each frame under the same lock these take, so a read
  // observes whole batches only: a prefix-consistent snapshot at the
  // returned at_seq (see RedoApplier::read_at_watermark for the
  // read-your-writes min_seq contract). The unlocked accessors below remain
  // quiesced-only (serve() stopped or same thread).
  repl::RedoApplier::ReadResult read(std::uint64_t off, std::uint32_t len,
                                     std::uint64_t min_seq, std::uint8_t* out) const {
    std::lock_guard<std::mutex> lock(apply_mu_);
    return applier_.read_at_watermark(off, len, min_seq, out);
  }
  // The applied watermark as the reading side sees it (lock-synchronised
  // with serve()'s applies).
  std::uint64_t watermark() const {
    std::lock_guard<std::mutex> lock(apply_mu_);
    return applier_.applied_seq();
  }

  // perfbench/ calls this one on WireBackup; it stays as a member.
  std::uint64_t applied_seq() const { return applier_.applied_seq(); }
  const std::uint8_t* db() const { return arena_->data(); }

  // Promote to a standalone primary: build a fresh Version 3 store in
  // `new_arena` seeded with the replica's database image. The store
  // continues the primary's sequence numbering (so a later rejoin of the
  // old primary can be served incrementally).
  std::unique_ptr<core::TransactionStore> promote(sim::MemBus& bus, rio::Arena& new_arena,
                                                  const core::StoreConfig& config);

 private:
  // RedoApplier::Target: replica bytes land straight in the arena.
  void write(std::uint64_t off, const void* src, std::size_t len) override;
  std::size_t capacity() const override { return arena_->size(); }
  const std::uint8_t* data() const override { return arena_->data(); }

  rio::Arena* arena_;
  repl::RedoApplier applier_;
  // Serializes serve()'s per-frame applies against read()/watermark().
  mutable std::mutex apply_mu_;
};

}  // namespace vrep::net
