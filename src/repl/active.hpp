// Active primary-backup (paper Section 6).
//
// The primary runs the best local scheme (Version 3) for its own
// recoverability, captures the bytes each transaction modifies, and at
// commit ships them — redo data only, no undo log, no mirror — through a
// circular buffer in write-through memory (see redo_ring.hpp for the wire
// format). The backup CPU applies the entries to its own database copy and
// writes its consumer cursor back; the primary blocks only if the ring
// fills.
//
// The primary is a ReplicatedStore (replicated_store.hpp): the local store,
// the write capture and the protocol engine (pipeline.hpp) are the ones the
// TCP and loopback deployments use. This file supplies the simulated Memory
// Channel specifics: ActivePrimary carves one ring shadow per backup and
// ships over a McRingLink (mc_ring_link.hpp), and ActiveBackup decodes the
// ring wire format, charging its own cache model, before handing decoded
// batches to its RedoApplier.
//
// In the simulated environment the backup is co-simulated deterministically:
// after each commit the primary polls the backup with the virtual time at
// which the Memory Channel traffic it just generated lands; the ActiveBackup
// advances its own clock, parses whatever complete transactions have
// physically arrived in its replica, applies them (charging its own cache
// model), and records when its consumer cursor becomes visible to the
// primary for flow control.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>

#include "cluster/membership.hpp"
#include "core/api.hpp"
#include "repl/mc_ring_link.hpp"
#include "repl/pipeline.hpp"
#include "repl/redo_ring.hpp"
#include "repl/replicated_store.hpp"
#include "rio/arena.hpp"
#include "sim/node.hpp"

namespace vrep::repl {

// Layout of the backup arena used by the active scheme.
struct ActiveBackupLayout {
  std::size_t ring_offset = 0;
  std::size_t ring_capacity = 1ull << 20;  // data bytes
  std::size_t db_offset = 0;
  std::size_t db_size = 0;

  static ActiveBackupLayout make(std::size_t db_size, std::size_t ring_capacity = 1ull << 20);
  std::size_t arena_bytes() const { return db_offset + db_size; }
};

class ActiveBackup : private RedoApplier::Target {
 public:
  // `cpu` is the backup's CPU (own clock + cache); `arena` its physical
  // memory holding the ring replica and the database copy. With a
  // `membership`, the applier fences stale-epoch traffic (split-brain
  // defense across takeovers); without one, everything runs in epoch 1.
  ActiveBackup(sim::Cpu& cpu, rio::Arena& arena, const ActiveBackupLayout& layout,
               sim::McFabric& fabric, cluster::Membership* membership = nullptr,
               std::uint64_t node_id = 2);

  // Busy-wait iteration: bring the backup to virtual time `t`, deliver what
  // has physically arrived, and apply every complete transaction found.
  void poll(sim::SimTime t);

  std::uint64_t consumer() const { return consumer_; }

  // Flow control as the *primary* experiences it: after applying a batch the
  // backup writes its cursor through to the primary, which therefore sees
  // the value one propagation delay after the apply finishes.
  static constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();
  std::uint64_t consumer_visible(sim::SimTime t) const;
  // Highest applied sequence whose cursor write-back is visible at `t` (the
  // McRingLink synthesizes kConsumerAck frames from this).
  std::uint64_t applied_visible(sim::SimTime t) const;
  sim::SimTime next_visibility_after(sim::SimTime t) const;

  std::uint8_t* db() { return arena_->data() + layout_.db_offset; }
  const std::uint8_t* db() const { return arena_->data() + layout_.db_offset; }

  // Primary died at virtual time `crash_time`: cut the fabric, then apply
  // every complete transaction the replica received. Returns the committed
  // sequence the backup now serves (trailing in-flight commits are lost —
  // the 1-safe window — but never torn).
  std::uint64_t takeover(sim::SimTime crash_time);

  sim::Cpu& cpu() { return *cpu_; }
  // Protocol state machine (sequencing, fencing, stats) — shared with the
  // TCP/loopback backups.
  RedoApplier& applier() { return applier_; }
  const RedoApplier& applier() const { return applier_; }

 private:
  // RedoApplier::Target: replica bytes land in the database copy through the
  // instrumented bus, charging the backup's own cache model.
  void write(std::uint64_t off, const void* src, std::size_t len) override;
  std::size_t capacity() const override { return layout_.db_size; }
  const std::uint8_t* data() const override { return db(); }

  // Parse one complete transaction starting at consumer_; returns true and
  // applies it if its commit marker (matching seq and checksum) has arrived.
  bool try_apply_one();
  std::uint32_t ring_crc(std::uint64_t from, std::uint64_t to) const;

  sim::Cpu* cpu_;
  rio::Arena* arena_;
  ActiveBackupLayout layout_;
  sim::McFabric* fabric_;
  std::uint8_t* data_;
  RedoApplier applier_;
  std::uint64_t consumer_ = 0;
  struct Visibility {
    sim::SimTime at;
    std::uint64_t cursor;
    std::uint64_t seq;
  };
  // Cursor write-back events, oldest first; pruned as the primary reads.
  mutable std::deque<Visibility> visibility_;
  mutable std::uint64_t last_visible_ = 0;
  mutable std::uint64_t last_visible_seq_ = 0;
};

// The replicated store over co-simulated Memory Channel rings: one ring
// shadow and one McRingLink per backup. Everything else is ReplicatedStore.
class ActivePrimary final : public ReplicatedStore {
 public:
  // `primary_arena` hosts the local V3 store plus the local halves of the
  // doubled ring writes; `backup` owns the replica arena whose ring region
  // is reached through `bus`'s MC interface. With a `membership`, shipped
  // batches carry its epoch and a takeover elsewhere fences this primary;
  // `lineage` seeds the rejoin delta-vs-full-image rule for a primary
  // promoted from backup.
  ActivePrimary(sim::MemBus& bus, rio::Arena& primary_arena, rio::Arena& backup_arena,
                const core::StoreConfig& config, const ActiveBackupLayout& layout,
                ActiveBackup* backup, bool format, cluster::Membership* membership = nullptr,
                Lineage lineage = Lineage{0, 0});

  // Attach another co-simulated backup: a further ring shadow is carved out
  // of the primary arena (size it with the multi-backup
  // primary_arena_bytes overload) and replicated into `backup_arena`'s ring
  // region. Returns the pipeline peer index. All backups share `layout`.
  std::size_t add_backup(rio::Arena& backup_arena, ActiveBackup* backup);

  // Virtual time the CPU spent blocked on a full ring, and in 2-safe waits
  // for a cursor write-back, summed over every backup's ring.
  sim::SimTime flow_stall_ns() const;
  sim::SimTime two_safe_wait_ns() const;

  // Arena size for a primary shipping to `backups` co-simulated backups
  // (one ring shadow each).
  static std::size_t primary_arena_bytes(const core::StoreConfig& config,
                                         const ActiveBackupLayout& layout,
                                         std::size_t backups = 1);

 private:
  const McRingLink& ring(std::size_t peer) const {
    return static_cast<const McRingLink&>(link(peer));
  }

  rio::Arena* primary_arena_;
  ActiveBackupLayout layout_;
};

}  // namespace vrep::repl
