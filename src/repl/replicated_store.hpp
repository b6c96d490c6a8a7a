// The active primary (paper Section 6) as one TransactionStore.
//
// The primary runs the best local scheme (Version 3) for its own
// recoverability. Every store the transaction makes into the database is
// captured on the bus and staged as redo; at commit the staged bytes ship
// through the RedoPipeline (repl/pipeline.hpp) — redo data only, no undo
// log, no mirror. Workloads run against this class unchanged.
//
// The carrier is the only thing that differs between deployments, so it is
// the only thing subclasses add: ActivePrimary (repl/active.hpp) hands the
// pipeline simulated Memory Channel rings, net::WirePrimary
// (net/wire_repl.hpp) hands it TCP or in-process transports. Everything
// else — commit modes, checkpoints, fencing, the peer table, stats — is
// reached through pipeline().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/membership.hpp"
#include "core/api.hpp"
#include "core/v3_inline_log.hpp"
#include "repl/link.hpp"
#include "repl/pipeline.hpp"
#include "rio/arena.hpp"
#include "sim/mem_bus.hpp"

namespace vrep::repl {

class ReplicatedStore : public core::TransactionStore,
                        private sim::MemBus::CaptureSink,
                        private RedoPipeline::Source {
 public:
  using Lineage = RedoPipeline::Lineage;

  // The bus and the pipeline hold this object's address.
  ReplicatedStore(const ReplicatedStore&) = delete;
  ReplicatedStore& operator=(const ReplicatedStore&) = delete;

  // Install an existing database image and continue its sequence numbering
  // (promotion of a backup to primary).
  void seed_from(const std::uint8_t* db, std::size_t size, std::uint64_t seq);

  // Protocol engine: commit modes, checkpoints, fencing, peers and stats.
  RedoPipeline& pipeline() { return pipeline_; }
  const RedoPipeline& pipeline() const { return pipeline_; }

  // perfbench/ calls these six on net::WirePrimary; they stay as members.
  bool sync_backup() { return pipeline_.sync_backup(); }
  void set_two_safe(bool enabled) { pipeline_.set_two_safe(enabled); }
  void set_commit_window(unsigned w) { pipeline_.set_commit_window(w); }
  RedoPipeline::CommitOutcome sync() { return pipeline_.sync(); }
  RedoPipeline::CommitOutcome last_commit_outcome() const {
    return pipeline_.last_commit_outcome();
  }
  std::uint64_t peer_acked_seq(std::size_t peer) const { return pipeline_.peer_acked_seq(peer); }

  void begin_transaction() override;
  void set_range(void* base, std::size_t len) override;
  void commit_transaction() override;
  void abort_transaction() override;
  int recover() override;
  bool validate() const override { return local_->validate(); }
  core::VersionKind kind() const override { return core::VersionKind::kV3InlineLog; }
  std::uint8_t* db() override { return local_->db(); }
  const std::uint8_t* db() const override { return local_->db(); }
  std::size_t db_size() const override { return local_->db_size(); }
  std::uint64_t committed_seq() const override { return local_->committed_seq(); }
  std::vector<core::StoreRegion> regions() const override { return local_->regions(); }
  sim::MemBus& bus() override { return *bus_; }

 protected:
  // The local store runs Version 3 on `bus` over the front of `arena`.
  // `format=false` attaches to existing state (e.g. an arena a promoted
  // backup built) — call recover() afterwards. With a `membership`, shipped
  // frames carry its epoch and a takeover elsewhere fences this primary;
  // `lineage` seeds the rejoin delta-vs-full-image rule for a primary
  // promoted from backup. The pipeline starts with an empty peer slot 0
  // that the first add_link() fills.
  ReplicatedStore(sim::MemBus& bus, rio::Arena& arena, const core::StoreConfig& config,
                  bool format, cluster::Membership* membership, Lineage lineage,
                  std::size_t redo_history_bytes);

  // Keep `link` alive and hand it to the pipeline: the first link fills
  // peer slot 0, each later one adds a peer. Returns the peer index.
  std::size_t add_link(std::unique_ptr<ReplicationLink> link);
  ReplicationLink& link(std::size_t peer) { return *links_.at(peer); }
  const ReplicationLink& link(std::size_t peer) const { return *links_.at(peer); }
  std::size_t link_count() const { return links_.size(); }

 private:
  // Local doubling into the volatile staging buffer: the redo bytes only
  // become durable on the carrier at commit.
  void on_captured_store(std::uint64_t off, const void* src, std::size_t len) override;

  sim::MemBus* bus_;
  std::unique_ptr<core::InlineLogStore> local_;
  std::vector<std::unique_ptr<ReplicationLink>> links_;
  RedoPipeline pipeline_;
};

}  // namespace vrep::repl
