// Online shard rebalancing: migrate the moving record set of a map change
// (split, merge, or any explicit target map) from source to destination
// shards in bounded chunks while every shard keeps committing, then flip
// the live map in one fenced cutover.
//
// Protocol (the cluster header's "Online reconfiguration" note has the
// ownership rule):
//
//   begin(target)   target.version == live.version + 1. Creates any shards
//                   the target names that don't exist yet (they replicate
//                   immediately but receive no routed traffic), computes
//                   the moving set — every record whose owner differs
//                   between the live and target maps — and publishes the
//                   dual-write tracking under every shard latch.
//   step()          one chunk: under the source latch, zero balances are
//                   absorbed for free (nothing to ship) and up to
//                   chunk_records nonzero candidates of one src->dst flow
//                   are collected; those transfer as ONE ordinary
//                   cross-shard 2PC transaction homed on the source
//                   (destination += value, source = 0, decision record on
//                   the source's redo stream — a mid-chunk death resolves
//                   through the existing in-doubt machinery). The
//                   transferred/dirty flags flip inside the home write
//                   generator, under the same continuous latch hold as the
//                   commit, so bookkeeping is atomic with it. Commits that
//                   land on a transferred record afterwards mark it dirty
//                   (ShardedCluster::note_write) and step() re-ships the
//                   residual — the dual-write window.
//   cutover()       take every shard latch (ascending), re-scan: if any
//                   record is untransferred or dirty, back off (keep
//                   stepping); otherwise publish the target map under
//                   map_mu_, retire the migration, and release. Writers are
//                   fenced out for the scan+flip only — the measured
//                   shard.rebalance.cutover_stall_ns.
//
// The transfer rule is move-and-zero over purely additive balances, so the
// final image is independent of how chunks interleave with live commits —
// an oracle may apply the whole moving set at the cutover boundary in one
// shot and still match the cluster CRC byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>

#include "shard/sharded_cluster.hpp"

namespace vrep::shard {

class Rebalancer {
 public:
  struct Config {
    std::size_t chunk_records = 64;  // nonzero balances per migration 2PC txn
  };

  explicit Rebalancer(ShardedCluster& cluster) : cluster_(cluster) {}
  Rebalancer(ShardedCluster& cluster, Config config) : cluster_(cluster), config_(config) {}

  // Stage a migration to `target` (must be exactly one version ahead of the
  // live map). CHECKs that no migration is already active.
  void begin(const ShardMap& target);
  // Convenience ops built on begin(): split `shard`'s first owned range at
  // `at_hash` (0 = its midpoint; returns the resolved hash, which the event
  // log records so an oracle can rebuild the same target map), or drain
  // `victim` by handing its ranges to the neighbors.
  std::uint64_t begin_split(ShardId shard, std::uint64_t at_hash = 0);
  void begin_merge(ShardId victim);

  bool active() const { return cluster_.migration_ != nullptr; }

  // One bounded chunk of transfer work. Returns true while transfer work
  // remains after this chunk; false when the moving set looked drained —
  // try cutover() then (it re-verifies under every latch).
  bool step();
  // Fenced map flip; false (nothing changed) when new dirty work raced in.
  bool cutover();
  // Drive step()/cutover() until the migration is done (bench + tests).
  void run_to_completion();

  // Moving-set size for a prospective map change — what a migration would
  // ship. Pure function of the two maps and the record population; the
  // bench gates on it because it is machine-independent.
  static std::size_t moving_records(const ShardMap& live, const ShardMap& target,
                                    const wl::DebitCredit& workload);

 private:
  ShardedCluster& cluster_;
  Config config_;
};

}  // namespace vrep::shard
