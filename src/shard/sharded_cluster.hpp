// A partitioned multi-primary cluster: N shards, each owning a slice of the
// hash space (shard/shard_map.hpp), its own database region, its own
// repl::RedoPipeline with a private backup set, and its own
// cluster::Membership epoch — a takeover on one shard fences nothing on
// another. Cross-shard Debit-Credit transactions (the remote-branch mix)
// commit through a presumed-abort 2PC over the per-shard pipelines
// (commit_cross below has the protocol).
//
// Replication runs over repl::InlineLink (repl/inline_link.hpp), the
// deterministic inline carrier: send() hands the frame straight to the
// backup's RedoApplier and queues the applier's responses for the
// pipeline's next recv(). Everything — prepares, decides, acks, rejoins,
// takeovers — is therefore synchronous and reproducible from the seed,
// which is what lets the conformance tests compare surviving replica CRCs
// against an independently-replayed oracle.
//
// Per-shard database layout:
//
//   [ Debit-Credit records + audit ring  |  decision ring (16 B slots) ]
//    `workload_bytes()` bytes               64 slots * 16 bytes
//
// The decision ring belongs to the HOME shard of a cross-shard transaction
// and is written as part of the home commit, so the decision replicates
// exactly like any other byte (shard/decision_log.hpp has the resolution
// rule).
//
// Chaos: kill_primary() drops a shard's primary mid-load; promote() elects
// backup 0, resolves every buffered in-doubt transaction against the home
// shards' decision records, re-fences the epoch, and re-adopts the
// surviving backups through the ordinary rejoin protocol. The other shards
// never stop committing.
//
// Online reconfiguration (shard/rebalancer.hpp drives it):
//   * Range migration. A staged target map deems record (kind, i) owned by
//     shard_of(hash_key(record_key(kind, i))); every record whose owner
//     changes between the live and staged maps is in the MOVING SET. The
//     rebalancer streams those balances source -> destination in bounded
//     chunks, each chunk one ordinary cross-shard 2PC transaction homed on
//     the source (add to destination, zero at source), while both shards
//     keep committing. Commits that land on an already-transferred record
//     mark it dirty (note_write) — the dual-write window — and the residual
//     is re-transferred until a fenced cutover finds nothing dirty under
//     every latch and publishes the target map.
//   * Planned primary handoff. handoff_primary() quiesces a shard (drain
//     every peer to the full shipped watermark, zero in-doubt), promotes
//     backup 0 with the epoch bump, and demotes the old primary to a
//     seeded backup that rejoins by empty delta — no txn resolves through
//     the takeover path and no full image is shipped.
//   * Reconfigurable 2PC. Every planned decision is stamped with the map
//     version it routed under; execute() re-routes a stale-stamped decision
//     against the live map before latching (abort-and-retry against the new
//     layout), so a migration can never dual-apply a prepare on both the
//     source and the destination.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/latch.hpp"
#include "shard/decision_log.hpp"
#include "shard/shard_map.hpp"
#include "util/rng.hpp"
#include "workload/debit_credit.hpp"

namespace vrep::shard {

class Rebalancer;

struct ShardedConfig {
  unsigned shards = 3;
  unsigned backups_per_shard = 1;
  bool two_safe = true;
};

// One transaction's routing decision + randomized picks. `plan` indexes are
// shard-local: the account lives on `remote` when `cross`, everything else
// on `home`. `key` is the routed client key and `map_version` the map it
// routed under, so a reconfiguration can detect (and re-route) a decision
// planned against a superseded layout.
struct TxnDecision {
  bool cross = false;
  ShardId home = 0;
  ShardId remote = 0;  // valid when cross
  std::uint64_t key = 0;
  std::uint64_t map_version = 0;
  wl::DebitCredit::TxnPlan plan{};
};

// Draw one transaction: route a random key to its home shard, apply the
// remote-branch mix, then draw the workload plan. Deterministic in the Rng,
// and shared by the cluster's driver and the test oracle so both see the
// same history.
TxnDecision plan_txn(const Router& router, const wl::DebitCredit& workload,
                     unsigned num_shards, Rng& rng, double remote_fraction);

// Deterministic chaos: kill one shard's primary mid-load.
struct ChaosSchedule {
  // 0 = no kill. Otherwise the kill fires at the first eligible transaction
  // index >= this (1-based): any transaction for kBetweenTxns, the first
  // cross-shard one for the 2PC points.
  std::uint64_t kill_after_txn = 0;
  enum class Point : std::uint8_t { kBetweenTxns, kAfterPrepare, kAfterHomeCommit };
  Point point = Point::kBetweenTxns;
  enum class Target : std::uint8_t { kFixedShard, kHomeShard, kRemoteShard };
  Target target = Target::kFixedShard;
  ShardId shard = 0;  // kFixedShard's victim
};

// One scripted reconfiguration op, fired just before the 1-based
// transaction index `at_txn` (ops that come due while a migration is still
// active are deferred until after its cutover; the event log records when
// they actually fired).
struct RebalanceOp {
  enum class Kind : std::uint8_t { kSplit, kMerge, kHandoff, kAddBackup };
  Kind kind = Kind::kSplit;
  std::uint64_t at_txn = 0;
  // kSplit: the shard whose range is split; kMerge: the drained victim;
  // kHandoff / kAddBackup: the target shard.
  ShardId shard = 0;
  std::uint64_t at_hash = 0;  // kSplit point (0 = midpoint of its first range)
};

struct RebalanceScript {
  std::vector<RebalanceOp> ops;
  std::size_t chunk_records = 64;  // records per migration chunk (2PC txn)
  unsigned steps_per_txn = 1;      // migration chunks attempted per txn
};

// What actually happened and when, so an oracle can replay the exact
// reconfiguration history: kBegin carries the op with its resolved split
// hash, kCutover marks the map-version flip.
struct RebalanceEvent {
  enum class Kind : std::uint8_t { kBegin, kCutover, kHandoff, kAddBackup };
  Kind kind = Kind::kBegin;
  std::uint64_t at_txn = 0;  // fired before this txn (txns+1 = after the run)
  RebalanceOp op{};          // originating op (resolved); kCutover: its begin op
  std::uint64_t map_version = 0;  // live map version after the event
  unsigned num_shards = 0;        // cluster size after the event
};

class ShardedCluster {
 public:
  explicit ShardedCluster(const ShardedConfig& config);
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  struct TxnOutcome {
    bool cross = false;
    bool committed = false;
    ShardId home = 0;
    ShardId remote = 0;
    std::uint64_t home_seq = 0;
  };
  struct RunResult {
    std::uint64_t committed = 0;
    std::uint64_t cross_committed = 0;
    std::uint64_t chaos_aborted = 0;  // cross txns aborted by the kill
    std::uint64_t takeovers = 0;
    std::vector<TxnOutcome> trace;  // one entry per transaction, in order
    std::vector<RebalanceEvent> events;  // reconfigurations, in firing order
  };

  // Deterministic single-threaded load: `txns` transactions drawn from
  // `seed`, a `remote_fraction` of them cross-shard, with an optional
  // primary kill and an optional reconfiguration script threaded through
  // the stream (any migration still active after the last txn is run to
  // completion; its events log at txns+1). The trace + events let an oracle
  // replay the exact history.
  RunResult run(std::uint64_t seed, std::uint64_t txns, double remote_fraction,
                const ChaosSchedule& chaos = ChaosSchedule{},
                const RebalanceScript& script = RebalanceScript{});

  // Thread-safe execution of one planned transaction (the concurrency
  // hammer): the touched shards are latched in id order. A decision stamped
  // with a superseded map_version is first re-routed against the live map —
  // the plan aborts against the old layout and retries against the new one
  // in one step (counted in rebalance.retried_2pc when the home moved).
  // Returns committed.
  bool execute(const TxnDecision& decision);

  // ---- geometry -----------------------------------------------------------
  // Reads the published shard count (grows at migration begin; safe to call
  // concurrently with add_shard).
  unsigned num_shards() const { return live_shards_.load(std::memory_order_acquire); }
  const ShardMap& map() const { return map_; }
  const wl::DebitCredit& workload() const { return workload_; }
  // Bytes below the decision ring (the oracle-comparable region).
  std::size_t workload_bytes() const { return workload_bytes_; }

  // The key under which record (kind, i) is deemed owned by a shard:
  // kind 0 = account, 1 = teller, 2 = branch. Shared verbatim with the
  // test oracle so both sides compute identical moving sets.
  static std::uint64_t record_key(unsigned kind, std::uint64_t index) {
    return (static_cast<std::uint64_t>(kind + 1) << 40) ^ index;
  }

  // ---- inspection (quiesced) ---------------------------------------------
  const std::uint8_t* primary_db(ShardId id) const;
  std::uint64_t shard_committed(ShardId id) const;
  std::uint64_t shard_epoch(ShardId id) const;
  std::size_t backup_count(ShardId id) const;
  std::uint64_t backup_applied(ShardId id, std::size_t backup) const;
  // Prepared-but-undecided transactions still buffered anywhere on a shard
  // (primary pipeline + every backup applier). 0 after a completed run.
  std::size_t in_doubt(ShardId id) const;
  // Full-sync rejoins this shard's pipeline has ever served (a planned
  // handoff must stay at 0: the demoted primary rejoins by empty delta).
  std::uint64_t full_syncs_served(ShardId id) const;

  // Workload-region CRC of the shard's primary image.
  std::uint32_t shard_crc(ShardId id) const;
  // Every replica of `id` caught up and byte-identical to the primary over
  // the full region (empty string = converged).
  std::string check_replicas(ShardId id) const;
  // The global invariant: account/teller/branch balance sums, each totalled
  // across all shards, are equal (empty string = consistent).
  std::string check_global_consistency() const;

  // ---- planned reconfiguration (no kill anywhere) -------------------------
  // Grow the cluster by one shard (fresh db + backups_per_shard backups,
  // seeded and replicating) without touching the live map — traffic reaches
  // it only once a migration cutover routes a range there. Returns its id.
  ShardId add_shard();
  // Swap a shard's primary for backup 0 with zero loss and zero takeover-
  // path resolutions: drain every peer to the full shipped watermark, CHECK
  // nothing is in doubt and every backup is at the committed sequence, then
  // promote; the demoted primary rejoins as a backup via an empty delta.
  void handoff_primary(ShardId id);
  // Grow a shard's backup set under traffic: the new backup full-syncs (it
  // has no state — that cost is honest) and then rides the stream.
  void add_backup(ShardId id);

  struct RebalanceCounters {
    std::uint64_t bytes_moved = 0;       // balance payload shipped to destinations
    std::uint64_t records_moved = 0;     // nonzero balances transferred (incl. re-transfers)
    std::uint64_t chunks = 0;            // migration 2PC transactions committed
    std::uint64_t retried_2pc = 0;       // stale-map decisions re-routed by execute()
    std::uint64_t cutover_stall_ns = 0;  // wall time holding every latch at cutovers
    std::uint64_t cutovers = 0;
    std::uint64_t handoffs = 0;          // planned primary handoffs completed
    std::uint64_t backup_adds = 0;
  };
  RebalanceCounters rebalance_counters() const;

  // ---- chaos + audit ------------------------------------------------------
  // Drop a shard's primary (links die, image is lost) and promote backup 0:
  // resolve in-doubt against the decision records, re-fence, re-adopt the
  // surviving backups. CHECKs the shard has a backup to promote.
  void kill_primary(ShardId id);

  std::uint64_t takeovers() const { return takeovers_; }
  // Every in-doubt resolution performed anywhere (in-band decides and
  // takeover resolutions), xid -> committed. A transaction resolved both
  // ways would bump resolution_conflicts() — the invariant is 0.
  const std::map<std::uint64_t, bool>& resolutions() const { return resolutions_; }
  std::uint64_t resolution_conflicts() const { return resolution_conflicts_; }

 private:
  friend class Rebalancer;

  struct Shard;

  // Live migration bookkeeping (null when no migration is staged). `moves`
  // enumerates the moving set; per-move `transferred`/`dirty` bytes are each
  // guarded by the SOURCE shard's latch (note_write and the chunk write
  // generators both run under it); the pointer itself is published and
  // retired under every shard latch, so any latch holder reads it safely.
  struct Migration {
    struct Move {
      ShardId src = 0;
      ShardId dst = 0;
      std::uint64_t off = 0;  // record base offset (same layout on every shard)
    };
    ShardMap target;
    std::vector<Move> moves;
    std::vector<std::uint8_t> transferred;  // value landed on dst at least once
    std::vector<std::uint8_t> dirty;        // src re-bumped after transfer
    std::unordered_map<std::uint64_t, std::size_t> by_off;  // move_key -> index
    Migration(ShardMap t, std::vector<Move> m);
  };
  static std::uint64_t move_key(ShardId shard, std::uint64_t off) {
    return (static_cast<std::uint64_t>(shard) << 48) | off;
  }

  // A primary death fired inside one cross-shard commit (chaos runs only):
  // `victim`'s links are snapped at point `at`, and run() promotes it once
  // the commit returns. kBetweenTxns, the default, kills nothing.
  struct InCommitKill {
    ChaosSchedule::Point at = ChaosSchedule::Point::kBetweenTxns;
    ShardId victim = 0;
  };

  std::unique_ptr<Shard> build_shard(ShardId id);
  TxnOutcome run_one(const TxnDecision& decision, const InCommitKill& kill);
  // Returns the commit sequence, read under the shard latch — callers must
  // not touch shard.committed once the latch is released.
  std::uint64_t run_local(Shard& shard, const wl::DebitCredit::TxnPlan& plan);

  // Two-phase commit of one transaction that touches a HOME shard and one
  // REMOTE shard, over their redo pipelines:
  //
  //   latch both shards, lower shard id first       (deadlock avoidance)
  //   phase 1  stage the remote's writes; prepare_cross(seq, xid)
  //              -> backups buffer the batch in-doubt; the remote primary's
  //                 image is untouched (deferred apply)
  //   commit   home shard: ONE ordinary commit carrying the home writes AND
  //            the 16-byte decision record (shard/decision_log.hpp). The
  //            moment this commit is durable — 2-safe: quorum-covered on the
  //            home backups — the transaction is committed, whoever dies next.
  //   phase 2  apply the deferred bytes to the remote image; decide_cross
  //              -> backups resolve their in-doubt buffer
  //
  // Failure rule (presumed abort): if a primary dies before the home commit,
  // the transaction aborts — no decision record exists, so every surviving
  // or promoted replica independently resolves the prepare as abort. If the
  // remote primary dies after the home commit, the transaction IS
  // committed; the remote's promoted backup finds the decision record in the
  // home shard's surviving image and resolves commit. Both rules read the
  // same bytes, so no transaction can resolve both ways.
  //
  // Writes come from generators invoked AFTER both latches are held: a
  // write's new bytes depend on the current image (balance += amount), so
  // computing them before latching would race with concurrent transactions
  // on the same records. The remote's in-band resolution feeds the audit.
  // Returns the home commit sequence, or 0 when the transaction aborted.
  struct Write {
    std::uint64_t off = 0;
    std::vector<std::uint8_t> bytes;
  };
  using WriteGen = std::function<std::vector<Write>()>;
  std::uint64_t commit_cross(ShardId home, ShardId remote, const WriteGen& home_writes,
                             const WriteGen& remote_writes, const InCommitKill& kill);

  // Id-based access for the Rebalancer (Shard is an implementation type).
  // shard_db_ptr must be read under the shard's latch: a promotion swaps
  // the backing image.
  core::Latch& shard_latch(ShardId id);
  const std::uint8_t* shard_db_ptr(ShardId id) const;
  void promote(Shard& shard);
  // Give backup `index` a fresh inline link in peer slot `index` of the
  // shard's pipeline and adopt it into the view (the adopt bumps the epoch).
  void attach_backup(Shard& shard, std::size_t index);
  // Serve every backup's rejoin at the settled epoch, then re-arm 2-safe
  // commit and the quorum for the current backup set.
  void rejoin_backups(Shard& shard);
  // Backup 0 becomes the primary under a new lineage; every other backup is
  // re-attached and rejoins. Caller holds the shard latch (or owns the
  // shard exclusively during a takeover).
  void promote_backup0(Shard& shard);
  bool decide_in_doubt(std::uint64_t xid) const;
  void record_resolution(std::uint64_t xid, bool commit);
  // Dual-write tracking: callers hold `shard`'s latch; marks an already-
  // transferred moving record dirty so the migration re-ships its residual.
  void note_write(ShardId shard, std::uint64_t off);
  // Re-route a decision stamped with a superseded map version against the
  // live map (under map_mu_). Returns the decision to execute.
  TxnDecision reroute_stale(const TxnDecision& decision);

  ShardedConfig config_;
  std::size_t workload_bytes_;
  ShardMap map_;
  wl::DebitCredit workload_;
  DecisionLog dlog_;
  std::atomic<std::uint64_t> xid_counter_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<unsigned> live_shards_{0};  // published size of shards_
  // Guards map_ reads/writes across threads; always acquired either alone
  // or AFTER shard latches (cutover), never before them.
  mutable std::mutex map_mu_;
  std::unique_ptr<Migration> migration_;
  std::mutex audit_mu_;
  std::map<std::uint64_t, bool> resolutions_;
  std::uint64_t resolution_conflicts_ = 0;
  std::uint64_t takeovers_ = 0;
  // shard.rebalance.* counters (relaxed: monotone tallies, read quiesced).
  std::atomic<std::uint64_t> rb_bytes_moved_{0};
  std::atomic<std::uint64_t> rb_records_moved_{0};
  std::atomic<std::uint64_t> rb_chunks_{0};
  std::atomic<std::uint64_t> rb_retried_2pc_{0};
  std::atomic<std::uint64_t> rb_cutover_stall_ns_{0};
  std::atomic<std::uint64_t> rb_cutovers_{0};
  std::atomic<std::uint64_t> rb_handoffs_{0};
  std::atomic<std::uint64_t> rb_backup_adds_{0};
};

}  // namespace vrep::shard
