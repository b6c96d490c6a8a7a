// RedoPipeline — the primary end of the active scheme's redo protocol (paper
// Section 6), shared by every carrier (repl/link.hpp). It owns redo staging,
// sequencing, the bounded redo history, rejoin decisions, epoch fencing,
// 1-safe/2-safe commits with a quorum over N backups, and fuzzy checkpoints.
// Each backup is one slot in a per-peer table (link, acked sequence,
// liveness); commit() fans the batch out to every live peer. The backup end,
// RedoApplier (repl/applier.hpp), shares only the layouts in repl/codec.hpp.
//
// Rejoin safety across failovers: a sequence number alone cannot tell a
// shared prefix from a divergent one (a fenced primary may have committed
// transactions past the takeover point that the promoted node never saw).
// Rejoin requests therefore carry the *state epoch* — the epoch under which
// the requester's last applied state was produced. A delta replay is served
// only when the state epoch matches the primary's current epoch (same
// lineage), or matches the epoch fenced at the last takeover AND the
// requester's sequence is at or below the takeover floor (the shared prefix
// boundary). Anything else gets the full image — including a rejoiner
// claiming a sequence beyond anything this lineage committed (a
// claimed-future sequence can never be repaired by a delta).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"
#include "repl/codec.hpp"
#include "repl/link.hpp"
#include "rio/arena.hpp"
#include "util/metrics.hpp"

namespace vrep::repl {

class RedoPipeline {
 public:
  // Bytes of committed redo batches retained for rejoin catch-up. Gaps
  // larger than what fits fall back to a full image sync.
  static constexpr std::size_t kDefaultRedoHistoryBytes = 4u << 20;

  // Where this primary's lineage came from. A node promoted from backup
  // passes the epoch its replica state was produced under and the applied
  // sequence at takeover (the shared-prefix boundary with any fenced
  // straggler); a from-scratch primary leaves the default.
  struct Lineage {
    std::uint64_t prev_epoch = 0;
    std::uint64_t takeover_floor = 0;
  };

  // The committed state the pipeline replicates, implemented by whatever
  // owns it: ReplicatedStore (the active primary's V3 store, under every
  // carrier), SmpExecutor (its gathered partitions) and each ShardedCluster
  // shard.
  struct Source {
    virtual const std::uint8_t* db() const = 0;
    virtual std::size_t db_size() const = 0;
    virtual std::uint64_t committed_seq() const = 0;

   protected:
    ~Source() = default;
  };

  struct Stats {
    std::uint64_t txns_shipped = 0;
    std::uint64_t deltas_served = 0;      // incremental catch-up from history
    std::uint64_t full_syncs_served = 0;  // no delta nor checkpoint could repair
    std::uint64_t two_safe_degraded = 0;  // 2-safe commits that fell back to 1-safe
    std::uint64_t checkpoints_completed = 0;     // fuzzy checkpoints finished
    std::uint64_t redo_truncated_bytes = 0;      // history dropped at watermarks
    std::uint64_t checkpoint_deltas_served = 0;  // checkpoint+delta rejoins
    std::uint64_t prepares_shipped = 0;          // 2PC phase-1 frames shipped
    std::uint64_t decides_shipped = 0;           // 2PC phase-2 frames shipped
  };

  // What a commit() actually guaranteed when it returned. 1-safe commits are
  // always kLocalDurable; a 2-safe commit is kQuorumDurable when the
  // configured quorum of backup acknowledgments covered the sequence, and
  // kTwoSafeDegraded when the wait exhausted its probes (peers dead or
  // silent) and the commit is durable locally only — the caller can tell a
  // quorum-durable commit from a degraded one instead of being lied to.
  // kPending is only ever returned by commit_async(): the sequence sits
  // inside the open in-flight window (or an unshipped group) and will be
  // resolved by later acks, wait(), or sync().
  enum class CommitOutcome : std::uint8_t {
    kLocalDurable,
    kQuorumDurable,
    kTwoSafeDegraded,
    kPending,
  };

  // Monotonically-numbered handle returned by commit_async(); the number is
  // the transaction's replication sequence, so tickets resolve strictly in
  // sequence order.
  struct CommitTicket {
    std::uint64_t seq = 0;
  };

  // Resolution state of a ticket, derived from the ack/degrade/fence
  // watermarks in O(1). States only ever move forward, with one honest
  // exception: a degraded ticket can later refine to durable if the covering
  // acks eventually arrive (degraded means "not proven", not "proven lost").
  enum class TicketState : std::uint8_t {
    kPending,   // inside the open window: not yet proven either way
    kDurable,   // 1-safe: locally durable; 2-safe: quorum-covered
    kDegraded,  // 2-safe guarantee not met (peers dead/silent); local only
    kLost,      // committed past the fence point of a lost primary lineage
  };

  // With a `membership`, outgoing frames carry its epoch and stale inbound
  // traffic fences us; without one, everything runs in a fixed epoch 1.
  // `link` (may be null) becomes peer slot 0; add_peer() grows the table.
  RedoPipeline(Source& source, ReplicationLink* link,
               cluster::Membership* membership = nullptr, Lineage lineage = Lineage{0, 0},
               std::size_t redo_history_bytes = kDefaultRedoHistoryBytes);

  // ---- peer table ---------------------------------------------------------
  // Add another backup slot; returns its index. Slot 0 is the constructor's
  // link.
  std::size_t add_peer(ReplicationLink* link);
  // Point a slot at a new link after a reconnect (same or different object).
  void attach_link(std::size_t peer, ReplicationLink* link);
  void attach_link(ReplicationLink* link) { attach_link(0, link); }

  // Tombstone a slot: the link is detached, the peer is dead, and its
  // acknowledgments no longer count toward the quorum. Indices of the other
  // slots are stable (the table never compacts).
  void remove_peer(std::size_t peer);

  std::size_t peer_count() const { return peers_.size(); }
  bool peer_alive(std::size_t peer) const { return peers_[peer].alive; }
  std::uint64_t peer_acked_seq(std::size_t peer) const { return peers_[peer].acked_seq; }

  // ---- staging + commit -------------------------------------------------
  void begin();
  // CHECKs that the chunk fits the u32 batch format (see repl/codec.hpp):
  // off + len must not exceed 4 GiB.
  void stage(std::uint64_t off, const void* src, std::size_t len);
  void discard();
  // Encode the staged chunks as sequence `seq`, retain them in the bounded
  // history, fan the batch out to every live peer (1-safe: a send failure
  // marks that peer down but never fails the commit), and in 2-safe mode
  // block until a quorum of acknowledgments covers `seq`. The returned
  // outcome (also held in last_commit_outcome()) says what was guaranteed.
  // Equivalent to commit_async(seq) followed by wait() on its ticket.
  CommitOutcome commit(std::uint64_t seq);

  // Asynchronous group commit: stage the batch into the pending group
  // (shipped once group_size() transactions have accumulated) and return a
  // ticket immediately. 2-safe backpressure is the bounded in-flight window:
  // the call blocks only while more than commit_window()-1 shipped sequences
  // are unacked — with W=1, G=1 this is byte-identical to commit(). The
  // commit's provisional outcome is in last_commit_outcome() (kPending while
  // the window is open).
  CommitTicket commit_async(std::uint64_t seq);

  // Resolution state of `ticket` right now, O(1) (no link traffic).
  TicketState ticket_state(CommitTicket ticket) const;
  // Non-blocking ack pump: drain whatever control frames (acks, rejoin
  // requests, fences) every live peer has already sent, advancing the
  // watermarks ticket_state derives from — the async front end's way of
  // resolving commit_async tickets without ever blocking in wait(). Also
  // refreshes peer_acked_seq so read routing can skip stale backups.
  void poll_acks();
  // Block until `ticket` resolves: ship its group if still buffered, then
  // (2-safe) wait for the covering quorum. Returns immediately — without
  // touching any link — when the ticket is already resolved.
  CommitOutcome wait(CommitTicket ticket);
  // Ship any buffered group and (2-safe) wait until every shipped sequence
  // is quorum-covered or provably never will be. A no-op when nothing is
  // pending and nothing is unacked.
  CommitOutcome sync();

  // Planned-handoff drain: ship everything and wait until EVERY live peer
  // has acknowledged the full shipped watermark — stronger than sync(),
  // which stops at quorum coverage. Peers that stay silent through the
  // probe budget are marked down, exactly as in a 2-safe wait. Returns true
  // when at least one peer is alive and fully caught up and we were not
  // fenced; a handoff may then promote any backup without replaying a tail.
  bool drain_peers();

  CommitOutcome last_commit_outcome() const { return last_commit_outcome_; }

  // ---- cross-shard 2PC hooks ---------------------------------------------
  // Phase 1 of cross-shard two-phase commit (shard::ShardedCluster).
  // Encodes the staged chunks as sequence `seq` and ships them with the xid
  // to every live peer as one kXPrepare frame; backups buffer the batch
  // in-doubt — the sequence is consumed (applied_seq advances, acks cover
  // it, so 2-safe coverage extends to prepares) but the bytes do NOT touch
  // the replica image until the decision arrives. The batch is
  // retained here, OUTSIDE the replay history, until decide_cross() resolves
  // it; drivers must resolve every in-doubt transaction before serving a
  // rejoin, or the replayed history would have a hole at `seq`. Any pending
  // group is shipped first so frames stay in sequence order. In 2-safe mode
  // this blocks under the same bounded-window backpressure as commit_async.
  // Fuzzy checkpoints do not compose with prepares yet (the staged bytes are
  // not in the source image at prepare time); enabling both is refused.
  CommitTicket prepare_cross(std::uint64_t seq, std::uint64_t xid);
  // Phase 2: resolve a prepared transaction and fan the kXDecide frame out
  // to every live peer. Commit moves the held batch into the replay history
  // at its sequence; abort replaces it with an empty batch (sequence
  // consumed, zero chunks) so the history stays contiguous and rejoin
  // replays advance a laggard's sequence past the aborted slot without
  // writing anything. Returns false when `xid` is unknown (already
  // resolved).
  bool decide_cross(std::uint64_t xid, bool commit);
  // Prepared-but-undecided transactions currently held.
  std::size_t in_doubt() const { return in_doubt_.size(); }

  // Transactions coalesced per wire frame (default 1: one frame per commit,
  // the classic stream). Groups of 2+ ship as one kRedoGroup frame / one
  // checksummed ring unit, applied atomically by the backup.
  void set_group_size(unsigned g);
  unsigned group_size() const { return group_size_; }
  // Max shipped-but-unacked sequences before a 2-safe commit_async blocks
  // (default 1: block until the commit's own sequence is covered).
  void set_commit_window(unsigned w);
  unsigned commit_window() const { return window_; }

  // Sequence of the most recent commit_async/commit (0 before the first).
  std::uint64_t last_ticket_seq() const { return last_ticket_seq_; }

  // 2-safe commit (extension beyond the paper's 1-safe design): commit does
  // not return until `quorum` backups have durably applied the transaction
  // and their acknowledgments have reached the primary.
  void set_two_safe(bool enabled) { two_safe_ = enabled; }
  bool two_safe() const { return two_safe_; }
  // Acks required for a 2-safe commit to count as quorum-durable (default 1,
  // the classic hot-standby behavior). Clamped against the peer table at
  // wait time, not here, so it can be set before peers join.
  void set_quorum(unsigned k);
  unsigned quorum() const { return quorum_; }

  // ---- sync + rejoin ----------------------------------------------------
  // Ship the current database image + sequence to every attached peer so
  // (fresh) backups can join. True if at least one peer was synced.
  bool sync_backup();
  // Await a backup's kRejoinRequest on `peer`'s link after a (re)connect and
  // serve it. Returns false on timeout/disconnect or if this primary has
  // been fenced.
  bool handle_rejoin(std::size_t peer, int timeout_ms);
  bool handle_rejoin(int timeout_ms) { return handle_rejoin(0, timeout_ms); }
  bool send_heartbeat();

  // The rejoin policy, exposed so backends with out-of-band image transfer
  // (the simulated ring seeds images by direct copy) can consult the exact
  // same rule the in-band path applies. Three-way: replay from the redo
  // history when it covers the gap; otherwise patch the completed checkpoint
  // image (only the pages dirtied after the rejoiner's sequence) and replay
  // from the watermark; full image only as last resort.
  enum class RejoinDecision { kDelta, kCheckpointDelta, kFullImage };
  RejoinDecision decide_rejoin(std::uint64_t backup_seq, std::uint64_t state_epoch) const;

  // ---- fuzzy checkpoints -------------------------------------------------
  // A completed fuzzy checkpoint: the commit sequence at which the retained
  // image is transactionally consistent, the lineage epoch it was produced
  // under, and the CRC of the full image (installs verify against it).
  struct Checkpoint {
    std::uint64_t seq = 0;
    std::uint64_t state_epoch = 0;
    std::uint32_t crc = 0;
    bool valid = false;
  };

  // Granularity of dirty-page tracking; a checkpoint+delta rejoin ships only
  // the pages dirtied after the rejoiner's sequence, making its cost
  // O(delta) instead of O(database).
  static constexpr std::size_t kCkptPageBytes = 4096;

  // Turn on incremental fuzzy checkpointing (strictly opt-in: disabled, the
  // pipeline behaves byte-identically to the pre-checkpoint engine). Every
  // `interval_txns` commits a new checkpoint build starts; each commit then
  // advances a background copy of the source database by
  // `copy_bytes_per_commit` while patching that commit's redo into the
  // already-copied prefix, so the finished image is consistent at its
  // completion sequence without ever pausing the commit path. Completion
  // durably records the watermark {seq, epoch, crc} and truncates redo
  // history at it — the bounded history stays bounded without pushing
  // laggards off a full-image cliff.
  void enable_checkpoints(std::uint64_t interval_txns,
                          std::size_t copy_bytes_per_commit = 256 * 1024);
  bool checkpoints_enabled() const { return ckpt_enabled_; }
  const Checkpoint& checkpoint() const { return ckpt_; }
  const std::vector<std::uint8_t>& checkpoint_image() const { return ckpt_image_; }
  // Maximal {offset, length} page runs of the completed checkpoint dirtied
  // after `backup_seq` (what a checkpoint+delta rejoin ships), capped at the
  // image-chunk frame size. Out-of-band backends use this to seed by direct
  // copy under the same O(delta) rule.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> checkpoint_delta_runs(
      std::uint64_t backup_seq) const;

  // ---- state ------------------------------------------------------------
  // True while at least one peer link is usable.
  bool connection_alive() const;
  // A newer epoch fenced us: stop acting as primary (demote + rejoin).
  bool fenced() const { return fenced_; }
  // The epoch that fenced us (valid when fenced() is true); feed it to
  // cluster::Membership::demote_to_backup.
  std::uint64_t fenced_by_epoch() const { return fenced_by_epoch_; }
  std::uint64_t epoch() const { return membership_ != nullptr ? membership_->view().epoch : 1; }
  // Highest applied sequence any backup has acknowledged (drained on
  // commit); with one backup this is that backup's watermark.
  std::uint64_t backup_acked_seq() const;
  // Highest sequence acknowledged by at least `quorum()` peers — everything
  // at or below it is quorum-durable. O(1): the value is cached and
  // recomputed only when an ack advances or the peer table / quorum changes
  // (each recomputation counts repl.primary.quorum_scans).
  std::uint64_t quorum_acked_seq() const { return quorum_acked_cache_; }
  const Stats& stats() const { return stats_; }

 private:
  struct PeerSlot {
    ReplicationLink* link = nullptr;
    std::uint64_t acked_seq = 0;
    bool alive = false;
    int silent = 0;  // consecutive 2-safe probe timeouts (reset on traffic)
    metrics::Counter* shipped = nullptr;  // repl.primary.peer<i>.txns_shipped
    metrics::Gauge* acked = nullptr;      // repl.primary.peer<i>.acked_seq
  };

  // One sequenced transaction's redo, as the pending group, the in-doubt
  // table and the replay history all hold it.
  struct RedoRecord {
    std::uint64_t seq;
    std::vector<std::uint8_t> batch;  // kRedoBatch payload (seq-prefixed)
  };

  // Whose acknowledgments a wait needs: a quorum of peers (a 2-safe commit)
  // or every live peer (a planned-handoff drain).
  enum class Coverage : std::uint8_t { kQuorum, kEveryLivePeer };

  // Every send goes through here: a failed send marks the peer down.
  bool link_send(PeerSlot& peer, FrameKind kind, Payload payload);
  // Fire and forget to every live peer, counting `txns` shipped on each peer
  // that took the frame; true if any did. A failed peer never blocks or fails
  // the local commits (1-safe; the 2-safe wait is the window backpressure).
  bool broadcast(FrameKind kind, Payload payload, std::uint64_t txns);
  // A heartbeat carrying the shipped watermark, sent to a live peer while
  // unfenced: a caught-up backup answers with an ack, a behind one with a
  // resync request.
  void probe(PeerSlot& peer);
  void fence(std::uint64_t newer_epoch);
  void drain(PeerSlot& peer);
  void drain_live();
  // Flush + probe + receive until `rule`'s acks cover `target`, we are
  // fenced, or no live peer can still provide them (silent peers are marked
  // down after the probe budget).
  void await_coverage(std::uint64_t target, Coverage rule);
  // The 2-safe commit wait: await_coverage on a quorum, timed into
  // repl.primary.commit_wait_ns; when coverage is unreachable the whole open
  // window resolves degraded.
  void wait_covered(std::uint64_t target);
  // The commit-path tail shared by commit_async and prepare_cross once `seq`
  // is staged: 1-safe resolves it at once; 2-safe applies the bounded-window
  // backpressure. Records the provisional outcome and returns the ticket.
  CommitTicket admit(std::uint64_t seq);
  // Encode the pending group as one frame (kRedoBatch for a single
  // transaction, kRedoGroup for 2+) and fan it out to every live peer.
  void ship_group();
  void note_degraded();
  void recompute_quorum_acked();
  CommitOutcome outcome_of(std::uint64_t seq) const;
  std::uint64_t window_target() const;
  std::uint64_t shipped_watermark() const;
  // Retain a batch at its sequence position (a decided cross-shard batch may
  // land after later sequences), evicting the oldest past the byte budget.
  void insert_history(std::uint64_t seq, std::vector<std::uint8_t> batch);
  bool sync_peer(PeerSlot& peer);
  // The one kRejoinRequest path: decode, fence on a newer epoch, or serve.
  // nullopt for a malformed request; otherwise whether it was served.
  std::optional<bool> serve_rejoin(PeerSlot& peer, const Frame& frame);
  bool history_covers(std::uint64_t from_seq) const;
  // Per-commit checkpoint work: dirty-page accounting, the background image
  // copy + prefix patching, and completion (watermark + history truncation).
  void step_checkpoint(std::uint64_t seq);
  void complete_checkpoint(std::uint64_t seq);
  bool serve_checkpoint_delta(PeerSlot& peer, std::uint64_t backup_seq);
  bool shared_lineage(std::uint64_t backup_seq, std::uint64_t state_epoch) const;
  // Ack / fence / in-band rejoin handling shared by drain() and the waits.
  void on_control_frame(PeerSlot& peer, const Frame& frame);

  Source& source_;
  cluster::Membership* membership_;
  Lineage lineage_;
  std::vector<PeerSlot> peers_;
  std::vector<std::uint8_t> batch_;  // staged redo payload for this txn
  std::vector<RedoRecord> pending_group_;  // committed but not yet shipped
  std::map<std::uint64_t, RedoRecord> in_doubt_;  // xid -> prepared, undecided
  std::deque<RedoRecord> history_;
  std::size_t history_bytes_ = 0;
  std::size_t history_capacity_;
  std::uint64_t fenced_by_epoch_ = 0;
  Stats stats_;
  bool fenced_ = false;
  bool two_safe_ = false;
  unsigned quorum_ = 1;
  unsigned group_size_ = 1;
  unsigned window_ = 1;
  std::uint64_t shipped_seq_ = 0;      // highest sequence handed to a carrier
  std::uint64_t last_ticket_seq_ = 0;  // highest sequence committed (ticketed)
  // Ticket-resolution watermarks (see ticket_state). quorum_acked_cache_ is
  // the cached quorum_acked_seq(); local_resolved_upto_ covers sequences
  // committed while 1-safe (resolved durable at commit); degraded_upto_
  // covers sequences resolved degraded when a 2-safe wait gave up.
  std::uint64_t quorum_acked_cache_ = 0;
  std::uint64_t local_resolved_upto_ = 0;
  std::uint64_t degraded_upto_ = 0;
  CommitOutcome last_commit_outcome_ = CommitOutcome::kLocalDurable;
  // Fuzzy checkpoint state (entirely inert unless ckpt_enabled_).
  bool ckpt_enabled_ = false;
  bool ckpt_building_ = false;
  std::uint64_t ckpt_interval_ = 0;   // commits between checkpoint starts
  std::size_t ckpt_copy_bytes_ = 0;   // background copy advance per commit
  std::uint64_t ckpt_anchor_ = 0;     // last completion (or enable) sequence
  std::uint64_t dirty_floor_ = 0;     // page dirtiness tracked above this seq
  rio::SnapshotCursor ckpt_snap_;     // background copy progress (build)
  std::vector<std::uint8_t> ckpt_build_;  // image under construction
  std::vector<std::uint8_t> ckpt_image_;  // last completed image
  Checkpoint ckpt_;
  std::vector<std::uint64_t> page_seq_;       // last commit seq dirtying each page
  std::vector<std::uint64_t> ckpt_page_seq_;  // page_seq_ snapshot at completion
};

}  // namespace vrep::repl
