// RedoApplier — the backup end of the active scheme's redo protocol (paper
// Section 6): image transfer, atomic batch apply, duplicate/gap/corrupt
// accounting, in-band resync, checkpoint installs, the in-doubt 2PC table and
// the replica's state epoch. It shares only the payload layouts in
// repl/codec.hpp with the primary end (repl/pipeline.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/membership.hpp"
#include "repl/codec.hpp"
#include "repl/link.hpp"

namespace vrep::repl {

class RedoApplier {
 public:
  // Where replica bytes land. The TCP/loopback backends memcpy into an
  // arena; the simulated backend routes through the instrumented bus so
  // cache-model costs are charged exactly as before.
  struct Target {
    virtual void write(std::uint64_t off, const void* src, std::size_t len) = 0;
    virtual std::size_t capacity() const = 0;
    // Read view of the replica image. Checkpoint installs verify the
    // combined (current image + buffered chunks) CRC against the watermark
    // BEFORE any chunk is written, so a torn install never reaches the
    // replica bytes.
    virtual const std::uint8_t* data() const = 0;

   protected:
    ~Target() = default;
  };

  struct Stats {
    std::uint64_t batches_applied = 0;
    std::uint64_t duplicates_ignored = 0;  // seq <= applied (dups, replays)
    std::uint64_t gaps_detected = 0;       // seq > applied+1 (dropped/corrupt)
    std::uint64_t corrupt_skipped = 0;     // payload-corrupt frames skipped
    std::uint64_t stale_fenced = 0;        // stale-epoch frames rejected
    std::uint64_t resyncs = 0;             // completed kRejoinDelta / kHello resyncs
    std::uint64_t checkpoint_installs = 0;  // CRC-verified checkpoint adoptions
    std::uint64_t checkpoint_aborts = 0;    // torn/stale installs discarded
    std::uint64_t prepares_buffered = 0;    // kXPrepare batches held in-doubt
    std::uint64_t decides_committed = 0;    // in-doubt resolved by applying
    std::uint64_t decides_aborted = 0;      // in-doubt resolved by discarding
  };

  // With a `membership`, stale-epoch frames are fenced and the epoch follows
  // the primary's hello/delta frames; `node_id` identifies this node in
  // rejoin requests so the primary can adopt it into the view.
  explicit RedoApplier(Target& target, cluster::Membership* membership = nullptr,
                       std::uint64_t node_id = 1)
      : target_(target), membership_(membership), node_id_(node_id) {}

  enum class FrameResult {
    kOk,       // handled (applied, ignored, or answered in-band)
    kCorrupt,  // unrecoverable protocol violation (should not happen)
  };

  // Feed one received frame through the protocol state machine; responses
  // (acks, resync requests, fences) go out through `link`.
  FrameResult on_frame(const Frame& frame, ReplicationLink& link);

  // Announce our applied sequence after a (re)connect; the primary answers
  // with a delta replay or a full image sync. A fresh backup (nothing
  // applied, no image) asks from sequence 0, which always yields the image.
  bool request_rejoin(ReplicationLink& link);

  // Seed the replica from an existing database image (e.g. a demoted
  // primary rejoining with its own last state). `state_epoch` is the epoch
  // under which that state was produced.
  void seed(const std::uint8_t* db, std::size_t size, std::uint64_t applied_seq,
            std::uint64_t state_epoch);
  // Adopt an image installed out-of-band (the simulated backend copies the
  // initial image directly; the paper seeds backups before enabling them).
  void adopt_image(std::size_t size, std::uint64_t applied_seq, std::uint64_t state_epoch);

  // Direct data-plane entry for backends that decode their own wire format
  // (the simulated ring): `chunks` holds the concatenated redo of the
  // contiguous sequences [first_seq, last_seq] (one transaction when they
  // are equal), applied atomically — the ring's marker guarantees the bytes
  // arrived whole. The sequencing rule is the one every redo frame follows,
  // applied to the range as a unit. Returns true if the range was applied.
  bool apply_decoded(std::uint64_t first_seq, std::uint64_t last_seq, const RedoChunk* chunks,
                     std::size_t count, std::uint64_t epoch);

  std::uint64_t applied_seq() const { return applied_seq_; }
  std::uint64_t next_expected_seq() const { return applied_seq_ + 1; }

  // ---- snapshot reads at the applied watermark ----------------------------
  // A backup serves reads from its replica image at applied_seq(). Batches
  // apply atomically with respect to the caller's serialization (the wire
  // backends lock per frame), so a read observes a prefix-consistent state:
  // every commit <= at_seq, nothing after. Read-your-writes: a client holding
  // CommitTicket seq S passes min_seq = S and is bounced (kLagging) until
  // this replica has applied S — it can then retry here or pick a replica
  // whose advertised watermark (RedoPipeline::peer_acked_seq) already covers S.
  enum class ReadStatus : std::uint8_t {
    kOk = 0,           // `len` bytes copied from the state as of at_seq
    kLagging = 1,      // applied_seq() < min_seq: retry or pick another replica
    kOutOfBounds = 2,  // range outside the image, or no complete image yet
  };
  struct ReadResult {
    ReadStatus status = ReadStatus::kOutOfBounds;
    std::uint64_t at_seq = 0;  // watermark the answer was produced at
  };
  ReadResult read_at_watermark(std::uint64_t off, std::uint32_t len,
                               std::uint64_t min_seq, std::uint8_t* out) const;
  // Epoch under which the last applied state (image or batch) was produced.
  std::uint64_t state_epoch() const { return state_epoch_; }
  std::size_t db_size() const { return db_size_; }
  // The image transfer ships chunks sequentially from offset 0; a replica
  // is only usable once a contiguous prefix covers the whole database.
  bool image_complete() const { return db_size_ > 0 && image_next_off_ >= db_size_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t epoch() const { return membership_ != nullptr ? membership_->view().epoch : 1; }

  // A payload-corrupt frame was skipped by the carrier (the applier never
  // saw it): account it and repair the gap in-band.
  void note_corrupt_skipped(ReplicationLink& link);

  // True while a checkpoint install is buffering chunks (between kCkptBegin
  // and the verified kCkptEnd). The replica image is untouched until the
  // End's CRC proves the combined result, so a mid-install takeover still
  // promotes the clean pre-install state.
  bool checkpoint_installing() const { return ckpt_installing_; }

  // ---- cross-shard 2PC (backup side) -------------------------------------
  // Prepared-but-undecided transactions buffered by kXPrepare frames: their
  // sequences are consumed (applied_seq covers them) but the bytes have not
  // touched the replica image. A promoted backup resolves them against the
  // coordinator's home-shard decision log before serving traffic.
  std::size_t in_doubt() const { return in_doubt_.size(); }
  std::vector<std::uint64_t> in_doubt_xids() const;
  // Resolve one buffered in-doubt transaction: commit applies its chunks to
  // the image, abort discards them. Used both by the kXDecide frame handler
  // and by the takeover driver. Returns false when `xid` is not held.
  bool resolve_in_doubt(std::uint64_t xid, bool commit);

 private:
  // The one sequencing rule for redo (kRedoBatch, kRedoGroup, kXPrepare and
  // apply_decoded): a unit covering [first, last] is a duplicate when we
  // already hold `last`, a gap (the caller resyncs) when something before
  // `first` is missing, and applies otherwise; sequences at or below
  // applied_seq_ inside it are delta-replay overlap. Counts duplicates and
  // gaps.
  enum class Admission : std::uint8_t { kDuplicate, kGap, kApply };
  Admission admit(std::uint64_t first, std::uint64_t last);
  void note_duplicate();
  void note_gap();
  void note_applied(std::uint64_t batches, std::uint64_t epoch);
  void ack(ReplicationLink& link);

  void apply_validated(const std::uint8_t* payload, std::size_t size);
  void on_group_frame(const Frame& frame, ReplicationLink& link);
  void on_prepare_frame(const Frame& frame, ReplicationLink& link);
  void on_decide_frame(const Frame& frame);
  void maybe_request_resync(ReplicationLink& link);
  // Re-request even if a request is outstanding: the answer to it was lost
  // or can no longer be used.
  void rerequest(ReplicationLink& link);
  void on_ckpt_begin(const Frame& frame, ReplicationLink& link);
  void on_ckpt_chunk(const Frame& frame, ReplicationLink& link);
  void on_ckpt_end(const Frame& frame, ReplicationLink& link);
  void clear_checkpoint_install();
  // Drop a torn/unverifiable install and re-request from our real sequence.
  void abort_checkpoint_install(ReplicationLink& link);

  Target& target_;
  cluster::Membership* membership_;
  std::uint64_t node_id_;
  std::size_t db_size_ = 0;
  std::size_t image_next_off_ = 0;
  std::uint64_t applied_seq_ = 0;
  std::uint64_t state_epoch_ = 0;
  bool awaiting_resync_ = false;
  Stats stats_;
  // Checkpoint install buffer (see checkpoint_installing()).
  struct PendingChunk {
    std::uint64_t off;
    std::vector<std::uint8_t> bytes;
  };
  bool ckpt_installing_ = false;
  CkptBegin ckpt_install_;  // the Begin that opened the install
  std::vector<PendingChunk> ckpt_chunks_;
  // In-doubt 2PC batches: xid -> validated kRedoBatch payload, buffered at
  // prepare and applied/discarded at decide (or takeover resolution).
  std::map<std::uint64_t, std::vector<std::uint8_t>> in_doubt_;
};

}  // namespace vrep::repl
