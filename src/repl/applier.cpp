#include "repl/applier.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace vrep::repl {

bool RedoApplier::request_rejoin(ReplicationLink& link) {
  // A (re)request supersedes any half-received install: the buffered chunks
  // belong to a serve that is no longer coming back.
  clear_checkpoint_install();
  // An incomplete image cannot be repaired by a sequence delta: ask from 0,
  // which the primary always answers with a full image sync.
  const std::uint64_t from = image_complete() ? applied_seq_ : 0;
  const auto request = encode(RejoinRequest{from, node_id_, state_epoch_});
  return link.send(FrameKind::kRejoinRequest, epoch(), request.data(), request.size());
}

void RedoApplier::adopt_image(std::size_t size, std::uint64_t applied_seq,
                              std::uint64_t state_epoch) {
  VREP_CHECK(size <= target_.capacity());
  clear_checkpoint_install();
  db_size_ = size;
  image_next_off_ = size;
  applied_seq_ = applied_seq;
  state_epoch_ = state_epoch;
  awaiting_resync_ = false;
}

void RedoApplier::seed(const std::uint8_t* db, std::size_t size, std::uint64_t applied_seq,
                       std::uint64_t state_epoch) {
  VREP_CHECK(size <= target_.capacity());
  target_.write(0, db, size);
  adopt_image(size, applied_seq, state_epoch);
}

void RedoApplier::maybe_request_resync(ReplicationLink& link) {
  if (awaiting_resync_) return;
  if (request_rejoin(link)) awaiting_resync_ = true;
}

void RedoApplier::rerequest(ReplicationLink& link) {
  awaiting_resync_ = false;
  maybe_request_resync(link);
}

void RedoApplier::note_corrupt_skipped(ReplicationLink& link) {
  stats_.corrupt_skipped++;
  metrics::counter("repl.backup.corrupt_skipped").add(1);
  maybe_request_resync(link);
}

void RedoApplier::note_duplicate() {
  stats_.duplicates_ignored++;
  metrics::counter("repl.backup.duplicates_ignored").add(1);
}

void RedoApplier::note_gap() {
  stats_.gaps_detected++;
  metrics::counter("repl.backup.gaps_detected").add(1);
}

void RedoApplier::note_applied(std::uint64_t batches, std::uint64_t epoch) {
  state_epoch_ = epoch;
  stats_.batches_applied += batches;
  static metrics::Counter& applied = metrics::counter("repl.backup.batches_applied");
  applied.add(batches);
}

void RedoApplier::ack(ReplicationLink& link) {
  const auto ack = encode(Ack{applied_seq_});
  link.send(FrameKind::kConsumerAck, epoch(), ack.data(), ack.size());
}

RedoApplier::Admission RedoApplier::admit(std::uint64_t first, std::uint64_t last) {
  if (last <= applied_seq_) {
    note_duplicate();  // duplicate fault, delta-replay overlap or stale ring lap
    return Admission::kDuplicate;
  }
  if (first > applied_seq_ + 1) {
    note_gap();  // something before this unit was dropped or skipped as corrupt
    return Admission::kGap;
  }
  return Admission::kApply;
}

RedoApplier::ReadResult RedoApplier::read_at_watermark(std::uint64_t off, std::uint32_t len,
                                                       std::uint64_t min_seq,
                                                       std::uint8_t* out) const {
  ReadResult result;
  result.at_seq = applied_seq_;
  if (applied_seq_ < min_seq) {
    // Read-your-writes bounce: this replica has not yet applied the
    // client's own commit. at_seq tells the caller how far behind it is.
    result.status = ReadStatus::kLagging;
    static metrics::Counter& bounced = metrics::counter("repl.backup.reads_bounced");
    bounced.add(1);
    return result;
  }
  if (!image_complete() || off > db_size_ || len > db_size_ - off) {
    result.status = ReadStatus::kOutOfBounds;
    static metrics::Counter& oob = metrics::counter("repl.backup.reads_oob");
    oob.add(1);
    return result;
  }
  if (len != 0) std::memcpy(out, target_.data() + off, len);
  result.status = ReadStatus::kOk;
  static metrics::Counter& served = metrics::counter("repl.backup.reads_served");
  served.add(1);
  return result;
}

void RedoApplier::clear_checkpoint_install() {
  ckpt_installing_ = false;
  ckpt_chunks_.clear();
}

void RedoApplier::abort_checkpoint_install(ReplicationLink& link) {
  clear_checkpoint_install();
  stats_.checkpoint_aborts++;
  metrics::counter("repl.backup.checkpoint_aborts").add(1);
  // The replica image was never touched (chunks only buffer until the End
  // CRC verifies), so re-requesting from our real sequence is always safe.
  rerequest(link);
}

void RedoApplier::on_ckpt_begin(const Frame& frame, ReplicationLink& link) {
  CkptBegin begin;
  if (!decode(frame.payload, &begin)) {
    note_corrupt_skipped(link);
    return;
  }
  if (begin.seq <= applied_seq_) {
    note_duplicate();  // a replayed install start for state we already hold
    return;
  }
  if (!image_complete() || begin.db_size != db_size_) {
    // A checkpoint delta patches an intact base image; without one (or with
    // mismatched geometry) only a full sync can help.
    clear_checkpoint_install();
    rerequest(link);
    return;
  }
  // A fresh Begin supersedes any half-buffered install (the primary decided
  // to re-serve, e.g. after our re-request).
  ckpt_installing_ = true;
  ckpt_install_ = begin;
  ckpt_chunks_.clear();
}

void RedoApplier::on_ckpt_chunk(const Frame& frame, ReplicationLink& link) {
  if (!ckpt_installing_) {
    // Begin lost (or install already aborted): the chunk is unanchored.
    // The End — or the next heartbeat — drives the re-request.
    note_duplicate();
    return;
  }
  ImageChunk chunk;
  // The offset comes off the wire: `off + len` could wrap.
  if (!decode(frame.payload, &chunk) || chunk.off > db_size_ ||
      chunk.bytes.size() > db_size_ - chunk.off) {
    abort_checkpoint_install(link);
    return;
  }
  // Buffer only — the replica image stays untouched until the End CRC proves
  // the combined result, so a torn install is never adoptable.
  ckpt_chunks_.push_back(
      PendingChunk{chunk.off, std::vector<std::uint8_t>(chunk.bytes.begin(), chunk.bytes.end())});
}

void RedoApplier::on_ckpt_end(const Frame& frame, ReplicationLink& link) {
  CkptEnd end;
  if (!decode(frame.payload, &end)) {
    note_corrupt_skipped(link);
    return;
  }
  if (!ckpt_installing_) {
    if (end.seq <= applied_seq_) {
      note_duplicate();  // duplicate End after a completed install
    } else {
      rerequest(link);  // the Begin never arrived: nothing buffered
    }
    return;
  }
  if (end.seq != ckpt_install_.seq || end.crc != ckpt_install_.crc) {
    abort_checkpoint_install(link);
    return;
  }
  // Sort + dedupe the buffered chunks (duplicate faults re-deliver a run
  // verbatim), then demand exactly the announced disjoint ascending set —
  // anything else is a torn transfer.
  std::sort(ckpt_chunks_.begin(), ckpt_chunks_.end(),
            [](const PendingChunk& a, const PendingChunk& b) { return a.off < b.off; });
  ckpt_chunks_.erase(std::unique(ckpt_chunks_.begin(), ckpt_chunks_.end(),
                                 [](const PendingChunk& a, const PendingChunk& b) {
                                   return a.off == b.off && a.bytes == b.bytes;
                                 }),
                     ckpt_chunks_.end());
  bool shape_ok = ckpt_chunks_.size() == ckpt_install_.chunks;
  std::uint64_t prev_end = 0;
  for (const PendingChunk& c : ckpt_chunks_) {
    if (c.off < prev_end) shape_ok = false;
    prev_end = c.off + c.bytes.size();
  }
  if (!shape_ok) {
    abort_checkpoint_install(link);
    return;
  }
  // Verify BEFORE applying: CRC of the merged view (current image where no
  // chunk covers, buffered chunk bytes where one does) must equal the
  // watermark's full-image CRC. Only then do the chunks touch the replica.
  Crc32 merged;
  const std::uint8_t* base = target_.data();
  std::size_t at = 0;
  for (const PendingChunk& c : ckpt_chunks_) {
    if (at < c.off) merged.update(base + at, c.off - at);
    merged.update(c.bytes.data(), c.bytes.size());
    at = c.off + c.bytes.size();
  }
  if (at < db_size_) merged.update(base + at, db_size_ - at);
  if (merged.value() != ckpt_install_.crc) {
    // Transfer faults fail the shape check above, so a merged-CRC mismatch
    // means our base image diverges from what the watermark promises.
    // Distrust it entirely — re-request as imageless (full sync) rather than
    // loop on checkpoint deltas that can never verify.
    image_next_off_ = 0;
    abort_checkpoint_install(link);
    return;
  }
  for (const PendingChunk& c : ckpt_chunks_) {
    target_.write(c.off, c.bytes.data(), c.bytes.size());
  }
  applied_seq_ = ckpt_install_.seq;
  state_epoch_ = frame.epoch;
  clear_checkpoint_install();
  awaiting_resync_ = false;
  stats_.checkpoint_installs++;
  metrics::counter("repl.backup.checkpoint_installs").add(1);
  ack(link);
}

void RedoApplier::apply_validated(const std::uint8_t* payload, std::size_t size) {
  BatchReader reader(payload, size);
  RedoChunk chunk;
  while (reader.next(&chunk)) target_.write(chunk.db_off, chunk.data, chunk.len);
  applied_seq_ = batch_seq(payload);
}

bool RedoApplier::apply_decoded(std::uint64_t first_seq, std::uint64_t last_seq,
                                const RedoChunk* chunks, std::size_t count,
                                std::uint64_t epoch) {
  VREP_CHECK(first_seq <= last_seq);
  if (admit(first_seq, last_seq) != Admission::kApply) return false;
  // The carrier guaranteed the unit arrived whole (ring group checksum /
  // frame CRC), so the range applies atomically. Rewriting an overlapping
  // prefix we already hold leaves its bytes as they were.
  for (std::size_t i = 0; i < count; ++i) {
    VREP_CHECK(chunks[i].db_off + std::uint64_t{chunks[i].len} <= db_size_);
    target_.write(chunks[i].db_off, chunks[i].data, chunks[i].len);
  }
  note_applied(last_seq - applied_seq_, epoch);
  applied_seq_ = last_seq;
  return true;
}

void RedoApplier::on_group_frame(const Frame& frame, ReplicationLink& link) {
  if (!image_complete()) {
    maybe_request_resync(link);
    return;
  }
  // Validate the whole group — structure, every sub-batch, and the
  // contiguity of their sequences — before touching the image: a group is
  // applied in full or not at all, never partially.
  if (!group_valid(frame.payload.data(), frame.payload.size(), db_size_)) {
    note_corrupt_skipped(link);
    return;
  }
  GroupReader group(frame.payload.data(), frame.payload.size());
  const std::uint8_t* sub;
  std::size_t sub_len;
  VREP_CHECK(group.next(&sub, &sub_len));
  const std::uint64_t first = batch_seq(sub);
  const Admission admission = admit(first, first + group.count() - 1);
  if (admission == Admission::kGap) maybe_request_resync(link);
  if (admission != Admission::kApply) return;
  // Sub-batches at or below applied_seq_ are delta-replay overlap; the rest
  // apply in sequence order. Everything is pre-validated, so from here the
  // group cannot fail partway.
  std::uint64_t applied = 0;
  do {
    if (batch_seq(sub) > applied_seq_) {
      apply_validated(sub, sub_len);
      applied++;
    }
  } while (group.next(&sub, &sub_len));
  note_applied(applied, frame.epoch);
  // One ack per group frame: the primary's in-flight window drains at group
  // granularity, so per-group acks are what keep it moving.
  ack(link);
}

void RedoApplier::on_prepare_frame(const Frame& frame, ReplicationLink& link) {
  if (!image_complete()) {
    maybe_request_resync(link);
    return;
  }
  XPrepare prepare;
  if (!decode(frame.payload, db_size_, &prepare)) {
    note_corrupt_skipped(link);
    return;
  }
  const std::uint64_t seq = batch_seq(prepare.batch.data());
  const Admission admission = admit(seq, seq);
  // Still ack a replayed prepare: the coordinator blocks on coverage of it.
  if (admission == Admission::kDuplicate) ack(link);
  if (admission == Admission::kGap) maybe_request_resync(link);
  if (admission != Admission::kApply) return;
  in_doubt_[prepare.xid].assign(prepare.batch.begin(), prepare.batch.end());
  // The prepare consumes its sequence — the bytes stay out of the image
  // until the decision — so the redo stream continues past it and 2-safe
  // coverage extends to the prepare.
  applied_seq_ = seq;
  state_epoch_ = frame.epoch;
  stats_.prepares_buffered++;
  metrics::counter("repl.backup.prepares_buffered").add(1);
  // Ack every prepare immediately: the coordinator's phase-1 durability wait
  // rides on it, and prepares are rare enough that batching buys nothing.
  ack(link);
}

void RedoApplier::on_decide_frame(const Frame& frame) {
  XDecide decide;
  if (!decode(frame.payload, &decide)) {
    stats_.corrupt_skipped++;
    metrics::counter("repl.backup.corrupt_skipped").add(1);
    return;
  }
  if (!resolve_in_doubt(decide.xid, decide.commit != 0)) {
    note_duplicate();  // decision replay after resolution
  }
}

std::vector<std::uint64_t> RedoApplier::in_doubt_xids() const {
  std::vector<std::uint64_t> xids;
  xids.reserve(in_doubt_.size());
  for (const auto& [xid, batch] : in_doubt_) xids.push_back(xid);
  return xids;
}

bool RedoApplier::resolve_in_doubt(std::uint64_t xid, bool commit) {
  auto it = in_doubt_.find(xid);
  if (it == in_doubt_.end()) return false;
  if (commit) {
    // The batch was validated at prepare; applied_seq_ already advanced past
    // it when the prepare consumed its sequence, so only the writes land.
    BatchReader reader(it->second.data(), it->second.size());
    RedoChunk chunk;
    while (reader.next(&chunk)) target_.write(chunk.db_off, chunk.data, chunk.len);
    stats_.decides_committed++;
    metrics::counter("repl.backup.decides_committed").add(1);
  } else {
    stats_.decides_aborted++;
    metrics::counter("repl.backup.decides_aborted").add(1);
  }
  in_doubt_.erase(it);
  return true;
}

RedoApplier::FrameResult RedoApplier::on_frame(const Frame& frame, ReplicationLink& link) {
  if (membership_ != nullptr) {
    const std::uint64_t cur = membership_->view().epoch;
    if (frame.epoch < cur) {
      // Stale-epoch traffic — a fenced old primary still shipping. Drop it
      // and tell the sender which epoch rules now.
      stats_.stale_fenced++;
      metrics::counter("repl.backup.stale_fenced").add(1);
      const auto fence = encode(EpochFence{cur});
      link.send(FrameKind::kEpochFence, cur, fence.data(), fence.size());
      return FrameResult::kOk;
    }
    if (frame.epoch > cur) {
      // A newer primary only introduces itself through a sync start (a
      // checkpoint install begin is one: it anchors the resync it leads).
      if (frame.kind == FrameKind::kHello || frame.kind == FrameKind::kRejoinDelta ||
          frame.kind == FrameKind::kEpochFence || frame.kind == FrameKind::kCkptBegin) {
        membership_->join_epoch(frame.epoch);
      } else {
        return FrameResult::kOk;
      }
    }
  }

  switch (frame.kind) {
    case FrameKind::kHello: {
      Hello hello;
      // Check before adopting anything: a rejected hello leaves the old
      // image and its sequence as they were.
      if (!decode(frame.payload, &hello) || hello.db_size > target_.capacity()) {
        return FrameResult::kCorrupt;
      }
      clear_checkpoint_install();  // a full sync supersedes any install
      applied_seq_ = hello.committed_seq;
      db_size_ = hello.db_size;
      image_next_off_ = 0;  // image transfer restarts
      state_epoch_ = frame.epoch;
      break;
    }
    case FrameKind::kDbChunk: {
      ImageChunk chunk;
      if (!decode(frame.payload, &chunk)) {
        note_corrupt_skipped(link);
        break;
      }
      if (chunk.off < image_next_off_) {
        note_duplicate();  // replayed chunk (duplicate fault)
        break;
      }
      if (chunk.off > image_next_off_) {
        // A chunk went missing: the image has a hole only a fresh full
        // sync can fill.
        note_gap();
        maybe_request_resync(link);
        break;
      }
      if (chunk.off + chunk.bytes.size() > db_size_) return FrameResult::kCorrupt;
      target_.write(chunk.off, chunk.bytes.data(), chunk.bytes.size());
      image_next_off_ = chunk.off + chunk.bytes.size();
      if (image_complete() && awaiting_resync_) {
        awaiting_resync_ = false;
        stats_.resyncs++;
        metrics::counter("repl.backup.resyncs").add(1);
      }
      break;
    }
    case FrameKind::kRedoBatch: {
      if (!image_complete()) {
        // No image yet (or a holed one): batches are unusable until a full
        // sync lands.
        maybe_request_resync(link);
        break;
      }
      if (frame.payload.size() < kBatchHeaderBytes) {
        note_corrupt_skipped(link);
        break;
      }
      const std::uint64_t seq = batch_seq(frame.payload.data());
      const Admission admission = admit(seq, seq);
      if (admission == Admission::kGap) maybe_request_resync(link);
      if (admission != Admission::kApply) break;
      // Validate the whole batch before touching the image so a malformed
      // frame is never applied partially (the backup's image must only ever
      // hold whole transactions).
      if (!batch_valid(frame.payload.data(), frame.payload.size(), db_size_)) {
        note_corrupt_skipped(link);
        break;
      }
      apply_validated(frame.payload.data(), frame.payload.size());
      note_applied(1, frame.epoch);
      // Acknowledge periodically (flow control / monitoring); per-batch acks
      // would just pressure the primary's receive buffer.
      if (applied_seq_ % 32 == 0) ack(link);
      break;
    }
    case FrameKind::kRedoGroup:
      on_group_frame(frame, link);
      break;
    case FrameKind::kRejoinDelta: {
      RejoinDelta delta;
      if (!decode(frame.payload, &delta)) break;
      if (delta.from_seq <= applied_seq_ && image_complete()) {
        // The replay that follows is contiguous from `from_seq`; batches we
        // already hold are ignored as duplicates.
        awaiting_resync_ = false;
        stats_.resyncs++;
        metrics::counter("repl.backup.resyncs").add(1);
      } else if (ckpt_installing_) {
        // Unusable delta (should not happen). A half-buffered install died
        // with the serve that fed it.
        abort_checkpoint_install(link);
      } else {
        rerequest(link);  // re-request from where we actually are
      }
      break;
    }
    case FrameKind::kCkptBegin:
      on_ckpt_begin(frame, link);
      break;
    case FrameKind::kCkptChunk:
      on_ckpt_chunk(frame, link);
      break;
    case FrameKind::kCkptEnd:
      on_ckpt_end(frame, link);
      break;
    case FrameKind::kHeartbeat: {
      // Liveness — but the heartbeat also carries the primary's committed
      // sequence, which closes the trailing-drop window: a gap with no
      // batch behind it would otherwise go unnoticed until the next commit.
      Heartbeat heartbeat;
      if (!decode(frame.payload, &heartbeat) || !image_complete()) break;
      if (heartbeat.committed_seq <= applied_seq_) {
        // All caught up: acknowledge so the primary's acked watermark
        // converges even between the periodic batch acks (and so 2-safe
        // commit probes resolve immediately).
        ack(link);
      } else if (ckpt_installing_) {
        // The End (or the serve's whole tail) was lost: drop the buffered
        // install and re-request — heartbeats double as the install retry
        // timer exactly as they do for lost deltas.
        abort_checkpoint_install(link);
      } else {
        // Heartbeats double as the resync retry timer: if a previous
        // request (or the delta answering it) was itself lost, re-arm
        // instead of waiting forever on a reply that will never come.
        note_gap();
        rerequest(link);
      }
      break;
    }
    case FrameKind::kXPrepare:
      on_prepare_frame(frame, link);
      break;
    case FrameKind::kXDecide:
      on_decide_frame(frame);
      break;
    case FrameKind::kEpochFence:
      break;  // epoch already adopted above (if newer)
    default:
      // Unknown frame type with valid CRCs: version skew. Skip it.
      stats_.corrupt_skipped++;
      metrics::counter("repl.backup.corrupt_skipped").add(1);
      break;
  }
  return FrameResult::kOk;
}

}  // namespace vrep::repl
