#include "repl/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace vrep::repl {

namespace {
constexpr std::size_t kDbChunkBytes = 256 * 1024;

// A 2-safe commit probes with heartbeats while waiting for the covering
// acknowledgments; sustained silence on a peer degrades that peer to down.
// When the live set can no longer reach quorum, the commit degrades to
// 1-safe (the transaction is locally durable either way) and the outcome
// says so.
constexpr int kTwoSafeRecvTimeoutMs = 250;
constexpr int kTwoSafeMaxProbes = 20;
}  // namespace

RedoPipeline::RedoPipeline(Source& source, ReplicationLink* link,
                           cluster::Membership* membership, Lineage lineage,
                           std::size_t redo_history_bytes)
    : source_(source), membership_(membership), lineage_(lineage),
      history_capacity_(redo_history_bytes) {
  add_peer(link);
}

std::size_t RedoPipeline::add_peer(ReplicationLink* link) {
  const std::size_t index = peers_.size();
  PeerSlot slot;
  slot.link = link;
  slot.alive = link != nullptr && link->connected();
  const std::string prefix = "repl.primary.peer" + std::to_string(index);
  slot.shipped = &metrics::counter(prefix + ".txns_shipped");
  slot.acked = &metrics::gauge(prefix + ".acked_seq");
  peers_.push_back(slot);
  recompute_quorum_acked();  // the table grew: the K-th watermark may drop
  return index;
}

void RedoPipeline::attach_link(std::size_t peer, ReplicationLink* link) {
  PeerSlot& p = peers_[peer];
  p.link = link;
  p.alive = link != nullptr && link->connected();
}

void RedoPipeline::remove_peer(std::size_t peer) {
  PeerSlot& p = peers_[peer];
  p.link = nullptr;
  p.alive = false;
  p.acked_seq = 0;
  p.acked->set(0);
  recompute_quorum_acked();
}

bool RedoPipeline::connection_alive() const {
  for (const PeerSlot& p : peers_) {
    if (p.alive) return true;
  }
  return false;
}

std::uint64_t RedoPipeline::backup_acked_seq() const {
  std::uint64_t best = 0;
  for (const PeerSlot& p : peers_) best = std::max(best, p.acked_seq);
  return best;
}

void RedoPipeline::recompute_quorum_acked() {
  // K-th highest acknowledged sequence: everything at or below it has been
  // acknowledged by at least `quorum_` peers. This full scan runs only when
  // an ack advances or the peer table / quorum changes; every other query
  // reads the cache (repl.primary.quorum_scans counts the scans).
  static metrics::Counter& scans = metrics::counter("repl.primary.quorum_scans");
  scans.add(1);
  if (peers_.size() < quorum_) {
    quorum_acked_cache_ = 0;
    return;
  }
  std::vector<std::uint64_t> acks;
  acks.reserve(peers_.size());
  for (const PeerSlot& p : peers_) acks.push_back(p.acked_seq);
  std::sort(acks.begin(), acks.end(), std::greater<>());
  quorum_acked_cache_ = acks[quorum_ - 1];
}

void RedoPipeline::set_quorum(unsigned k) {
  VREP_CHECK(k >= 1);
  quorum_ = k;
  recompute_quorum_acked();
}

void RedoPipeline::set_group_size(unsigned g) {
  VREP_CHECK(g >= 1);
  // Shrinking the group below what is already buffered would strand the
  // excess; flush first so the new size applies cleanly from here on.
  if (pending_group_.size() >= g) ship_group();
  group_size_ = g;
}

void RedoPipeline::set_commit_window(unsigned w) {
  VREP_CHECK(w >= 1);
  window_ = w;
}

bool RedoPipeline::link_send(PeerSlot& peer, FrameKind kind, Payload payload) {
  const bool sent =
      peer.link != nullptr && peer.link->send(kind, epoch(), payload.data(), payload.size());
  if (!sent) peer.alive = false;
  return sent;
}

bool RedoPipeline::broadcast(FrameKind kind, Payload payload, std::uint64_t txns) {
  bool any = false;
  for (PeerSlot& p : peers_) {
    if (!p.alive || fenced_ || !link_send(p, kind, payload)) continue;
    p.shipped->add(txns);
    any = true;
  }
  return any;
}

void RedoPipeline::probe(PeerSlot& peer) {
  if (peer.alive && !fenced_) {
    link_send(peer, FrameKind::kHeartbeat, encode(Heartbeat{shipped_watermark()}));
  }
}

void RedoPipeline::begin() {
  batch_begin(batch_);
  if (ckpt_enabled_) staged_spans_.clear();
}

void RedoPipeline::stage(std::uint64_t off, const void* src, std::size_t len) {
  // Offsets and lengths are u32 on the wire (see repl/codec.hpp): a silent
  // cast would wrap redo for databases >= 4 GiB into the wrong pages on
  // every backup. Refuse loudly instead.
  VREP_CHECK(off + std::uint64_t{len} <= (std::uint64_t{1} << 32) &&
             "redo chunk exceeds the u32 batch wire format (4 GiB)");
  batch_append(batch_, static_cast<std::uint32_t>(off), src, len);
  if (ckpt_enabled_) staged_spans_.emplace_back(off, static_cast<std::uint32_t>(len));
}

void RedoPipeline::discard() {
  batch_.clear();
  if (ckpt_enabled_) staged_spans_.clear();
}

void RedoPipeline::fence(std::uint64_t newer_epoch) {
  fenced_ = true;
  fenced_by_epoch_ = newer_epoch;
  for (PeerSlot& p : peers_) p.alive = false;
  metrics::counter("repl.primary.fenced").add(1);
}

void RedoPipeline::on_control_frame(PeerSlot& peer, const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kConsumerAck: {
      Ack ack;
      if (decode(frame.payload, &ack) && (membership_ == nullptr || frame.epoch == epoch()) &&
          ack.applied_seq > peer.acked_seq) {
        peer.acked_seq = ack.applied_seq;
        peer.acked->set(static_cast<std::int64_t>(ack.applied_seq));
        recompute_quorum_acked();
      }
      break;
    }
    case FrameKind::kEpochFence: {
      EpochFence fence_msg;
      if (decode(frame.payload, &fence_msg) && fence_msg.epoch > epoch()) {
        // Someone took over in a newer epoch while we were out: stop
        // shipping immediately; the caller demotes us and rejoins.
        fence(fence_msg.epoch);
      }
      break;
    }
    case FrameKind::kRejoinRequest:
      serve_rejoin(peer, frame);
      break;
    default:
      break;
  }
}

void RedoPipeline::drain(PeerSlot& peer) {
  // Consume whatever the backup sent back: acks (flow control), in-band
  // rejoin requests (sequence-gap resync), and epoch fences. Leaving them
  // unread would eventually fill the carrier's buffers and, on close, make
  // a TCP kernel RST the connection under the backup's feet.
  while (peer.alive) {
    auto frame = peer.link->recv(0);
    if (!frame.has_value()) {
      if (peer.link->last_error() == LinkError::kCorrupt && peer.link->connected()) {
        continue;  // skip an aligned corrupt inbound frame
      }
      if (peer.link->last_error() == LinkError::kClosed) peer.alive = false;
      break;
    }
    on_control_frame(peer, *frame);
  }
}

void RedoPipeline::drain_live() {
  for (PeerSlot& p : peers_) {
    if (p.alive) drain(p);
  }
}

void RedoPipeline::await_coverage(std::uint64_t target, Coverage rule) {
  const auto covered = [&] {
    if (rule == Coverage::kQuorum) return quorum_acked_cache_ >= target;
    for (const PeerSlot& p : peers_) {
      if (p.alive && p.acked_seq < target) return false;
    }
    return true;
  };
  // Push the shipped frames all the way onto every carrier, then probe; a
  // behind backup's resync request is served right here in the wait loop.
  for (PeerSlot& p : peers_) {
    if (p.link != nullptr) p.link->flush();
  }
  for (PeerSlot& p : peers_) {
    probe(p);
    p.silent = 0;
  }
  while (!fenced_ && !covered()) {
    bool any_waiting = false;
    for (PeerSlot& p : peers_) {
      if (fenced_ || covered()) break;
      if (!p.alive || p.acked_seq >= target) continue;
      any_waiting = true;
      auto frame = p.link->recv(kTwoSafeRecvTimeoutMs);
      if (!frame.has_value()) {
        switch (p.link->last_error()) {
          case LinkError::kTimeout:
            // The probe (or the ack answering it) may have been lost.
            if (++p.silent > kTwoSafeMaxProbes) {
              p.alive = false;
              break;
            }
            probe(p);
            continue;
          case LinkError::kCorrupt:
            if (p.link->connected()) continue;
            p.alive = false;
            break;
          default:
            p.alive = false;
            break;
        }
        continue;
      }
      p.silent = 0;
      on_control_frame(p, *frame);
    }
    // Every laggard peer is down: no further acks can arrive.
    if (!any_waiting) break;
  }
}

void RedoPipeline::wait_covered(std::uint64_t target) {
  // Wait accounting: co-simulated carriers report their blocking time in
  // virtual nanoseconds, which keeps the metric byte-stable across runs;
  // only when every link is wall-clock do we fall back to measuring wall
  // time ourselves.
  const auto virtual_wait = [&]() -> std::optional<std::uint64_t> {
    std::optional<std::uint64_t> total;
    for (const PeerSlot& p : peers_) {
      if (p.link == nullptr) continue;
      if (const auto ns = p.link->blocked_wait_ns(); ns.has_value()) {
        total = total.value_or(0) + *ns;
      }
    }
    return total;
  };
  const std::optional<std::uint64_t> virt0 = virtual_wait();
  const auto t0 = std::chrono::steady_clock::now();
  await_coverage(target, Coverage::kQuorum);
  const std::optional<std::uint64_t> virt1 = virtual_wait();
  static metrics::Counter& wait_ns = metrics::counter("repl.primary.commit_wait_ns");
  wait_ns.add(virt1.has_value()
                  ? *virt1 - virt0.value_or(0)
                  : static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count()));
  // Coverage unreachable (peers dead/silent or we were fenced): resolve
  // every outstanding ticket now instead of leaving the window dangling.
  if (quorum_acked_cache_ < target) note_degraded();
}

void RedoPipeline::note_degraded() {
  // Every ticket up to the newest one resolves: quorum-covered ones durable,
  // the rest degraded (locally durable only). Counted per newly degraded
  // transaction so the classic one-commit-at-a-time path still counts one
  // per degraded commit.
  const std::uint64_t resolved = std::max(degraded_upto_, quorum_acked_cache_);
  if (last_ticket_seq_ <= resolved) return;
  const std::uint64_t newly = last_ticket_seq_ - resolved;
  degraded_upto_ = last_ticket_seq_;
  stats_.two_safe_degraded += newly;
  metrics::counter("repl.primary.two_safe_degraded").add(newly);
}

void RedoPipeline::enable_checkpoints(std::uint64_t interval_txns,
                                      std::size_t copy_bytes_per_commit) {
  VREP_CHECK(interval_txns >= 1 && copy_bytes_per_commit >= 1);
  VREP_CHECK(in_doubt_.empty() &&
             "fuzzy checkpoints do not compose with cross-shard prepares yet");
  ckpt_enabled_ = true;
  ckpt_interval_ = interval_txns;
  ckpt_copy_bytes_ = copy_bytes_per_commit;
  // Dirtiness is only tracked from here on: a checkpoint+delta can repair a
  // rejoiner whose sequence is at or above this floor (older states may hold
  // stale pages we never recorded as dirty).
  ckpt_anchor_ = source_.committed_seq();
  dirty_floor_ = ckpt_anchor_;
  page_seq_.assign((source_.db_size() + kCkptPageBytes - 1) / kCkptPageBytes, 0);
}

void RedoPipeline::step_checkpoint(std::uint64_t seq) {
  // Dirty-page accounting first, so a completion below snapshots a table
  // that already includes this commit's writes.
  for (const auto& [off, len] : staged_spans_) {
    const std::size_t first = off / kCkptPageBytes;
    const std::size_t last = (off + len - 1) / kCkptPageBytes;
    for (std::size_t p = first; p <= last; ++p) page_seq_[p] = seq;
  }
  if (!ckpt_building_) {
    if (seq < ckpt_anchor_ + ckpt_interval_) {
      staged_spans_.clear();
      return;
    }
    ckpt_building_ = true;
    ckpt_build_.resize(source_.db_size());
    ckpt_snap_.reset(source_.db(), source_.db_size());
  }
  // Fuzzy rule: the background copy only ever reads committed state (this
  // runs between transactions), and writes landing behind the copy cursor
  // are patched into the build immediately — so when the cursor reaches the
  // end at commit S, the build equals the database image at exactly S.
  const std::uint8_t* db = source_.db();
  for (const auto& [off, len] : staged_spans_) {
    if (off >= ckpt_snap_.offset()) continue;
    const std::size_t patch = std::min<std::size_t>(len, ckpt_snap_.offset() - off);
    std::memcpy(ckpt_build_.data() + off, db + off, patch);
  }
  ckpt_snap_.step(ckpt_build_.data(), ckpt_copy_bytes_);
  if (ckpt_snap_.done()) complete_checkpoint(seq);
  staged_spans_.clear();
}

void RedoPipeline::complete_checkpoint(std::uint64_t seq) {
  ckpt_building_ = false;
  ckpt_image_.swap(ckpt_build_);
  ckpt_ = Checkpoint{seq, epoch(), Crc32::of(ckpt_image_.data(), ckpt_image_.size()), true};
  ckpt_page_seq_ = page_seq_;
  ckpt_anchor_ = seq;
  stats_.checkpoints_completed++;
  metrics::counter("repl.primary.checkpoints").add(1);
  // Truncate redo history at the watermark: everything at or below it is now
  // reachable through checkpoint+delta, so dropping it cannot push a
  // checkpoint-covered laggard off a full-image cliff.
  std::size_t truncated = 0;
  while (!history_.empty() && history_.front().seq <= seq) {
    truncated += history_.front().batch.size();
    history_.pop_front();
  }
  history_bytes_ -= truncated;
  stats_.redo_truncated_bytes += truncated;
  metrics::counter("repl.primary.redo_truncated_bytes").add(truncated);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> RedoPipeline::checkpoint_delta_runs(
    std::uint64_t backup_seq) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  const std::size_t db_size = ckpt_image_.size();
  const std::size_t pages = ckpt_page_seq_.size();
  std::size_t p = 0;
  while (p < pages) {
    if (ckpt_page_seq_[p] <= backup_seq) {
      p++;
      continue;
    }
    std::size_t q = p;
    while (q < pages && ckpt_page_seq_[q] > backup_seq &&
           (q - p) * kCkptPageBytes < kDbChunkBytes) {
      q++;
    }
    const std::uint64_t off = p * kCkptPageBytes;
    runs.emplace_back(off, std::min(db_size, q * kCkptPageBytes) - off);
    p = q;
  }
  return runs;
}

bool RedoPipeline::serve_checkpoint_delta(PeerSlot& peer, std::uint64_t backup_seq) {
  const auto runs = checkpoint_delta_runs(backup_seq);
  const CkptBegin begin{ckpt_.seq, ckpt_image_.size(), ckpt_.crc,
                        static_cast<std::uint32_t>(runs.size())};
  if (!link_send(peer, FrameKind::kCkptBegin, encode(begin))) return false;
  std::vector<std::uint8_t> chunk;
  std::uint64_t shipped_bytes = 0;
  for (const auto& [off, len] : runs) {
    encode(ImageChunk{off, Payload(ckpt_image_.data() + off, len)}, chunk);
    if (!link_send(peer, FrameKind::kCkptChunk, chunk)) return false;
    shipped_bytes += len;
  }
  if (!link_send(peer, FrameKind::kCkptEnd, encode(CkptEnd{ckpt_.seq, ckpt_.crc}))) return false;
  metrics::counter("repl.primary.checkpoint_bytes_shipped").add(shipped_bytes);
  peer.alive = true;
  return true;
}

void RedoPipeline::ship_group() {
  if (pending_group_.empty()) return;
  const std::size_t count = pending_group_.size();
  // A single-transaction group ships as the classic kRedoBatch frame,
  // byte-identical to the ungrouped stream; 2+ coalesce into one kRedoGroup
  // frame that every backend delivers (and applies) atomically.
  Payload payload = pending_group_[0].batch;
  std::vector<std::uint8_t> group;
  if (count > 1) {
    group_begin(group, static_cast<std::uint32_t>(count));
    for (const RedoRecord& txn : pending_group_) group_append(group, txn.batch);
    payload = group;
  }
  const bool shipped =
      broadcast(count > 1 ? FrameKind::kRedoGroup : FrameKind::kRedoBatch, payload, count);
  shipped_seq_ = pending_group_.back().seq;
  if (shipped) {
    stats_.txns_shipped += count;
    static metrics::Counter& txns = metrics::counter("repl.primary.txns_shipped");
    txns.add(count);
  }
  drain_live();
  static metrics::Timer& group_size = metrics::timer("repl.primary.group_size");
  group_size.record(count);
  const std::uint64_t in_flight =
      shipped_seq_ - std::min(shipped_seq_, quorum_acked_cache_);
  static metrics::Gauge& inflight = metrics::gauge("repl.primary.inflight_window");
  inflight.update_max(static_cast<std::int64_t>(in_flight));
  pending_group_.clear();
}

std::uint64_t RedoPipeline::shipped_watermark() const {
  // What heartbeats claim: the committed prefix that has actually been
  // handed to the carriers. Transactions buffered in an unshipped group must
  // not make a caught-up backup think it has a gap — but a pipeline attached
  // to pre-existing committed state (nothing shipped, nothing pending) still
  // claims that state so a behind backup notices and resyncs.
  return source_.committed_seq() - pending_group_.size();
}

std::uint64_t RedoPipeline::window_target() const {
  // The commit may proceed while at most window_-1 shipped sequences are
  // unacked, i.e. acks must cover everything older than the newest
  // window_-1. W=1 target == shipped_seq_: the classic full block.
  return shipped_seq_ - std::min<std::uint64_t>(shipped_seq_, window_ - 1);
}

RedoPipeline::CommitOutcome RedoPipeline::outcome_of(std::uint64_t seq) const {
  switch (ticket_state(CommitTicket{seq})) {
    case TicketState::kDurable:
      // Durable via quorum coverage in 2-safe mode is the quorum guarantee;
      // a 1-safe commit only ever promises local durability (even if acks
      // happen to cover it).
      return (two_safe_ && seq <= quorum_acked_cache_) ? CommitOutcome::kQuorumDurable
                                                       : CommitOutcome::kLocalDurable;
    case TicketState::kDegraded:
    case TicketState::kLost:
      return CommitOutcome::kTwoSafeDegraded;
    case TicketState::kPending:
      break;
  }
  return CommitOutcome::kPending;
}

RedoPipeline::TicketState RedoPipeline::ticket_state(CommitTicket ticket) const {
  const std::uint64_t seq = ticket.seq;
  if (seq <= quorum_acked_cache_) return TicketState::kDurable;
  if (seq <= local_resolved_upto_) return TicketState::kDurable;  // 1-safe commit
  if (fenced_) return TicketState::kLost;  // committed past a lost lineage's fence
  if (seq <= degraded_upto_) return TicketState::kDegraded;
  return TicketState::kPending;
}

void RedoPipeline::poll_acks() {
  const std::uint64_t shipped = shipped_watermark();
  for (PeerSlot& peer : peers_) {
    if (!peer.alive) continue;
    drain(peer);
    // An applier acks in answer to a probe carrying our shipped watermark
    // (wait_covered's protocol), not per applied batch — so a lagging peer
    // must be probed here or an async caller would poll forever.
    if (peer.acked_seq < shipped) probe(peer);
  }
}

RedoPipeline::CommitTicket RedoPipeline::commit_async(std::uint64_t seq) {
  batch_stamp(batch_, seq);
  // Retain the batch even while every link is down or we are fenced: a later
  // rejoin (ours or a backup's) replays from this history.
  insert_history(seq, batch_);
  if (ckpt_enabled_) step_checkpoint(seq);
  pending_group_.push_back(RedoRecord{seq, std::move(batch_)});
  batch_.clear();
  last_ticket_seq_ = seq;
  if (pending_group_.size() >= group_size_) ship_group();
  return admit(seq);
}

RedoPipeline::CommitTicket RedoPipeline::admit(std::uint64_t seq) {
  CommitOutcome outcome = CommitOutcome::kLocalDurable;
  if (!two_safe_) {
    // 1-safe: locally durable the moment the local store committed; the
    // ticket resolves immediately.
    local_resolved_upto_ = seq;
  } else {
    // 2-safe: the bounded in-flight window is the backpressure. With W=1 we
    // take the classic path unconditionally whenever this commit shipped its
    // own sequence (flush + probe + wait until covered — byte-identical to
    // the historical blocking commit); a wider window blocks only once more
    // than W-1 shipped sequences are unacked. A cross-shard prepare rides
    // the same rule: the coordinator decides only after its acks.
    if (window_ == 1) {
      if (shipped_seq_ == seq) wait_covered(seq);
    } else if (shipped_seq_ > 0 && window_target() > quorum_acked_cache_) {
      wait_covered(window_target());
    }
    outcome = outcome_of(seq);
  }
  last_commit_outcome_ = outcome;
  return CommitTicket{seq};
}

RedoPipeline::CommitOutcome RedoPipeline::wait(CommitTicket ticket) {
  VREP_CHECK(ticket.seq <= last_ticket_seq_ && "wait() on a ticket never issued");
  // Already resolved: answer from the watermarks without touching any link.
  if (ticket_state(ticket) == TicketState::kPending) {
    // The covering group may still be buffered; ship it before waiting.
    if (!pending_group_.empty() && pending_group_.front().seq <= ticket.seq) ship_group();
    if (two_safe_ && ticket.seq > quorum_acked_cache_) wait_covered(ticket.seq);
  }
  const CommitOutcome outcome = outcome_of(ticket.seq);
  last_commit_outcome_ = outcome;
  return outcome;
}

RedoPipeline::CommitOutcome RedoPipeline::sync() {
  ship_group();
  if (!two_safe_ || shipped_seq_ == 0) return CommitOutcome::kLocalDurable;
  if (quorum_acked_cache_ < shipped_seq_) wait_covered(shipped_seq_);
  const CommitOutcome outcome = outcome_of(shipped_seq_);
  last_commit_outcome_ = outcome;
  return outcome;
}

RedoPipeline::CommitOutcome RedoPipeline::commit(std::uint64_t seq) {
  return wait(commit_async(seq));
}

bool RedoPipeline::drain_peers() {
  // Everything committed must reach the carriers before the wait: the drain
  // target is the full shipped watermark, and every live peer — not just a
  // quorum — must acknowledge it. This is the quiesce step of a planned
  // primary handoff: once it returns true, any backup promotes with nothing
  // to replay and nothing in flight to resolve through the takeover path.
  ship_group();
  if (fenced_) return false;
  await_coverage(shipped_watermark(), Coverage::kEveryLivePeer);
  // Unless fenced, every peer still live covers the watermark (silent
  // laggards were marked down); at least one must be left to promote.
  return !fenced_ && connection_alive();
}

void RedoPipeline::insert_history(std::uint64_t seq, std::vector<std::uint8_t> batch) {
  history_bytes_ += batch.size();
  // Commits append. Only a cross-shard decision can land behind later
  // sequences; it is placed by binary search so rejoin replays stay
  // ascending.
  auto it = history_.end();
  if (!history_.empty() && history_.back().seq > seq) {
    it = std::lower_bound(history_.begin(), history_.end(), seq,
                          [](const RedoRecord& e, std::uint64_t s) { return e.seq < s; });
  }
  history_.insert(it, RedoRecord{seq, std::move(batch)});
  while (history_bytes_ > history_capacity_ && !history_.empty()) {
    history_bytes_ -= history_.front().batch.size();
    history_.pop_front();
  }
}

RedoPipeline::CommitTicket RedoPipeline::prepare_cross(std::uint64_t seq, std::uint64_t xid) {
  VREP_CHECK(!ckpt_enabled_ &&
             "fuzzy checkpoints do not compose with cross-shard prepares yet");
  VREP_CHECK(in_doubt_.find(xid) == in_doubt_.end() && "xid already prepared");
  batch_stamp(batch_, seq);
  // Anything buffered in the pending group precedes this prepare on the
  // wire; ship it so the backup sees sequences in order.
  ship_group();
  broadcast(FrameKind::kXPrepare, encode(XPrepare{xid, batch_}), 1);
  shipped_seq_ = seq;
  last_ticket_seq_ = seq;
  stats_.prepares_shipped++;
  metrics::counter("repl.primary.prepares_shipped").add(1);
  in_doubt_.emplace(xid, RedoRecord{seq, std::move(batch_)});
  batch_.clear();
  drain_live();
  return admit(seq);
}

bool RedoPipeline::decide_cross(std::uint64_t xid, bool commit) {
  auto it = in_doubt_.find(xid);
  if (it == in_doubt_.end()) return false;
  broadcast(FrameKind::kXDecide, encode(XDecide{xid, commit}), 0);
  stats_.decides_shipped++;
  metrics::counter("repl.primary.decides_shipped").add(1);
  if (commit) {
    insert_history(it->second.seq, std::move(it->second.batch));
  } else {
    // The sequence was consumed by the prepare; an empty batch keeps the
    // replay history contiguous while writing nothing.
    std::vector<std::uint8_t> empty(kBatchHeaderBytes);
    batch_stamp(empty, it->second.seq);
    insert_history(it->second.seq, std::move(empty));
  }
  in_doubt_.erase(it);
  drain_live();
  return true;
}

bool RedoPipeline::sync_peer(PeerSlot& peer) {
  if (fenced_ || peer.link == nullptr) return false;
  const Hello hello{source_.db_size(), source_.committed_seq()};
  if (!link_send(peer, FrameKind::kHello, encode(hello))) return false;
  std::vector<std::uint8_t> chunk;
  for (std::size_t off = 0; off < source_.db_size(); off += kDbChunkBytes) {
    const std::size_t len = std::min(kDbChunkBytes, source_.db_size() - off);
    encode(ImageChunk{off, Payload(source_.db() + off, len)}, chunk);
    if (!link_send(peer, FrameKind::kDbChunk, chunk)) return false;
  }
  peer.alive = true;
  return true;
}

bool RedoPipeline::sync_backup() {
  bool any = false;
  for (PeerSlot& p : peers_) {
    if (p.link != nullptr && sync_peer(p)) any = true;
  }
  return any;
}

bool RedoPipeline::history_covers(std::uint64_t from_seq) const {
  const std::uint64_t committed = source_.committed_seq();
  if (from_seq == committed) return true;  // nothing to replay
  return !history_.empty() && history_.front().seq <= from_seq + 1 &&
         history_.back().seq == committed;
}

bool RedoPipeline::shared_lineage(std::uint64_t backup_seq, std::uint64_t state_epoch) const {
  // Same epoch: the requester has been following this primary, its state is
  // a prefix of ours. Pre-takeover epoch: only the prefix up to the
  // takeover floor is shared — a fenced straggler may have committed past
  // it into a lineage we never saw. Anything older is unverifiable.
  if (state_epoch == epoch()) return true;
  return lineage_.prev_epoch != 0 && state_epoch == lineage_.prev_epoch &&
         backup_seq <= lineage_.takeover_floor;
}

RedoPipeline::RejoinDecision RedoPipeline::decide_rejoin(std::uint64_t backup_seq,
                                                         std::uint64_t state_epoch) const {
  const std::uint64_t committed = source_.committed_seq();
  // A rejoiner claiming a sequence beyond anything this lineage committed
  // can never be repaired by a delta: the count `committed - backup_seq`
  // would underflow and the "replay" would be empty, leaving the backup
  // convinced it is caught up on state we never produced. Full image.
  if (backup_seq == 0 || backup_seq > committed) return RejoinDecision::kFullImage;
  if (!shared_lineage(backup_seq, state_epoch)) return RejoinDecision::kFullImage;
  if (history_covers(backup_seq)) return RejoinDecision::kDelta;
  // Behind the history window but covered by the completed checkpoint: patch
  // the pages dirtied after the requester's sequence from the checkpoint
  // image, then replay from the watermark. Requires the requester inside the
  // tracked-dirtiness range and an intact replay tail above the watermark.
  if (ckpt_.valid && backup_seq >= dirty_floor_ && backup_seq <= ckpt_.seq &&
      history_covers(ckpt_.seq)) {
    return RejoinDecision::kCheckpointDelta;
  }
  // Gap unservable from history or checkpoint (divergent lineage or evicted
  // batches): full image as last resort.
  return RejoinDecision::kFullImage;
}

std::optional<bool> RedoPipeline::serve_rejoin(PeerSlot& peer, const Frame& frame) {
  RejoinRequest request;
  if (!decode(frame.payload, &request)) return std::nullopt;
  if (membership_ != nullptr && frame.epoch > epoch()) {
    // The requester has seen a newer epoch than ours: we are the stale node
    // here. Step aside instead of serving.
    fence(frame.epoch);
    return false;
  }
  if (fenced_) return false;
  const std::uint64_t backup_seq = request.last_applied_seq;
  const int node_id = static_cast<int>(request.node_id);
  // A *new* backup joining the view is a membership change (epoch bump); a
  // reconnect of a backup already in the view is not.
  if (membership_ != nullptr && membership_->is_primary() && !membership_->has_backup(node_id)) {
    membership_->adopt_backup(node_id);
  }
  metrics::counter("repl.primary.rejoins_served").add(1);
  const RejoinDecision decision = decide_rejoin(backup_seq, request.state_epoch);
  if (decision == RejoinDecision::kFullImage) {
    // Genuine last resort: neither the history nor a checkpoint could repair
    // the gap.
    stats_.full_syncs_served++;
    metrics::counter("repl.primary.full_syncs_served").add(1);
    return sync_peer(peer);
  }
  std::uint64_t replay_from = backup_seq;
  if (decision == RejoinDecision::kCheckpointDelta) {
    if (!serve_checkpoint_delta(peer, backup_seq)) return false;
    replay_from = ckpt_.seq;
    stats_.checkpoint_deltas_served++;
    metrics::counter("repl.primary.checkpoint_deltas_served").add(1);
  } else {
    stats_.deltas_served++;
    metrics::counter("repl.primary.deltas_served").add(1);
  }
  const std::uint64_t committed = source_.committed_seq();
  VREP_CHECK(committed >= replay_from);  // decide_rejoin clamped claimed-future
  const RejoinDelta delta{replay_from, committed - replay_from};
  if (!link_send(peer, FrameKind::kRejoinDelta, encode(delta))) return false;
  for (const auto& entry : history_) {
    if (entry.seq > replay_from && !link_send(peer, FrameKind::kRedoBatch, entry.batch)) {
      return false;
    }
  }
  peer.alive = true;
  return true;
}

bool RedoPipeline::handle_rejoin(std::size_t peer, int timeout_ms) {
  PeerSlot& p = peers_[peer];
  if (p.link == nullptr || !p.link->connected()) return false;
  while (true) {
    auto frame = p.link->recv(timeout_ms);
    if (!frame.has_value()) {
      if (p.link->last_error() == LinkError::kCorrupt && p.link->connected()) {
        continue;  // aligned corrupt frame: the peer will re-request
      }
      p.alive = false;
      return false;
    }
    if (frame->kind != FrameKind::kRejoinRequest) continue;
    if (const std::optional<bool> served = serve_rejoin(p, *frame)) return *served;
  }
}

bool RedoPipeline::send_heartbeat() {
  for (PeerSlot& p : peers_) {
    probe(p);
    if (p.alive) drain(p);
  }
  return connection_alive();
}

}  // namespace vrep::repl
