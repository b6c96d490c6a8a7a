// The inline carrier: a deterministic in-process ReplicationLink.
//
// send() hands each frame straight to a RedoApplier on the caller's thread;
// the applier answers through reply_link(), whose frames queue here for the
// next recv(). Nothing is encoded and nothing waits, so every exchange —
// prepares, decides, acks, rejoins, takeovers — is reproducible from the
// seed. The shard layer runs each backup over one; McRingLink routes its
// stale-epoch sends through one so the backup's fence reaches the primary.
//
// The reply direction is an InlineLink too: one whose sends queue into its
// forward link's inbox instead of reaching an applier.
//
// kill() snaps both directions the way a process death would: sends fail,
// recv reports kClosed.
//
// Frames that need encoded-byte faults (bit flips, truncation) use
// net::InprocTransport instead; this carrier has no bytes to corrupt.
#pragma once

#include <deque>
#include <memory>

#include "repl/link.hpp"

namespace vrep::repl {

class RedoApplier;

class InlineLink final : public ReplicationLink {
 public:
  explicit InlineLink(RedoApplier& applier);
  InlineLink(const InlineLink&) = delete;
  InlineLink& operator=(const InlineLink&) = delete;

  void kill() { down_ = true; }
  // The backup -> primary direction (acks, fences, rejoin requests).
  ReplicationLink& reply_link() { return *reply_; }

  bool send(FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override;
  // Inline delivery: a reply is either queued already or never coming, so
  // the timeout is never waited out.
  std::optional<Frame> recv(int timeout_ms) override;
  LinkError last_error() const override { return err_; }
  bool connected() const override { return !down(); }

 private:
  explicit InlineLink(InlineLink* forward);
  bool down() const { return forward_ != nullptr ? forward_->down_ : down_; }

  RedoApplier* applier_ = nullptr;     // forward direction: the receiving backup
  InlineLink* forward_ = nullptr;      // reply direction: whose inbox we feed
  std::unique_ptr<InlineLink> reply_;  // forward direction's reply endpoint
  std::deque<Frame> inbox_;
  LinkError err_ = LinkError::kNone;
  bool down_ = false;
};

}  // namespace vrep::repl
