#include "net/wire_repl.hpp"

#include <chrono>
#include <cstring>

#include "core/v3_inline_log.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

namespace {
std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

WirePrimary::WirePrimary(rio::Arena& arena, const core::StoreConfig& config,
                         Transport* transport, bool format, cluster::Membership* membership,
                         Lineage lineage, std::size_t redo_history_bytes)
    : ReplicatedStore(pass_through_bus, arena, config, format, membership, lineage,
                      redo_history_bytes) {
  add_link(std::make_unique<TransportLink>(transport));
}

std::size_t WirePrimary::add_backup(Transport* transport) {
  return add_link(std::make_unique<TransportLink>(transport));
}

void WirePrimary::attach_transport(std::size_t peer, Transport* transport) {
  auto& carrier = static_cast<TransportLink&>(link(peer));
  carrier.attach(transport);
  pipeline().attach_link(peer, &carrier);
}

// ---------------------------------------------------------------------------

void WireBackup::write(std::uint64_t off, const void* src, std::size_t len) {
  // Bytes the replica already holds are left alone: a full sync of a mostly
  // zero image then never dirties the fresh arena's zero pages.
  std::uint8_t* dst = arena_->data() + off;
  if (std::memcmp(dst, src, len) != 0) std::memcpy(dst, src, len);
}

WireBackup::ServeResult WireBackup::serve(Transport& transport, const ServeOptions& options) {
  TransportLink link(&transport);
  while (true) {
    auto frame = link.recv(options.idle_timeout_ms);
    const std::int64_t now = now_ms();
    if (!frame.has_value()) {
      switch (link.last_error()) {
        case repl::LinkError::kTimeout:
          // Silence. Without a detector the idle timeout *is* the failure
          // budget (legacy behaviour); with one, only a tripped
          // missed-interval threshold fails the primary.
          if (options.detector == nullptr || options.detector->suspects(now)) {
            return ServeResult::kPrimaryFailed;
          }
          continue;
        case repl::LinkError::kClosed:
          return ServeResult::kConnectionLost;
        case repl::LinkError::kCorrupt:
          if (!link.connected()) {
            // Header corruption: framing is lost, the transport closed the
            // stream. Recovery is reconnect + rejoin.
            return ServeResult::kConnectionLost;
          }
          // Payload corruption: the frame was consumed whole, the stream is
          // aligned. Skip it; if it was a batch, the sequence gap triggers
          // an in-band resync from the last good sequence.
          {
            std::lock_guard<std::mutex> lock(apply_mu_);
            applier_.note_corrupt_skipped(link);
          }
          continue;
        default:
          return ServeResult::kCorrupt;
      }
    }
    if (options.detector != nullptr) options.detector->heartbeat(now);
    repl::RedoApplier::FrameResult applied;
    {
      // Atomic with respect to read()/watermark(): a concurrent reader sees
      // whole batches only, never a half-applied group.
      std::lock_guard<std::mutex> lock(apply_mu_);
      applied = applier_.on_frame(*frame, link);
    }
    if (applied == repl::RedoApplier::FrameResult::kCorrupt) {
      return ServeResult::kCorrupt;
    }
  }
}

std::unique_ptr<core::TransactionStore> WireBackup::promote(sim::MemBus& bus,
                                                            rio::Arena& new_arena,
                                                            const core::StoreConfig& config) {
  VREP_CHECK(config.db_size == applier_.db_size());
  metrics::counter("repl.backup.takeovers").add(1);
  auto store = std::make_unique<core::InlineLogStore>(bus, new_arena, config, /*format=*/true);
  std::memcpy(store->db(), arena_->data(), applier_.db_size());
  // Continue the replicated sequence numbering: rejoin deltas, and any
  // workload state derived from committed_seq (e.g. the Debit-Credit
  // history ring cursor), depend on it.
  store->seed_committed_seq(applier_.applied_seq());
  return store;
}

}  // namespace vrep::net
