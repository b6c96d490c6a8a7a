// Heartbeat failure detection and a minimal membership view.
//
// The paper explicitly delegates crash detection and group view management
// to the cluster layer ("well-known solutions are available" [12]); this is
// the small working equivalent our failover example and tests use. Pure
// logic over caller-provided timestamps, so tests control time.
#pragma once

#include <cstdint>

#include "util/check.hpp"

namespace vrep::cluster {

class HeartbeatDetector {
 public:
  // `timeout_ms`: silence after which the peer is suspected. Must be
  // positive — it divides the observed silence into missed intervals.
  // `suspicion_threshold`: consecutive missed intervals before declaring
  // failure (debounces a single late heartbeat).
  explicit HeartbeatDetector(std::int64_t timeout_ms, int suspicion_threshold = 1)
      : timeout_ms_(timeout_ms), threshold_(suspicion_threshold) {
    VREP_CHECK(timeout_ms > 0);
    VREP_CHECK(suspicion_threshold > 0);
  }

  void heartbeat(std::int64_t now_ms) {
    // A timestamp behind the newest one we have seen (clock skew between
    // reporting threads, or a delayed frame carrying a stale receive time)
    // must not rewind the detector and resurrect an already-silent peer.
    if (seen_any_ && now_ms < last_heartbeat_ms_) return;
    last_heartbeat_ms_ = now_ms;
    seen_any_ = true;
  }

  bool suspects(std::int64_t now_ms) const {
    if (!seen_any_) return false;  // nothing to suspect before contact
    return missed_intervals(now_ms) >= threshold_;
  }

  int missed_intervals(std::int64_t now_ms) const {
    if (!seen_any_ || now_ms <= last_heartbeat_ms_) return 0;
    return static_cast<int>((now_ms - last_heartbeat_ms_) / timeout_ms_);
  }

  std::int64_t last_heartbeat_ms() const { return last_heartbeat_ms_; }

 private:
  std::int64_t timeout_ms_;
  int threshold_;
  std::int64_t last_heartbeat_ms_ = 0;
  bool seen_any_ = false;
};

}  // namespace vrep::cluster
