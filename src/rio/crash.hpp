// Crash simulation.
//
// Rio's guarantee is that memory contents survive a crash; what a crash
// destroys is the execution in progress. We simulate that by throwing
// SimulatedCrash out of the transaction engine at a chosen store boundary:
// every store performed before the crash point is persistent, everything
// after it never happened. Tests arm the injector at write N for every N in
// a run, proving recovery works from *every* intermediate persistent state.
#pragma once

#include <cstdint>

#include "sim/mem_bus.hpp"

namespace vrep::rio {

struct SimulatedCrash {
  std::uint64_t at_write;
};

class CrashInjector final : public sim::WriteHook {
 public:
  // Throw on the `nth` write observed from now (0 = the very next write).
  void arm(std::uint64_t nth) {
    target_ = seen_ + nth;
    armed_ = true;
  }
  std::uint64_t writes_seen() const { return seen_; }

  void on_write() override {
    const std::uint64_t n = seen_++;
    if (armed_ && n >= target_) {
      armed_ = false;
      throw SimulatedCrash{n};
    }
  }

 private:
  std::uint64_t seen_ = 0;
  std::uint64_t target_ = 0;
  bool armed_ = false;
};

}  // namespace vrep::rio
