#pragma once

#include <cstdint>

namespace bcfl {

/// Deterministic simulated clock, in microseconds.
///
/// The blockchain and network simulators never read wall-clock time;
/// everything is stamped from a `SimClock` that only moves when the
/// simulation advances it, which keeps block hashes and message orderings
/// reproducible run to run.
class SimClock {
 public:
  SimClock() = default;
  explicit SimClock(uint64_t start_us) : now_us_(start_us) {}

  /// Current simulated time in microseconds since simulation start.
  uint64_t NowMicros() const { return now_us_; }

  /// Advances the clock by `delta_us` microseconds.
  void AdvanceMicros(uint64_t delta_us) { now_us_ += delta_us; }

  /// Moves the clock forward to `target_us` if it is in the future;
  /// never moves backwards.
  void AdvanceTo(uint64_t target_us) {
    if (target_us > now_us_) now_us_ = target_us;
  }

 private:
  uint64_t now_us_ = 0;
};

/// Wall-clock stopwatch for benchmarks and the round ledger's phase walls.
class Stopwatch {
 public:
  Stopwatch();
  /// Restarts the stopwatch.
  void Reset();
  /// Elapsed wall time in seconds since construction or last Reset().
  double ElapsedSeconds() const;
  /// Elapsed wall time in milliseconds.
  double ElapsedMillis() const;

 private:
  uint64_t start_ns_;
};

}  // namespace bcfl
