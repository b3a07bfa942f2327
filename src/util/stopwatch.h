#pragma once

#include <chrono>

namespace trajsearch {

/// \brief Monotonic wall-clock stopwatch used by the benchmark harnesses and
/// the engine's prune/search timing breakdown.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Accumulating timer: sums many short intervals (e.g. total prune
/// time across thousands of candidate trajectories).
class IntervalTimer {
 public:
  /// Starts an interval.
  void Start() { watch_.Reset(); running_ = true; }

  /// Stops the current interval and adds it to the total.
  void Stop() {
    if (running_) total_ += watch_.Seconds();
    running_ = false;
  }

  /// Total accumulated seconds.
  double TotalSeconds() const { return total_; }

  /// Clears the accumulated total.
  void Clear() { total_ = 0; running_ = false; }

 private:
  Stopwatch watch_;
  double total_ = 0;
  bool running_ = false;
};

}  // namespace trajsearch
