#ifndef KGFD_UTIL_TIMER_H_
#define KGFD_UTIL_TIMER_H_

#include <chrono>

namespace kgfd {

/// Monotonic wall-clock stopwatch used for all runtime / efficiency
/// measurements reported by the benches.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kgfd

#endif  // KGFD_UTIL_TIMER_H_
