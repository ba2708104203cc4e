// Opt-in event sampling under overload (robustness layer).
//
// The paper's rules run at every event, and that is the default here: the
// governor is off unless Options::overhead_budget is set above 0. When set,
// it watches the fraction of wall-clock time spent inside monitor hooks over
// a sliding window and has two states:
//
//   level 0  full fidelity: every event reaches every rule
//   level 1  sampling: deferrable rules see 1 in 2^sample_shift events
//
// Sampling never skips a rule that must run inline (Cancel actions,
// non-terminal events, class iteration, eval_mode = 'inline'); the engine
// keeps dispatching those on every event. The governor enters sampling when
// a window's overhead exceeds the budget and leaves it when overhead drops
// below budget * recover_ratio (hysteresis prevents flapping). The level and
// its transition counts are visible in sqlcm_engine_stats; see
// docs/ROBUSTNESS.md.
#ifndef SQLCM_SQLCM_LOAD_GOVERNOR_H_
#define SQLCM_SQLCM_LOAD_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "obs/metrics.h"

namespace sqlcm::cm {

class LoadGovernor {
 public:
  struct Options {
    /// Target ceiling for (hook time / wall time). 0 disables governing.
    double overhead_budget = 0;
    /// Leave sampling when overhead < budget * recover_ratio.
    double recover_ratio = 0.5;
    /// Sliding-window length for the overhead estimate.
    int64_t window_micros = 100'000;
    /// Windows with fewer hook samples than this are not judged.
    int min_hooks_per_window = 16;
    /// While sampling, deferrable rules see 1 in 2^sample_shift events.
    int sample_shift = 3;
  };

  enum Level : int {
    kLevelFull = 0,
    kLevelSampleEvents = 1,
  };

  LoadGovernor() = default;
  explicit LoadGovernor(Options options) : options_(options) {}

  /// Feeds one hook execution into the overhead estimate and rolls the
  /// window when it is full. Hot path: two relaxed atomic adds; the window
  /// roll takes a try-lock so concurrent hooks never queue behind it.
  void RecordHook(int64_t hook_micros, int64_t now_micros);

  int level() const { return static_cast<int>(level_.value()); }
  bool sample_events() const { return level() != kLevelFull; }

  /// True when the event at this position of a sampled sequence (the
  /// engine keeps one per event kind) reaches every rule. Always true at
  /// kLevelFull.
  bool AdmitEvent(uint64_t event_seq) const {
    if (!sample_events()) return true;
    return (event_seq & ((uint64_t{1} << options_.sample_shift) - 1)) == 0;
  }

  /// Pins the level (tests, benchmarks, operator override); counted like a
  /// measured transition.
  void ForceLevel(int level);
  /// Returns to measured (automatic) level selection.
  void ClearForce();
  bool forced() const { return forced_.load(std::memory_order_relaxed); }

  /// Overhead fraction measured in the last completed window.
  double last_overhead_fraction() const;
  uint64_t level_raises() const { return raises_.value(); }
  uint64_t level_drops() const { return drops_.value(); }

  /// Names the level gauge and transition counters in `registry`
  /// (robustness.governor_level / governor_raises / governor_drops).
  void RegisterMetrics(obs::MetricsRegistry* registry) const;

  const Options& options() const { return options_; }

 private:
  void TransitionTo(int new_level);

  Options options_;

  obs::Gauge level_;
  std::atomic<bool> forced_{false};
  obs::Counter raises_;
  obs::Counter drops_;

  std::atomic<int64_t> busy_micros_{0};
  std::atomic<int64_t> hook_count_{0};
  std::atomic<int64_t> window_start_micros_{0};

  mutable std::mutex roll_mutex_;
  double last_fraction_ = 0.0;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_LOAD_GOVERNOR_H_
