// Named counter/accumulator registry.
//
// The DSM, network, and adaptive layers all account traffic and event counts
// here; benches snapshot/diff registries to report exactly the columns of the
// paper's Table 1 (pages, MB, messages, diffs) and the §5.4 micro analysis.
//
// Counter values are atomics so the real execution backend (DESIGN.md §14)
// can bump them from concurrent process pthreads; under the simulator
// everything runs on one OS thread and the atomic ops cost one uncontended
// RMW.  Name lookup (counter/handle/accum) is mutex-guarded for
// the same reason; hot paths intern a handle once and never touch the map.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace anow::util {

/// A monotonically growing set of named int64 counters and double
/// accumulators.  Lookup by name is O(log n) under a mutex; hot paths should
/// cache the returned reference/handle.
class StatsRegistry {
 public:
  using Counter = std::atomic<std::int64_t>;

  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
  }
  double& accum(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return accums_[name];
  }

  /// Pre-interned counter handle for hot paths: one name lookup at setup,
  /// then plain pointer increments.  Handles stay valid for the registry's
  /// lifetime — including across clear(), which zeroes values in place
  /// instead of erasing the nodes.
  Counter* handle(const std::string& name) { return &counter(name); }
  double* accum_handle(const std::string& name) { return &accum(name); }

  std::int64_t counter_value(const std::string& name) const;
  double accum_value(const std::string& name) const;

  /// Zeroes every counter and accumulator in place; names (and therefore
  /// outstanding handle() pointers) survive.
  void clear();

  /// A point-in-time copy; subtract two snapshots to get deltas over a
  /// measurement window (the paper's §5.4 methodology records statistics
  /// starting at a chosen adaptation point).
  struct Snapshot {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> accums;

    Snapshot delta_since(const Snapshot& earlier) const;
    std::int64_t counter(const std::string& name) const;
    double accum(const std::string& name) const;
  };

  Snapshot snapshot() const;

  /// Raw map access for report iteration.  Not safe against concurrent
  /// name insertion — call after the run (benches/tests do).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, double>& accums() const { return accums_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, double> accums_;
};

/// Online mean/min/max/stddev accumulator for per-event costs.
class Summary {
 public:
  void add(double x);
  std::int64_t count() const { return n_; }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;

 private:
  std::int64_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace anow::util
