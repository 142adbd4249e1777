// Measurement primitives used by sinks, benches and tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace mango::sim {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  void reset() { *this = Accumulator{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact counting histogram: one count per distinct value, so memory is
/// O(distinct values) whatever the sample count, and histograms merge by
/// addition. Latencies are integer picoseconds added as to_ns(ps), so a
/// run's aggregate is bounded by its distinct latencies, not by how many
/// flits it delivers. quantile(q) interpolates between the sorted
/// samples at rank floor(q * (count - 1)) and the next, read off the
/// cumulative counts: bit for bit what sorting every sample gives.
class Histogram {
 public:
  /// Records `n` samples of value `x`.
  void add(double x, std::uint64_t n = 1) {
    counts_[x] += n;
    count_ += n;
  }
  Histogram& operator+=(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::size_t distinct() const { return counts_.size(); }
  double quantile(double q) const;  ///< q in [0,1]; 0 if empty
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double max() const { return quantile(1.0); }

 private:
  std::unordered_map<double, std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Delivery-order log of integer-picosecond latencies at 4 bytes a
/// sample (plus ~3% block overhead). A latency of kWide ps (~4.3 ms) or
/// more is logged as the kWide mark with its exact value in a side
/// vector, so long horizons neither truncate nor throw. Quantile
/// accessors count the log into a Histogram per call.
class LatencyLog {
 public:
  static constexpr std::uint32_t kWide = 0xFFFFFFFFu;

  void add(Time ps) {
    if (ps < kWide) {
      ticks_.push_back(static_cast<std::uint32_t>(ps));
    } else {
      ticks_.push_back(kWide);
      wide_.push_back(ps);
    }
  }

  std::uint64_t count() const { return ticks_.size(); }

  /// Calls f(ps) for every sample, in delivery order.
  template <class F>
  void for_each(F&& f) const {
    auto wide = wide_.begin();
    for (const std::uint32_t t : ticks_) f(t == kWide ? *wide++ : Time{t});
  }

  /// Adds every sample to `into` as to_ns(ps) (runs of equal values as
  /// one add).
  void count_into(Histogram& into) const;

  double quantile(double q) const;  ///< in ns; 0 if empty
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double max() const { return quantile(1.0); }

 private:
  /// A deque grows in fixed blocks: no reallocation copy and no
  /// doubling slack, unlike a vector.
  std::deque<std::uint32_t> ticks_;
  std::vector<Time> wide_;  ///< exact values of the kWide marks, in order
};

/// Named counter registry bundled into SimContext: components bump
/// counters under dotted names ("traffic.be_packets_generated") without
/// threading individual stat objects through constructor argument
/// lists. Names are created on first access, so a lookup never fails;
/// iteration order is lexicographic (deterministic reports).
class StatsRegistry {
 public:
  /// Monotonic counter (created at 0 on first access).
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  std::uint64_t counter_value(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  // Note: deliberately no reset()/clear(). Components resolve stat
  // references once at wiring time and hold them for the simulation's
  // lifetime; destroying entries would dangle those references. Fresh
  // measurements come from a fresh SimContext.

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Simple fixed-width text table printer used by the bench harnesses to
/// emit paper-style tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Renders the table (header, separator, rows) to stdout.
  void print() const;

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mango::sim
