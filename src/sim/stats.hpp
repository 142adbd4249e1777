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

/// Sample-storing histogram with exact quantiles, for distributions of
/// arbitrary doubles (broker setup/teardown times, bench probes): memory
/// grows with the sample count. The measurement sinks do not use it. A
/// latency is an integer-picosecond difference, so each flow keeps a
/// 4-byte LatencyLog and reports aggregate into counting
/// LatencyHistograms, bounded by the number of distinct values. On the
/// mesh8-gs benchmark (424K GS + 27K BE samples in 20 us) that took
/// peak RSS from 14.7 MB, with the samples held here as doubles and
/// copied again at collect time, to 9.4 MB.
class Histogram {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }

  std::uint64_t count() const { return samples_.size(); }
  double quantile(double q);  ///< q in [0,1]; 0 if empty
  double p50() { return quantile(0.50); }
  double p95() { return quantile(0.95); }
  double p99() { return quantile(0.99); }
  double max() { return quantile(1.0); }
  double mean() const;

  void reset() { samples_.clear(); sorted_ = false; }

 private:
  void ensure_sorted();
  std::vector<double> samples_;
  bool sorted_ = true;
};

/// Exact counting histogram of integer-picosecond latencies: one count
/// per distinct value, so memory is O(distinct values) whatever the
/// sample count, and histograms merge by addition. quantile() returns,
/// bit for bit, what Histogram::quantile returns on the same samples
/// added as to_ns(ps): the same interpolated rank over the same doubles.
class LatencyHistogram {
 public:
  /// Records `n` samples of `ps` picoseconds.
  void add(Time ps, std::uint64_t n = 1) {
    counts_[ps] += n;
    count_ += n;
  }
  LatencyHistogram& operator+=(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::size_t distinct() const { return counts_.size(); }
  /// q in [0,1], in nanoseconds; 0 if empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double max() const { return quantile(1.0); }

 private:
  std::unordered_map<Time, std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Delivery-order log of integer-picosecond latencies at 4 bytes a
/// sample (plus ~3% block overhead). A latency of kWide ps (~4.3 ms) or
/// more is logged as the kWide mark with its exact value in a side
/// vector, so long horizons neither truncate nor throw. Quantile
/// accessors count the log into a LatencyHistogram per call.
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

  /// Adds every sample to `into` (runs of equal values as one add).
  void count_into(LatencyHistogram& into) const;

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

/// Measures throughput of a flit/packet stream over a time window.
class ThroughputMeter {
 public:
  void record(Time now, std::uint64_t units = 1) {
    if (count_ == 0) first_ = now;
    last_ = now;
    count_ += units;
  }

  std::uint64_t count() const { return count_; }

  /// Units per nanosecond over [window_start, window_end].
  double per_ns(Time window_start, Time window_end) const {
    if (window_end <= window_start) return 0.0;
    return static_cast<double>(count_) /
           to_ns(window_end - window_start);
  }

  /// Units per nanosecond over the observed first..last span.
  double per_ns_observed() const {
    if (count_ < 2 || last_ <= first_) return 0.0;
    return static_cast<double>(count_ - 1) / to_ns(last_ - first_);
  }

  Time first() const { return first_; }
  Time last() const { return last_; }

  void reset() { *this = ThroughputMeter{}; }

 private:
  std::uint64_t count_ = 0;
  Time first_ = 0;
  Time last_ = 0;
};

/// Named measurement registry bundled into SimContext: components record
/// counters/distributions under dotted names ("traffic.be_packets",
/// "network.links") without threading individual stat objects through
/// constructor argument lists. Names are created on first access, so a
/// lookup never fails; iteration order is lexicographic (deterministic
/// reports).
class StatsRegistry {
 public:
  /// Monotonic counter (created at 0 on first access).
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  std::uint64_t counter_value(const std::string& name) const;

  /// Streaming accumulator (created empty on first access).
  Accumulator& accumulator(const std::string& name) { return accs_[name]; }

  /// Exact-quantile histogram (created empty on first access).
  Histogram& histogram(const std::string& name) { return hists_[name]; }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, Accumulator>& accumulators() const {
    return accs_;
  }
  const std::map<std::string, Histogram>& histograms() const { return hists_; }

  // Note: deliberately no reset()/clear(). Components resolve stat
  // references once at wiring time and hold them for the simulation's
  // lifetime; destroying entries would dangle those references. Fresh
  // measurements come from a fresh SimContext.

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Accumulator> accs_;
  std::map<std::string, Histogram> hists_;
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
