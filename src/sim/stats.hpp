// Measurement primitives used by sinks, benches and tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
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

/// Exact counting histogram: (value, count) entries in a flat vector, so
/// memory is O(distinct values) whatever the sample count, and
/// histograms merge by addition. add() bumps the last entry when the
/// value repeats and appends otherwise; once the vector has doubled
/// since the last compaction it is sorted and equal values merged.
/// It serves the broker's setup and teardown times and the benches; a
/// run's latency aggregates are selected over the logs instead
/// (quantile_of), which needs no entry per distinct latency.
/// quantile(q) compacts, then interpolates between the sorted samples
/// at rank floor(q * (count - 1)) and the next, read off the cumulative
/// counts: bit for bit what sorting every sample gives.
/// Reads compact in place (mutable state), so a Histogram must not be
/// read from two threads at once.
class Histogram {
 public:
  /// Records `n` samples of value `x`.
  void add(double x, std::uint64_t n = 1) {
    count_ += n;
    if (!bins_.empty() && bins_.back().first == x) {
      bins_.back().second += n;
      return;
    }
    if (bins_.size() >= std::max(kMinCompact, 2 * sorted_)) compact();
    bins_.emplace_back(x, n);
  }
  Histogram& operator+=(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::size_t distinct() const {
    compact();
    return bins_.size();
  }
  double quantile(double q) const;  ///< q in [0,1]; 0 if empty
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double max() const { return quantile(1.0); }

 private:
  static constexpr std::size_t kMinCompact = 16;

  /// Sorts bins_ by value and merges equal values.
  void compact() const;

  mutable std::vector<std::pair<double, std::uint64_t>> bins_;
  /// Length of the sorted, merged prefix of bins_.
  mutable std::size_t sorted_ = 0;
  std::uint64_t count_ = 0;
};

/// Delivery-order log of integer-picosecond latencies, run-length
/// encoded in 4-byte words. A word below kRun is one sample: its value
/// in ps, or the kWide mark (2^31 - 1 ps, ~2.1 ms, or more), whose exact
/// value is the next entry of a side vector, so long horizons neither
/// truncate nor throw. A word with the top bit set repeats the previous
/// sample (word - kRun) more times; a full one is followed by a new one.
/// Saturated GS streams deliver runs of equal latencies (about six a
/// run on the 8x8 ring set), which cost two words a run, while
/// all-distinct latencies cost 4 bytes a sample (plus ~2% block
/// overhead).
///
/// Words live in a singly linked chain of blocks, allocated on demand:
/// an empty log holds no heap memory, the first block holds
/// kFirstWords words (a short-lived flow costs one 72-byte block), and
/// every later block holds kBlockWords. Appends never move a word.
/// Quantiles are exact order statistics read by quantile_of(), which
/// keeps no copy of the samples.
class LatencyLog {
 public:
  static constexpr std::uint32_t kRun = 0x80000000u;
  static constexpr std::uint32_t kWide = kRun - 1;

  LatencyLog() = default;
  LatencyLog(const LatencyLog&) = delete;
  LatencyLog& operator=(const LatencyLog&) = delete;
  ~LatencyLog();

  void add(Time ps) {
    if (count_++ != 0 && ps == last_) {
      std::uint32_t& w = tail_->words()[used_ - 1];
      if (w >= kRun && w != ~std::uint32_t{0}) {  // a run word, not full
        ++w;
      } else {
        push_word(kRun + 1);
      }
      return;
    }
    last_ = ps;
    if (ps < kWide) {
      push_word(static_cast<std::uint32_t>(ps));
    } else {
      push_word(kWide);
      wide_.push_back(ps);
    }
  }

  std::uint64_t count() const { return count_; }

  /// Calls f(ps) for every sample, in delivery order.
  template <class F>
  void for_each(F&& f) const {
    for_each_run([&](Time ps, std::uint64_t n) {
      while (n-- > 0) f(ps);
    });
  }

  /// Calls f(ps, n) for every run of n equal samples, in delivery order.
  template <class F>
  void for_each_run(F&& f) const {
    auto wide = wide_.begin();
    Time ps = 0;
    std::uint64_t n = 0;
    for (const Block* b = head_; b != nullptr; b = b->next) {
      const std::uint32_t* w = b->words();
      const std::uint32_t* end = w + (b == tail_ ? used_ : capacity(b));
      for (; w != end; ++w) {
        if (*w >= kRun) {
          n += *w - kRun;
          continue;
        }
        if (n != 0) f(ps, n);
        ps = *w == kWide ? *wide++ : Time{*w};
        n = 1;
      }
    }
    if (n != 0) f(ps, n);
  }

  /// Adds every sample to `into` as to_ns(ps), one add per run.
  void count_into(Histogram& into) const {
    for_each_run([&](Time ps, std::uint64_t n) { into.add(to_ns(ps), n); });
  }

  double quantile(double q) const;  ///< in ns; 0 if empty
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double max() const { return quantile(1.0); }

 private:
  static constexpr std::uint32_t kFirstWords = 16;
  static constexpr std::uint32_t kBlockWords = 128;

  /// A chain link followed in the same allocation by its words.
  struct Block {
    Block* next = nullptr;
    std::uint32_t* words() {
      return reinterpret_cast<std::uint32_t*>(this + 1);
    }
    const std::uint32_t* words() const {
      return reinterpret_cast<const std::uint32_t*>(this + 1);
    }
  };

  std::uint32_t capacity(const Block* b) const {
    return b == head_ ? kFirstWords : kBlockWords;
  }
  void push_word(std::uint32_t w) {
    if (tail_ == nullptr || used_ == capacity(tail_)) grow();
    tail_->words()[used_++] = w;
  }
  /// Links a new empty block at the tail.
  void grow();

  Block* head_ = nullptr;
  Block* tail_ = nullptr;
  std::uint32_t used_ = 0;  ///< words filled in tail_
  std::vector<Time> wide_;  ///< exact values of the kWide marks, in order
  Time last_ = 0;           ///< the latest sample
  std::uint64_t count_ = 0;
};

/// Exact q-quantile, in ns, of every sample of `n` logs taken together;
/// 0 if they hold none. Bit for bit what Histogram::quantile gives over
/// the same samples added as to_ns(ps), whatever the logs' number and
/// order. Memory is constant: a first pass over the runs finds the
/// count, min and max, then each needed rank is narrowed down by passes
/// that count the samples into a fixed array of 4096 sub-ranges of the
/// current integer-ps range (two passes when the samples span under
/// 2^24 ps), and the next rank up is the smallest larger sample.
double quantile_of(const LatencyLog* const* logs, std::size_t n, double q);
inline double quantile_of(const std::vector<const LatencyLog*>& logs,
                          double q) {
  return quantile_of(logs.data(), logs.size(), q);
}

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

/// Simple fixed-width text table printer used by the experiments to
/// emit paper-style tables. Cells are UTF-8; columns are padded by code
/// points, so a cell holding "—" lines up with ASCII cells.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// The table as text: header, separator, rows.
  std::string render() const;
  /// Writes render() to stdout.
  void print() const;

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mango::sim
