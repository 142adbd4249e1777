#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <new>

#include "sim/assert.hpp"

namespace mango::sim {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

Histogram& Histogram::operator+=(const Histogram& other) {
  if (&other == this) return *this += Histogram(other);
  for (const auto& [x, n] : other.bins_) add(x, n);
  return *this;
}

void Histogram::compact() const {
  if (sorted_ == bins_.size()) return;
  std::sort(bins_.begin(), bins_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t last = 0;
  for (std::size_t i = 1; i < bins_.size(); ++i) {
    if (bins_[i].first == bins_[last].first) {
      bins_[last].second += bins_[i].second;
    } else {
      bins_[++last] = bins_[i];
    }
  }
  bins_.resize(last + 1);
  sorted_ = bins_.size();
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  MANGO_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
  compact();
  // The sample at rank r is read off the cumulative counts.
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  double at_lo = 0.0;
  double at_hi = 0.0;
  std::uint64_t below = 0;  // samples ranked before the current entry
  for (const auto& [x, n] : bins_) {
    if (lo >= below && lo < below + n) at_lo = x;
    below += n;
    if (hi < below) {
      at_hi = x;
      break;
    }
  }
  return at_lo * (1.0 - frac) + at_hi * frac;
}

LatencyLog::~LatencyLog() {
  while (head_ != nullptr) {
    Block* next = head_->next;
    ::operator delete(head_);
    head_ = next;
  }
}

void LatencyLog::grow() {
  const std::uint32_t words = tail_ == nullptr ? kFirstWords : kBlockWords;
  Block* b = new (::operator new(sizeof(Block) + words * sizeof(std::uint32_t)))
      Block;
  if (tail_ == nullptr) {
    head_ = b;
  } else {
    tail_->next = b;
  }
  tail_ = b;
  used_ = 0;
}

double LatencyLog::quantile(double q) const {
  const LatencyLog* self = this;
  return quantile_of(&self, 1, q);
}

namespace {

constexpr unsigned kSelectBits = 12;
constexpr std::size_t kSelectRanges = std::size_t{1} << kSelectBits;

/// Calls f(ps, n) for every run of every log.
template <class F>
void for_each_run(const LatencyLog* const* logs, std::size_t n, F&& f) {
  for (std::size_t i = 0; i < n; ++i) logs[i]->for_each_run(f);
}

/// The sample at 0-based rank `r` of the logs, given that every sample
/// lies in [lo, hi]. Each pass splits [lo, hi] into at most
/// kSelectRanges sub-ranges of 2^shift values, counts the samples of
/// each and keeps the one holding rank r, until one value is left.
Time select_rank(const LatencyLog* const* logs, std::size_t n,
                 std::uint64_t r, Time lo, Time hi) {
  std::uint64_t counts[kSelectRanges];
  std::uint64_t below = 0;  // samples smaller than lo
  while (lo < hi) {
    const Time width = hi - lo;  // range holds width + 1 values
    const int bits = 64 - __builtin_clzll(width);
    const unsigned shift =
        bits > static_cast<int>(kSelectBits) ? bits - kSelectBits : 0;
    const std::size_t used = static_cast<std::size_t>(width >> shift) + 1;
    std::fill_n(counts, used, 0);
    for_each_run(logs, n, [&](Time ps, std::uint64_t k) {
      if (ps - lo <= width) counts[(ps - lo) >> shift] += k;
    });
    std::size_t i = 0;
    while (below + counts[i] <= r) below += counts[i++];
    // Sub-range i is [lo + i * 2^shift, lo + (i + 1) * 2^shift - 1],
    // clipped to hi; the clip also keeps the top from overflowing.
    lo += Time{i} << shift;
    hi = lo + std::min(hi - lo, (Time{1} << shift) - 1);
  }
  return lo;
}

}  // namespace

double quantile_of(const LatencyLog* const* logs, std::size_t n, double q) {
  std::uint64_t count = 0;
  Time min = kTimeNever;
  Time max = 0;
  for_each_run(logs, n, [&](Time ps, std::uint64_t k) {
    count += k;
    min = std::min(min, ps);
    max = std::max(max, ps);
  });
  if (count == 0) return 0.0;
  MANGO_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
  // Histogram::quantile's interpolated rank, over the same values.
  const double pos = q * static_cast<double>(count - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, count - 1);
  const double frac = pos - static_cast<double>(lo);
  const Time ps_lo = lo == 0           ? min
                     : lo == count - 1 ? max
                                       : select_rank(logs, n, lo, min, max);
  Time ps_hi = ps_lo;
  if (hi != lo && frac != 0.0) {
    // Rank hi holds ps_lo again unless rank lo is its last copy; then it
    // holds the smallest larger sample.
    std::uint64_t not_above = 0;
    Time next = kTimeNever;
    for_each_run(logs, n, [&](Time ps, std::uint64_t k) {
      if (ps <= ps_lo) {
        not_above += k;
      } else {
        next = std::min(next, ps);
      }
    });
    if (hi >= not_above) ps_hi = next;
  }
  const double at_lo = to_ns(ps_lo);
  const double at_hi = to_ns(ps_hi);
  return at_lo * (1.0 - frac) + at_hi * frac;
}

std::uint64_t StatsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  MANGO_ASSERT(cells.size() == headers_.size(), "row width != header width");
  rows_.push_back(std::move(cells));
}

namespace {
/// Display width of a UTF-8 string in code points: continuation bytes
/// (10xxxxxx) do not start a character.
std::size_t code_points(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) n += (static_cast<unsigned char>(c) & 0xC0) != 0x80;
  return n;
}
}  // namespace

std::string TablePrinter::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = code_points(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], code_points(row[c]));
    }
  }
  std::string out;
  auto add_row = [&](const std::vector<std::string>& row) {
    out += '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += ' ';
      out += row[c];
      out.append(width[c] - code_points(row[c]) + 1, ' ');
      out += '|';
    }
    out += '\n';
  };
  add_row(headers_);
  out += '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(width[c] + 2, '-');
    out += '|';
  }
  out += '\n';
  for (const auto& row : rows_) add_row(row);
  return out;
}

void TablePrinter::print() const { std::fputs(render().c_str(), stdout); }

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace mango::sim
