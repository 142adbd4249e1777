#include "sim/stats.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

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

void Histogram::ensure_sorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::quantile(double q) {
  if (samples_.empty()) return 0.0;
  MANGO_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
  ensure_sorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Histogram::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

LatencyHistogram& LatencyHistogram::operator+=(const LatencyHistogram& other) {
  for (const auto& [ps, n] : other.counts_) add(ps, n);
  return *this;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  MANGO_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
  std::vector<std::pair<Time, std::uint64_t>> sorted(counts_.begin(),
                                                     counts_.end());
  std::sort(sorted.begin(), sorted.end());
  // Histogram::quantile's arithmetic, with the sorted sample at rank r
  // read off the cumulative counts.
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  Time at_lo = 0;
  Time at_hi = 0;
  std::uint64_t below = 0;  // samples ranked before the current entry
  for (const auto& [ps, n] : sorted) {
    if (lo >= below && lo < below + n) at_lo = ps;
    below += n;
    if (hi < below) {
      at_hi = ps;
      break;
    }
  }
  return to_ns(at_lo) * (1.0 - frac) + to_ns(at_hi) * frac;
}

void LatencyLog::count_into(LatencyHistogram& into) const {
  // Saturated GS streams deliver runs of equal latencies (about six
  // samples a run on the 8x8 ring set); one add per run.
  Time run = 0;
  std::uint64_t n = 0;
  for_each([&](Time ps) {
    if (n != 0 && ps == run) {
      ++n;
      return;
    }
    if (n != 0) into.add(run, n);
    run = ps;
    n = 1;
  });
  if (n != 0) into.add(run, n);
}

double LatencyLog::quantile(double q) const {
  LatencyHistogram h;
  count_into(h);
  return h.quantile(q);
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

void TablePrinter::print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    for (std::size_t i = 0; i < width[c] + 2; ++i) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace mango::sim
