#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

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

double LatencyLog::quantile(double q) const {
  Histogram h;
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
