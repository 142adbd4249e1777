// Unit tests for the measurement primitives.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/assert.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace mango::sim {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
}

TEST(Accumulator, MeanMinMaxSum) {
  Accumulator a;
  for (double x : {2.0, 4.0, 6.0, 8.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  EXPECT_DOUBLE_EQ(a.sum(), 20.0);
}

TEST(Accumulator, SampleVariance) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  // Known dataset: sample variance = 32/7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-9);
  EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(Accumulator, SingleSampleHasZeroVariance) {
  Accumulator a;
  a.add(3.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Accumulator, ResetClears) {
  Accumulator a;
  a.add(1.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(Histogram, QuantilesOfKnownData) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.p50(), 50.5, 1e-9);
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.max(), 100.0, 1e-9);
  EXPECT_NEAR(h.p99(), 99.01, 0.05);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.p99(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, OutOfRangeQuantileThrows) {
  Histogram h;
  h.add(1.0);
  EXPECT_THROW(h.quantile(1.5), mango::ModelError);
}

TEST(Histogram, UnsortedInsertionOrderDoesNotMatter) {
  Histogram h;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) h.add(x);
  EXPECT_DOUBLE_EQ(h.p50(), 5.0);
  h.add(0.0);  // interleave adds with queries
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

// --- counting latency histogram and the picosecond log --------------------

constexpr double kQs[] = {0.0, 0.5, 0.95, 0.99, 1.0};

/// Expects `h` to report exactly (bit for bit) what a sample-storing
/// Histogram of the same latencies, added as to_ns(ps), reports.
void expect_same_quantiles(const LatencyHistogram& h,
                           const std::vector<Time>& ps) {
  Histogram ref;
  for (const Time p : ps) ref.add(to_ns(p));
  ASSERT_EQ(h.count(), ref.count());
  for (const double q : kQs) EXPECT_EQ(h.quantile(q), ref.quantile(q)) << q;
}

TEST(LatencyHistogram, QuantilesEqualSampleHistogramOnRandomData) {
  Rng rng(11);
  for (const std::size_t n : {2u, 3u, 7u, 100u, 101u, 5000u}) {
    for (const std::uint64_t spread : {1u, 5u, 300u, 100000u}) {
      std::vector<Time> ps;
      LatencyHistogram h;
      for (std::size_t i = 0; i < n; ++i) {
        // Small spreads force heavy duplication.
        ps.push_back(4000 + rng.next_below(spread));
        h.add(ps.back());
      }
      expect_same_quantiles(h, ps);
      EXPECT_LE(h.distinct(), spread);
    }
  }
}

TEST(LatencyHistogram, SingleSampleAndEmpty) {
  LatencyHistogram empty;
  expect_same_quantiles(empty, {});
  EXPECT_EQ(empty.p99(), 0.0);

  LatencyHistogram one;
  one.add(4031);
  expect_same_quantiles(one, {4031});
  EXPECT_EQ(one.max(), 4.031);
}

TEST(LatencyHistogram, WeightedAddEqualsRepeatedAdds) {
  LatencyHistogram runs;
  runs.add(7000, 3);
  runs.add(5000, 2);
  expect_same_quantiles(runs, {7000, 7000, 7000, 5000, 5000});
}

TEST(LatencyHistogram, MergeEqualsConcatenation) {
  Rng rng(5);
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  std::vector<Time> all;
  for (int i = 0; i < 3000; ++i) {
    const Time p = 2000 + rng.next_below(i % 2 == 0 ? 50 : 4000);
    (rng.next_below(3) == 0 ? a : b).add(p);
    both.add(p);
    all.push_back(p);
  }
  a += b;
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.distinct(), both.distinct());
  for (const double q : kQs) EXPECT_EQ(a.quantile(q), both.quantile(q));
  expect_same_quantiles(a, all);
}

TEST(LatencyHistogram, OutOfRangeQuantileThrows) {
  LatencyHistogram h;
  h.add(1);
  EXPECT_THROW(h.quantile(-0.1), mango::ModelError);
  EXPECT_THROW(h.quantile(1.5), mango::ModelError);
}

TEST(LatencyLog, WideLatenciesRoundTripExactly) {
  // 2^32 ps is ~4.3 ms: values from just below the 4-byte mark to far
  // beyond it must come back unchanged and in order.
  const std::vector<Time> in = {5,
                                LatencyLog::kWide - 1,
                                LatencyLog::kWide,
                                Time{1} << 32,
                                12,
                                (Time{1} << 40) + 7,
                                kTimeNever - 1,
                                LatencyLog::kWide};
  LatencyLog log;
  for (const Time p : in) log.add(p);
  std::vector<Time> out;
  log.for_each([&](Time p) { out.push_back(p); });
  EXPECT_EQ(out, in);
  EXPECT_EQ(log.count(), in.size());
  EXPECT_EQ(log.max(), to_ns(kTimeNever - 1));

  LatencyHistogram h;
  log.count_into(h);
  expect_same_quantiles(h, in);
}

TEST(LatencyLog, QuantilesEqualSampleHistogramInDeliveryOrder) {
  // Runs of equal latencies (counted as one add each) interleaved with
  // singletons.
  Rng rng(3);
  std::vector<Time> in;
  LatencyLog log;
  for (int i = 0; i < 2000; ++i) {
    const Time p = 4000 + 31 * rng.next_below(20);
    for (std::uint64_t r = rng.next_below(6); r-- > 0;) {
      in.push_back(p);
      log.add(p);
    }
  }
  std::vector<Time> out;
  log.for_each([&](Time p) { out.push_back(p); });
  EXPECT_EQ(out, in);
  LatencyHistogram h;
  log.count_into(h);
  expect_same_quantiles(h, in);
  Histogram ref;
  for (const Time p : in) ref.add(to_ns(p));
  EXPECT_EQ(log.p50(), ref.p50());
  EXPECT_EQ(log.p99(), ref.p99());
}

TEST(ThroughputMeter, RatesOverWindows) {
  ThroughputMeter m;
  m.record(1000);   // 1 ns
  m.record(2000);
  m.record(3000);
  m.record(4000);   // 4 ns
  EXPECT_EQ(m.count(), 4u);
  // 4 units over a 4 ns window.
  EXPECT_DOUBLE_EQ(m.per_ns(0, 4000), 1.0);
  // Observed span: 3 intervals over 3 ns.
  EXPECT_DOUBLE_EQ(m.per_ns_observed(), 1.0);
}

TEST(ThroughputMeter, DegenerateWindows) {
  ThroughputMeter m;
  EXPECT_EQ(m.per_ns(0, 0), 0.0);
  m.record(100);
  EXPECT_EQ(m.per_ns_observed(), 0.0);  // single sample: no interval
}

TEST(TablePrinter, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), mango::ModelError);
}

TEST(TablePrinter, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(0.0005, 3), "0.001");
}

}  // namespace
}  // namespace mango::sim
