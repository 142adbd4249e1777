// Unit tests for the measurement primitives.
#include <gtest/gtest.h>

#include <algorithm>
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

// --- counting histogram and the picosecond log ----------------------------

constexpr double kQs[] = {0.0, 0.5, 0.95, 0.99, 1.0};

/// Reference quantile: sort every sample and interpolate between the
/// two around rank q * (n - 1).
double oracle_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Expects `h` to report exactly (bit for bit) the oracle's quantiles of
/// `xs`.
void expect_matches_oracle(const Histogram& h, std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  ASSERT_EQ(h.count(), xs.size());
  for (const double q : kQs) {
    EXPECT_EQ(h.quantile(q), oracle_quantile(xs, q)) << q;
  }
  EXPECT_EQ(h.p50(), oracle_quantile(xs, 0.50));
  EXPECT_EQ(h.p95(), oracle_quantile(xs, 0.95));
  EXPECT_EQ(h.p99(), oracle_quantile(xs, 0.99));
  EXPECT_EQ(h.max(), oracle_quantile(xs, 1.0));
}

std::vector<double> as_ns(const std::vector<Time>& ps) {
  std::vector<double> out;
  for (const Time p : ps) out.push_back(to_ns(p));
  return out;
}

TEST(Histogram, QuantilesOfKnownData) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.p50(), 50.5, 1e-9);
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.max(), 100.0, 1e-9);
  EXPECT_NEAR(h.p99(), 99.01, 0.05);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.distinct(), 0u);
  EXPECT_EQ(h.p99(), 0.0);
  expect_matches_oracle(h, {});
}

TEST(Histogram, OutOfRangeQuantileThrows) {
  Histogram h;
  h.add(1.0);
  EXPECT_THROW(h.quantile(-0.1), mango::ModelError);
  EXPECT_THROW(h.quantile(1.5), mango::ModelError);
}

TEST(Histogram, UnsortedInsertionOrderDoesNotMatter) {
  Histogram h;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) h.add(x);
  EXPECT_DOUBLE_EQ(h.p50(), 5.0);
  h.add(0.0);  // interleave adds with queries
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(Histogram, QuantilesEqualOracleOnRandomLatencies) {
  Rng rng(11);
  for (const std::size_t n : {2u, 3u, 7u, 100u, 101u, 5000u}) {
    for (const std::uint64_t spread : {1u, 5u, 300u, 100000u}) {
      std::vector<Time> ps;
      Histogram h;
      for (std::size_t i = 0; i < n; ++i) {
        // Small spreads force heavy duplication.
        ps.push_back(4000 + rng.next_below(spread));
        h.add(to_ns(ps.back()));
      }
      expect_matches_oracle(h, as_ns(ps));
      EXPECT_LE(h.distinct(), spread);
    }
  }
}

TEST(Histogram, SingleSample) {
  Histogram one;
  one.add(to_ns(4031));
  expect_matches_oracle(one, {4.031});
  EXPECT_EQ(one.max(), 4.031);
}

TEST(Histogram, WeightedAddEqualsRepeatedAdds) {
  Histogram runs;
  runs.add(7.0, 3);
  runs.add(5.0, 2);
  EXPECT_EQ(runs.distinct(), 2u);
  expect_matches_oracle(runs, {7.0, 7.0, 7.0, 5.0, 5.0});
}

TEST(Histogram, MergeEqualsConcatenation) {
  Rng rng(5);
  Histogram a;
  Histogram b;
  Histogram both;
  std::vector<double> all;
  for (int i = 0; i < 3000; ++i) {
    const double x = to_ns(2000 + rng.next_below(i % 2 == 0 ? 50 : 4000));
    (rng.next_below(3) == 0 ? a : b).add(x);
    both.add(x);
    all.push_back(x);
  }
  a += b;
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.distinct(), both.distinct());
  for (const double q : kQs) EXPECT_EQ(a.quantile(q), both.quantile(q));
  expect_matches_oracle(a, all);
}

TEST(Histogram, MemoryBoundedByDistinctValues) {
  // A million samples over 100 distinct latencies keep 100 counts.
  Rng rng(17);
  Histogram h;
  std::vector<double> all;
  all.reserve(1000000);
  for (int i = 0; i < 1000000; ++i) {
    const double x = to_ns(4000 + 31 * rng.next_below(100));
    h.add(x);
    all.push_back(x);
  }
  EXPECT_EQ(h.distinct(), 100u);
  expect_matches_oracle(h, std::move(all));
}

TEST(LatencyLog, WideLatenciesRoundTripExactly) {
  // The wide mark is 2^31 - 1 ps (~2.1 ms): values from just below it to
  // far beyond it must come back unchanged and in order.
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

  Histogram h;
  log.count_into(h);
  expect_matches_oracle(h, as_ns(in));
}

TEST(LatencyLog, QuantilesEqualOracleInDeliveryOrder) {
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
  Histogram h;
  log.count_into(h);
  expect_matches_oracle(h, as_ns(in));
  std::vector<double> sorted = as_ns(in);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(log.p50(), oracle_quantile(sorted, 0.50));
  EXPECT_EQ(log.p99(), oracle_quantile(sorted, 0.99));
}

// --- run-length encoding of the log ----------------------------------------

/// Logs `in`, then expects for_each to give it back in delivery order,
/// count() to count it, and the log's and its histogram's quantiles to
/// equal the sort oracle's.
void expect_log_round_trip(const std::vector<Time>& in) {
  LatencyLog log;
  for (const Time p : in) log.add(p);
  EXPECT_EQ(log.count(), in.size());
  std::vector<Time> out;
  log.for_each([&](Time p) { out.push_back(p); });
  EXPECT_EQ(out, in);
  Histogram h;
  log.count_into(h);
  expect_matches_oracle(h, as_ns(in));
  std::vector<double> sorted = as_ns(in);
  std::sort(sorted.begin(), sorted.end());
  for (const double q : kQs) {
    EXPECT_EQ(log.quantile(q), oracle_quantile(sorted, q)) << q;
  }
}

TEST(LatencyLogRuns, RunAsTheFirstSamples) {
  // A first sample of 0 ps equals the log's initial state; it must still
  // be logged as a sample, not as a repeat.
  expect_log_round_trip({0});
  expect_log_round_trip({0, 0, 0, 0});
  expect_log_round_trip({0, 0, 7, 7, 7, 0});
  expect_log_round_trip({4031, 4031, 4031, 4031, 4031, 4031, 12});
}

TEST(LatencyLogRuns, WideRunsAndNarrowNeighbours) {
  const Time wide = Time{1} << 40;
  expect_log_round_trip({LatencyLog::kWide, LatencyLog::kWide,
                         LatencyLog::kWide, LatencyLog::kWide - 1,
                         LatencyLog::kWide - 1});
  expect_log_round_trip({3, 3, 3, wide, wide, wide, wide, 3, 3,
                         LatencyLog::kWide, wide, wide, kTimeNever - 1,
                         kTimeNever - 1, 5});
  expect_log_round_trip({wide, wide, wide + 1, wide + 1, wide});
}

TEST(LatencyLogRuns, BrokenRunResumes) {
  expect_log_round_trip({4, 4, 4, 9, 4, 4, 4, 4});
  expect_log_round_trip({4, 4, 4, LatencyLog::kWide, 4, 4, 4});
  expect_log_round_trip({4, 9, 4, 9, 9, 4});
}

TEST(LatencyLogRuns, RandomRunsAndSingletons) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Time> in;
    while (in.size() < 3000) {
      // Mostly narrow values over a small range (so runs recur after a
      // break), some wide ones; run lengths from 1 (a singleton) to 12.
      const Time p = rng.next_below(8) == 0
                         ? LatencyLog::kWide + rng.next_below(3)
                         : 4000 + 31 * rng.next_below(6);
      for (std::uint64_t r = 1 + rng.next_below(12); r-- > 0;) {
        in.push_back(p);
      }
    }
    expect_log_round_trip(in);
  }
}

// --- exact selection over several logs -----------------------------------

/// quantile_of over `logs` at every q of kQs.
std::vector<double> select_all(const std::vector<const LatencyLog*>& logs) {
  std::vector<double> out;
  for (const double q : kQs) out.push_back(quantile_of(logs, q));
  return out;
}
std::vector<double> select_all(const std::vector<LatencyLog>& logs) {
  std::vector<const LatencyLog*> ptrs;
  for (const LatencyLog& l : logs) ptrs.push_back(&l);
  return select_all(ptrs);
}

/// Expects quantile_of over `logs` to give the sort oracle's quantiles
/// of `all`, bit for bit.
void expect_selection_matches_oracle(const std::vector<LatencyLog>& logs,
                                     const std::vector<Time>& all) {
  std::vector<double> sorted = as_ns(all);
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> got = select_all(logs);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], oracle_quantile(sorted, kQs[i])) << "q " << kQs[i];
  }
}

/// `n` random samples: runs and singletons of narrow values, values
/// around the wide mark, and values up to kTimeNever - 1.
std::vector<Time> mixed_samples(Rng& rng, std::size_t n) {
  std::vector<Time> out;
  while (out.size() < n) {
    Time p = 0;
    switch (rng.next_below(6)) {
      case 0:
        p = LatencyLog::kWide - 1 + rng.next_below(3);  // kWide +- 1
        break;
      case 1:
        p = kTimeNever - 1 - rng.next_below(4);
        break;
      case 2:
        p = (Time{1} << (32 + rng.next_below(30))) + rng.next_below(1000);
        break;
      default:
        p = 4000 + 31 * rng.next_below(50) + rng.next_below(3);
    }
    for (std::uint64_t r = 1 + rng.next_below(8); r-- > 0;) out.push_back(p);
  }
  out.resize(n);
  return out;
}

TEST(QuantileOf, RandomMultiLogInputEqualsSortOracle) {
  Rng rng(53);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<Time> all = mixed_samples(rng, 1 + rng.next_below(3000));
    std::vector<LatencyLog> logs(1 + rng.next_below(6));
    for (const Time p : all) logs[rng.next_below(logs.size())].add(p);
    expect_selection_matches_oracle(logs, all);
  }
}

TEST(QuantileOf, NarrowDistinctLatenciesEqualSortOracle) {
  // Nearly every BE latency is distinct at picosecond resolution; a
  // range wider than one pass of sub-ranges takes the narrowing passes.
  Rng rng(59);
  for (const Time spread : {Time{10}, Time{5000}, Time{1} << 20}) {
    std::vector<Time> all;
    std::vector<LatencyLog> logs(3);
    for (int i = 0; i < 20000; ++i) {
      const Time p = 20000 + rng.next_below(spread);
      all.push_back(p);
      logs[static_cast<std::size_t>(i) % logs.size()].add(p);
    }
    expect_selection_matches_oracle(logs, all);
  }
}

TEST(QuantileOf, EmptyOneAndAllEqualSamples) {
  EXPECT_EQ(quantile_of(std::vector<const LatencyLog*>{}, 0.5), 0.0);
  std::vector<LatencyLog> empty(3);
  for (const double q : select_all(empty)) EXPECT_EQ(q, 0.0);

  for (const Time p : {Time{0}, Time{4031}, Time{LatencyLog::kWide},
                       kTimeNever - 1}) {
    std::vector<LatencyLog> one(2);
    one[1].add(p);
    expect_selection_matches_oracle(one, {p});
    std::vector<LatencyLog> equal(2);
    std::vector<Time> all;
    for (int i = 0; i < 1000; ++i) {
      equal[static_cast<std::size_t>(i) % 2].add(p);
      all.push_back(p);
    }
    expect_selection_matches_oracle(equal, all);
  }
}

TEST(QuantileOf, OutOfRangeQuantileThrows) {
  LatencyLog log;
  log.add(5);
  const LatencyLog* one = &log;
  EXPECT_THROW(quantile_of(&one, 1, 1.5), mango::ModelError);
  EXPECT_THROW(log.quantile(-0.1), mango::ModelError);
}

TEST(QuantileOf, SplitAndOrderDoNotChangeAnyBit) {
  // A BE flow's samples sit in one hub at one shard and spread over four
  // at four shards, each hub in its own delivery order.
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Time> all = mixed_samples(rng, 500 + rng.next_below(2000));
    std::vector<LatencyLog> one(1);
    for (const Time p : all) one[0].add(p);
    const std::vector<double> want = select_all(one);
    for (int order = 0; order < 3; ++order) {
      for (std::size_t i = all.size(); i > 1; --i) {
        std::swap(all[i - 1], all[rng.next_below(i)]);
      }
      std::vector<LatencyLog> four(4);
      for (std::size_t i = 0; i < all.size(); ++i) {
        four[order == 0 ? i % 4 : rng.next_below(4)].add(all[i]);
      }
      EXPECT_EQ(select_all(four), want) << "trial " << trial;
      const std::vector<const LatencyLog*> backward = {&four[3], &four[2],
                                                       &four[1], &four[0]};
      EXPECT_EQ(select_all(backward), want) << "trial " << trial;
    }
    expect_selection_matches_oracle(one, all);
  }
}

TEST(Histogram, AnyOrderOfAddsAndMergesMatchesOracle) {
  // Histograms built by single adds, weighted adds and merges, with
  // queries (which compact) interleaved at random, so operands of +=
  // are sometimes compacted and sometimes not.
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t spread = trial % 2 == 0 ? 40 : 5000;
    std::vector<Histogram> hs(4);
    std::vector<std::vector<double>> xs(4);
    for (int op = 0; op < 600; ++op) {
      const std::size_t i = rng.next_below(4);
      const double x = to_ns(4000 + rng.next_below(spread));
      switch (rng.next_below(8)) {
        case 0: {
          const std::uint64_t n = 1 + rng.next_below(5);
          hs[i].add(x, n);
          xs[i].insert(xs[i].end(), n, x);
          break;
        }
        case 1: {
          const std::size_t j = rng.next_below(4);
          if (xs[i].size() + xs[j].size() > 20000) break;  // no blow-up
          hs[i] += hs[j];
          const std::vector<double> from = xs[j];  // j may equal i
          xs[i].insert(xs[i].end(), from.begin(), from.end());
          break;
        }
        case 2:
          hs[i].quantile(0.5);
          break;
        default:
          hs[i].add(x);
          hs[i].add(x);  // an immediate repeat bumps the last entry
          xs[i].insert(xs[i].end(), 2, x);
      }
    }
    for (std::size_t i = 0; i < hs.size(); ++i) {
      std::vector<double> unique = xs[i];
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      EXPECT_EQ(hs[i].distinct(), unique.size());
      expect_matches_oracle(hs[i], xs[i]);
    }
  }
}

TEST(TablePrinter, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), mango::ModelError);
}

TEST(TablePrinter, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(0.0005, 3), "0.001");
}

TEST(TablePrinter, PadsMultiByteCellsByCodePoint) {
  // "—" is one column but three UTF-8 bytes; byte padding would leave
  // its row two columns short of the others.
  TablePrinter t({"scheme", "n"});
  t.add_row({"a — b", "1"});
  t.add_row({"abcdef", "2"});
  EXPECT_EQ(t.render(),
            "| scheme | n |\n"
            "|--------|---|\n"
            "| a — b  | 1 |\n"
            "| abcdef | 2 |\n");
}

}  // namespace
}  // namespace mango::sim
