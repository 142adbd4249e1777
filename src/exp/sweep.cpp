#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "noc/network/report.hpp"

namespace mango::exp {

std::size_t SweepReport::failed() const {
  std::size_t n = 0;
  for (const ScenarioResult& r : results) {
    if (!r.ok()) ++n;
  }
  return n;
}

std::uint64_t SweepReport::total_events() const {
  std::uint64_t n = 0;
  for (const ScenarioResult& r : results) n += r.stats.events;
  return n;
}

std::uint64_t SweepReport::total_violations() const {
  std::uint64_t n = 0;
  for (const ScenarioResult& r : results) n += r.stats.guarantee_violations;
  return n;
}

double SweepReport::scenarios_per_hour() const {
  if (wall_ms <= 0.0) return 0.0;
  return static_cast<double>(results.size()) / (wall_ms / 3600000.0);
}

namespace {

void write_spec(noc::JsonWriter& w, const ScenarioSpec& s) {
  w.begin_object();
  w.kv("name", s.name);
  w.kv("topology", s.topology_spec().label());
  w.kv("width", static_cast<std::uint64_t>(s.width));
  w.kv("height", static_cast<std::uint64_t>(s.height));
  w.kv("pattern", noc::to_string(s.pattern));
  w.kv("be_interarrival_ps", s.be_interarrival_ps);
  w.kv("payload_words", s.payload_words);
  w.kv("gs_set", noc::to_string(s.gs_set));
  w.kv("gs_period_ps", s.gs_period_ps);
  w.kv("churn_interarrival_ps", s.churn_interarrival_ps);
  w.kv("churn_hold_ps", s.churn_hold_ps);
  w.kv("churn_gs_period_ps", s.churn_gs_period_ps);
  w.kv("churn_queue", s.churn_queue);
  w.kv("duration_ps", s.duration_ps);
  w.kv("seed", s.seed);
  w.end_object();
}

void write_stats(noc::JsonWriter& w, const ScenarioStats& st) {
  w.begin_object();
  for_each_stats_field(
      [&](const char* name, auto member) { w.kv(name, st.*member); });
  w.end_object();
}

}  // namespace

void SweepReport::write_json(noc::JsonWriter& w, bool include_timing) const {
  w.begin_object();
  w.kv("schema_version", noc::kReportSchemaVersion);
  w.kv("scenarios", static_cast<std::uint64_t>(results.size()));
  w.kv("failed", static_cast<std::uint64_t>(failed()));
  w.kv("guarantee_violations", total_violations());
  w.kv("total_events", total_events());
  if (include_timing) {
    w.kv("jobs", jobs);
    w.kv("repeat", repeat);
    w.kv("shards", shards);
    w.kv("wall_ms", wall_ms);
    w.kv("scenarios_per_hour", scenarios_per_hour());
    // Shard-engine window totals across the sweep (0 at shards = 1):
    // execution-side diagnostics, so they live with the wall-clock
    // fields — the stats JSON stays byte-comparable across --shards and
    // every engine tuning.
    std::uint64_t wr = 0, we = 0;
    for (const ScenarioResult& r : results) {
      wr += r.windows_run;
      we += r.windows_elided;
    }
    w.kv("windows_run", wr);
    w.kv("windows_elided", we);
    // Fabric-plan amortization: how much construction wall time the
    // sweep spent cold (building a fabric) vs warm (reusing a resident
    // plan). Execution strategy like --shards — the stats JSON is
    // byte-identical whether a plan was built or reused.
    w.kv("plan_builds", plan_builds);
    w.kv("plan_hits", plan_hits);
    double c_total = 0.0, c_cold = 0.0, c_warm = 0.0;
    for (const ScenarioResult& r : results) {
      c_total += r.construct_ms;
      (r.plan_cached ? c_warm : c_cold) += r.construct_ms;
    }
    w.kv("construct_ms", c_total);
    w.kv("construct_cold_ms", c_cold);
    w.kv("construct_warm_ms", c_warm);
  }
  w.key("results");
  w.begin_array();
  for (const ScenarioResult& r : results) {
    w.begin_object();
    w.key("spec");
    write_spec(w, r.spec);
    if (r.ok()) {
      w.key("stats");
      write_stats(w, r.stats);
    } else {
      w.kv("error", r.error);
    }
    if (include_timing) {
      w.kv("wall_ms", r.wall_ms);
      // Construction vs run split of wall_ms (previously lumped): the
      // fabric-plan amortization is visible per scenario. plan_ms is
      // the slice of construct_ms spent obtaining the plan.
      w.kv("construct_ms", r.construct_ms);
      w.kv("run_ms", r.run_ms);
      w.kv("plan_ms", r.plan_ms);
      w.kv("plan_cached", r.plan_cached);
      // Simulated events per wall second — the throughput figure
      // BENCH_topology.json tracks, reproducible from --repeat N.
      w.kv("events_per_sec", r.wall_ms > 0.0
                                 ? static_cast<double>(r.stats.events) /
                                       (r.wall_ms / 1000.0)
                                 : 0.0);
      w.kv("windows_run", r.windows_run);
      w.kv("windows_elided", r.windows_elided);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string SweepReport::stats_json() const {
  std::string out;
  noc::JsonWriter w(&out);
  write_json(w, /*include_timing=*/false);
  out.push_back('\n');
  return out;
}

std::string SweepReport::full_json() const {
  std::string out;
  noc::JsonWriter w(&out);
  write_json(w, /*include_timing=*/true);
  out.push_back('\n');
  return out;
}

unsigned effective_shards(unsigned jobs, unsigned shards,
                          unsigned hardware_threads) {
  if (jobs == 0) jobs = 1;
  if (shards == 0) shards = 1;
  if (hardware_threads == 0) hardware_threads = 1;
  if (static_cast<std::uint64_t>(jobs) * shards <= hardware_threads) {
    return shards;
  }
  return std::max(1u, hardware_threads / jobs);
}

SweepReport SweepRunner::run(const std::vector<ScenarioSpec>& specs,
                             unsigned jobs, ProgressFn on_done,
                             unsigned repeat) {
  const auto t0 = std::chrono::steady_clock::now();
  if (repeat == 0) repeat = 1;
  SweepReport report;
  report.results.resize(specs.size());
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  if (!specs.empty() && jobs > specs.size()) {
    jobs = static_cast<unsigned>(specs.size());
  }
  report.jobs = jobs;
  report.repeat = repeat;

  // Core budget: clamp each scenario's shard count so jobs x shards
  // never oversubscribes the machine. Deterministic (pure function of
  // jobs/shards/hardware) and stats-neutral, so the only observable
  // effect is wall time; warn once per runner — not once per sweep —
  // so a runner driving many sweeps doesn't spam the degradation note.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<ScenarioSpec> run_specs(specs);
  bool clamped = false;
  for (ScenarioSpec& s : run_specs) {
    const unsigned eff = effective_shards(jobs, s.shards, hw);
    if (eff != std::max(1u, s.shards)) clamped = true;
    s.shards = eff;
    report.shards = std::max(report.shards, eff);
  }
  if (clamped && !shard_clamp_warned_) {
    shard_clamp_warned_ = true;
    std::fprintf(stderr,
                 "sweep: clamping shards to %u hardware threads / %u jobs "
                 "(deterministic; stats unchanged)\n",
                 hw, jobs);
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= run_specs.size()) return;
      const ScenarioSpec& s = run_specs[i];
      // Plan acquisition: fetch from the cache, building at most once
      // per distinct fabric across the whole sweep (and across this
      // runner's earlier sweeps). Up to `jobs` workers build at once,
      // so a large build gets hardware / jobs cores, as shards do. The
      // simulation sees the same plan content an inline build gives,
      // so stats are byte-identical to run_scenario(spec) — and a
      // failed fetch reports the same ModelError message an inline
      // build would have thrown.
      RunOptions first_ro;
      RunOptions rerun_ro;
      ScenarioResult best;
      bool fetch_ok = true;
      const auto tp0 = std::chrono::steady_clock::now();
      try {
        const noc::FabricPlanCache::Fetch fetch =
            plans_.get_or_build(s.topology_spec(), s.router.be_vcs, jobs);
        first_ro.plan = rerun_ro.plan = fetch.plan;
        first_ro.plan_cached = fetch.hit;
        rerun_ro.plan_cached = true;  // resident by the rerun
        first_ro.plan_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - tp0)
                               .count();
      } catch (const std::exception& e) {
        fetch_ok = false;
        best.spec = s;
        best.error = e.what();
        best.plan_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - tp0)
                           .count();
        best.construct_ms = best.wall_ms = best.plan_ms;
      }
      if (fetch_ok) {
        best = run_scenario(s, first_ro);
        for (unsigned r = 1; r < repeat && best.ok(); ++r) {
          ScenarioResult rerun = run_scenario(s, rerun_ro);
          // Determinism is part of the contract; surface any breach, and
          // never let an aborted rerun's wall time win the best-of-N.
          if (!rerun.ok()) {
            best.error = "nondeterministic rerun: run 1 succeeded but a "
                         "rerun failed: " +
                         rerun.error;
          } else if (rerun.stats != best.stats) {
            best.error = "nondeterministic rerun: stats differ from run 1";
          } else {
            best.wall_ms = std::min(best.wall_ms, rerun.wall_ms);
            best.run_ms = std::min(best.run_ms, rerun.run_ms);
          }
        }
      }
      report.results[i] = std::move(best);
      const std::size_t finished =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (on_done) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        on_done(finished, specs.size(), report.results[i]);
      }
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  for (const ScenarioResult& r : report.results) {
    (r.plan_cached ? report.plan_hits : report.plan_builds) += 1;
  }
  return report;
}

}  // namespace mango::exp
