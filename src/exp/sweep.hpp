// Parallel scenario sweeps.
//
// SweepRunner fans a list of ScenarioSpecs across a std::thread pool.
// Each scenario runs inside its own SimContext (one context per worker
// at a time, zero shared mutable state between scenarios), so results
// are bit-identical for any --jobs value: workers write into a
// preallocated slot per spec and the report keeps spec order, not
// completion order. The only process-global the simulation layer has is
// Logger::instance() behind MANGO_LOG, which the sweep contract
// requires to stay at its default kOff level while a sweep is running
// (see DESIGN.md "Experiment layer").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace mango::noc {
class JsonWriter;
}

namespace mango::exp {

struct SweepReport {
  std::vector<ScenarioResult> results;  ///< spec order, not finish order
  unsigned jobs = 1;
  unsigned repeat = 1;  ///< runs per scenario (wall_ms keeps the best)
  /// Largest effective per-scenario shard count this sweep ran with
  /// (after the jobs x shards oversubscription clamp). Timing-section
  /// only: shards never change simulation stats, so stats_json() stays
  /// byte-identical across shard counts.
  unsigned shards = 1;
  double wall_ms = 0.0;
  /// Fabric-plan amortization diagnostics (timing-section only, like
  /// shards: the plan cache is execution strategy and never changes
  /// stats). plan_builds counts cold fabric constructions, plan_hits
  /// scenarios served from a resident plan.
  unsigned build_threads = 1;
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_hits = 0;

  std::size_t failed() const;
  std::uint64_t total_events() const;
  std::uint64_t total_violations() const;

  /// Scenarios per hour of wall time over this sweep (throughput figure
  /// tracked by BENCH_sweep.json).
  double scenarios_per_hour() const;

  /// Deterministic serialization: specs + simulation stats only. Equal
  /// strings for equal spec lists regardless of jobs/machine load.
  std::string stats_json() const;

  /// stats_json plus wall-clock timing and job count.
  std::string full_json() const;

  void write_json(noc::JsonWriter& w, bool include_timing) const;
};

/// Deterministic core budget between sweep workers and network shards:
/// the shard count a scenario actually runs with when `jobs` sweep
/// workers each want `shards` kernel threads on `hardware_threads`
/// cores. Pure function of its arguments (no machine state), so the
/// degradation schedule is reproducible and unit-testable:
///
///   jobs x shards <= hardware  ->  shards (no oversubscription)
///   otherwise                  ->  max(1, hardware / jobs)
///
/// Shards are execution strategy, so clamping changes wall time only —
/// reports stay byte-identical (DESIGN.md section 8 records the one
/// known counterexample). hardware_threads == 0 (unknown) is treated
/// as 1.
unsigned effective_shards(unsigned jobs, unsigned shards,
                          unsigned hardware_threads);

/// Execution-strategy knobs of one sweep invocation — like --shards,
/// these move wall time only: per-scenario stats (and stats_json) are
/// byte-identical for every value.
struct SweepOptions {
  /// Worker threads for each fabric plan materialization.
  unsigned build_threads = 1;
};

class SweepRunner {
 public:
  /// Called after each scenario finishes (serialized by a mutex).
  using ProgressFn = std::function<void(std::size_t done, std::size_t total,
                                        const ScenarioResult&)>;

  /// Runs every spec; `jobs` worker threads (0 = hardware concurrency).
  /// `repeat` >= 1 runs each scenario that many times, keeping the
  /// simulation stats of the first run (they are deterministic per spec
  /// — a mismatch on a rerun is reported as a scenario error) and the
  /// best wall time, so events-per-second figures are reproducible from
  /// one command instead of hand-timed best-of-N.
  SweepReport run(const std::vector<ScenarioSpec>& specs, unsigned jobs,
                  ProgressFn on_done = {}, unsigned repeat = 1,
                  SweepOptions opts = {});

  /// Whether this runner has already warned about the shard clamp. The
  /// flag is per-runner — a runner driving many sweeps (test binaries,
  /// the CLI's repeat paths) warns once, not once per sweep.
  bool shard_clamp_warned() const { return shard_clamp_warned_; }

  /// Distinct fabrics resident in the plan cache (diagnostics).
  std::size_t plans_resident() const { return plans_.size(); }

 private:
  bool shard_clamp_warned_ = false;
  /// Plan cache, per-runner so it stays warm across run() calls: a
  /// runner driving repeated sweeps over the same fabrics (benches, the
  /// CLI repeat paths) rebuilds nothing on the second pass.
  noc::FabricPlanCache plans_;
};

}  // namespace mango::exp
