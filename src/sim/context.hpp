// SimContext: the per-simulation service bundle.
//
// One simulated network needs exactly one event kernel, one stats
// registry and one set of object pools. A single context object is
// threaded through Network -> Router/NA/Link -> traffic, and any
// component can reach every service from it. Two SimContexts never
// share state, so independent simulations can run side by side in one
// process (A/B corners, differential tests, sweep workers). The context
// carries its seed (a sharded network seeds its shard contexts from it)
// but draws no random numbers: every traffic source owns a private Rng.
#pragma once

#include <cstdint>

#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace mango::sim {

class SimContext {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

  explicit SimContext(std::uint64_t seed = kDefaultSeed) : seed_(seed) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }

  /// Per-context object pools (packet/flit storage recycling). Resolve
  /// the typed pool once at wiring time: ctx.pools().vectors<Flit>().
  PoolRegistry& pools() { return pools_; }

  std::uint64_t seed() const { return seed_; }

  // --- kernel conveniences (the common calls, without .sim()) ---
  Time now() const { return sim_.now(); }
  std::uint64_t run() { return sim_.run(); }
  std::uint64_t run_until(Time t_end) { return sim_.run_until(t_end); }

 private:
  std::uint64_t seed_;
  Simulator sim_;
  StatsRegistry stats_;
  PoolRegistry pools_;
};

}  // namespace mango::sim
