// Immutable, shareable fabric construction plans.
//
// A FabricPlan is everything about a network that is a pure function of
// (topology spec, BE VC count): the Topology object, the RouteTable the
// canonical routing materializes (dense next-hop nibbles plus encoded
// BE headers), the channel-dependency-graph deadlock
// certificate, the cached dateline VC-class map, and the load-weighted
// partition weights the shard engine cuts stripes from. None of it
// depends on traffic, seeds, churn, shard count or any other run-time
// knob — which is exactly what makes a plan shareable: scenarios that
// differ only in those knobs can construct their Networks from one
// `shared_ptr<const FabricPlan>` and produce byte-identical stats to a
// cold per-scenario build (sharing is execution strategy, like
// `--shards`; see DESIGN.md section 10, "construction path").
//
// Large plans are built in parallel: the O(n^2) route-table columns and
// the CDG edge enumeration fan out across worker threads with a
// deterministic merge, so any thread count yields a bit-identical plan
// (tests/test_fabric_plan.cpp). The worker count follows from the node
// count (kParallelBuildNodes); it is not a knob.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "noc/network/routing.hpp"
#include "noc/network/topology.hpp"

namespace mango::noc {

/// Canonical cache key of the fabric a (spec, be_vcs) pair builds: the
/// topology label (which already encodes kind, extents and
/// concentration), the explicit edge list for irregular graphs (the
/// label alone does not pin it down), and the BE VC count (it gates the
/// dateline classes and hence the CDG). Routing and partition weights
/// need no key component — both are pure functions of the topology.
std::string fabric_plan_key(const TopologySpec& spec, unsigned be_vcs);

class FabricPlan {
 public:
  /// Fabrics of at least this many nodes build on every hardware thread,
  /// smaller ones on one: the measured crossover. Cold mesh construction
  /// on a 4-vCPU host, four threads against one: a tie at 12x12 and
  /// 16x16 (144 and 256 nodes), faster in every paired run from 20x20
  /// (400 nodes, ~14%) up, ~1.5x at 32x32 and ~2.4x at 64x64 (DESIGN.md
  /// section 10, "Parallel build determinism").
  static constexpr std::size_t kParallelBuildNodes = 400;

  /// Workers one build of a `nodes`-node fabric takes when `jobs` builds
  /// may run at once on `hardware_threads` cores: 1 below
  /// kParallelBuildNodes, else max(1, hardware_threads / jobs), the
  /// budget exp::effective_shards gives each sweep job's shards. A
  /// `jobs` or `hardware_threads` of 0 counts as 1.
  static unsigned build_workers(std::size_t nodes, unsigned jobs,
                                unsigned hardware_threads);

  /// Builds the full static side of a fabric: topology -> canonical
  /// routing -> BE VC sufficiency check -> materialized route table ->
  /// CDG deadlock validation -> partition weights. Raises the same
  /// ModelErrors (byte-identical messages) Network construction
  /// historically raised for an under-provisioned VC config or a cyclic
  /// routing. The worker count is build_workers(nodes, 1, hardware).
  static std::shared_ptr<const FabricPlan> build(const TopologySpec& spec,
                                                 unsigned be_vcs);
  /// The same build on exactly `build_threads` workers; every value
  /// produces an identical plan.
  static std::shared_ptr<const FabricPlan> build(const TopologySpec& spec,
                                                 unsigned be_vcs,
                                                 unsigned build_threads);

  const Topology& topology() const { return *topo_; }
  const RouteTable& table() const { return *table_; }
  /// The CDG acyclicity certificate the build validated (always
  /// acyclic — a cyclic graph fails the build).
  const DeadlockCheck& deadlock_certificate() const { return check_; }
  /// Cached routing.vc_class_map() (the dateline rule).
  const BeVcClassMap& vc_class_map() const { return vc_map_; }
  /// Cached partition_weights(topology()) for the shard engine.
  const std::vector<std::uint64_t>& partition_weights() const {
    return weights_;
  }
  const std::string& key() const { return key_; }
  unsigned be_vcs() const { return be_vcs_; }
  /// Wall-clock milliseconds the build took (diagnostics/timing block).
  double build_ms() const { return build_ms_; }

  FabricPlan(const FabricPlan&) = delete;
  FabricPlan& operator=(const FabricPlan&) = delete;

 private:
  FabricPlan() = default;

  std::unique_ptr<Topology> topo_;
  std::unique_ptr<RouteTable> table_;
  DeadlockCheck check_;
  BeVcClassMap vc_map_;
  std::vector<std::uint64_t> weights_;
  std::string key_;
  unsigned be_vcs_ = 0;
  double build_ms_ = 0.0;
};

/// Key -> plan cache shared by a sweep: each distinct fabric is built
/// exactly once even when many workers miss on the same key
/// concurrently (latecomers block on the winner's future instead of
/// re-building, and distinct keys build in parallel). A failed build
/// parks its exception in the slot, so every scenario on that fabric
/// reports the identical error a cold build would.
class FabricPlanCache {
 public:
  struct Fetch {
    std::shared_ptr<const FabricPlan> plan;
    bool hit = false;  ///< true when the plan was already resident
  };

  /// Returns the cached plan for fabric_plan_key(spec, be_vcs),
  /// building it on first use. `jobs` callers may build at once, so a
  /// build takes FabricPlan::build_workers(nodes, jobs, hardware)
  /// workers.
  Fetch get_or_build(const TopologySpec& spec, unsigned be_vcs,
                     unsigned jobs = 1);

  /// Distinct fabrics resident (diagnostics).
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_future<std::shared_ptr<const FabricPlan>>>
      plans_;
};

}  // namespace mango::noc
