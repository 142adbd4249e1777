#include "noc/network/fabric_plan.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "sim/assert.hpp"

namespace mango::noc {

std::string fabric_plan_key(const TopologySpec& spec, unsigned be_vcs) {
  std::string key = spec.label();
  if (spec.kind == TopologyKind::kGraph) {
    // "graph-16" names only the node count; the wire graph is the edge
    // list, so serialize it (edges are part of the spec verbatim —
    // differently ordered lists are different specs and build twice,
    // which is merely a missed share, never a wrong one).
    key += "|graph=";
    for (const auto& [a, b] : spec.graph.edges) {
      key += std::to_string(a) + "-" + std::to_string(b) + ",";
    }
  }
  key += "|bevcs=" + std::to_string(be_vcs);
  return key;
}

unsigned FabricPlan::build_workers(std::size_t nodes, unsigned jobs,
                                  unsigned hardware_threads) {
  if (nodes < kParallelBuildNodes) return 1;
  return std::max(1u, hardware_threads / std::max(1u, jobs));
}

std::shared_ptr<const FabricPlan> FabricPlan::build(const TopologySpec& spec,
                                                    unsigned be_vcs) {
  return build(spec, be_vcs,
               build_workers(spec.node_count(), 1,
                             std::thread::hardware_concurrency()));
}

std::shared_ptr<const FabricPlan> FabricPlan::build(const TopologySpec& spec,
                                                    unsigned be_vcs,
                                                    unsigned build_threads) {
  const auto t0 = std::chrono::steady_clock::now();
  // shared_ptr<FabricPlan> first, demoted to const on return: the
  // members are written exactly once, here.
  std::shared_ptr<FabricPlan> plan(new FabricPlan());
  plan->topo_ = make_topology(spec);
  // The routing is needed only to materialize the table: the hot path
  // reads the table, never the virtual interface.
  const std::unique_ptr<RoutingAlgorithm> routing = make_routing(*plan->topo_);
  plan->be_vcs_ = be_vcs;
  plan->key_ = fabric_plan_key(spec, be_vcs);
  plan->vc_map_ = routing->vc_class_map();
  MANGO_ASSERT(be_vcs >= plan->vc_map_.required_be_vcs(),
               std::string(routing->name()) + " routing on " +
                   plan->topo_->label() + " needs " +
                   std::to_string(plan->vc_map_.required_be_vcs()) +
                   " BE VCs (dateline classes) but the router config has " +
                   std::to_string(be_vcs));
  plan->table_ =
      std::make_unique<RouteTable>(*plan->topo_, *routing, build_threads);
  // Deadlock freedom is a construction invariant, not an assumption:
  // reject any (topology, routing, VC config) whose BE channel
  // dependency graph is cyclic. The check runs against the materialized
  // tables, validating exactly the routes the hot path will execute.
  plan->check_ = check_deadlock_freedom(*plan->topo_, *plan->table_,
                                        plan->vc_map_, be_vcs, build_threads);
  MANGO_ASSERT(plan->check_.acyclic,
               std::string(routing->name()) + " routing on " +
                   plan->topo_->label() +
                   " is not deadlock-free; dependency cycle: " +
                   plan->check_.cycle);
  plan->weights_ = mango::noc::partition_weights(*plan->topo_);
  plan->build_ms_ = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return plan;
}

FabricPlanCache::Fetch FabricPlanCache::get_or_build(const TopologySpec& spec,
                                                     unsigned be_vcs,
                                                     unsigned jobs) {
  const std::string key = fabric_plan_key(spec, be_vcs);
  std::promise<std::shared_ptr<const FabricPlan>> promise;
  bool building = false;
  std::shared_future<std::shared_ptr<const FabricPlan>> future;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      plans_.emplace(key, future);
      building = true;
    }
  }
  if (!building) {
    // .get() rethrows a failed build's exception, so every scenario on
    // a broken fabric reports the same error a cold build would.
    return Fetch{future.get(), true};
  }
  // Build outside the lock: distinct fabrics materialize concurrently;
  // only same-key requests wait on this future.
  try {
    promise.set_value(FabricPlan::build(
        spec, be_vcs,
        FabricPlan::build_workers(spec.node_count(), jobs,
                                  std::thread::hardware_concurrency())));
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
  return Fetch{future.get(), false};
}

std::size_t FabricPlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

}  // namespace mango::noc
