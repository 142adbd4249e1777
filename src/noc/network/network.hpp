// A complete MANGO network: routers on a pluggable topology, links
// wired from its port-level adjacency graph, network adapters, and the
// topology's canonical routing algorithm (rejected at construction if
// its channel-dependency graph is cyclic).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/common/ids.hpp"
#include "noc/common/packet.hpp"
#include "noc/link/link.hpp"
#include "noc/na/network_adapter.hpp"
#include "noc/network/fabric_plan.hpp"
#include "noc/network/routing.hpp"
#include "noc/network/topology.hpp"
#include "noc/router/router.hpp"
#include "sim/arena.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

/// Every member has an initializer (`router{}` and `plan{}` too), so
/// `NetworkConfig cfg{TopologySpec::mesh(w, h)};` builds without a
/// -Wmissing-field-initializers warning.
struct NetworkConfig {
  TopologySpec topology;  ///< default: 2x2 mesh
  RouterConfig router{};
  unsigned link_pipeline_stages = 1;
  LinkSignaling link_signaling = LinkSignaling::kBundledData;
  sim::Time link_skew_ps = 0;  ///< worst wire skew per link stage
  /// Worker shards the fabric is partitioned across (clamped to the
  /// node count). 1 = today's single-kernel run; N >= 2 runs one event
  /// kernel per contiguous node-index range under the conservative
  /// shard engine. Stats are byte-identical across shard counts on the
  /// golden corpus and every tested grid; DESIGN.md section 8 records a
  /// known counterexample.
  unsigned shards = 1;
  /// Both must stay true: false (the removed unelided window grid, the
  /// removed per-record handoff) is a ModelError. Kept for
  /// perfbench/mango_bench.cpp, which sets them, until a benchmark
  /// change drops them.
  bool elide_windows = true;
  bool batched_handoff = true;
  /// Shard-engine execution tuning (N >= 2 only; these move wall time,
  /// never results; see DESIGN.md section 8).
  std::uint32_t spin_us = sim::kDefaultBarrierSpinUs;  ///< 0 = condvar
  bool force_spin = false;  ///< test hook: spin even when cores < shards
  /// Prebuilt fabric plan to construct from (null: build one inline).
  /// Must match fabric_plan_key(topology, router.be_vcs) — sharing a
  /// plan is execution strategy, so a mismatched plan is a checked
  /// error, never a silently different fabric. Stats are byte-identical
  /// with and without a shared plan.
  std::shared_ptr<const FabricPlan> plan{};
};

class Network {
 public:
  Network(sim::SimContext& ctx, const NetworkConfig& cfg);

  const Topology& topology() const { return *topo_; }
  /// The fabric plan this network was constructed from (shared when the
  /// config carried one, built inline otherwise).
  const FabricPlan& plan() const { return *plan_; }
  const NetworkConfig& config() const { return cfg_; }
  /// Shard 0's context (the control shard: node index 0, the connection
  /// manager's host, always lives here). Single-shard networks have
  /// exactly one context and this is it.
  sim::SimContext& ctx() { return ctx_; }
  sim::Simulator& simulator() { return ctx_.sim(); }

  // --- sharding ---
  /// Effective shard count (config value clamped to the node count).
  unsigned shard_count() const {
    return static_cast<unsigned>(shard_ctxs_.size());
  }
  /// Context owning shard `s` (s == 0 is ctx()).
  sim::SimContext& shard_ctx(unsigned s) { return *shard_ctxs_.at(s); }
  /// Shard owning node index `idx`.
  unsigned shard_of(std::size_t idx) const { return shard_of_.at(idx); }
  /// Deterministic control-action scheduler (programming observers,
  /// churn timers). Kernel-backed at one shard, engine-backed otherwise.
  sim::ControlPlane& control() { return control_; }
  /// Conservative window width / control deferral: the minimum latency
  /// of any wire of any link. Shard-count independent by construction.
  sim::Time min_link_latency() const { return min_link_latency_; }
  /// Windows the shard engine has run (0 on single-shard networks).
  std::uint64_t windows_run() const {
    return engine_ ? engine_->windows_run() : 0;
  }
  /// Windows the engine skipped as provably quiet (0 on single-shard
  /// networks).
  std::uint64_t windows_elided() const {
    return engine_ ? engine_->windows_elided() : 0;
  }

  /// Advances the whole fabric to `t_end` with single-kernel run_until
  /// semantics (events at exactly t_end dispatch). On one shard this is
  /// ctx().run_until(); on N it drives the conservative engine. Returns
  /// events dispatched during the call.
  std::uint64_t run_until(sim::Time t_end);

  /// Events dispatched across every shard kernel plus engine-executed
  /// control actions — the sharding-invariant total run_scenario
  /// reports.
  std::uint64_t events_dispatched() const;

  Router& router(NodeId n) { return *routers_.at(topo_->index(n)); }
  const Router& router(NodeId n) const {
    return *routers_.at(topo_->index(n));
  }
  NetworkAdapter& na(NodeId n) { return *nas_.at(topo_->index(n)); }

  std::size_t node_count() const { return topo_->node_count(); }
  NodeId node_at(std::size_t idx) const { return topo_->node_at(idx); }

  /// BE route from src to dst: the walk of the plan's route table.
  /// src == dst is a ModelError: a node reaches its own local port
  /// through that port, never through the network (see RouteTable).
  BeRoute be_route(NodeId src, NodeId dst,
                   LocalIface iface = LocalIface::kNetworkAdapter) const;

  /// Fully encoded BE header for src -> dst (the per-packet hot path: a
  /// table lookup, no allocation, no virtual dispatch). Routes within
  /// the paper's 15-code budget get the packed source-route word,
  /// bit-identical to build_be_header(be_route(src, dst, iface));
  /// longer routes get the table-routed scheme (BeHeader::table set).
  /// src == dst is a ModelError, as for be_route.
  BeHeader be_header(NodeId src, NodeId dst,
                     LocalIface iface = LocalIface::kNetworkAdapter) const;

  /// All links (diagnostics).
  const std::vector<Link*>& links() const { return links_; }

  /// Bytes of fabric state resident in the per-partition arenas
  /// (diagnostics / the memory-per-node bench counter).
  std::size_t arena_bytes() const {
    std::size_t n = 0;
    for (const auto& a : arenas_) n += a->bytes_reserved();
    return n;
  }

 private:
  sim::SimContext& ctx_;
  NetworkConfig cfg_;
  /// The static side of the fabric — owned (and possibly shared with
  /// other Networks) through the plan; the raw pointers below are
  /// borrowed views into it. Declared before every component so it
  /// outlives anything that reads the table during teardown.
  std::shared_ptr<const FabricPlan> plan_;
  const Topology* topo_ = nullptr;
  const RouteTable* table_ = nullptr;
  std::vector<std::unique_ptr<sim::SimContext>> extra_ctxs_;  ///< shards 1..N-1
  std::vector<sim::SimContext*> shard_ctxs_;  ///< [0] == &ctx_
  std::vector<unsigned> shard_of_;            ///< node index -> shard
  /// One component arena per shard, filled in node-index order along the
  /// partition stripe (partition_shards is contiguous), so each worker's
  /// routers/NAs/buffers/links are dense in its own address range. The
  /// raw-pointer vectors below index into these; destruction order
  /// (vectors first, then arenas, then contexts) mirrors the previous
  /// unique_ptr layout.
  std::vector<std::unique_ptr<sim::Arena>> arenas_;
  std::vector<Router*> routers_;
  std::vector<Link*> links_;
  std::vector<NetworkAdapter*> nas_;
  sim::Time min_link_latency_ = 0;
  sim::ControlPlane control_;
  /// Owns the cross-shard outboxes the boundary links push into. Must
  /// be the last member: its destructor joins the worker threads before
  /// any shard state they touch is torn down.
  std::unique_ptr<sim::ShardEngine> engine_;
};

}  // namespace mango::noc
