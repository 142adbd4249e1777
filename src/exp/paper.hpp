// The paper's experiments (E1-E13, E15) as one library.
//
// Each experiment is a function that runs its simulations, or reads the
// analytic models, and returns the rows of its table as plain numbers.
// The MANGO fabric experiments E2, E4, E5, E6, E7, E8's load sweep, E10
// and E15 are ScenarioSpecs run by exp::run_scenario (E5 and E15 set the
// spec's link fields); a rate over a window is the difference of two
// runs of one spec, to each edge of the window. E8's probes, E12 and E13
// need a stimulus or an observation a spec does not carry, so they build
// noc::Network directly. tests/test_claims.cpp asserts the paper's
// claims on them and tools/mango_claims.cpp prints them through the
// registry below. E14 is the kernel microbenchmark
// (bench/bench_sim_kernel.cpp) and has no table here.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"
#include "model/area.hpp"
#include "noc/common/config.hpp"
#include "sim/time.hpp"

namespace mango::exp::paper {

/// Flits one flow (or a sum of flows) delivered in a measurement window.
struct Delivered {
  std::uint64_t flits = 0;
  sim::Time window_ps = 0;

  double per_ns() const {
    return static_cast<double>(flits) / sim::to_ns(window_ps);
  }
  double mhz() const { return per_ns() * 1000.0; }
};

/// The one rate check: a window counts whole flits only, so a flow
/// served at `flits_per_ns` delivers at least flits_per_ns * window - 1.
bool meets_rate(const Delivered& d, double flits_per_ns);

/// E1, Table 1: area per router module, paper vs model.
struct AreaRow {
  const char* module;
  double paper_mm2;
  double model_mm2;
};
std::vector<AreaRow> table1_area();

/// E2: one link saturated by 8 VCs, at each timing corner.
struct PortSpeedRow {
  noc::TimingCorner corner;
  double paper_mhz;
  Delivered link;
};
std::vector<PortSpeedRow> port_speed();

/// E3, Fig 3: latency of a CBR probe through the generic
/// output-buffered router against bursty background flows.
struct BlockingRow {
  double background_load;
  double p50_ns, p99_ns, max_ns;
};
std::vector<BlockingRow> fig3_blocking();

/// E4: 1..8 saturating VCs on one link; aggregate in flits/ns.
struct FairShareRow {
  unsigned active_vcs;
  Delivered min_vc, max_vc;
  double aggregate;
};
std::vector<FairShareRow> fair_share();

/// E5: one saturating VC over links of 1..6 pipeline stages.
struct SingleVcRow {
  unsigned link_stages;
  Delivered vc;
};
std::vector<SingleVcRow> single_vc();

/// E6: a GS probe (0,0)->(3,3), 6 hops on a 4x4 mesh, paced at one flit
/// per 16 ns, under uniform BE traffic from `be_seed` (interarrival 0 =
/// no BE). Latencies in ns.
struct IndependenceRow {
  sim::Time be_interarrival_ps;
  std::uint64_t be_packets;
  ConnectionStats gs;  ///< the probe
  double be_p50, be_p99;
};
std::vector<IndependenceRow> gs_be_independence(std::uint64_t be_seed = 77);

/// E7: a 1..6-hop probe, its first path link contended by 3 saturating
/// VCs and every later one by 6:
/// saturated for throughput, paced just under 1/8 for latency (ns).
struct MultihopRow {
  unsigned hops;
  Delivered saturated;
  double paced_p50, paced_p99;
  std::uint64_t seq_errors;  ///< saturated and paced runs together
};
std::vector<MultihopRow> multihop();

/// E8: the BE router under a uniform load sweep, over path lengths, and
/// with one or two BE VCs against head-of-line blocking.
struct BeLoadRow {
  sim::Time interarrival_ps;
  double offered_per_us, delivered_per_us;
  double p50_ns, p99_ns;
};
struct BeRouterResult {
  std::vector<BeLoadRow> load;
  std::vector<std::pair<unsigned, double>> hops_p50_ns;
  std::vector<std::pair<unsigned, double>> be_vcs_probe_p99_ns;
};
BeRouterResult be_router();

/// E9: MANGO against an AETHEREAL-style TDM router.
struct TdmCompare {
  double mango_area_mm2, tdm_area_mm2;
  double mango_port_mhz;
  double mango_wait_ns, tdm_wait_ns;  ///< worst service wait, lone flow
};
TdmCompare tdm_compare();

/// E10: three link-arbitration schemes with 8 saturating VCs, and the
/// ALG latency bound of a paced probe per priority level.
struct ArbiterRow {
  const char* scheme;
  const char* guarantee;
  std::vector<double> per_vc_rate;  ///< flits/ns
  double aggregate;
};
struct AlgRow {
  unsigned priority;
  sim::Time wait_bound_ps;  ///< 0 = unbounded
  double latency_bound_ns;
  double measured_max_ns;   ///< < 0: the probe delivered nothing
};
struct ArbiterAblation {
  std::vector<ArbiterRow> schemes;
  std::vector<AlgRow> alg;
};
ArbiterAblation arbiter_ablation();

/// E11: router area over VCs per port and over network ports.
struct AreaPoint {
  unsigned param;
  model::AreaBreakdown area;
};
struct AreaScaling {
  std::vector<AreaPoint> by_vcs, by_ports;
};
AreaScaling area_scaling();

/// E12: dynamic power of a 2x2 mesh over offered GS load.
struct PowerRow {
  const char* load;
  sim::Time gs_period_ps;  ///< 0 = idle
  double dynamic_mw;
};
std::vector<PowerRow> idle_power();

/// E13: connection setup through BE programming packets.
struct SetupRow {
  unsigned hops;
  unsigned routers_programmed;
  sim::Time idle_ps, loaded_ps;
};
std::vector<SetupRow> programming_setup();

/// E15: bundled-data against 1-of-4 links over wire skew.
struct SignalingOutcome {
  bool feasible = false;  ///< false: bundled-data timing closure failed
  double single_vc_mhz = 0.0;
  double p50_ns = 0.0;
};
struct SignalingRow {
  sim::Time skew_ps;
  SignalingOutcome bundled, one_of_four;
};
std::vector<SignalingRow> di_signaling();

/// One printable experiment: its id ("E4"), title, and the printer that
/// renders its tables and prose to stdout.
struct Experiment {
  const char* id;
  const char* title;
  void (*print)();
};
/// Every experiment, in E order.
const std::vector<Experiment>& experiments();
/// nullptr when no experiment has this id.
const Experiment* find_experiment(const std::string& id);

}  // namespace mango::exp::paper
