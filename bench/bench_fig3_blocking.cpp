// E3 — Fig 3 vs Fig 4: the generic output-buffered router congests at
// the switch; MANGO's switching module is non-blocking.
//
// Scenario: a well-behaved probe flow shares one router stage with three
// bursty background flows, all targeting the same output port. In the
// generic router all four share the switch-output access point, so the
// probe's switch latency inflates and jitters with the background. In
// MANGO each flow lands in its own VC buffer through the non-blocking
// fabric: the media traversal is a constant.
#include <cstdio>

#include "baseline/output_buffered_router.hpp"
#include "noc/common/config.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;
using sim::operator""_us;
using sim::TablePrinter;

namespace {

struct Result {
  double p50;
  double p99;
  double max;
};

/// Generic router (Fig 3): probe + background through one output queue.
Result run_generic(double background_load) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  const StageDelays d = stage_delays(TimingCorner::kWorstCase);
  baseline::OutputBufferedRouter router(ctx, 5, d);
  sim::ControlPlane injections;
  injections.bind_kernel(simulator);
  sim::Histogram probe_lat;
  router.set_delivery([&](unsigned, Flit&& f, sim::Time lat) {
    if (f.tag == 1) probe_lat.add(sim::to_ns(lat));
  });
  // Probe: CBR at 1/8 of the link rate.
  const sim::Time probe_period = 8 * d.arb_cycle;
  for (sim::Time t = 0; t < 50_us; t += probe_period) {
    injections.post_at(simulator, t, [&router] {
      Flit f;
      f.tag = 1;
      router.inject(0, 4, f);
    });
  }
  // Background: three bursty sources, Bernoulli per link cycle.
  sim::Rng rng(99);
  for (unsigned in = 1; in <= 3; ++in) {
    for (sim::Time t = 0; t < 50_us; t += d.arb_cycle) {
      if (rng.next_bool(background_load / 3.0)) {
        injections.post_at(simulator, t, [&router, in] {
          Flit f;
          f.tag = 100 + in;
          router.inject(in, 4, f);
        });
      }
    }
  }
  simulator.run();
  return {probe_lat.p50(), probe_lat.p99(), probe_lat.max()};
}

}  // namespace

int main() {
  std::printf("E3 — Switch congestion: generic output-buffered router "
              "(Fig 3) vs MANGO non-blocking switching (Fig 4)\n\n");
  const StageDelays d = stage_delays(TimingCorner::kWorstCase);
  const double mango_const =
      sim::to_ns(d.split_fwd + d.switch_fwd + d.unshare_fwd);

  TablePrinter table({"Background load", "generic p50 [ns]",
                      "generic p99 [ns]", "generic max [ns]",
                      "MANGO switch latency [ns]"});
  for (double load : {0.0, 0.3, 0.6, 0.8, 0.95}) {
    const Result r = run_generic(load);
    char label[32];
    std::snprintf(label, sizeof label, "%.0f%%", load * 100.0);
    table.add_row({label, TablePrinter::fmt(r.p50, 2),
                   TablePrinter::fmt(r.p99, 2), TablePrinter::fmt(r.max, 2),
                   TablePrinter::fmt(mango_const, 2) + " (constant)"});
  }
  table.print();
  std::printf(
      "\nThe generic router's switch latency grows and jitters with the "
      "background load\n(\"congestion may occur ... unsuitable for "
      "providing service guarantees\", Section 4.1).\nMANGO's fabric has "
      "no arbitration: traversal latency is constant by construction;\n"
      "contention exists only at link access, where the arbiter enforces "
      "each VC's share.\n");
  return 0;
}
