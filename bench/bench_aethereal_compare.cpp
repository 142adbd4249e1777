// E9 — the Section 6 comparison: MANGO vs an ÆTHEREAL-style TDM router.
//
// Reproduces the discussion table: area, port speed, connection count
// and buffering model, plus behavioural microbenchmarks the paper argues
// qualitatively — TDM slot-wait jitter and non-work-conserving slots vs
// MANGO's immediate, work-conserving fair-share.
#include <cstdio>

#include "baseline/tdm_router.hpp"
#include "model/area.hpp"
#include "model/timing.hpp"
#include "noc/common/config.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;
using sim::TablePrinter;

namespace {

/// TDM jitter: a connection with 1 of 16 slots; flits arriving at random
/// phases wait up to a full table revolution.
double tdm_worst_wait_ns(unsigned slots, sim::Time clk_ps) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  baseline::TdmRouter tdm(ctx, 5, slots, clk_ps);
  sim::ControlPlane injections;
  injections.bind_kernel(simulator);
  tdm.reserve(1, 0, 1);
  sim::Histogram waits;
  sim::Time injected_at = 0;
  tdm.set_delivery([&](std::uint32_t, noc::Flit&&) {
    waits.add(sim::to_ns(simulator.now() - injected_at));
  });
  tdm.start();
  // Inject one flit at an awkward phase per revolution.
  const sim::Time rev = static_cast<sim::Time>(slots) * clk_ps;
  for (unsigned i = 0; i < 64; ++i) {
    const sim::Time t = i * rev + (i % slots) * clk_ps + clk_ps / 3;
    injections.post_at(simulator, t, [&] {
      injected_at = simulator.now();
      tdm.inject(1, noc::Flit{});
    });
  }
  simulator.run_until(70 * rev);
  return waits.max();
}

}  // namespace

int main() {
  std::printf("E9 — MANGO vs ÆTHEREAL-style TDM GS router (Section 6)\n\n");

  const auto mango_area = model::router_area(model::AreaConfig{});
  const auto tdm_area = model::tdm_router_area(model::TdmAreaConfig{});
  const double mango_port = model::port_speed_mhz(TimingCorner::kWorstCase);

  TablePrinter table({"Property", "MANGO (this work)", "AETHEREAL-style TDM"});
  table.add_row({"technology", "0.12 um std cells", "0.13 um, custom FIFOs"});
  table.add_row({"area [mm^2]", TablePrinter::fmt(mango_area.total(), 3),
                 TablePrinter::fmt(tdm_area.total(), 3)});
  table.add_row({"port speed [MHz]", TablePrinter::fmt(mango_port, 0),
                 "500"});
  table.add_row({"timing", "clockless (GALS-ready)", "globally synchronous"});
  table.add_row({"GS connections", "32, independently buffered",
                 "up to 256, shared queues"});
  table.add_row({"end-to-end flow control", "inherent (per-VC buffers)",
                 "required (e.g. credits)"});
  table.add_row({"routing info on connections", "stored in router (0-bit "
                 "header)", "packet header overhead"});
  table.add_row({"idle dynamic power", "zero", "> 0 (clock tree)"});
  table.print();

  std::printf("\nBehavioural contrasts\n\n");
  const double tdm_wait = tdm_worst_wait_ns(16, 2000);
  const StageDelays d = stage_delays(TimingCorner::kWorstCase);
  TablePrinter beh({"Metric", "MANGO fair-share", "TDM slot table (16 "
                    "slots @ 500 MHz)"});
  beh.add_row({"bandwidth granularity", "1/8 of link per VC",
               "1/16 of link per slot"});
  beh.add_row({"worst service wait, lone flow",
               TablePrinter::fmt(sim::to_ns(d.arb_cycle), 1) +
                   " ns (next grant)",
               TablePrinter::fmt(tdm_wait, 1) + " ns (slot wait)"});
  beh.add_row({"unused bandwidth", "redistributed (work conserving)",
               "wasted (empty slots pass)"});
  beh.print();

  std::printf(
      "\nThe paper's qualitative claims hold: comparable area and port "
      "speed, with MANGO adding\nindependent buffering (no end-to-end "
      "flow control), no routing overhead on connections,\nclockless "
      "integration and zero idle power — at 32 vs 256 connections.\n");
  return 0;
}
