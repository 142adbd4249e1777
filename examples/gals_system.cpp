// GALS system example (Fig 1): independently clocked IP cores talking
// OCP transactions through the clockless network.
//
// A 1 GHz CPU master and a 750 MHz DSP master both use a 400 MHz memory
// slave. The cores never share a clock; each NA synchronizes its core's
// domain to the self-timed network. The example prints per-master
// transaction latencies, showing the synchronizer cost and that
// unrelated clock ratios just work.
#include <cstdio>
#include <vector>

#include "noc/na/ocp.hpp"
#include "noc/network/network.hpp"
#include "sim/stats.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;

namespace {

struct MasterDriver {
  OcpMaster master;
  sim::Accumulator latency_ns;
  int remaining;
  std::uint32_t addr_base;
  Network& net;
  NodeId self;
  NodeId mem;

  MasterDriver(Network& network, NodeId node, NodeId memory,
               ClockDomain clock, const char* name, int transactions,
               std::uint32_t base)
      : master(network.na(node), clock, name),
        remaining(transactions),
        addr_base(base),
        net(network),
        self(node),
        mem(memory) {}

  void pump() {
    if (remaining == 0) return;
    const bool is_write = (remaining % 2) == 0;
    OcpRequest req;
    req.cmd = is_write ? OcpCmd::kWrite : OcpCmd::kRead;
    req.addr = addr_base + static_cast<std::uint32_t>(remaining % 16);
    req.data = static_cast<std::uint32_t>(remaining);
    --remaining;
    master.issue(req, net.be_route(self, mem), net.be_route(mem, self),
                 [this](const OcpResponse& resp) {
                   latency_ns.add(
                       sim::to_ns(resp.completed_at - resp.issued_at));
                   pump();  // closed-loop: issue the next transaction
                 });
  }
};

}  // namespace

int main() {
  std::printf("GALS SoC: independently clocked cores over clockless "
              "MANGO (Fig 1)\n\n");
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 2)};
  Network net(ctx, cfg);

  const NodeId cpu{0, 0}, dsp{1, 0}, memory{1, 1};
  ClockDomain cpu_clk(1000, 0);     // 1 GHz
  ClockDomain dsp_clk(1333, 211);   // 750 MHz, arbitrary phase
  ClockDomain mem_clk(2500, 97);    // 400 MHz

  OcpSlave mem_slave(net.na(memory), mem_clk, "memory", 1024);
  MasterDriver cpu_drv(net, cpu, memory, cpu_clk, "cpu", 200, 0x000);
  MasterDriver dsp_drv(net, dsp, memory, dsp_clk, "dsp", 200, 0x100);

  cpu_drv.pump();
  dsp_drv.pump();
  simulator.run();

  auto report = [](const char* name, double clk_mhz, MasterDriver& d) {
    std::printf(
        "%-6s @ %6.1f MHz : %3llu transactions, latency mean %7.2f ns  "
        "min %7.2f  max %7.2f\n",
        name, clk_mhz,
        static_cast<unsigned long long>(d.master.completed()),
        d.latency_ns.mean(), d.latency_ns.min(), d.latency_ns.max());
  };
  report("cpu", 1000.0, cpu_drv);
  report("dsp", 750.2, dsp_drv);
  std::printf("memory @  400.0 MHz : %llu requests served\n",
              static_cast<unsigned long long>(mem_slave.requests_served()));
  std::printf(
      "\nEach domain crossing pays a two-flop synchronizer in the NA; no "
      "global\nclock exists anywhere in the interconnect.\n");
  return 0;
}
