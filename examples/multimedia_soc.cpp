// A multimedia SoC on a 4x4 MANGO mesh — the workload class the paper's
// introduction motivates: latency/jitter-critical streams (video) need
// guarantees while bursty control traffic (CPU) rides best-effort.
//
//   camera (0,3) --GS--> video processor (2,2) --GS--> display (3,0)
//   CPU (0,0) <--BE--> memory (3,3), peripherals: uniform BE background
//
// The example shows the headline property: the video pipeline's jitter
// stays bounded while BE load from the rest of the system varies.
#include <cstdio>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;
using sim::operator""_ns;
using sim::operator""_us;

namespace {
constexpr std::uint32_t kCameraTag = 1;
constexpr std::uint32_t kDisplayTag = 2;

void run_phase(const char* name, sim::Time be_interarrival_ps) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  MeshConfig mesh;
  mesh.width = 4;
  mesh.height = 4;
  Network net(ctx, mesh);
  MeasurementHub hub;
  attach_hub(net, hub);
  ConnectionManager mgr(net, NodeId{0, 0});

  // GS video pipeline: camera -> processor -> display. A 16-bit 25 fps
  // video stream needs a steady flit rate; we use one flit per 8 ns.
  const Connection& cam = mgr.open_direct({0, 3}, {2, 2});
  const Connection& disp = mgr.open_direct({2, 2}, {3, 0});
  GsStreamSource::Options video;
  video.period_ps = 8000;
  video.max_flits = 4000;
  GsStreamSource camera(net.na({0, 3}), cam.src_iface, kCameraTag,
                        video);
  camera.start();
  // The processor relays frames onward at the same rate.
  GsStreamSource processor(net.na({2, 2}), disp.src_iface,
                           kDisplayTag, video);
  processor.start();

  // BE background from every node (CPU/memory/peripheral chatter).
  // An interarrival of 0 means "no BE traffic" in this example.
  std::vector<std::unique_ptr<BeTrafficSource>> be;
  if (be_interarrival_ps > 0) {
    be = start_pattern_be(net, BePattern::kUniform, {}, be_interarrival_ps,
                          /*payload=*/6, /*seed=*/2026);
  }

  hub.set_horizon(40_us);
  simulator.run_until(40_us);
  for (auto& src : be) src->stop();

  FlowStats& v = hub.flow(kDisplayTag);
  std::uint64_t be_packets = 0;
  double be_p99 = 0.0;
  for (auto& [tag, s] : hub.flows_by_tag()) {
    if (tag >= kBeTagBase) {
      be_packets += s->packets;
      be_p99 = std::max(be_p99, s->latency_ns.p99());
    }
  }
  std::printf(
      "%-18s | video p50 %7.2f ns  p99 %7.2f ns  max %7.2f ns  "
      "(seq errs %llu) | BE pkts %6llu  worst p99 %8.1f ns\n",
      name, v.latency_ns.p50(), v.latency_ns.p99(), v.latency_ns.max(),
      static_cast<unsigned long long>(v.seq_errors),
      static_cast<unsigned long long>(be_packets), be_p99);
}
}  // namespace

int main() {
  std::printf("Multimedia SoC on a 4x4 MANGO mesh — video on GS "
              "connections, system traffic on BE\n\n");
  run_phase("BE idle", 0);  // 0 disabled below
  run_phase("BE light load", 40000);
  run_phase("BE heavy load", 6000);
  std::printf(
      "\nThe video stream's latency distribution is unaffected by the BE "
      "load:\nGS connections are logically independent of best-effort "
      "traffic (Section 2).\n");
  return 0;
}
