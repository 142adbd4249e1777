// Baseline: the generic output-buffered VC router of Fig 3.
//
// "A P x P switch is followed by a split module... Since several input
// ports may attempt to access the same output port simultaneously,
// congestion may occur. This makes the architecture unsuitable for
// providing service guarantees" (Section 4.1).
//
// Modelled as a single router stage: flits injected at input ports
// contend for the switch path to their output port (one flit per
// arbitration cycle per output, FIFO among contenders), then traverse to
// the VC buffer. The inject-to-deliver latency therefore varies with the
// instantaneous contention — exactly the mutual influence MANGO's
// non-blocking switching module eliminates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace mango::baseline {

class OutputBufferedRouter {
 public:
  /// (output port, flit, switch latency in ps)
  using Delivery =
      std::function<void(unsigned out, noc::Flit&&, sim::Time latency)>;

  OutputBufferedRouter(sim::SimContext& ctx, unsigned ports,
                       const noc::StageDelays& delays);

  void set_delivery(Delivery d) { delivery_ = std::move(d); }

  /// A flit arrives at an input port, headed for `out`.
  void inject(unsigned in, unsigned out, noc::Flit f);

  /// Queue depth at an output's switch-access point.
  std::size_t queue_depth(unsigned out) const {
    return queues_.at(out).size();
  }
  std::size_t peak_queue_depth(unsigned out) const {
    return peaks_.at(out);
  }
  std::uint64_t flits_delivered() const { return delivered_; }

 private:
  struct Pending {
    noc::Flit flit;
    sim::Time arrived;
  };

  void serve(unsigned out);
  /// Schedules `fn` after `delay`, as a kernel-mode control post.
  void after(sim::Time delay, sim::ControlPlane::Fn fn) {
    control_.post_at(sim_, sim_.now() + delay, std::move(fn));
  }

  sim::Simulator& sim_;
  sim::ControlPlane control_;
  unsigned ports_;
  const noc::StageDelays& delays_;
  std::vector<std::deque<Pending>> queues_;  ///< per-output contention queue
  std::vector<bool> busy_;
  std::vector<std::size_t> peaks_;
  Delivery delivery_;
  std::uint64_t delivered_ = 0;
};

}  // namespace mango::baseline
