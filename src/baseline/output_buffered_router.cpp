#include "baseline/output_buffered_router.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::baseline {

OutputBufferedRouter::OutputBufferedRouter(sim::SimContext& ctx, unsigned ports,
                                           const noc::StageDelays& delays)
    : sim_(ctx.sim()),
      ports_(ports),
      delays_(delays),
      queues_(ports),
      busy_(ports, false),
      peaks_(ports, 0) {
  control_.bind_kernel(sim_);
  noc::events::install(sim_);
}

void OutputBufferedRouter::inject(unsigned in, unsigned out, noc::Flit f) {
  MANGO_ASSERT(in < ports_ && out < ports_, "port out of range");
  auto& q = queues_[out];
  q.push_back(Pending{f, sim_.now()});
  peaks_[out] = std::max(peaks_[out], q.size());
  serve(out);
}

void OutputBufferedRouter::serve(unsigned out) {
  if (busy_[out] || queues_[out].empty()) return;
  busy_[out] = true;
  Pending p = queues_[out].front();
  queues_[out].pop_front();
  // One switch-output access per arbitration cycle, then the traversal to
  // the VC buffer.
  const sim::Time traverse = delays_.switch_traversal();
  after(delays_.arb_cycle, [this, out, p, traverse] {
    busy_[out] = false;
    after(traverse, [this, out, p] {
      ++delivered_;
      if (delivery_) {
        noc::Flit f = p.flit;
        delivery_(out, std::move(f), sim_.now() - p.arrived);
      }
    });
    serve(out);
  });
}

}  // namespace mango::baseline
