#include "baseline/tdm_router.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::baseline {

TdmRouter::TdmRouter(sim::SimContext& ctx, unsigned ports, unsigned slots,
                     sim::Time clock_period_ps)
    : sim_(ctx.sim()),
      ports_(ports),
      slots_(slots),
      period_(clock_period_ps),
      slot_table_(ports, std::vector<std::uint32_t>(slots, kFree)) {
  MANGO_ASSERT(ports_ >= 1 && slots_ >= 1 && period_ > 0, "bad TDM config");
  control_.bind_kernel(sim_);
  noc::events::install(sim_);
}

bool TdmRouter::reserve(std::uint32_t conn, unsigned out, unsigned count) {
  MANGO_ASSERT(conn != kFree, "connection id 0 is reserved");
  MANGO_ASSERT(out < ports_, "output out of range");
  MANGO_ASSERT(conn_out_.find(conn) == conn_out_.end(),
               "connection already has a reservation");
  if (count == 0 || count > slots_free(out)) return false;
  // Spread reservations: ideal equidistant positions, falling back to the
  // next free slot (what practical TDM allocators do).
  auto& table = slot_table_[out];
  unsigned placed = 0;
  for (unsigned k = 0; k < count; ++k) {
    unsigned want = (k * slots_) / count;
    for (unsigned probe = 0; probe < slots_; ++probe) {
      const unsigned s = (want + probe) % slots_;
      if (table[s] == kFree) {
        table[s] = conn;
        ++placed;
        break;
      }
    }
  }
  MANGO_ASSERT(placed == count, "TDM allocator lost slots");
  conn_out_[conn] = out;
  queues_[conn];  // create the input queue
  return true;
}

void TdmRouter::release(std::uint32_t conn) {
  auto it = conn_out_.find(conn);
  MANGO_ASSERT(it != conn_out_.end(), "releasing unknown TDM connection");
  for (auto& slot : slot_table_[it->second]) {
    if (slot == conn) slot = kFree;
  }
  conn_out_.erase(it);
  queues_.erase(conn);
}

void TdmRouter::inject(std::uint32_t conn, noc::Flit f) {
  auto it = queues_.find(conn);
  MANGO_ASSERT(it != queues_.end(), "inject on unreserved TDM connection");
  it->second.push_back(f);
}

void TdmRouter::start() {
  MANGO_ASSERT(!running_, "TDM clock already running");
  running_ = true;
  control_.post_at(sim_, sim_.now() + period_, [this] { tick(); });
}

void TdmRouter::tick() {
  ++ticks_;
  // All output ports advance in lockstep on the global clock.
  for (unsigned out = 0; out < ports_; ++out) {
    const std::uint32_t conn = slot_table_[out][cursor_];
    if (conn == kFree) continue;
    auto& q = queues_[conn];
    if (q.empty()) continue;  // unused slot is wasted (no work conservation)
    noc::Flit f = q.front();
    q.pop_front();
    ++forwarded_;
    if (delivery_) delivery_(conn, std::move(f));
  }
  cursor_ = (cursor_ + 1) % slots_;
  control_.post_at(sim_, sim_.now() + period_, [this] { tick(); });
}

unsigned TdmRouter::slots_reserved(std::uint32_t conn) const {
  auto it = conn_out_.find(conn);
  if (it == conn_out_.end()) return 0;
  unsigned n = 0;
  for (const auto slot : slot_table_[it->second]) {
    if (slot == conn) ++n;
  }
  return n;
}

unsigned TdmRouter::slots_free(unsigned out) const {
  MANGO_ASSERT(out < ports_, "output out of range");
  unsigned n = 0;
  for (const auto slot : slot_table_[out]) {
    if (slot == kFree) ++n;
  }
  return n;
}

}  // namespace mango::baseline
