// Baseline: TDM slot-table GS router (ÆTHEREAL/NOSTRUM style, Section 2).
//
// "Both employ variants of time division multiplexing for allocating
// bandwidth. TDM is not possible in a clockless NoC which has no notion
// of time." This clocked comparator reserves slot-table entries per
// output port; a connection's flits advance only in its slots, giving
// contention-free hard bandwidth guarantees with
//
//   * bandwidth granularity of 1/slots of the link,
//   * slot-wait jitter of up to one table revolution,
//   * shared (not independently buffered) queues -> end-to-end flow
//     control required (modelled as a per-connection input queue bound),
//   * per-connection header overhead when routing info is not stored in
//     the router (the ÆTHEREAL trade-off the paper discusses).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "noc/common/flit.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::baseline {

class TdmRouter {
 public:
  using Delivery = std::function<void(std::uint32_t conn, noc::Flit&&)>;

  TdmRouter(sim::SimContext& ctx, unsigned ports, unsigned slots,
            sim::Time clock_period_ps);

  void set_delivery(Delivery d) { delivery_ = std::move(d); }

  /// Reserves `count` slots on `out` for a connection, spread as evenly
  /// as the free pattern allows. Returns false if not enough slots free.
  bool reserve(std::uint32_t conn, unsigned out, unsigned count);
  /// Releases all slots of a connection.
  void release(std::uint32_t conn);

  /// Queues a flit of connection `conn` (must have reserved slots).
  void inject(std::uint32_t conn, noc::Flit f);

  /// Starts the slot clock.
  void start();

  unsigned slots_reserved(std::uint32_t conn) const;
  unsigned slots_free(unsigned out) const;
  std::uint64_t flits_forwarded() const { return forwarded_; }
  std::uint64_t clock_ticks() const { return ticks_; }
  /// Bandwidth granularity: fraction of link bandwidth per slot.
  double bandwidth_quantum() const { return 1.0 / slots_; }

 private:
  static constexpr std::uint32_t kFree = 0;

  void tick();

  sim::Simulator& sim_;
  /// Schedules the slot clock as kernel-mode control posts.
  sim::ControlPlane control_;
  unsigned ports_;
  unsigned slots_;
  sim::Time period_;
  /// slot_table_[out][slot] = connection id (kFree = unreserved).
  std::vector<std::vector<std::uint32_t>> slot_table_;
  std::map<std::uint32_t, unsigned> conn_out_;
  std::map<std::uint32_t, std::deque<noc::Flit>> queues_;
  unsigned cursor_ = 0;
  bool running_ = false;
  Delivery delivery_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace mango::baseline
