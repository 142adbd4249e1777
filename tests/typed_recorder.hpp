// Test dispatcher for bare sim::Simulator kernels.
//
// Kernel tests speak in two kinds of typed record: "event N fires"
// (id(): appends N to order) and "this event does something" (action():
// runs a test lambda, typically one that schedules more records). The
// recorder registers itself as the kernel's dispatcher; the lambdas stay
// in the recorder, and the kernel only ever holds typed records. Like
// every dispatcher, it routes the sim-reserved kOpControlPlane to a
// kernel-mode ControlPlane.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::test {

using sim::Simulator;
using sim::TypedEvent;

class Recorder {
 public:
  explicit Recorder(Simulator& sim) {
    sim.set_typed_dispatcher(&Recorder::dispatch);
  }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// A record that appends `n` to order when it fires.
  TypedEvent id(int n) { return make(kId, static_cast<std::uint32_t>(n)); }

  /// A record that runs `fn` when it fires.
  TypedEvent action(std::function<void()> fn) {
    actions_.push_back(std::move(fn));
    return make(kAction, static_cast<std::uint32_t>(actions_.size() - 1));
  }

  /// Ids of the fired id() records, in dispatch order.
  std::vector<int> order;

 private:
  enum : std::uint8_t { kId = 1, kAction = 2 };

  TypedEvent make(std::uint8_t op, std::uint32_t d) {
    TypedEvent ev{};
    ev.op = op;
    ev.p0 = this;
    ev.d = d;
    return ev;
  }

  static void dispatch(TypedEvent& ev) {
    if (ev.op == sim::kOpControlPlane) return sim::ControlPlane::fire(ev);
    auto* r = static_cast<Recorder*>(ev.p0);
    if (ev.op == kId) {
      r->order.push_back(static_cast<int>(ev.d));
    } else {
      r->actions_[ev.d]();
    }
  }

  /// A deque, so an action that registers more actions never moves the
  /// one running.
  std::deque<std::function<void()>> actions_;
};

}  // namespace mango::test
