// Reference event kernel: std::function callbacks in a std::priority_queue.
//
// This is the original Simulator implementation, kept as an executable
// specification of the dispatch semantics — exact (time, insertion-order)
// ordering — after the production kernel moved to the slab-allocated
// calendar queue in sim/simulator.hpp. It backs two things:
//
//   * differential tests (tests/test_scheduler.cpp) that drive both
//     kernels with identical randomized workloads and assert bit-identical
//     dispatch sequences,
//   * the before/after comparison in bench/bench_sim_kernel.cpp that
//     tracks the events/sec win of the calendar queue (BENCH_sim_kernel.json).
//
// Do not use it in model code.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace mango::sim {

/// The pre-calendar-queue event kernel (reference semantics).
class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  LegacySimulator() = default;
  LegacySimulator(const LegacySimulator&) = delete;
  LegacySimulator& operator=(const LegacySimulator&) = delete;

  Time now() const { return now_; }

  void at(Time t, Callback cb) {
    MANGO_ASSERT(t >= now_, "cannot schedule an event in the past");
    MANGO_ASSERT(static_cast<bool>(cb), "cannot schedule an empty callback");
    queue_.push(Event{t, next_seq_++, std::move(cb)});
  }

  void after(Time delay, Callback cb) { at(now_ + delay, std::move(cb)); }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++dispatched_;
    ev.cb();
    return true;
  }

  std::uint64_t run_until(Time t_end) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.top().time <= t_end) {
      step();
      ++n;
    }
    if (now_ < t_end) now_ = t_end;
    return n;
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t events_dispatched() const { return dispatched_; }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;  // FIFO tie-break for simultaneous events
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace mango::sim
