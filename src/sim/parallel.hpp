// Conservative parallel shard engine (null-message-free, barrier style).
//
// A sharded simulation runs one Simulator kernel per shard, advanced in
// lockstep windows of width W = the minimum latency of any cross-shard
// link (the lookahead, in the sense of Chandy/Misra/Bryant conservative
// PDES; darsim drives hornet's parallel mode the same way). Within a
// window no shard can affect another before the window's end, so the
// shards run concurrently. A record bound for another shard goes into
// the engine's outbox for that (source, destination) pair, and the
// destination shard admits it into its own kernel at the start of its
// next phase, on its own thread — sorted by (EventKey, channel order
// key, FIFO), never by wall-clock arrival — so the merged dispatch order
// is a pure function of the model and the shard count. A run with N
// shards reproduces the single-kernel run bit for bit on every tested
// grid; DESIGN.md section 8 records a known counterexample.
//
// Two pieces live here:
//
//  * ControlPlane — a deterministic scheduler for *control* actions
//    (connection programming callbacks, churn timers) that must read or
//    mutate state across shards. At N=1 it degenerates to the kernel
//    itself: a post parks its action in a slot table and schedules one
//    kOpControlPlane record carrying the slot, so it draws the key a
//    plain event would and the single-kernel run is untouched. At N>=2
//    the engine parks every shard on the exact EventKey of the next
//    control event and runs the action on the engine thread while the
//    fabric is quiescent.
//
//  * ShardEngine — the window/barrier loop, the worker threads and the
//    N x N outboxes. Every phase it publishes is one
//    Simulator::run_before bound: {end, 0} for a window, the control key
//    {t, b} for a control tie, and {t_end, kTimeNever} for the final
//    phase at the horizon. Each shard ends its phase by publishing its
//    own next key; the engine thread only reduces those N keys and
//    bumps the barrier.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/assert.hpp"
#include "sim/simulator.hpp"
#include "sim/spsc.hpp"
#include "sim/time.hpp"

namespace mango::sim {

/// Default barrier spin budget in microseconds (see
/// ShardEngine::Options::spin_us).
inline constexpr std::uint32_t kDefaultBarrierSpinUs = 50;

class ControlPlane {
 public:
  using Fn = std::function<void()>;

  /// N == 1: every post becomes a kOpControlPlane event on `sim`. The
  /// kernel's dispatcher must route that opcode to fire(), and this
  /// plane must outlive every event it posted.
  void bind_kernel(Simulator& sim);
  /// N >= 2: per-shard post buffers merged by the engine. `shard_sims`
  /// maps shard index -> kernel; posts are keyed by the posting kernel.
  void bind_engine(std::vector<Simulator*> shard_sims);

  /// Fixed deferral applied by post_deferred(). Shard-count independent
  /// (derived from the *global* minimum link latency), so a deferred
  /// notification lands at the same instant for any --shards N.
  void set_deferral(Time d) { deferral_ = d; }
  Time deferral() const { return deferral_; }

  /// Schedules `fn` at absolute time `t`, born at from.now(). In kernel
  /// mode this is one sim.at_typed() of a kOpControlPlane record; in
  /// engine mode the action is queued under the deterministic order
  /// (EventKey{t, from.now()}, shard, post-seq) and executed with every
  /// shard parked at that key.
  void post_at(Simulator& from, Time t, Fn fn);

  /// Runs the kernel-mode action a kOpControlPlane record names (the
  /// dispatcher's case for that opcode). The action is moved out of its
  /// slot first, so it may post further actions.
  static void fire(TypedEvent& ev);

  /// Schedules `fn` at from.now() + deferral(). Cross-shard callbacks
  /// (e.g. programming-complete observers) MUST use this: the deferral
  /// is at least the lookahead, so no shard has advanced past the
  /// target instant when the action runs.
  void post_deferred(Simulator& from, Fn fn) {
    post_at(from, from.now() + deferral_, std::move(fn));
  }

  // --- engine side (valid in engine mode, callers hold all workers
  // parked) ---
  /// Moves per-shard post buffers into the merged queue.
  void collect();
  /// Earliest queued key, or false when the queue is empty.
  bool peek(EventKey& out) const;
  /// Executes every queued action with exactly key `at`, in
  /// (shard, post-seq) order, re-collecting after each action.
  void run_due(EventKey at);
  /// Actions executed in engine mode (counted into the merged event
  /// total so stats match the N=1 run, where posts are kernel events).
  std::uint64_t executed() const { return executed_; }

  bool engine_mode() const { return kernel_ == nullptr; }

 private:
  struct Pending {
    EventKey at;
    std::uint32_t shard = 0;
    std::uint64_t seq = 0;
    Fn fn;
  };
  struct PerShard {
    std::vector<Pending> out;
    std::uint64_t seq = 0;
  };
  static bool key_before(const Pending& a, const Pending& b) {
    if (!(a.at == b.at)) return a.at < b.at;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  }
  std::uint32_t shard_index(const Simulator& s) const;

  Simulator* kernel_ = nullptr;
  /// Kernel mode: actions awaiting their kOpControlPlane event, indexed
  /// by the record's slot; freed slots are reused.
  std::vector<Fn> parked_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Simulator*> shards_;
  std::vector<PerShard> per_shard_;
  std::vector<Pending> queue_;  // sorted ascending by key_before
  std::size_t queue_head_ = 0;
  Time deferral_ = 0;
  std::uint64_t executed_ = 0;
};

class ShardEngine {
 public:
  /// Execution tuning. Every setting is an execution strategy only —
  /// the merged dispatch order, and therefore every stats byte, is
  /// identical for any combination (pinned by test_parallel_kernel).
  struct Options {
    /// Microseconds each barrier participant spins (pause/yield loop on
    /// an atomic generation counter) before falling back to the condvar
    /// sleep. 0 = condvar-only — also forced automatically when the
    /// machine has fewer hardware threads than shards, where spinning
    /// only steals cycles from the thread being waited on.
    std::uint32_t spin_us = kDefaultBarrierSpinUs;
    /// Test hook: spin even when cores < shards (exercises the atomic
    /// fast path on any machine; keep spin_us tiny when setting this).
    bool spin_even_oversubscribed = false;
  };

  /// `lookahead` must be positive: a zero lookahead is a ModelError.
  ShardEngine(std::vector<Simulator*> shards, Time lookahead,
              ControlPlane& ctrl, Options opt);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Advances every shard to t_end with single-kernel run_until()
  /// semantics: every event with time <= t_end dispatches, in the merged
  /// deterministic order. Returns events dispatched across all shards
  /// during this call (control-plane actions included).
  std::uint64_t run_until(Time t_end);

  Time lookahead() const { return lookahead_; }
  std::uint64_t windows_run() const { return windows_; }
  /// Windows skipped by quiet-window elision: at each barrier the
  /// cursor jumps over every whole window no shard (and no control key)
  /// can populate. Skips are whole multiples of the lookahead, so each
  /// window that runs has the bounds it would have if every window ran,
  /// and windows_run() + windows_elided() counts that full grid.
  std::uint64_t windows_elided() const { return windows_elided_; }
  /// True when barrier waits start with the atomic spin fast path.
  bool spinning() const { return spin_iters_ != 0; }

  /// The handoff from shard `src` to shard `dst` (src != dst). Only
  /// shard `src`'s events may push into it, and only while the engine
  /// runs them; shard `dst` admits the records at its next phase.
  SpscBatch& outbox(std::size_t src, std::size_t dst) {
    MANGO_ASSERT(src != dst && src < shards_.size() && dst < shards_.size(),
                 "outbox between two distinct shards of this engine");
    return outboxes_[src * shards_.size() + dst];
  }

 private:
  /// kRun: every shard runs to phase_bound_ (Simulator::run_before).
  enum class Phase : std::uint8_t { kIdle, kRun, kExit };

  /// Runs one phase on every shard and returns its generation g.
  std::uint64_t publish(Phase p, EventKey bound);
  /// Phase g of shard `idx`, on its own thread: admit what the other
  /// shards sent it in phase g - 1, run to the phase bound, publish its
  /// next key.
  void run_shard(std::size_t idx, std::uint64_t g);
  /// Admits the records sent to shard `dst` during phase g into its
  /// kernel in (EventKey, order key, FIFO) order. The producers empty
  /// the buffers when they fill them again.
  void admit(std::size_t dst, std::uint64_t g);
  /// Engine thread, workers parked: admits phase g's records into every
  /// shard, so no outbox holds a record across a control action or
  /// between run_until calls.
  void admit_all(std::uint64_t g);
  /// Engine thread, workers parked, outboxes empty: re-reads every
  /// kernel's next key (the caller or a control action may have
  /// scheduled into any of them).
  void refresh_keys();
  void worker_main(std::size_t idx);
  void rethrow_worker_failure();
  void wait_for_command(std::uint64_t& seen);
  void signal_done();
  void wait_for_done();

  /// Per-shard state. `next` is written by the shard's thread at the
  /// end of each phase and read by the engine after the barrier; `runs`
  /// is the shard's admission scratch. Each sits in its own cache line,
  /// so neither the engine's read nor another shard's work bounces the
  /// line a shard writes.
  struct ShardSlot {
    alignas(64) Time next = kTimeNever;
    alignas(64) std::vector<std::pair<HandoffRecord*, HandoffRecord*>> runs;
  };

  std::vector<Simulator*> shards_;
  Time lookahead_;
  ControlPlane& ctrl_;
  /// [src * N + dst]; the N with src == dst stay empty.
  std::unique_ptr<SpscBatch[]> outboxes_;
  std::unique_ptr<ShardSlot[]> slots_;
  Time cursor_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t windows_elided_ = 0;
  std::uint32_t spin_iters_ = 0;  ///< 0 = condvar-only barrier

  // Hybrid phase barrier. The engine writes the phase fields, resets
  // done_, then bumps generation_ (the release store workers acquire);
  // each worker runs its shard for that phase and bumps done_ (the
  // release store the engine acquires). Both sides spin a bounded
  // budget on the atomic before sleeping on the condvars; the sleep
  // registration (sleepers_ / engine_waiting_) pairs seq_cst with the
  // waker's counter store so the classic store-buffer reordering cannot
  // lose a wakeup. Workers 1..N-1 are std::threads; shard 0 runs on the
  // engine thread itself.
  std::mutex mu_;
  std::condition_variable cv_cmd_;
  std::condition_variable cv_done_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> engine_waiting_{false};
  Phase phase_ = Phase::kIdle;
  EventKey phase_bound_;
  std::vector<std::exception_ptr> worker_error_;
  std::vector<std::thread> threads_;
};

}  // namespace mango::sim
