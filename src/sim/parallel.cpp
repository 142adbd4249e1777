#include "sim/parallel.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace mango::sim {

void ControlPlane::bind_kernel(Simulator& sim) {
  kernel_ = &sim;
  parked_.clear();
  free_slots_.clear();
  shards_.clear();
  per_shard_.clear();
}

void ControlPlane::bind_engine(std::vector<Simulator*> shard_sims) {
  MANGO_ASSERT(shard_sims.size() >= 2, "engine mode needs at least 2 shards");
  kernel_ = nullptr;
  shards_ = std::move(shard_sims);
  per_shard_.clear();
  per_shard_.resize(shards_.size());
}

std::uint32_t ControlPlane::shard_index(const Simulator& s) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i] == &s) return static_cast<std::uint32_t>(i);
  }
  model_fail("control post from a kernel that is not a bound shard");
}

void ControlPlane::post_at(Simulator& from, Time t, Fn fn) {
  MANGO_ASSERT(static_cast<bool>(fn), "empty control action");
  MANGO_ASSERT(t >= from.now(), "control post in the past");
  if (kernel_ != nullptr) {
    MANGO_ASSERT(&from == kernel_, "control post from a foreign kernel");
    TypedEvent ev{};
    ev.op = kOpControlPlane;
    ev.p0 = this;
    ev.d = free_slots_.empty() ? static_cast<std::uint32_t>(parked_.size())
                               : free_slots_.back();
    // Schedule before parking: a rejected schedule claims no slot.
    kernel_->at_typed(t, ev);
    if (ev.d == parked_.size()) {
      parked_.push_back(std::move(fn));
    } else {
      free_slots_.pop_back();
      parked_[ev.d] = std::move(fn);
    }
    return;
  }
  const std::uint32_t s = shard_index(from);
  PerShard& b = per_shard_[s];
  b.out.push_back(Pending{EventKey{t, from.now()}, s, b.seq++, std::move(fn)});
}

void ControlPlane::fire(TypedEvent& ev) {
  auto* self = static_cast<ControlPlane*>(ev.p0);
  Fn fn = std::move(self->parked_[ev.d]);
  self->parked_[ev.d] = nullptr;
  self->free_slots_.push_back(ev.d);
  fn();
}

void ControlPlane::collect() {
  bool added = false;
  for (PerShard& b : per_shard_) {
    if (b.out.empty()) continue;
    for (Pending& p : b.out) queue_.push_back(std::move(p));
    b.out.clear();
    added = true;
  }
  if (!added) return;
  // Compact the consumed prefix, then re-sort. Control events are rare
  // (connection lifecycle, not data plane), so simplicity wins.
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
  queue_head_ = 0;
  std::sort(queue_.begin(), queue_.end(), key_before);
}

bool ControlPlane::peek(EventKey& out) const {
  if (queue_head_ >= queue_.size()) return false;
  out = queue_[queue_head_].at;
  return true;
}

void ControlPlane::run_due(EventKey at) {
  for (;;) {
    if (queue_head_ >= queue_.size()) break;
    Pending& p = queue_[queue_head_];
    if (!(p.at == at)) break;
    Fn fn = std::move(p.fn);
    ++queue_head_;
    fn();
    ++executed_;
    collect();  // the action may have posted follow-ups
  }
}

namespace {

/// One polite spin iteration: tells the core (not the OS) we're waiting.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Spin iterations per microsecond of budget — approximate (a pause is
/// a few ns); the budget bounds wasted cycles, it is not a deadline.
constexpr std::uint32_t kSpinItersPerUs = 128;

}  // namespace

ShardEngine::ShardEngine(std::vector<Simulator*> shards, Time lookahead,
                         ControlPlane& ctrl, std::function<void()> drain,
                         std::function<void(std::size_t)> flush, Options opt)
    : shards_(std::move(shards)),
      lookahead_(lookahead),
      ctrl_(ctrl),
      drain_(std::move(drain)),
      flush_(std::move(flush)) {
  MANGO_ASSERT(shards_.size() >= 2, "shard engine needs at least 2 shards");
  MANGO_ASSERT(lookahead_ > 0,
               "zero lookahead: a fabric with a zero-latency link (or no "
               "link) gives the conservative engine no synchronization "
               "slack — every link needs a positive latency");
  MANGO_ASSERT(drain_ && flush_, "shard engine needs drain and flush hooks");
  // Spinning only pays when every barrier participant owns a hardware
  // thread; oversubscribed, a spinner steals cycles from the very shard
  // it is waiting on, so fall back to the condvar protocol outright.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool can_spin =
      opt.spin_us > 0 &&
      (opt.spin_even_oversubscribed || (hw != 0 && hw >= shards_.size()));
  spin_iters_ = can_spin ? opt.spin_us * kSpinItersPerUs : 0;
  worker_error_.resize(shards_.size());
  threads_.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ShardEngine::~ShardEngine() {
  publish(Phase::kExit, EventKey{});
  for (std::thread& t : threads_) t.join();
}

void ShardEngine::run_shard(std::size_t idx) {
  shards_[idx]->run_before(phase_bound_);
  // Publish this shard's boundary batches before signalling the
  // barrier: the drain that consumes them runs strictly after every
  // done_ bump, so one release store per channel per phase suffices.
  flush_(idx);
}

void ShardEngine::wait_for_command(std::uint64_t& seen) {
  for (std::uint32_t i = 0; i < spin_iters_; ++i) {
    if (generation_.load(std::memory_order_acquire) != seen) {
      ++seen;
      return;
    }
    cpu_relax();
  }
  // Condvar fallback. The sleeper count pairs seq_cst with publish()'s
  // generation bump: either the engine observes the registration and
  // notifies under the mutex, or this thread's predicate observes the
  // new generation — the store-buffer reordering that could lose both
  // is forbidden at seq_cst.
  std::unique_lock<std::mutex> lk(mu_);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  cv_cmd_.wait(lk, [&] {
    return generation_.load(std::memory_order_seq_cst) != seen;
  });
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  ++seen;
}

void ShardEngine::signal_done() {
  done_.fetch_add(1, std::memory_order_seq_cst);
  if (engine_waiting_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lk(mu_);
    cv_done_.notify_one();
  }
}

void ShardEngine::wait_for_done() {
  const std::size_t want = threads_.size();
  for (std::uint32_t i = 0; i < spin_iters_; ++i) {
    if (done_.load(std::memory_order_acquire) == want) return;
    cpu_relax();
  }
  // Mirror of wait_for_command()'s sleep registration, engine side.
  std::unique_lock<std::mutex> lk(mu_);
  engine_waiting_.store(true, std::memory_order_seq_cst);
  cv_done_.wait(lk, [&] {
    return done_.load(std::memory_order_seq_cst) == want;
  });
  engine_waiting_.store(false, std::memory_order_relaxed);
}

void ShardEngine::worker_main(std::size_t idx) {
  std::uint64_t seen = 0;
  for (;;) {
    wait_for_command(seen);
    if (phase_ == Phase::kExit) return;
    try {
      run_shard(idx);
    } catch (...) {
      worker_error_[idx] = std::current_exception();
    }
    signal_done();
  }
}

void ShardEngine::rethrow_worker_failure() {
  // Deterministic choice: the lowest-index failing shard wins.
  for (std::exception_ptr& e : worker_error_) {
    if (e) {
      std::exception_ptr take = e;
      e = nullptr;
      std::rethrow_exception(take);
    }
  }
}

void ShardEngine::publish(Phase p, EventKey bound) {
  // The phase fields ride the generation bump: workers read them only
  // after acquiring the new generation, and the previous wait_for_done()
  // guarantees no worker still touches done_ when it resets.
  phase_ = p;
  phase_bound_ = bound;
  done_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) {
    // Notify under the mutex: a worker between its sleeper registration
    // and the wait either sees the new generation (predicate runs under
    // this same mutex) or is already blocked and gets the notify.
    std::lock_guard<std::mutex> lk(mu_);
    cv_cmd_.notify_all();
  }
  if (p == Phase::kExit) return;
  // Shard 0 runs on the engine thread: one fewer context switch per
  // window, and the control shard's cache stays warm for run_due().
  try {
    run_shard(0);
  } catch (...) {
    worker_error_[0] = std::current_exception();
  }
  wait_for_done();
  rethrow_worker_failure();
}

Time ShardEngine::global_horizon(Time ctrl_key) {
  // Safe from the engine thread with workers parked: the barrier's
  // done_/generation_ pair orders this read after each worker's last
  // kernel mutation and before its next one. next_event_key() is a
  // pure function of kernel state (its cursor fast-forward is an
  // internal cache), so the horizon — and every elision decision made
  // from it — is identical on every run and machine.
  Time h = ctrl_key;
  for (Simulator* s : shards_) h = std::min(h, s->next_event_key().time);
  return h;
}

std::uint64_t ShardEngine::run_until(Time t_end) {
  MANGO_ASSERT(t_end >= cursor_, "engine cannot run backwards");
  std::uint64_t before = 0;
  for (Simulator* s : shards_) before += s->events_dispatched();
  const std::uint64_t ctrl_before = ctrl_.executed();

  for (;;) {
    ctrl_.collect();
    EventKey k;
    const bool has_ctrl = ctrl_.peek(k) && k.time <= t_end;
    if (cursor_ >= t_end && !has_ctrl) break;
    // Quiet-window elision: a window [c, c+W) in which no shard has
    // an event with time < c+W dispatches nothing, schedules nothing
    // and hands nothing across a boundary — a pure no-op apart from
    // parking the kernels' clocks, which no model state observes. So
    // jump the cursor over every window wholly before the global
    // horizon. The window grid stays anchored at the cursor (skips
    // are whole multiples of W), so the windows that DO run end at
    // exactly the instants they would end at if every window ran, and
    // the merged dispatch order is the same.
    const Time h = global_horizon(has_ctrl ? k.time : kTimeNever);
    if (!has_ctrl && h >= t_end) {
      // Nothing dispatches strictly before t_end; events at exactly
      // t_end belong to the final phase either way.
      windows_elided_ += (t_end - cursor_ + lookahead_ - 1) / lookahead_;
      cursor_ = t_end;
      break;
    }
    if (h >= cursor_ + lookahead_) {
      const std::uint64_t skip = (h - cursor_) / lookahead_;
      windows_elided_ += skip;
      cursor_ += static_cast<Time>(skip) * lookahead_;
    }
    const Time window_end = std::min(cursor_ + lookahead_, t_end);
    if (has_ctrl && k.time <= window_end) {
      // Park every shard exactly at the control key, then run the
      // action on the engine thread while the fabric is quiescent.
      publish(Phase::kRun, k);
      drain_();
      ctrl_.run_due(k);
      cursor_ = k.time;
      continue;
    }
    publish(Phase::kRun, EventKey{window_end, 0});
    ++windows_;
    drain_();
    cursor_ = window_end;
  }
  // Horizon edge: events at exactly t_end cannot influence another shard
  // at t_end (every boundary latency >= lookahead > 0), so each shard
  // finishes them independently with single-kernel semantics.
  publish(Phase::kRun, EventKey{t_end, kTimeNever});
  drain_();  // records for t > t_end: admitted, never dispatched — same
             // as the single-kernel run leaving them pending.
  cursor_ = t_end;

  std::uint64_t after = 0;
  for (Simulator* s : shards_) after += s->events_dispatched();
  return (after - before) + (ctrl_.executed() - ctrl_before);
}

}  // namespace mango::sim
