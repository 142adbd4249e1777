// Single-producer handoff channel for shard boundaries.
//
// Each direction of a cross-shard link is written by exactly one shard
// worker (the sender) and drained by exactly one thread (the engine, at
// window barriers, while every worker is parked). The engine's phase
// barrier orders "producer parked" before "consumer drains" (and back),
// so the channel needs one release/acquire pair per window, not one per
// record.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/assert.hpp"

namespace mango::sim {

/// Batched single-producer handoff for barrier-drained channels.
///
/// The producer appends to a plain local vector while its shard runs,
/// then publish() issues a single release store of the
/// watermark at the window flush (and none at all for windows that left
/// the channel untouched). The consumer — the shard engine, at the
/// barrier, with the producer parked — acquires the watermark and takes
/// records [0, n) in FIFO order. The watermark's release/acquire pair
/// carries the record contents; the consumer's reset is ordered before
/// the producer's next append by the engine's phase barrier (generation
/// release store, acquired by the worker).
template <typename T>
class SpscBatch {
 public:
  SpscBatch() = default;
  SpscBatch(const SpscBatch&) = delete;
  SpscBatch& operator=(const SpscBatch&) = delete;

  /// Producer side, during a window. No atomics.
  void push(T v) {
    buf_.push_back(std::move(v));
    if (buf_.size() > hw_) hw_ = buf_.size();
  }

  /// Producer side, at the window flush (before the barrier signal):
  /// one release store — skipped when nothing accumulated since the
  /// last drain.
  void publish() {
    const std::size_t n = buf_.size();
    if (n != ready_.load(std::memory_order_relaxed)) {
      ready_.store(n, std::memory_order_release);
    }
  }

  /// Consumer side, at the barrier with the producer parked and
  /// flushed: takes every published record in push order, then resets.
  template <typename Fn>
  void consume(Fn&& fn) {
    const std::size_t n = ready_.load(std::memory_order_acquire);
    MANGO_ASSERT(n == buf_.size(),
                 "boundary batch drained before its window flush");
    for (std::size_t i = 0; i < n; ++i) fn(std::move(buf_[i]));
    buf_.clear();
    ready_.store(0, std::memory_order_relaxed);
  }

  std::size_t high_water() const { return hw_; }

 private:
  std::vector<T> buf_;
  std::size_t hw_ = 0;
  std::atomic<std::size_t> ready_{0};
};

}  // namespace mango::sim
