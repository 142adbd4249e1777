#include "sim/simulator.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace mango::sim {

namespace {

constexpr std::size_t kCellSlab = 64;

/// Marks a run loop for its lifetime, so a handler that re-enters one
/// fails instead of popping under the record it is running from.
class RunningFlag {
 public:
  explicit RunningFlag(bool& flag) : flag_(flag) {
    MANGO_ASSERT(!flag_, "a run loop re-entered from an event handler");
    flag_ = true;
  }
  ~RunningFlag() { flag_ = false; }
  RunningFlag(const RunningFlag&) = delete;
  RunningFlag& operator=(const RunningFlag&) = delete;

 private:
  bool& flag_;
};

}  // namespace

Simulator::Simulator() {
  std::fill(std::begin(tree_), std::end(tree_), kNoLaneKey);
  seen_.fill(kTimeNever);
}

TypedEvent& Simulator::place_slow(Time t) {
  if (t < kLaneTimeEnd && lane_for(t - now_) == kNoLane) {
    const std::size_t l = bind(t - now_);
    if (l < kLanes) return append(l, t);
  }
  return push_heap(EventKey{t, now_});
}

std::size_t Simulator::bind(Time d) {
  Time& seen = seen_[hash(d, kSeenBits)];
  if (seen != d) {
    seen = d;
    return kNoLane;
  }
  // Second sighting: an unbound lane, else the empty lane appended to
  // longest ago. A non-empty lane is never evicted.
  std::size_t pick = kNoLane;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const Lane& ln = lanes_[l];
    if (ln.delay == kTimeNever) {
      pick = l;
      break;
    }
    if (ln.head == ln.tail &&
        (pick == kNoLane || ln.last_seq < lanes_[pick].last_seq)) {
      pick = l;
    }
  }
  if (pick == kNoLane) return kNoLane;
  // d needs one of its two map entries free, or held by the lane it
  // takes; otherwise it stays unbound and no lane is evicted for it.
  const std::size_t h = hash(d, kMapBits);
  const auto room = [&](std::size_t e) {
    return map_[e].lane == kNoLane || map_[e].lane == pick;
  };
  if (!room(h) && !room(h ^ 1)) return kNoLane;
  Lane& ln = lanes_[pick];
  if (ln.delay != kTimeNever) map_[ln.map_at] = MapEntry{};  // evict
  ln.map_at = map_[h].lane == kNoLane ? h : h ^ 1;
  map_[ln.map_at] = MapEntry{d, pick};
  ln.delay = d;
  // Re-rank the bound lanes by descending delay and re-key the tree.
  for (std::size_t a = 0; a < kLanes; ++a) {
    lanes_[a].rank = 0;
    for (const Lane& b : lanes_) {
      lanes_[a].rank += b.delay != kTimeNever && b.delay > lanes_[a].delay;
    }
    if (lanes_[a].delay != kTimeNever) {
      rank_lane_[lanes_[a].rank] = static_cast<std::uint8_t>(a);
    }
  }
  rebuild_tree();
  return pick;
}

void Simulator::rebuild_tree() {
  for (std::size_t l = 0; l < kLanes; ++l) {
    const Lane& ln = lanes_[l];
    tree_[kLanes + l] = ln.head == ln.tail
                            ? kNoLaneKey
                            : ln.head->time << kRankBits | ln.rank;
  }
  for (std::size_t n = kLanes - 1; n > 0; --n) {
    tree_[n] = std::min(tree_[2 * n], tree_[2 * n + 1]);
  }
}

void Simulator::grow(Lane& ln) {
  Chunk* c = free_chunks_;
  if (c != nullptr) {
    free_chunks_ = c->next;
  } else {
    chunks_.push_back(std::make_unique<Chunk>());
    c = chunks_.back().get();
  }
  c->next = nullptr;
  if (ln.tail_chunk == nullptr) {
    ln.head_chunk = c;
    ln.head = c->slots;
    ln.head_end = c->slots + kChunkSlots;
  } else {
    ln.tail_chunk->next = c;
  }
  ln.tail_chunk = c;
  ln.tail = c->slots;
  ln.tail_end = c->slots + kChunkSlots;
}

TypedEvent& Simulator::push_heap(EventKey key) {
  TypedEvent* rec = free_cells_;
  if (rec == nullptr) {
    cell_slabs_.push_back(std::make_unique<TypedEvent[]>(kCellSlab));
    TypedEvent* slab = cell_slabs_.back().get();
    for (std::size_t i = 1; i < kCellSlab; ++i) {
      slab[i].p0 = free_cells_;
      free_cells_ = &slab[i];
    }
    rec = slab;
  } else {
    free_cells_ = static_cast<TypedEvent*>(rec->p0);
  }
  heap_.push_back(HeapEntry{key, next_seq_++, rec});
  std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
  heap_top_ = heap_.front().key;
  ++pending_;
  return *rec;
}

inline void Simulator::dispatch_lane(std::size_t l) {
  Lane& ln = lanes_[l];
  Slot* const s = ln.head++;
  if (ln.head == ln.head_end) {
    // The head chunk is drained: move on (or leave the lane chunkless)
    // and retire the chunk, which still holds s.
    Chunk* const done = ln.head_chunk;
    if (ln.head == ln.tail) {
      ln.head = ln.head_end = ln.tail = ln.tail_end = nullptr;
      ln.head_chunk = ln.tail_chunk = nullptr;
    } else {
      ln.head_chunk = done->next;
      ln.head = ln.head_chunk->slots;
      ln.head_end = ln.head + kChunkSlots;
    }
    if (retired_ != nullptr) {
      retired_->next = free_chunks_;
      free_chunks_ = retired_;
    }
    retired_ = done;
  }
  set_head_key(l, ln.head == ln.tail ? kNoLaneKey
                                     : ln.head->time << kRankBits | ln.rank);
  --pending_;
  now_ = s->time;
  ++dispatched_;
  // In place: s stays valid however many events the handler schedules.
  // If the handler throws (model errors in failure-injection tests) the
  // event is simply gone, and the kernel stays consistent.
  dispatcher_(s->ev);
}

inline void Simulator::dispatch_heap() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  heap_top_ = heap_.empty() ? kNoKey : heap_.front().key;
  --pending_;
  now_ = e.key.time;
  ++dispatched_;
  // The cell returns to the pool only after the handler: it may schedule
  // into the heap. A throwing handler orphans the cell until teardown.
  dispatcher_(*e.rec);
  e.rec->p0 = free_cells_;
  free_cells_ = e.rec;
}

std::uint64_t Simulator::run_before(EventKey bound) {
  const RunningFlag running(running_);
  std::uint64_t n = 0;
  for (;; ++n) {
    const std::uint64_t k = tree_[1];
    if (k != kNoLaneKey) {
      const std::size_t l = lane_of_key(k);
      const EventKey lk = lane_head_key(k);
      if (lane_first(l, lk)) {
        if (!(lk < bound)) break;
        dispatch_lane(l);
        continue;
      }
    }
    if (!(heap_top_ < bound)) break;
    dispatch_heap();
  }
  if (now_ < bound.time) now_ = bound.time;
  return n;
}

bool Simulator::step() {
  if (pending_ == 0) return false;
  const RunningFlag running(running_);
  const std::uint64_t k = tree_[1];
  if (k != kNoLaneKey && lane_first(lane_of_key(k), lane_head_key(k))) {
    dispatch_lane(lane_of_key(k));
  } else {
    dispatch_heap();
  }
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::string format_time(Time t) {
  char buf[48];
  if (t < 1000) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 " ps", t);
  } else if (t < 1000000) {
    std::snprintf(buf, sizeof buf, "%.3f ns", to_ns(t));
  } else {
    std::snprintf(buf, sizeof buf, "%.3f us", to_us(t));
  }
  return buf;
}

}  // namespace mango::sim
