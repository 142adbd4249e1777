#include "sim/simulator.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace mango::sim {

Simulator::EventNode* Simulator::alloc_node() {
  if (free_list_ == nullptr) {
    slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
    EventNode* block = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
      block[i].next = free_list_;
      free_list_ = &block[i];
    }
  }
  EventNode* n = free_list_;
  free_list_ = n->next;
  n->next = nullptr;
  return n;
}

void Simulator::free_node(EventNode* n) {
  n->next = free_list_;
  free_list_ = n;
}

void Simulator::insert(EventNode* n) {
  if (pending_ == 0) {
    // Queue fully drained: re-anchor the wheel at the current time so the
    // cursor starts at (or below) the new event's granule (run_until may
    // have advanced now() far past the stale cursor).
    cur_granule_ = granule_of(now_);
  } else if (granule_of(n->time) < cur_granule_) {
    // The cursor fast-forwarded past this granule (next_event_time()
    // scanning ahead of a declined run_until boundary). Rewind it to
    // now()'s granule: every pending event has time >= now() and — by the
    // now()-anchored admission bound below — every wheel event's granule
    // lies in [granule(now), granule(now) + kWheelSize), so the rewound
    // cursor sits at or below every wheel event and each bucket still
    // holds events of a single granule.
    cur_granule_ = granule_of(now_);
  }
  ++pending_;
  // Wheel admission is bounded by now(), NOT the cursor: the cursor may
  // legitimately sit anywhere in [granule(now), granule(now) + kWheelSize)
  // after fast-forwarding, and a cursor-relative bound would admit events
  // that alias into an already-passed bucket — and so dispatch one full
  // wheel lap early — once a near insert rewinds the cursor.
  if (granule_of(n->time) < granule_of(now_) + kWheelSize) {
    insert_wheel(n);
  } else {
    overflow_.push_back(n);
    std::push_heap(overflow_.begin(), overflow_.end(), HeapLater{});
    overflow_top_ = std::min(overflow_top_, n->time);
  }
}

void Simulator::insert_wheel(EventNode* n) {
  const std::size_t idx = granule_of(n->time) & kWheelMask;
  Bucket& b = wheel_[idx];
  ++wheel_count_;
  EventNode* const head = b.head;
  if (head == nullptr) {
    n->prev = n;  // a lone node is its own tail
    n->next = nullptr;
    b.head = n;
    mark_occupied(idx);
    return;
  }
  // Fast path: sequence numbers grow monotonically and most events are
  // scheduled time-forward, so the overwhelmingly common case appends.
  EventNode* const tail = head->prev;
  if (earlier(tail->time, tail->birth, tail->seq, n->time, n->birth,
              n->seq)) {
    n->prev = tail;
    n->next = nullptr;
    tail->next = n;
    head->prev = n;
    return;
  }
  // Out-of-order within the bucket (a shorter delay scheduled after a
  // longer one landing in the same granule): sorted insert, searching
  // BACKWARD from the tail and stopping at the head (whose prev link
  // wraps to the tail). The displaced suffix is only the handful of
  // strictly-later timestamps already in the bucket — never the
  // same-timestamp train at the front (n has the largest (birth, seq)
  // among its time-equals, so it sorts after all of them), which on a
  // 1k-node fabric with phase-aligned CBR sources can be thousands of
  // events long. A head-forward walk would traverse that train on every
  // out-of-order insert and turn the kernel O(nodes) per event.
  EventNode* q = tail;  // n sorts before q
  while (q != head &&
         earlier(n->time, n->birth, n->seq, q->prev->time, q->prev->birth,
                 q->prev->seq)) {
    q = q->prev;
  }
  if (q == head) {
    n->prev = tail;
    n->next = head;
    head->prev = n;
    b.head = n;
  } else {
    n->prev = q->prev;
    n->next = q;
    q->prev->next = n;
    q->prev = n;
  }
}

Simulator::EventNode* Simulator::pop_overflow() {
  std::pop_heap(overflow_.begin(), overflow_.end(), HeapLater{});
  EventNode* n = overflow_.back();
  overflow_.pop_back();
  overflow_top_ = overflow_.empty() ? kTimeNever : overflow_.front()->time;
  return n;
}

void Simulator::migrate_overflow() {
  // Same now()-anchored horizon as insert(): migrating against the cursor
  // would re-create the one-lap-early aliasing that admission avoids.
  while (!overflow_.empty() &&
         granule_of(overflow_top_) < granule_of(now_) + kWheelSize) {
    // The heap pops in (time, seq) order, so same-bucket migrants arrive
    // in dispatch order and insert_wheel's append fast path applies.
    insert_wheel(pop_overflow());
  }
}

Simulator::EventNode* Simulator::pop_earliest() {
  if (wheel_count_ == 0) {
    // Everything pending lives beyond the horizon: pop the overflow heap
    // directly and re-anchor the cursor at the popped event's granule.
    // step() sets now() to its time before dispatch, so the remaining
    // overflow (all with time >= this one) stays ahead of the window.
    EventNode* n = pop_overflow();
    cur_granule_ = granule_of(n->time);
    --pending_;
    return n;
  }
  if (!overflow_.empty() && granule_of(overflow_top_) < cur_granule_) {
    // next_event_time() fast-forwarded the cursor past the overflow
    // top's granule (an overflow event older than every wheel event).
    // Rewind to now()'s granule — at or below every pending granule — so
    // the migration below lands it ahead of the cursor, not behind it.
    cur_granule_ = granule_of(now_);
  }
  migrate_overflow();
  skip_to_occupied();
  Bucket* b = &wheel_[cur_granule_ & kWheelMask];
  EventNode* n = b->head;
  b->head = n->next;
  if (b->head == nullptr) {
    mark_empty(cur_granule_ & kWheelMask);
  } else {
    b->head->prev = n->prev;  // the tail
  }
  --wheel_count_;
  --pending_;
  return n;
}

std::size_t Simulator::next_occupied(std::size_t idx) const {
  // Tail of the word containing idx (its own bit included).
  const std::uint64_t first = occ_[idx >> 6] >> (idx & 63);
  if (first != 0) {
    return idx + static_cast<std::size_t>(__builtin_ctzll(first));
  }
  // Linear word scan to the next level-1 span boundary, then jump
  // span-to-span through occ_l1_. Terminates because wheel_count_ > 0
  // implies some occ_l1_ word is non-zero.
  std::size_t w = idx >> 6;
  for (;;) {
    w = (w + 1) & (kOccWords - 1);
    if ((w & 63) == 0) {
      std::size_t span = w >> 6;
      while (occ_l1_[span] == 0) span = (span + 1) & (kOccL1Words - 1);
      w = (span << 6) +
          static_cast<std::size_t>(__builtin_ctzll(occ_l1_[span]));
      return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(occ_[w]));
    }
    if (occ_[w] != 0) {
      return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(occ_[w]));
    }
  }
}

Time Simulator::next_event_time() {
  if (pending_ == 0) return kTimeNever;
  Time best = kTimeNever;
  if (wheel_count_ > 0) {
    // A wheel event exists within the horizon, so the skip terminates.
    // Advancing the cursor over the empty buckets is safe — pop_earliest
    // would skip them anyway, and insert() rewinds the cursor if a later
    // schedule lands below it — and lets the step() that typically
    // follows start at the non-empty bucket found here.
    skip_to_occupied();
    best = wheel_[cur_granule_ & kWheelMask].head->time;
  }
  // An overflow event can be *earlier* than wheel events inserted after
  // the cursor advanced past its granule (it only migrates at pop time),
  // so the overflow top always participates in the minimum.
  if (overflow_top_ < best) best = overflow_top_;
  return best;
}

Simulator::EventKey Simulator::next_event_key() {
  if (pending_ == 0) return EventKey{};
  const EventNode* best = nullptr;
  if (wheel_count_ > 0) {
    // Same cursor fast-forward as next_event_time(); the head of the
    // first non-empty bucket is the wheel minimum (buckets are sorted
    // and one granule each, so time order dominates across buckets).
    skip_to_occupied();
    best = wheel_[cur_granule_ & kWheelMask].head;
  }
  if (!overflow_.empty() &&
      (best == nullptr ||
       earlier(overflow_.front()->time, overflow_.front()->birth,
               overflow_.front()->seq, best->time, best->birth, best->seq))) {
    best = overflow_.front();
  }
  return EventKey{best->time, best->birth};
}

std::uint64_t Simulator::run_window(Time end) {
  std::uint64_t n = 0;
  while (pending_ != 0 && next_event_time() < end) {
    step();
    ++n;
  }
  if (now_ < end) {
    now_ = end;
    // Same cursor discipline as run_until(): everything still pending is
    // at `end` or later, so the jump cannot pass a non-empty bucket.
    if (cur_granule_ < granule_of(now_)) cur_granule_ = granule_of(now_);
  }
  return n;
}

std::uint64_t Simulator::run_until_tie(Time t, Time birth_bound) {
  std::uint64_t n = 0;
  while (pending_ != 0) {
    const EventKey k = next_event_key();
    if (k.time > t || (k.time == t && k.birth >= birth_bound)) break;
    step();
    ++n;
  }
  if (now_ < t) {
    now_ = t;
    if (cur_granule_ < granule_of(now_)) cur_granule_ = granule_of(now_);
  }
  return n;
}

bool Simulator::step() {
  if (pending_ == 0) return false;
  EventNode* n = pop_earliest();
  now_ = n->time;
  ++dispatched_;
  // Dispatch straight from the node — the node is unlinked, so handlers
  // may freely schedule new events (those draw fresh nodes); it is
  // recycled after the call returns. If the handler throws (model
  // errors in failure-injection tests), the node is simply orphaned
  // until slab teardown — never double-used.
  dispatcher_(n->ev);
  free_node(n);
  return true;
}

std::uint64_t Simulator::run_until(Time t_end) {
  std::uint64_t n = 0;
  while (pending_ != 0 && next_event_time() <= t_end) {
    step();
    ++n;
  }
  if (now_ < t_end) {
    now_ = t_end;
    // Keep the cursor at or above granule(now) — the wheel scan is only
    // correct when every wheel event lies within one lap of the cursor,
    // and admission bounds events by granule(now) + kWheelSize. The jump
    // cannot pass a non-empty bucket: everything still pending is later
    // than t_end. (step() maintains the invariant by itself: the popped
    // event's granule, where the cursor ends up, is granule(new now).)
    if (cur_granule_ < granule_of(now_)) cur_granule_ = granule_of(now_);
  }
  return n;
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
