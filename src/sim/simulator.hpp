// Discrete-event simulation kernel.
//
// Clockless (asynchronous) circuits are data-driven: every latch, arbiter
// and handshake control fires when its inputs change, after a circuit-
// specific delay. That maps directly onto a classic discrete-event kernel:
// components schedule events at absolute picosecond timestamps, and the
// kernel dispatches them in (time, insertion-order) order so runs are
// fully deterministic.
//
// Event storage is a slab-allocated intrusive list behind a two-level
// calendar queue (see DESIGN.md):
//
//   * a near-horizon wheel of kWheelSize buckets, each covering one
//     2^kBucketShift-ps granule. Nearly every handshake delay in the model
//     (60 ps .. ~16 ns) lands within the wheel horizon, so insert and pop
//     are O(1) amortized — no heap percolation per event. Buckets are
//     doubly-linked sorted chains held by one head pointer, whose prev
//     link wraps to the tail (the wheel is 8 bytes a bucket, 128 KiB):
//     in-order schedules append at the tail, and the rare out-of-order
//     insert searches backward from the tail and stops at the head, so
//     the same-timestamp event trains a thousand phase-aligned CBR
//     sources produce (all firing at k x period) are never traversed;
//   * a min-heap overflow for events beyond the horizon (timeouts, traffic
//     interarrivals, warm-up deadlines). Overflow events migrate into the
//     wheel as the cursor approaches them.
//
// Every event is a TypedEvent record — a one-byte opcode plus packed
// arguments filling the node's 64-byte capture area — dispatched through
// the one switch function registered on the kernel, so the loop pays no
// indirect call per event beyond that switch, no capture construction
// and no destructor. The node is trivially copyable. Payloads that own
// memory stay with the component that scheduled them; the record
// carries a receiver pointer and, where needed, a slot handle. Event
// nodes are recycled through a free list carved from slabs — the
// steady-state loop performs no allocation at all.
//
// Dispatch order is (EventKey, insertion seq). An EventKey is (time,
// birth), where `birth` is the kernel clock at scheduling time. For
// events scheduled organically via at_typed()/after_typed() the birth of
// a later seq is never smaller at equal time (now() is nondecreasing),
// so the order is bit-identical to the classic (time, insertion seq)
// kernel (sim/legacy_kernel.hpp keeps that implementation for
// differential tests and benchmarks). The explicit birth component
// exists for the sharded engine (sim/parallel.hpp): boundary events
// handed across shards are admitted with the *sender's* scheduling time
// as their birth, so a merged multi-kernel run dispatches them exactly
// where the single-kernel run would have.
//
// Every run loop is run_before(bound): dispatch each event whose key is
// before `bound`, then park the clock at bound.time. A conservative
// window is {end, 0}, an exact control-event key is {t, b}, and
// run_until(t) is {t, kTimeNever}.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace mango::sim {

/// POD record for one kernel event: a small opcode plus packed
/// arguments, dispatched through one registered switch function. The
/// payload holds a trivially copyable argument blob (a Flit or LinkFlit
/// in the NoC model) by memcpy; p0/p1 carry receiver pointers and
/// a/b/c/d small scalars. The record is exactly the event node's capture
/// area, so scheduling an event is one 64-byte store with no indirect
/// call, no capture construction and no destructor on recycle.
struct TypedEvent {
  std::uint8_t op;  ///< opcode, owned by the registered dispatcher
  std::uint8_t a;
  std::uint8_t b;
  std::uint8_t c;
  std::uint32_t d;
  void* p0;
  void* p1;
  unsigned char payload[40];
};
static_assert(sizeof(TypedEvent) == 64, "typed record fills the capture area");
static_assert(std::is_trivially_copyable_v<TypedEvent>,
              "typed records move by memcpy");

/// The one opcode value sim/ reserves: a kernel-mode ControlPlane post
/// (sim/parallel.hpp). p0 = the ControlPlane, d = its parked-action slot.
/// Every dispatcher that shares a kernel with a ControlPlane routes this
/// opcode to ControlPlane::fire(); every other value belongs to the
/// model.
inline constexpr std::uint8_t kOpControlPlane = 0xFF;

/// The dispatch key of a kernel event: its time, then its birth (the
/// clock of the kernel that scheduled it). Events dispatch in (key,
/// insertion seq) order. This is the one definition of the (time, birth)
/// order: the kernel, the control plane, the boundary records and the
/// barrier merge all compare EventKeys.
struct EventKey {
  Time time = kTimeNever;
  Time birth = 0;

  constexpr bool operator<(const EventKey& o) const {
    return time != o.time ? time < o.time : birth < o.birth;
  }
  constexpr bool operator==(const EventKey& o) const {
    return time == o.time && birth == o.birth;
  }
  /// True when the event is not born after the instant it fires at.
  constexpr bool causal() const { return birth <= time; }
};

/// The event kernel. One instance drives one simulated network.
class Simulator {
 public:
  /// The event switch, registered once per kernel by the model layer.
  /// Takes the record by reference straight out of the event node.
  using TypedDispatcher = void (*)(TypedEvent&);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Registers the event switch. Idempotent: re-registering the same
  /// function is a no-op, a different one is a model error (each
  /// Simulator dispatches through exactly one switch; another kernel may
  /// register a different one).
  void set_typed_dispatcher(TypedDispatcher d) {
    MANGO_ASSERT(dispatcher_ == nullptr || dispatcher_ == d,
                 "conflicting typed-event dispatchers");
    dispatcher_ = d;
  }

  /// Schedules a record at absolute time `t` (must be >= now()). The
  /// record is copied into the node's capture area — one 64-byte store.
  /// A kernel with no registered dispatcher rejects the schedule, so
  /// dispatch never calls through a null switch.
  void at_typed(Time t, const TypedEvent& ev) {
    MANGO_ASSERT(t >= now_, "cannot schedule an event in the past");
    MANGO_ASSERT(dispatcher_ != nullptr,
                 "event scheduled on a kernel with no dispatcher");
    EventNode* n = alloc_node();
    n->key = EventKey{t, now_};
    n->seq = next_seq_++;
    n->ev = ev;
    insert(n);
  }

  /// Schedules a record after `delay` picoseconds.
  void after_typed(Time delay, const TypedEvent& ev) {
    at_typed(now_ + delay, ev);
  }

  /// Admits a record under an explicit key. Used by the shard engine to
  /// merge boundary events from other kernels: the event keeps the
  /// *sender's* scheduling time as its birth, so it sorts against local
  /// events exactly as it would have in one shared kernel. Requires
  /// at.time >= now() and a causal key.
  void admit_typed(EventKey at, const TypedEvent& ev) {
    MANGO_ASSERT(at.time >= now_, "cannot admit an event in the past");
    MANGO_ASSERT(at.causal(), "admitted birth must not exceed the event time");
    MANGO_ASSERT(dispatcher_ != nullptr,
                 "event admitted on a kernel with no dispatcher");
    EventNode* n = alloc_node();
    n->key = at;
    n->seq = next_seq_++;
    n->ev = ev;
    insert(n);
  }

  /// Earliest pending key; EventKey{} (time kTimeNever) when idle.
  /// Fast-forwards the wheel cursor over empty buckets as a side effect,
  /// so a peek-then-step sequence (run_before's loop) scans each bucket
  /// once.
  EventKey next_event_key();

  /// Dispatches every event whose key is before `bound`, then parks
  /// now() at bound.time. The three bound shapes:
  ///   {end, 0}         a conservative window: events strictly earlier
  ///                    than `end`. Events at exactly `end` stay pending,
  ///                    so boundary events admitted *at* the edge still
  ///                    merge ahead of (or between) them by key;
  ///   {t, b}           an exact control-event key: the shard engine
  ///                    parks every shard there before the action runs;
  ///   {t, kTimeNever}  every event with time <= t (run_until).
  /// Returns the number of events dispatched.
  std::uint64_t run_before(EventKey bound);

  /// Dispatches every event with time <= `t_end`, then parks now() at
  /// `t_end`. Returns the number of events dispatched.
  std::uint64_t run_until(Time t_end) {
    return run_before(EventKey{t_end, kTimeNever});
  }

  /// Dispatches the single next event. Returns false if none is pending.
  bool step();

  /// Runs until the event queue is empty. Returns events dispatched.
  std::uint64_t run();

  /// True if no event is pending.
  bool idle() const { return pending_ == 0; }

  /// Number of pending events.
  std::size_t pending() const { return pending_; }

  /// Total events dispatched since construction. Includes handshake
  /// hops folded into coalesced transfer events (note_folded_hop_at)
  /// whose analytic time the clock has passed, so the figure measures
  /// model activity, not scheduler invocations, and totals are
  /// bit-identical to the unfolded chains — including runs cut off
  /// mid-chain by run_until().
  std::uint64_t events_dispatched() const {
    std::uint64_t n = dispatched_;
    for (const Time t : folds_) {
      if (t <= now_) ++n;
    }
    return n;
  }

  /// Declares a handshake hop that a coalesced transfer event will
  /// execute analytically at time `t` (the model layer folds fixed-delay
  /// event chains into one scheduled event). Amortized O(1): entries go
  /// into an unsorted ledger that is compacted against the clock when it
  /// grows — never a per-event heap operation.
  void note_folded_hop_at(Time t) {
    if (folds_.size() >= fold_compact_at_) compact_folds();
    folds_.push_back(t);
  }

 private:
  struct EventNode {
    EventKey key;       // (time, now() at scheduling time)
    std::uint64_t seq;  // FIFO tie-break for equal keys
    EventNode* next;  // null at a bucket's tail
    EventNode* prev;  // bucket chains are doubly linked so the
                      // out-of-order insert searches backward from the
                      // tail (see insert_wheel); a head's prev is its
                      // bucket's tail
    TypedEvent ev;    // 64-byte capture area
  };
  static_assert(std::is_trivially_copyable_v<EventNode>,
                "event nodes are plain records");
  static_assert(std::is_trivially_destructible_v<EventNode>,
                "recycling a node runs no destructor");
  static_assert(sizeof(EventNode) == 104, "five key/link words + the record");
  /// A wheel bucket: the head of its sorted chain (head->prev is the
  /// tail), or null when the bucket is empty.
  struct Bucket {
    EventNode* head = nullptr;
  };
  static_assert(sizeof(Bucket) == sizeof(void*), "one pointer per bucket");
  /// Min-heap comparator for the overflow: true when `a` dispatches after
  /// `b`.
  struct HeapLater {
    bool operator()(const EventNode* a, const EventNode* b) const {
      return earlier(b, a);
    }
  };

  // Bucket width tuned for thousand-node fabrics: a saturated 32x32 run
  // keeps several thousand events in flight at >7 events/ps, so 512-ps
  // buckets develop O(nodes)-long chains and every out-of-order insert
  // pays a chain walk. One-picosecond buckets make a bucket a single
  // timestamp: a new event always carries the largest (birth, seq) among
  // its time-equals, so every wheel insert is the O(1) tail append
  // (measured: zero out-of-order inserts across the scale-1k presets).
  // The 16.4-ns horizon still covers every handshake delay; longer
  // schedules (traffic interarrivals, timeouts) ride the overflow heap
  // and migrate as the cursor approaches. The sparse-workload flip side
  // — a lone GS stream dispatches one event every few hundred granules,
  // and walking empty 1-ps buckets one head==nullptr check at a time
  // would cost more than the chains did — is paid off by a two-level
  // occupancy bitmap (occ_/occ_l1_): the cursor jumps straight to the
  // next non-empty bucket with a handful of word scans.
  static constexpr unsigned kBucketShift = 0;  // 1 ps per bucket
  static constexpr unsigned kWheelBits = 14;   // 16384 buckets, ~16.4 ns horizon
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kOccWords = kWheelSize / 64;
  static constexpr std::size_t kOccL1Words = kOccWords / 64;
  static constexpr std::size_t kSlabNodes = 256;

  static constexpr std::uint64_t granule_of(Time t) { return t >> kBucketShift; }

  /// True when `a` dispatches strictly before `b`: by key, then seq.
  static bool earlier(const EventNode* a, const EventNode* b) {
    return a->key == b->key ? a->seq < b->seq : a->key < b->key;
  }

  EventNode* alloc_node();
  void free_node(EventNode* n);
  void insert(EventNode* n);
  void insert_wheel(EventNode* n);
  /// Occupancy-bitmap maintenance: exactly insert_wheel() marks and
  /// pop_earliest() clears, so a bit is set iff its bucket has a head.
  void mark_occupied(std::size_t idx) {
    occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    occ_l1_[idx >> 12] |= std::uint64_t{1} << ((idx >> 6) & 63);
  }
  void mark_empty(std::size_t idx) {
    if ((occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63))) == 0) {
      occ_l1_[idx >> 12] &= ~(std::uint64_t{1} << ((idx >> 6) & 63));
    }
  }
  /// Index of the first occupied bucket at or circularly after `idx`.
  /// Requires wheel_count_ > 0. O(1): one partial word, at most a
  /// 63-word linear run to the next level-1 span boundary, then
  /// level-1 jumps.
  std::size_t next_occupied(std::size_t idx) const;
  /// Advances cur_granule_ to its bucket's next occupied granule using
  /// the bitmap (no-op when the cursor bucket itself is occupied).
  void skip_to_occupied() {
    const std::size_t idx = cur_granule_ & kWheelMask;
    cur_granule_ += (next_occupied(idx) - idx) & kWheelMask;
  }
  /// Pops the overflow heap's top and refreshes overflow_top_.
  EventNode* pop_overflow();
  /// Moves every overflow event now inside the wheel horizon into the wheel.
  void migrate_overflow();
  /// Unlinks and returns the earliest pending event (caller checks pending_).
  EventNode* pop_earliest();

  // Slab storage: nodes are carved in blocks and recycled via free_list_;
  // nothing is returned to the system until destruction.
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_list_ = nullptr;

  Bucket wheel_[kWheelSize] = {};
  /// Two-level bucket-occupancy bitmap: occ_ has one bit per bucket,
  /// occ_l1_ one bit per 64-bucket span of occ_. Lets the cursor skip
  /// runs of empty 1-ps buckets in O(1) word scans instead of O(gap)
  /// head==nullptr checks (a sparse workload's inter-event gap can be
  /// hundreds of granules).
  std::uint64_t occ_[kOccWords] = {};
  std::uint64_t occ_l1_[kOccL1Words] = {};
  std::size_t wheel_count_ = 0;
  /// Granule of the wheel cursor. Invariants: every wheel event's granule
  /// lies in [granule(now), granule(now) + kWheelSize) — admission and
  /// migration are bounded by now(), so each bucket holds events of one
  /// granule only — and the cursor never passes a non-empty bucket, so
  /// cur_granule_ <= the minimum wheel granule whenever the wheel is
  /// non-empty (insert() rewinds it to granule(now) otherwise).
  std::uint64_t cur_granule_ = 0;

  static constexpr std::size_t kFoldCompactLimit = 4096;

  /// Retires ledger entries the clock has passed into dispatched_. The
  /// next compaction threshold doubles off the surviving size, so a
  /// workload holding many not-yet-passed folds in flight scans the
  /// ledger amortized O(1) per note instead of on every call.
  void compact_folds() {
    std::size_t w = 0;
    for (const Time t : folds_) {
      if (t > now_) {
        folds_[w++] = t;
      } else {
        ++dispatched_;
      }
    }
    folds_.resize(w);
    fold_compact_at_ = std::max(kFoldCompactLimit, 2 * w);
  }

  /// Beyond-horizon events: min-heap on (key, seq) — see HeapLater.
  std::vector<EventNode*> overflow_;
  /// Key of the overflow top (EventKey{} when empty), kept on every
  /// push and pop: the per-pop horizon checks and run_before's bound
  /// check read it instead of the top node, which is usually cold.
  EventKey overflow_top_;
  /// Unsorted ledger of declared folded-hop times not yet retired.
  std::vector<Time> folds_;
  std::size_t fold_compact_at_ = kFoldCompactLimit;

  std::size_t pending_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  TypedDispatcher dispatcher_ = nullptr;
};

}  // namespace mango::sim
