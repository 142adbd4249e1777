// Discrete-event simulation kernel.
//
// Clockless (asynchronous) circuits are data-driven: every latch, arbiter
// and handshake control fires when its inputs change, after a circuit-
// specific delay. That maps directly onto a classic discrete-event kernel:
// components schedule events at absolute picosecond timestamps, and the
// kernel dispatches them in (time, insertion-order) order so runs are
// fully deterministic.
//
// Event storage is a set of delay lanes plus one heap (see DESIGN.md §1):
//
//   * a delay lane is a FIFO bound to one delay d. A clockless router
//     fires each latch, arbiter and wire a fixed handshake delay after
//     its input changes, so a handful of delays carry nearly every
//     schedule (thirteen stage delays carry 99.7% on a saturated 8x8 GS
//     mesh). An organic schedule (birth = now()) with delay d appends to
//     d's lane. now() never decreases, so a lane is already sorted by
//     (time, birth, seq): insert and pop are O(1), and a lane slot keeps
//     no birth (it is time - d). A delay binds a free lane on its second
//     sighting; a lane stays bound while it is empty and only an empty
//     lane is evicted, so one-off delays (exponential interarrivals)
//     never push a hot delay out;
//   * one (key, seq) min-heap holds everything else: records admitted
//     under an explicit key (admit_typed), one-off delays, schedules
//     made while no lane is free and events at or past kLaneTimeEnd.
//     Only heap entries carry a birth.
//
// Pop takes the earlier of the lanes' minimum and the heap top. The
// lanes' minimum is the root of a min-tree over the lane heads, keyed
// time << 4 | rank with the rank ordering the lanes by descending delay:
// at equal time the larger delay has the smaller birth, so one 64-bit
// compare is the (time, birth) order, and next_event_key() is an O(1)
// const read. Two lanes never tie on (time, birth): equal time and equal
// birth mean equal delay. Seq decides only a lane head that ties with
// the heap top.
//
// Every event is a TypedEvent record: a one-byte opcode plus packed
// arguments, dispatched through the one switch function registered on
// the kernel, so the loop pays no indirect call per event beyond that
// switch, no capture construction and no destructor. Lanes take their
// slots in fixed chunks from one shared pool, and heap records live in
// pooled cells, so storage tracks the number of pending events and a
// record never moves while it is pending: emplace_at() hands
// the caller a zeroed record in its slot to fill in place, and the loop
// dispatches it from there. The steady-state loop allocates
// nothing.
//
// Dispatch order is (EventKey, insertion seq). An EventKey is (time,
// birth), where `birth` is the kernel clock at scheduling time. For
// events scheduled organically the birth of a later seq is never
// smaller at equal time, so the order is the classic (time, insertion
// seq) order. The kernel's one executable reference is the sorted
// (time, birth, seq) oracle in tests/test_scheduler.cpp, which checks
// randomized workloads dispatch by dispatch. The explicit birth
// component exists for the sharded engine (sim/parallel.hpp): boundary
// events handed across shards are admitted with the *sender's*
// scheduling time as their birth, so a merged multi-kernel run
// dispatches them exactly where the single-kernel run would have.
//
// Every run loop is run_before(bound): dispatch each event whose key is
// before `bound`, then park the clock at bound.time. A conservative
// window is {end, 0}, an exact control-event key is {t, b}, and
// run_until(t) is {t, kTimeNever}.
#pragma once

#include <algorithm>
#include <array>
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
/// a/b/c/d small scalars. The record lives in its kernel slot from
/// schedule to dispatch: no indirect call, no capture construction and
/// no destructor on recycle.
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
static_assert(sizeof(TypedEvent) == 64, "a typed record is one cache line");
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
  /// Number of delay lanes: room for every recurring stage delay of the
  /// model plus a few source periods.
  static constexpr std::size_t kLanes = 16;

  /// Lanes take events timed below this (2^60 - 1 ps, about 13 simulated
  /// days), the limit of their packed keys; later events take the heap.
  static constexpr Time kLaneTimeEnd = (Time{1} << 60) - 1;

  /// The event switch, registered once per kernel by the model layer.
  /// Takes the record by reference in its kernel slot.
  using TypedDispatcher = void (*)(TypedEvent&);

  Simulator();
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

  /// Schedules an event at absolute time `t` (must be >= now()) and
  /// returns its zeroed record in the kernel's slot, for the caller to
  /// fill in place. The slot does not move until the event dispatches.
  /// A kernel with no registered dispatcher rejects the schedule, so
  /// dispatch never calls through a null switch.
  TypedEvent& emplace_at(Time t) {
    TypedEvent& ev = place(t);
    ev = TypedEvent{};
    return ev;
  }

  /// Schedules a copy of `ev` at absolute time `t` (must be >= now()).
  void at_typed(Time t, const TypedEvent& ev) { place(t) = ev; }

  /// Admits a record under an explicit key. Used by the shard engine to
  /// merge boundary events from other kernels: the event keeps the
  /// *sender's* scheduling time as its birth, so it sorts against local
  /// events exactly as it would have in one shared kernel. Requires
  /// at.time >= now() and a causal key. Admitted records take the heap.
  void admit_typed(EventKey at, const TypedEvent& ev) {
    MANGO_ASSERT(at.time >= now_, "cannot admit an event in the past");
    MANGO_ASSERT(at.causal(), "admitted birth must not exceed the event time");
    MANGO_ASSERT(dispatcher_ != nullptr,
                 "event admitted on a kernel with no dispatcher");
    push_heap(at) = ev;
  }

  /// Earliest pending key; EventKey{} (time kTimeNever) when idle. An
  /// O(1) read of the lane min-tree's root and the heap top, for the
  /// shard engine's horizon scan and the tests; the run loops do not
  /// call it.
  EventKey next_event_key() const {
    if (pending_ == 0) return EventKey{};
    if (tree_[1] == kNoLaneKey) return heap_top_;
    return std::min(lane_head_key(tree_[1]), heap_top_);
  }

  /// Dispatches every event whose key is before `bound`, then parks
  /// now() at bound.time. The three bound shapes:
  ///   {end, 0}         a conservative window: events strictly earlier
  ///                    than `end`. Events at exactly `end` stay pending,
  ///                    so boundary events admitted *at* the edge still
  ///                    merge ahead of (or between) them by key;
  ///   {t, b}           an exact control-event key: the shard engine
  ///                    parks every shard there before the action runs;
  ///   {t, kTimeNever}  every event with time <= t (run_until).
  /// Returns the number of events dispatched. A handler may schedule but
  /// not re-enter a run loop of its own kernel (a model error).
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

  /// The lane `delay` is bound to, or -1 when its schedules take the
  /// heap. Introspection for the scheduler tests.
  int lane_of(Time delay) const {
    const std::size_t l = lane_for(delay);
    return l < kLanes ? static_cast<int>(l) : -1;
  }

  /// Lane slots allocated so far (pooled chunks times their size).
  /// Introspection for the scheduler tests.
  std::size_t lane_slots() const { return chunks_.size() * kChunkSlots; }

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
  /// A lane head's min-tree key: time << kRankBits | the lane's rank,
  /// where rank orders the bound lanes by descending delay. At equal time
  /// the larger delay has the smaller birth, so one 64-bit compare is
  /// the (time, birth) order. Lanes take times below kLaneTimeEnd only,
  /// so the all-ones key, which marks an empty lane, is never a head's.
  static constexpr unsigned kRankBits = 4;
  static constexpr std::uint64_t kNoLaneKey = ~std::uint64_t{0};
  /// Marks an empty heap.
  static constexpr EventKey kNoKey{kTimeNever, kTimeNever};

  static constexpr std::size_t kChunkSlots = 32;
  static constexpr std::size_t kNoLane = kLanes;
  static constexpr unsigned kMapBits = 7;   // delay -> lane map entries
  static constexpr unsigned kSeenBits = 8;  // first-sighting memory
  static_assert(kLanes <= (std::size_t{1} << kRankBits), "a rank per lane");
  static_assert(kLaneTimeEnd == (Time{1} << (64 - kRankBits)) - 1,
                "a lane time and a rank fill one key below kNoLaneKey");

  /// A lane slot: the event time and seq, and the record. Birth is the
  /// time minus the lane's delay.
  struct Slot {
    Time time;
    std::uint64_t seq;
    TypedEvent ev;
  };
  static_assert(sizeof(Slot) == 80, "two key words + the record");
  /// A fixed run of lane slots; chunks link into a lane's FIFO and
  /// return to one shared pool once drained.
  struct Chunk {
    Slot slots[kChunkSlots];
    Chunk* next;
  };
  /// One delay lane: slots [head, tail) across the linked chunks from
  /// head_chunk to tail_chunk. Empty iff head == tail. A drained lane
  /// keeps appending after its last slot, so the slot a handler is
  /// being dispatched from is never reused under it.
  struct alignas(64) Lane {
    Slot* head = nullptr;
    Slot* head_end = nullptr;  // end of head_chunk's slots
    Slot* tail = nullptr;
    Slot* tail_end = nullptr;  // end of tail_chunk's slots
    Time delay = kTimeNever;   // kTimeNever: unbound
    std::uint64_t rank = 0;
    Chunk* head_chunk = nullptr;
    Chunk* tail_chunk = nullptr;
    std::uint64_t last_seq = 0;  // seq of the latest append
    std::size_t map_at = 0;      // this lane's map_ entry while bound
  };
  /// A heap entry: the key, the seq and the pooled record.
  struct HeapEntry {
    EventKey key;
    std::uint64_t seq;
    TypedEvent* rec;
  };
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.key == b.key ? b.seq < a.seq : b.key < a.key;
    }
  };
  /// A delay -> lane entry. A delay lives at its hash or the entry next
  /// to it (h ^ 1); a delay finding both taken by other lanes stays
  /// unbound and evicts no lane.
  struct MapEntry {
    Time delay = kTimeNever;
    std::size_t lane = kNoLane;  // kNoLane: an empty entry
  };

  static std::size_t hash(Time d, unsigned bits) {
    return static_cast<std::size_t>((d * 0x9E3779B97F4A7C15ull) >> (64 - bits));
  }

  /// The lane bound to `d`, or kNoLane.
  std::size_t lane_for(Time d) const {
    const std::size_t h = hash(d, kMapBits);
    const MapEntry& a = map_[h];
    const MapEntry& b = map_[h ^ 1];
    return a.delay == d ? a.lane : b.delay == d ? b.lane : kNoLane;
  }

  /// The one schedule path: an organic schedule at `t`, into its delay's
  /// lane when one is bound, else through place_slow(). Returns the slot.
  TypedEvent& place(Time t) {
    MANGO_ASSERT(t >= now_, "cannot schedule an event in the past");
    MANGO_ASSERT(dispatcher_ != nullptr,
                 "event scheduled on a kernel with no dispatcher");
    const std::size_t l = lane_for(t - now_);
    if (__builtin_expect(l < kLanes && t < kLaneTimeEnd, 1)) {
      return append(l, t);
    }
    return place_slow(t);
  }
  /// An unbound delay's schedule: binds a lane on the delay's second
  /// sighting, else takes the heap.
  TypedEvent& place_slow(Time t);
  TypedEvent& append(std::size_t l, Time t) {
    Lane& ln = lanes_[l];
    if (ln.tail == ln.tail_end) grow(ln);
    Slot* s = ln.tail++;
    s->time = t;
    s->seq = ln.last_seq = next_seq_++;
    ++pending_;
    if (s == ln.head) set_head_key(l, t << kRankBits | ln.rank);  // woke
    return s->ev;
  }
  /// Links a pooled chunk to the lane's tail.
  void grow(Lane& ln);
  /// Binds a free lane to `d` on its second sighting; kNoLane otherwise.
  std::size_t bind(Time d);
  TypedEvent& push_heap(EventKey key);
  /// The lane whose head has tree key `k` (not kNoLaneKey).
  std::size_t lane_of_key(std::uint64_t k) const {
    return rank_lane_[k & ((std::uint64_t{1} << kRankBits) - 1)];
  }
  /// The EventKey of the lane head with tree key `k` (not kNoLaneKey).
  EventKey lane_head_key(std::uint64_t k) const {
    const Time t = k >> kRankBits;
    return EventKey{t, t - lanes_[lane_of_key(k)].delay};
  }
  /// Sets lane `l`'s head key and replays the min-tree path from its
  /// leaf to the root: each level keeps the smaller of the carried key
  /// and the sibling's, a conditional move with no branch. The key's
  /// rank bits name the winning lane, so no index travels with it.
  void set_head_key(std::size_t l, std::uint64_t k) {
    std::size_t n = kLanes + l;
    tree_[n] = k;
    for (; n > 1; n >>= 1) {
      k = std::min(k, tree_[n ^ 1]);
      tree_[n >> 1] = k;
    }
  }
  /// Rebuilds every leaf and node after the ranks changed.
  void rebuild_tree();
  /// True when the lanes' minimum, lane `l` with head key `lk`,
  /// dispatches before the heap top. Seq decides only a tie.
  bool lane_first(std::size_t l, EventKey lk) const {
    return lk == heap_top_ ? lanes_[l].head->seq < heap_.front().seq
                           : lk < heap_top_;
  }
  /// Pops lane `l`'s head, advances the clock to it and dispatches it in
  /// its slot.
  void dispatch_lane(std::size_t l);
  /// Pops the heap top, advances the clock to it and dispatches it.
  void dispatch_heap();

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

  Lane lanes_[kLanes];
  /// The min-tree over the lane head keys: node n holds the smallest
  /// key under it; leaf kLanes + l is lane l (kNoLaneKey when the lane is
  /// empty), and node 1 is the root. rank_lane_ maps a rank back to its
  /// lane.
  std::uint64_t tree_[2 * kLanes];
  std::uint8_t rank_lane_[kLanes] = {};
  std::array<MapEntry, std::size_t{1} << kMapBits> map_;
  /// The delay last seen unbound in each hash bucket.
  std::array<Time, std::size_t{1} << kSeenBits> seen_;

  /// Every lane chunk, and the pool of drained ones linked by next. The
  /// chunk drained by the latest pop waits in retired_ until the next
  /// chunk drains, so the record it holds outlives its dispatch.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  Chunk* free_chunks_ = nullptr;
  Chunk* retired_ = nullptr;

  std::vector<HeapEntry> heap_;
  EventKey heap_top_ = kNoKey;  // heap_.front().key, kNoKey when empty
  /// Heap record cells, pooled through free_cells_ (linked by p0).
  std::vector<std::unique_ptr<TypedEvent[]>> cell_slabs_;
  TypedEvent* free_cells_ = nullptr;

  /// Unsorted ledger of declared folded-hop times not yet retired.
  std::vector<Time> folds_;
  std::size_t fold_compact_at_ = kFoldCompactLimit;

  std::size_t pending_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  TypedDispatcher dispatcher_ = nullptr;
  bool running_ = false;  // a run loop is dispatching
};

}  // namespace mango::sim
