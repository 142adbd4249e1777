// Single-producer handoff between shards, double-buffered by phase.
//
// Each (source shard, destination shard) pair has one outbox. The
// source shard's thread appends to it while it runs a phase; the
// destination shard's thread reads the phase's records at the start of
// its next phase. The two never touch the same buffer at once: in phase
// g the producer empties buffer g & 1 and appends to it, while the
// consumer reads buffer (g - 1) & 1, the one filled during phase g - 1.
// The shard engine's phase barrier (each worker's done release, the
// engine's generation release) orders the producer's last append of
// phase g - 1 before the consumer's reads in phase g, and those reads
// before the producer empties the buffer again in phase g + 1, so the
// buffers carry no atomics at all, and the consumer never writes a line
// the producer appends through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mango::sim {

/// A typed event crossing shards: the key it would have drawn on a
/// single kernel (its arrival time, the sender's clock), the order key
/// of the channel it travels on, and the record itself.
struct HandoffRecord {
  EventKey at;
  std::uint32_t order_key = 0;
  TypedEvent ev{};
};

/// The outbox from one shard to another: two FIFO buffers indexed by
/// phase parity. Producer and consumer each name the phase they act
/// for; the barrier between phases is the only synchronization (see the
/// file comment). The order key says which channel a record came from,
/// so one outbox carries every channel of its shard pair; the
/// destination restores the (key, order key, FIFO) order when it admits
/// them.
class SpscBatch {
 public:
  SpscBatch() = default;
  SpscBatch(const SpscBatch&) = delete;
  SpscBatch& operator=(const SpscBatch&) = delete;

  /// Producer, at the start of phase g: empties buffer g & 1 (its
  /// capacity kept), which later pushes fill.
  void begin_phase(std::uint64_t g) {
    write_ = &buf_[g & 1].v;
    write_->clear();
    earliest_ = kTimeNever;
  }

  /// Producer, during a phase: appends a zeroed record under `at` and
  /// returns its event, valid until the next push, for the caller to
  /// fill in place.
  TypedEvent& push(EventKey at, std::uint32_t order_key) {
    earliest_ = std::min(earliest_, at.time);
    HandoffRecord& rec = write_->emplace_back();
    rec.at = at;
    rec.order_key = order_key;
    return rec.ev;
  }

  /// Producer: the earliest time pushed since begin_phase (kTimeNever if
  /// none).
  Time earliest() const { return earliest_; }

  /// Consumer: the records pushed during phase g, in push order. Ready
  /// once phase g's barrier has been crossed, until the producer begins
  /// phase g + 2. Whoever takes them before phase g + 1 starts must
  /// clear() them, or the destination takes them again in phase g + 1.
  std::vector<HandoffRecord>& filled_in(std::uint64_t g) {
    return buf_[g & 1].v;
  }

 private:
  /// One cache line apart, so reading the finished buffer does not
  /// bounce the line the producer is appending through.
  struct alignas(64) Buffer {
    std::vector<HandoffRecord> v;
  };
  Buffer buf_[2];
  std::vector<HandoffRecord>* write_ = &buf_[0].v;
  Time earliest_ = kTimeNever;
};

}  // namespace mango::sim
