// Cross-shard link boundary: the handoff records and channels.
//
// A link whose endpoint routers live in different shards cannot schedule
// the receive event directly into the peer's kernel (that kernel runs on
// another thread). Instead, the sending side pushes a BoundaryRecord —
// the typed event it would have scheduled, under the sim::EventKey it
// would have drawn: its model-level arrival time and the sender's
// scheduling time (birth) — into the per-direction handoff channel; the
// shard engine drains every channel at window barriers and admits the
// events into the destination kernel sorted by (key, channel order key,
// FIFO order). The order key is the link's position in the Network's
// link list times two plus the direction, which is a pure function of
// the topology — never of the partition or of wall-clock arrival — so
// records with equal keys break the tie the same way under every
// partition.
//
// Boundary transfers always use the uncoalesced two-event handshake
// chains: the coalesced fast path resolves the peer's switching plan at
// send time, which would read another shard's state mid-window. The
// fold ledger (PR 4) guarantees the two chains have bit-identical event
// totals and stats, so this costs determinism nothing.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "sim/spsc.hpp"

namespace mango::noc {

struct BoundaryRecord {
  /// {model arrival instant at the destination, sender's now() when the
  /// transfer left}
  sim::EventKey at;
  sim::TypedEvent ev;  ///< the receive event, addressed to the peer
};

/// One direction of one cross-shard link. The sending shard's worker
/// accumulates records in the batch during a window and publishes them
/// once from the engine's per-shard flush hook; the engine drains every
/// channel at the barrier.
struct BoundaryChannel {
  unsigned dst_shard = 0;
  unsigned src_shard = 0;  ///< producer: the flush hook's group key
  std::uint32_t order_key = 0;  ///< link index * 2 + direction
  sim::SpscBatch<BoundaryRecord> batch;
};

}  // namespace mango::noc
