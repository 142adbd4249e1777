// Best-effort packet format (Section 5).
//
// A BE packet is a variable-length flit sequence. The first flit is the
// header; the last flit carries the EOP control bit. The 32-bit header
// holds 2-bit direction codes, consumed MSB-first and rotated left by two
// bits at each hop:
//
//   * at a network input, a code equal to the direction "back the way the
//     packet came" delivers the packet to the local port;
//   * any other code forwards the packet out of that network port;
//   * after the delivery code, the next 2 bits select the local interface
//     (network adapter or the GS programming interface — our documented
//     reconstruction of the paper's "extension on port 0").
//
// A route of h link-hops consumes h move codes plus one delivery code;
// 15 codes * 2 bits + 2 interface bits fill the 32-bit header exactly,
// matching the paper's "a packet can make a total of 15 hops".
//
// Routes longer than 14 hops do not fit that budget. For those the
// reconstruction adds a second, table-routed header scheme (flagged by
// the flit's THDR control bit, see flit.hpp): the header word carries
// the destination's dense node index plus the routing phase and local
// interface, and every router looks the next out-port up in the
// materialized RouteTable instead of consuming rotated codes. The
// scheme is selected per (src, dst) pair at table-materialization time
// — source-routed whenever the route fits, table-routed only beyond —
// so fabrics whose diameter fits the paper's budget emit bit-identical
// headers to the paper's scheme (DESIGN.md "scale architecture").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"

namespace mango::noc {

/// Local delivery target selected by the 2 interface bits.
enum class LocalIface : std::uint8_t {
  kNetworkAdapter = 0,
  kProgramming = 1,
};

/// Maximum direction codes (moves + delivery) in one header.
inline constexpr unsigned kMaxHeaderCodes = 15;

/// A source route: the link moves (each the out-port at one hop, >= 1)
/// plus the local interface at the destination. `delivery` is the port
/// the final hop arrives on at the destination (the code that reads as
/// "back the way it came" there); unset, it is derived as the opposite
/// of the last move — correct on mesh/torus/ring wiring, while routes on
/// irregular graphs carry the arrival port the topology reports.
struct BeRoute {
  std::vector<Direction> moves;
  std::optional<Direction> delivery;
  LocalIface iface = LocalIface::kNetworkAdapter;
};

/// Direction code in the 2 header MSBs.
constexpr std::uint8_t header_code(std::uint32_t header) {
  return static_cast<std::uint8_t>(header >> 30);
}

/// Rotates the header left by two bits (one consumed hop).
constexpr std::uint32_t rotate_header(std::uint32_t header) {
  return (header << 2) | (header >> 30);
}

/// Builds the 32-bit header for `route`. Throws ModelError if the route
/// is empty or too long for the 15-code budget.
std::uint32_t build_be_header(const BeRoute& route);

// --- table-routed header scheme (routes beyond the 15-code budget) ---

/// Destination node index field: 12 bits, enough for the 4096-node
/// fabrics the dense RouteTable materializes.
inline constexpr std::uint32_t kTableHeaderDstMask = 0xFFFu;
/// Routing-phase bit (up*/down* "may still climb" vs "descending").
inline constexpr unsigned kTableHeaderPhaseShift = 12;
/// Local-interface select bits (same LocalIface codes as the packed
/// source-route header's trailing 2 bits).
inline constexpr unsigned kTableHeaderIfaceShift = 13;

/// Table-mode header word for a packet injected toward `dst_idx`
/// (injection is always routing phase 0).
constexpr std::uint32_t make_table_header(std::size_t dst_idx,
                                          LocalIface iface) {
  return (static_cast<std::uint32_t>(dst_idx) & kTableHeaderDstMask) |
         (static_cast<std::uint32_t>(iface) << kTableHeaderIfaceShift);
}

constexpr std::size_t table_header_dst(std::uint32_t header) {
  return header & kTableHeaderDstMask;
}

constexpr unsigned table_header_phase(std::uint32_t header) {
  return (header >> kTableHeaderPhaseShift) & 1u;
}

constexpr LocalIface table_header_iface(std::uint32_t header) {
  return static_cast<LocalIface>((header >> kTableHeaderIfaceShift) & 0x3u);
}

/// Header word with the phase bit replaced (the table-mode equivalent of
/// the per-hop header rotation).
constexpr std::uint32_t with_table_header_phase(std::uint32_t header,
                                                unsigned phase) {
  return (header & ~(1u << kTableHeaderPhaseShift)) |
         ((phase & 1u) << kTableHeaderPhaseShift);
}

/// A BE header in either scheme: the 32-bit word plus the scheme select
/// (`table` mirrors the header flit's THDR wire bit). Produced by
/// RouteTable / Network::be_header; consumed by make_be_packet.
struct BeHeader {
  std::uint32_t word = 0;
  bool table = false;

  friend constexpr bool operator==(BeHeader a, BeHeader b) {
    return a.word == b.word && a.table == b.table;
  }
};

/// A complete BE packet: flits[0] is the header, back() carries EOP.
struct BePacket {
  std::vector<Flit> flits;

  bool empty() const { return flits.empty(); }
  std::size_t size() const { return flits.size(); }
};

/// Assembles header + payload words into a packet. `tag` labels all flits
/// for measurement. A packet always has >= 2 flits (header + >= 1 payload
/// so that EOP is distinct from the header; an empty payload yields one
/// zero filler flit).
BePacket make_be_packet(const BeRoute& route,
                        const std::vector<std::uint32_t>& payload,
                        std::uint32_t tag = 0);

/// Same assembly from a precomputed BeHeader (either scheme); the header
/// flit's THDR bit mirrors `header.table`.
BePacket make_be_packet(BeHeader header,
                        const std::vector<std::uint32_t>& payload,
                        std::uint32_t tag = 0);

/// Pool-aware assembly for the injection hot path: `storage` (typically
/// a sim::VectorPool<Flit>::acquire() body) becomes the packet's flit
/// vector, reserved to the exact flit count, and the header is supplied
/// precomputed (Network::be_header / RouteTable) instead of being
/// rebuilt from a BeRoute. Flit content is identical to make_be_packet's.
BePacket make_be_packet(std::vector<Flit>&& storage, BeHeader header,
                        const std::uint32_t* payload,
                        std::size_t payload_words, std::uint32_t tag = 0);

}  // namespace mango::noc
