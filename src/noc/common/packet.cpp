#include "noc/common/packet.hpp"

#include "sim/assert.hpp"

namespace mango::noc {

std::uint32_t build_be_header(const BeRoute& route) {
  MANGO_ASSERT(!route.moves.empty(), "BE route needs at least one move");
  const std::size_t codes = route.moves.size() + 1;  // moves + delivery
  MANGO_ASSERT(codes <= kMaxHeaderCodes, "BE route exceeds the 15-code header budget");

  std::uint32_t header = 0;
  unsigned used_bits = 0;
  auto push2 = [&](std::uint8_t code) {
    header = (header << 2) | (code & 0x3u);
    used_bits += 2;
  };
  for (Direction d : route.moves) push2(static_cast<std::uint8_t>(d));
  // Delivery: "choosing a direction back to where it came from" — the
  // code must equal the port the packet arrives on at the destination.
  // With opposite-port link wiring (mesh/torus/ring) that is
  // opposite(last move), the default; irregular-graph routes set
  // `delivery` to the arrival port the topology reports.
  push2(static_cast<std::uint8_t>(
      route.delivery.value_or(opposite(route.moves.back()))));
  push2(static_cast<std::uint8_t>(route.iface));
  // Left-align: codes are consumed from the MSBs.
  header <<= (32 - used_bits);
  return header;
}

BePacket make_be_packet(const BeRoute& route,
                        const std::vector<std::uint32_t>& payload,
                        std::uint32_t tag) {
  return make_be_packet({}, BeHeader{build_be_header(route), false},
                        payload.data(), payload.size(), tag);
}

BePacket make_be_packet(BeHeader header,
                        const std::vector<std::uint32_t>& payload,
                        std::uint32_t tag) {
  return make_be_packet({}, header, payload.data(), payload.size(), tag);
}

BePacket make_be_packet(std::vector<Flit>&& storage, BeHeader be_header,
                        const std::uint32_t* payload,
                        std::size_t payload_words, std::uint32_t tag) {
  BePacket pkt;
  pkt.flits = std::move(storage);
  pkt.flits.clear();
  // Known final size: header + payload (or one filler), reserved up
  // front so assembly never reallocates mid-build.
  pkt.flits.reserve(payload_words + (payload_words == 0 ? 2 : 1));

  Flit header;
  header.data = be_header.word;
  header.thdr = be_header.table;
  header.tag = tag;
  pkt.flits.push_back(header);

  if (payload_words == 0) {
    Flit filler;
    filler.tag = tag;
    filler.eop = true;
    filler.seq = 1;
    pkt.flits.push_back(filler);
    return pkt;
  }
  for (std::size_t i = 0; i < payload_words; ++i) {
    Flit f;
    f.data = payload[i];
    f.tag = tag;
    f.seq = i + 1;
    f.eop = (i + 1 == payload_words);
    pkt.flits.push_back(f);
  }
  return pkt;
}

}  // namespace mango::noc
