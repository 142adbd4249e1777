#include "noc/na/ocp.hpp"

#include "sim/assert.hpp"

namespace mango::noc {

sim::Time ClockDomain::next_edge(sim::Time t) const {
  if (t <= phase_) return phase_;
  const sim::Time since = t - phase_;
  const sim::Time cycles = (since + period_ - 1) / period_;
  return phase_ + cycles * period_;
}

std::uint32_t ocp_encode_cmd(OcpCmd cmd, std::uint8_t tag, std::uint32_t low20) {
  MANGO_ASSERT(low20 < (1u << 20), "OCP low-20 field overflow");
  return (static_cast<std::uint32_t>(cmd) << 28) |
         (static_cast<std::uint32_t>(tag) << 20) | low20;
}

OcpCmd ocp_decode_cmd(std::uint32_t w0) {
  const std::uint32_t c = w0 >> 28;
  MANGO_ASSERT(c >= 1 && c <= 3, "bad OCP command " + std::to_string(c));
  return static_cast<OcpCmd>(c);
}

std::uint8_t ocp_decode_tag(std::uint32_t w0) {
  return static_cast<std::uint8_t>((w0 >> 20) & 0xFF);
}

std::uint32_t ocp_decode_low20(std::uint32_t w0) { return w0 & 0xFFFFF; }

OcpMaster::OcpMaster(NetworkAdapter& na, ClockDomain clock, std::string name)
    : sim_(na.router().ctx().sim()),
      na_(na),
      clock_(clock),
      name_(std::move(name)) {
  control_.bind_kernel(sim_);
  na_.set_be_handler(
      [this](BePacket&& pkt, sim::Time at) { on_packet(std::move(pkt), at); });
}

void OcpMaster::issue(const OcpRequest& req, const BeRoute& route,
                      const BeRoute& return_route, Completion done) {
  MANGO_ASSERT(req.cmd == OcpCmd::kWrite || req.cmd == OcpCmd::kRead,
               "masters issue reads and writes only");
  const std::uint8_t tag = next_tag_++;
  MANGO_ASSERT(pending_.find(tag) == pending_.end(),
               "OCP tag space exhausted on " + name_);

  std::vector<std::uint32_t> payload;
  payload.push_back(ocp_encode_cmd(req.cmd, tag, req.addr & 0xFFFFF));
  payload.push_back(build_be_header(return_route));
  if (req.cmd == OcpCmd::kWrite) payload.push_back(req.data);

  // The clocked master hands the request to the NA on a clock edge, and
  // the NA ingress synchronizer costs two further core cycles.
  const sim::Time issue_at = clock_.sync_in(sim_.now());
  pending_[tag] = {std::move(done), sim_.now()};
  control_.post_at(
      sim_, issue_at, [this, route, payload = std::move(payload), tag] {
        BePacket pkt = make_be_packet(route, payload, tag);
        const sim::Time now = sim_.now();
        for (Flit& f : pkt.flits) f.injected_at = now;
        na_.send_be_packet(std::move(pkt));
      });
}

void OcpMaster::on_packet(BePacket&& pkt, sim::Time at) {
  MANGO_ASSERT(pkt.size() >= 2, "short OCP response");
  const std::uint32_t w0 = pkt.flits[1].data;
  MANGO_ASSERT(ocp_decode_cmd(w0) == OcpCmd::kResp,
               "master received a non-response packet");
  const std::uint8_t tag = ocp_decode_tag(w0);
  auto it = pending_.find(tag);
  MANGO_ASSERT(it != pending_.end(), "response for unknown OCP tag");
  OcpResponse resp;
  resp.ok = ocp_decode_low20(w0) == 0;
  resp.data = pkt.size() >= 3 ? pkt.flits[2].data : 0;
  resp.issued_at = it->second.second;
  Completion done = std::move(it->second.first);
  pending_.erase(it);
  ++completed_;
  // Synchronize the completion back into the master's clock domain from
  // the delivery instant (the NA may hand the packet over before it).
  const sim::Time deliver_at = clock_.sync_in(at);
  control_.post_at(sim_, deliver_at,
                   [this, resp, done = std::move(done)]() mutable {
                     resp.completed_at = sim_.now();
                     if (done) done(resp);
                   });
}

OcpSlave::OcpSlave(NetworkAdapter& na, ClockDomain clock, std::string name,
                   std::size_t memory_words)
    : sim_(na.router().ctx().sim()),
      na_(na),
      clock_(clock),
      name_(std::move(name)),
      memory_(memory_words, 0) {
  control_.bind_kernel(sim_);
  na_.set_be_handler(
      [this](BePacket&& pkt, sim::Time at) { on_packet(std::move(pkt), at); });
}

std::uint32_t OcpSlave::peek(std::uint32_t addr) const {
  MANGO_ASSERT(addr < memory_.size(), "peek out of range");
  return memory_[addr];
}

void OcpSlave::poke(std::uint32_t addr, std::uint32_t data) {
  MANGO_ASSERT(addr < memory_.size(), "poke out of range");
  memory_[addr] = data;
}

void OcpSlave::on_packet(BePacket&& pkt, sim::Time at) {
  MANGO_ASSERT(pkt.size() >= 3, "short OCP request");
  const std::uint32_t w0 = pkt.flits[1].data;
  const OcpCmd cmd = ocp_decode_cmd(w0);
  const std::uint8_t tag = ocp_decode_tag(w0);
  const std::uint32_t addr = ocp_decode_low20(w0);
  const std::uint32_t return_header = pkt.flits[2].data;

  std::uint32_t status = 0;
  std::uint32_t rdata = 0;
  if (addr >= memory_.size()) {
    status = 1;  // address error
  } else if (cmd == OcpCmd::kWrite) {
    MANGO_ASSERT(pkt.size() >= 4, "write request lacks data");
    memory_[addr] = pkt.flits[3].data;
  } else {
    rdata = memory_[addr];
  }
  ++served_;

  // Serve on the slave's clock (ingress sync of the delivery instant +
  // one service cycle), then send the response along the pre-built
  // return route.
  const sim::Time respond_at = clock_.sync_in(at) + clock_.period();
  control_.post_at(
      sim_, respond_at, [this, cmd, tag, status, rdata, return_header] {
        std::vector<std::uint32_t> payload;
        payload.push_back(ocp_encode_cmd(OcpCmd::kResp, tag, status));
        if (cmd == OcpCmd::kRead) payload.push_back(rdata);
        // Wrap the pre-built header into a packet manually: the route was
        // encoded by the master, we must not rebuild it.
        BePacket pkt;
        Flit header;
        header.data = return_header;
        header.tag = tag;
        header.injected_at = sim_.now();
        pkt.flits.push_back(header);
        for (std::size_t i = 0; i < payload.size(); ++i) {
          Flit f;
          f.data = payload[i];
          f.tag = tag;
          f.seq = i + 1;
          f.eop = (i + 1 == payload.size());
          f.injected_at = sim_.now();
          pkt.flits.push_back(f);
        }
        na_.send_be_packet(std::move(pkt));
      });
}

}  // namespace mango::noc
