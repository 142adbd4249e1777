// OCP-style transaction layer and GALS clock-domain model (Section 3).
//
// IP cores speak OCP read/write transactions to their network adapter;
// cores are independently clocked while the network is clockless. The
// model quantizes a core's actions to its own clock edges and charges a
// two-cycle synchronizer per domain crossing — the cost a GALS system
// pays at each NA.
//
// Wire format of a transaction over BE packets (a reconstruction; OCP
// itself does not define the network encoding):
//   request:  w0 = [cmd(4) | tag(8) | addr(20)], w1 = return-route header,
//             w2 = data (writes only)
//   response: w0 = [kResp(4) | tag(8) | status(20)], w1 = data (reads)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "noc/common/packet.hpp"
#include "noc/na/network_adapter.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

/// A clocked domain: quantizes event times to clock edges.
class ClockDomain {
 public:
  ClockDomain(sim::Time period, sim::Time phase = 0)
      : period_(period), phase_(phase) {}

  sim::Time period() const { return period_; }

  /// First clock edge at or after t.
  sim::Time next_edge(sim::Time t) const;

  /// Arrival time in this domain of an asynchronous event at t, through a
  /// two-flop synchronizer: the second edge strictly after t.
  sim::Time sync_in(sim::Time t) const { return next_edge(t + 1) + period_; }

 private:
  sim::Time period_;
  sim::Time phase_;
};

enum class OcpCmd : std::uint8_t { kWrite = 1, kRead = 2, kResp = 3 };

struct OcpRequest {
  OcpCmd cmd = OcpCmd::kWrite;
  std::uint32_t addr = 0;
  std::uint32_t data = 0;
};

struct OcpResponse {
  std::uint32_t data = 0;
  bool ok = false;
  sim::Time issued_at = 0;
  sim::Time completed_at = 0;
};

/// Encodes/decodes the transaction words (exposed for tests).
std::uint32_t ocp_encode_cmd(OcpCmd cmd, std::uint8_t tag, std::uint32_t low20);
OcpCmd ocp_decode_cmd(std::uint32_t w0);
std::uint8_t ocp_decode_tag(std::uint32_t w0);
std::uint32_t ocp_decode_low20(std::uint32_t w0);

/// A clocked OCP master issuing transactions over the BE network.
class OcpMaster {
 public:
  using Completion = std::function<void(const OcpResponse&)>;

  /// Speaks through `na` and runs in its SimContext.
  OcpMaster(NetworkAdapter& na, ClockDomain clock, std::string name);

  /// Issues a transaction to the slave reached by `route`; `return_route`
  /// is the slave-to-master route for the response. The completion fires
  /// in the master's clock domain.
  void issue(const OcpRequest& req, const BeRoute& route,
             const BeRoute& return_route, Completion done);

  std::uint64_t outstanding() const { return pending_.size(); }
  std::uint64_t completed() const { return completed_; }

 private:
  void on_packet(BePacket&& pkt);

  sim::Simulator& sim_;
  /// Schedules the clock-edge actions as kernel-mode control posts (the
  /// NA has registered the model's dispatcher on sim_).
  sim::ControlPlane control_;
  NetworkAdapter& na_;
  ClockDomain clock_;
  std::string name_;
  std::uint8_t next_tag_ = 0;
  std::map<std::uint8_t, std::pair<Completion, sim::Time>> pending_;
  std::uint64_t completed_ = 0;
};

/// A clocked OCP slave: a small memory served over the BE network.
class OcpSlave {
 public:
  OcpSlave(NetworkAdapter& na, ClockDomain clock, std::string name,
           std::size_t memory_words = 1024);

  std::uint32_t peek(std::uint32_t addr) const;
  void poke(std::uint32_t addr, std::uint32_t data);
  std::uint64_t requests_served() const { return served_; }

 private:
  void on_packet(BePacket&& pkt);

  sim::Simulator& sim_;
  /// Schedules the clock-edge actions as kernel-mode control posts (the
  /// NA has registered the model's dispatcher on sim_).
  sim::ControlPlane control_;
  NetworkAdapter& na_;
  ClockDomain clock_;
  std::string name_;
  std::vector<std::uint32_t> memory_;
  std::uint64_t served_ = 0;
};

}  // namespace mango::noc
