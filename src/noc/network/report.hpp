// Network-wide observability: per-router activity and per-link
// utilization summaries for examples, benches and post-run analysis,
// the broker's connection-lifecycle summary, and the JSON writer the
// exp/ sweep report uses.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "noc/network/network.hpp"
#include "sim/time.hpp"

namespace mango::noc {

class ConnectionBroker;

/// Version stamp of the exp/ sweep report, the one JSON document the
/// product writes. History:
///   1 — implicit: documents without a "schema_version" member (PR 2-4)
///   2 — schema_version stamped; connection-lifecycle fields (broker
///       setup/teardown latency percentiles, blocking probability) and
///       the scenario churn_* stats columns
/// Bump on any field addition/removal so downstream tooling can detect
/// what it is parsing.
inline constexpr std::uint64_t kReportSchemaVersion = 2;

/// Minimal streaming JSON writer. Emits deterministic, byte-stable
/// output: doubles are rendered with %.17g (shortest exact round-trip
/// is not needed — identical bits always yield identical text), and the
/// caller controls key order. No pretty-printing state beyond a fixed
/// two-space indent.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Writes the key of the next member (objects only).
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v) { value(std::string(v)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);

  /// key + value in one call.
  template <typename T>
  void kv(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

 private:
  void comma_and_indent();

  std::string* out_;
  struct Level {
    bool array = false;
    bool first = true;
  };
  std::vector<Level> stack_;
  bool pending_key_ = false;
};

struct LinkReport {
  NodeId a;
  PortIdx a_port = 0;
  std::uint64_t flits = 0;
  double utilization = 0.0;  ///< flits * arb_cycle / window, both directions
};

struct RouterReport {
  NodeId node;
  std::uint64_t switch_flits = 0;
  std::uint64_t arb_grants = 0;
  std::uint64_t be_flits = 0;
  std::uint64_t vc_control_signals = 0;
};

/// Connection-lifecycle summary from a ConnectionBroker: admission
/// counts, blocking probability and setup/teardown latency percentiles.
struct ConnectionLifecycleReport {
  std::uint64_t requested = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  std::uint64_t ready = 0;
  std::uint64_t closed = 0;
  std::uint64_t retries = 0;
  double blocking_probability = 0.0;
  double setup_p50_ns = 0.0;
  double setup_p99_ns = 0.0;
  double setup_max_ns = 0.0;
  double teardown_p50_ns = 0.0;
  double teardown_p99_ns = 0.0;

  static ConnectionLifecycleReport from(const ConnectionBroker& broker);
};

struct NetworkReport {
  std::string topology;  ///< fabric label, e.g. "mesh-4x4" or "ring-16"
  std::vector<RouterReport> routers;
  std::vector<LinkReport> links;
  std::uint64_t total_flits_on_links = 0;
  double peak_link_utilization = 0.0;

  /// Collects counters from every router and link; `window_ps` is the
  /// observation window used to normalize utilizations.
  static NetworkReport collect(Network& net, sim::Time window_ps);

  /// Renders a compact table to `out`.
  void print(std::FILE* out = stdout) const;
};

}  // namespace mango::noc
