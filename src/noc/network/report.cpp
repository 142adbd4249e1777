#include "noc/network/report.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>

#include "noc/network/connection_broker.hpp"
#include "sim/assert.hpp"

namespace mango::noc {
namespace {

void value_escaped_into(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\t': out.append("\\t"); break;
      case '\r': out.append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  out.push_back('"');
}

}  // namespace

// --- JsonWriter ------------------------------------------------------------

void JsonWriter::comma_and_indent() {
  if (stack_.empty()) return;
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key": on the same line
  }
  if (!stack_.back().first) out_->push_back(',');
  stack_.back().first = false;
  out_->push_back('\n');
  out_->append(2 * stack_.size(), ' ');
}

void JsonWriter::begin_object() {
  comma_and_indent();
  out_->push_back('{');
  stack_.push_back(Level{false, true});
}

void JsonWriter::end_object() {
  MANGO_ASSERT(!stack_.empty() && !stack_.back().array, "json: not in object");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) {
    out_->push_back('\n');
    out_->append(2 * stack_.size(), ' ');
  }
  out_->push_back('}');
}

void JsonWriter::begin_array() {
  comma_and_indent();
  out_->push_back('[');
  stack_.push_back(Level{true, true});
}

void JsonWriter::end_array() {
  MANGO_ASSERT(!stack_.empty() && stack_.back().array, "json: not in array");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) {
    out_->push_back('\n');
    out_->append(2 * stack_.size(), ' ');
  }
  out_->push_back(']');
}

void JsonWriter::key(const std::string& k) {
  MANGO_ASSERT(!stack_.empty() && !stack_.back().array,
               "json: key outside object");
  comma_and_indent();
  value_escaped_into(*out_, k);
  out_->append(": ");
  pending_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  comma_and_indent();
  value_escaped_into(*out_, v);
}

void JsonWriter::value(double v) {
  comma_and_indent();
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out_->append(std::isnan(v) ? "null" : (v > 0 ? "1e308" : "-1e308"));
    return;
  }
  // std::to_chars is specified as printf %.17g in the C locale, so the
  // output is byte-stable even when the embedding application has set a
  // comma-decimal LC_NUMERIC (snprintf would emit invalid JSON there).
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out_->append(buf, res.ptr);
}

void JsonWriter::value(std::uint64_t v) {
  comma_and_indent();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_->append(buf);
}

void JsonWriter::value(std::int64_t v) {
  comma_and_indent();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_->append(buf);
}

void JsonWriter::value(bool v) {
  comma_and_indent();
  out_->append(v ? "true" : "false");
}

ConnectionLifecycleReport ConnectionLifecycleReport::from(
    const ConnectionBroker& broker) {
  const ConnectionBroker::Stats& st = broker.stats();
  ConnectionLifecycleReport r;
  r.requested = st.requested;
  r.admitted = st.admitted;
  r.queued = st.queued;
  r.rejected = st.rejected;
  r.ready = st.ready;
  r.closed = st.closed;
  r.retries = st.retries;
  r.blocking_probability = st.blocking_probability();
  r.setup_p50_ns = st.setup_latency_ns.p50();
  r.setup_p99_ns = st.setup_latency_ns.p99();
  r.setup_max_ns = st.setup_latency_ns.max();
  r.teardown_p50_ns = st.teardown_latency_ns.p50();
  r.teardown_p99_ns = st.teardown_latency_ns.p99();
  return r;
}

NetworkReport NetworkReport::collect(Network& net, sim::Time window_ps) {
  MANGO_ASSERT(window_ps > 0, "report window must be positive");
  NetworkReport report;
  report.topology = net.topology().label();
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const NodeId n = net.node_at(i);
    const RouterActivity a = net.router(n).activity();
    report.routers.push_back(RouterReport{
        n, a.switch_flits, a.arb_grants, a.be_router_flits,
        a.vc_control_signals});
  }
  for (const auto& link : net.links()) {
    const StageDelays& d = link->endpoint_a().router->delays();
    LinkReport lr;
    lr.a = link->endpoint_a().router->node();
    lr.a_port = link->endpoint_a().port;
    lr.flits = link->flits_carried();
    // A link carries at most one flit per arb_cycle per direction; the
    // counter aggregates both directions, so normalize by 2 slots/cycle.
    lr.utilization = static_cast<double>(lr.flits) * d.arb_cycle /
                     (2.0 * static_cast<double>(window_ps));
    report.links.push_back(lr);
    report.total_flits_on_links += lr.flits;
    report.peak_link_utilization =
        std::max(report.peak_link_utilization, lr.utilization);
  }
  return report;
}

void NetworkReport::print(std::FILE* out) const {
  std::fprintf(out,
               "%-8s %12s %12s %10s %12s\n", "router", "switch flits",
               "arb grants", "BE flits", "unlock sigs");
  for (const RouterReport& r : routers) {
    std::fprintf(out, "%-8s %12llu %12llu %10llu %12llu\n",
                 to_string(r.node).c_str(),
                 static_cast<unsigned long long>(r.switch_flits),
                 static_cast<unsigned long long>(r.arb_grants),
                 static_cast<unsigned long long>(r.be_flits),
                 static_cast<unsigned long long>(r.vc_control_signals));
  }
  std::fprintf(out,
               "[%s] links: %zu, flits carried %llu, peak utilization %.1f%%\n",
               topology.c_str(), links.size(),
               static_cast<unsigned long long>(total_flits_on_links),
               peak_link_utilization * 100.0);
}

}  // namespace mango::noc
