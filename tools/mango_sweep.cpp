// mango_sweep: run a grid of MANGO simulation scenarios across worker
// threads and report per-scenario stats.
//
//   mango_sweep --preset ci-smoke --jobs 4 --out results.json
//   mango_sweep --mesh 4x4,8x8 --pattern uniform,tornado
//               --interarrival 4000,16000 --gs ring --seeds 2
//
// Exit codes: 0 = all scenarios ran with guarantees met; 1 = usage or
// scenario error; 2 = at least one GS guarantee violation.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "sim/stats.hpp"

using namespace mango;

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: mango_sweep [--preset NAME | grid flags] [options]\n"
      "\n"
      "  --preset NAME         run a named preset grid (see --list-presets)\n"
      "  --list-presets        print preset names and sizes, then exit\n"
      "\n"
      "grid flags (combine freely; each takes a comma-separated list):\n"
      "  --topology T[,T...]   mesh torus ring graph cmesh, or 'all'\n"
      "                        (= the four base kinds; cmesh is opt-in).\n"
      "                        torus and ring enable the second BE VC\n"
      "                        (dateline deadlock avoidance). ring/graph\n"
      "                        use width*height nodes of the --mesh size;\n"
      "                        graph is the built-in irregular fabric;\n"
      "                        cmesh is a mesh with --concentration cores\n"
      "                        per router\n"
      "  --mesh WxH[,WxH...]   fabric sizes (default 4x4)\n"
      "  --concentration N     cores per router on cmesh fabrics\n"
      "                        (default 1; ignored elsewhere)\n"
      "  --pattern P[,P...]    uniform transpose bit-complement tornado\n"
      "                        hotspot bursty, or 'all' (transpose and\n"
      "                        tornado are undefined on some fabrics and\n"
      "                        fail loudly there)\n"
      "  --interarrival PS     mean BE interarrival per node, picoseconds\n"
      "  --gs K[,K...]         none ring random-pairs all-to-hotspot\n"
      "  --churn PS[,PS...]    mean gap between runtime connection-open\n"
      "                        requests (ConnectionBroker admission +\n"
      "                        BE-packet programming); 0 = no churn\n"
      "  --seeds N             seeds 1..N (or --seed S for a single one)\n"
      "\n"
      "scenario options:\n"
      "  --gs-period PS        GS flit period per connection (0 = saturate)\n"
      "  --churn-hold PS       mean holding time of churn connections\n"
      "  --churn-queue N       broker queue depth (0 = reject when busy)\n"
      "  --churn-gs-period PS  CBR period of churn streams (>= worst-case\n"
      "                        per-VC service time, so closes can drain)\n"
      "  --duration-ns N       simulated horizon per scenario\n"
      "  --payload W           BE payload words per packet\n"
      "  --arbiter A           fair-share (default), static-priority, or\n"
      "                        unregulated (ablation: no guarantees)\n"
      "\n"
      "run options:\n"
      "  --filter SUBSTR       run only scenarios whose name contains\n"
      "                        SUBSTR (applied after grid expansion; the\n"
      "                        golden_scale-1k-* ctests use this to pick\n"
      "                        the small rows of scale-1k)\n"
      "  --jobs N              worker threads (default: hardware cores)\n"
      "  --shards N            kernel shards per scenario: the fabric is\n"
      "                        partitioned across N threads advancing in\n"
      "                        conservative lookahead windows. Stats are\n"
      "                        byte-identical for every N on the golden\n"
      "                        corpus and the tested grids (DESIGN.md\n"
      "                        section 8 records a known counterexample);\n"
      "                        wall time is not. Clamped (with a warning)\n"
      "                        so that jobs x shards never exceeds the\n"
      "                        hardware thread count\n"
      "  --repeat N            run each scenario N times; stats come from\n"
      "                        run 1 (and must match every rerun), wall\n"
      "                        time keeps the best — the JSON report's\n"
      "                        events_per_sec column is then a\n"
      "                        reproducible best-of-N figure\n"
      "  --spin-us N           shard-barrier spin budget in microseconds\n"
      "                        before falling back to the condvar sleep\n"
      "                        (default 50; 0 = condvar-only; ignored\n"
      "                        when cores < shards). Stats unchanged\n"
      "  --out FILE            write the JSON report to FILE\n"
      "  --stable              omit wall-clock fields from the JSON so\n"
      "                        reports of identical sweeps are byte-equal\n"
      "  --quiet               no per-scenario progress lines\n",
      out);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      out.push_back(s.substr(pos));
      break;
    }
    out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  // Digits only: strtoull would silently wrap a leading '-'.
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_mesh(const std::string& s, std::uint16_t* w, std::uint16_t* h) {
  const std::size_t x = s.find('x');
  if (x == std::string::npos) return false;
  std::uint64_t pw = 0, ph = 0;
  if (!parse_u64(s.substr(0, x), &pw) || !parse_u64(s.substr(x + 1), &ph)) {
    return false;
  }
  if (pw == 0 || ph == 0 || pw > 64 || ph > 64) return false;
  *w = static_cast<std::uint16_t>(pw);
  *h = static_cast<std::uint16_t>(ph);
  return true;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "mango_sweep: %s\n", msg.c_str());
  std::exit(1);
}

void print_summary(const exp::SweepReport& report) {
  sim::TablePrinter table({"scenario", "events", "BE pkts", "BE p99 ns",
                           "GS flits", "GS p99 ns", "jitter ns", "viol"});
  for (const exp::ScenarioResult& r : report.results) {
    if (!r.ok()) {
      table.add_row({r.spec.name, "ERROR", r.error, "", "", "", "", ""});
      continue;
    }
    const exp::ScenarioStats& st = r.stats;
    table.add_row({r.spec.name, std::to_string(st.events),
                   std::to_string(st.be_packets_delivered),
                   sim::TablePrinter::fmt(st.be_latency_p99_ns, 1),
                   std::to_string(st.gs_flits_delivered),
                   sim::TablePrinter::fmt(st.gs_latency_p99_ns, 1),
                   sim::TablePrinter::fmt(st.gs_jitter_max_ns, 2),
                   std::to_string(st.guarantee_violations)});
  }
  table.print();
  std::printf(
      "\n%zu scenarios, %zu failed, %llu guarantee violations, "
      "%llu events in %.0f ms with %u jobs (%.0f scenarios/hour)\n",
      report.results.size(), report.failed(),
      static_cast<unsigned long long>(report.total_violations()),
      static_cast<unsigned long long>(report.total_events()), report.wall_ms,
      report.jobs, report.scenarios_per_hour());
  std::printf("fabric plans: %llu built, %llu reused\n",
              static_cast<unsigned long long>(report.plan_builds),
              static_cast<unsigned long long>(report.plan_hits));
  std::uint64_t creq = 0, crej = 0, cclosed = 0;
  for (const exp::ScenarioResult& r : report.results) {
    creq += r.stats.churn_requested;
    crej += r.stats.churn_rejected;
    cclosed += r.stats.churn_closed;
  }
  if (creq > 0) {
    std::printf("churn: %llu open requests, %llu rejected (blocking %.3f), "
                "%llu closes completed\n",
                static_cast<unsigned long long>(creq),
                static_cast<unsigned long long>(crej),
                static_cast<double>(crej) / static_cast<double>(creq),
                static_cast<unsigned long long>(cclosed));
  }
}

}  // namespace

int main(int argc, char** argv) {
  exp::SweepGrid grid;
  std::string preset;
  std::string filter;
  std::string out_file;
  unsigned jobs = 0;  // hardware concurrency
  unsigned repeat = 1;
  bool stable = false;
  bool quiet = false;
  bool have_grid_flags = false;
  // Scenario options given explicitly (so they override a preset even
  // when the value happens to equal the ScenarioSpec default).
  bool set_duration = false;
  bool set_gs_period = false;
  bool set_payload = false;
  bool set_arbiter = false;
  bool set_churn_hold = false;
  bool set_churn_queue = false;
  bool set_churn_gs_period = false;
  bool set_shards = false;
  bool set_spin_us = false;

  const auto next_arg = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) die(std::string(flag) + " needs an argument");
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--list-presets") {
      for (const std::string& name : exp::preset_names()) {
        const auto g = exp::find_preset(name);
        std::string topos;
        const auto kinds = g->topologies.empty()
                               ? std::vector<noc::TopologyKind>{
                                     g->base.topology}
                               : g->topologies;
        for (const noc::TopologyKind k : kinds) {
          if (!topos.empty()) topos += ",";
          topos += noc::to_string(k);
        }
        std::printf("%-16s %3zu scenarios  topologies=%s\n", name.c_str(),
                    g->expand().size(), topos.c_str());
      }
      return 0;
    } else if (arg == "--preset") {
      preset = next_arg(i, "--preset");
    } else if (arg == "--topology") {
      std::vector<noc::TopologyKind> kinds;
      for (const std::string& t : split_csv(next_arg(i, "--topology"))) {
        if (t == "all") {
          kinds = noc::all_topology_kinds();
          break;
        }
        const auto parsed = noc::topology_kind_from_string(t);
        if (!parsed.has_value()) die("unknown topology '" + t + "'");
        kinds.push_back(*parsed);
      }
      grid.topologies = kinds;
      for (const noc::TopologyKind k : kinds) {
        // Wrap fabrics route with dateline VC classes; arm the second
        // BE VC the scheme needs (documented in --help).
        if (k == noc::TopologyKind::kTorus ||
            k == noc::TopologyKind::kRing) {
          grid.base.router.be_vcs = 2;
        }
      }
      have_grid_flags = true;
    } else if (arg == "--mesh") {
      for (const std::string& m : split_csv(next_arg(i, "--mesh"))) {
        std::uint16_t w = 0, h = 0;
        if (!parse_mesh(m, &w, &h)) die("bad mesh '" + m + "' (want WxH)");
        grid.meshes.emplace_back(w, h);
      }
      have_grid_flags = true;
    } else if (arg == "--pattern") {
      for (const std::string& p : split_csv(next_arg(i, "--pattern"))) {
        if (p == "all") {
          grid.patterns = noc::all_be_patterns();
          break;
        }
        const auto parsed = noc::be_pattern_from_string(p);
        if (!parsed.has_value()) die("unknown pattern '" + p + "'");
        grid.patterns.push_back(*parsed);
      }
      have_grid_flags = true;
    } else if (arg == "--interarrival") {
      for (const std::string& v : split_csv(next_arg(i, "--interarrival"))) {
        std::uint64_t ps = 0;
        if (!parse_u64(v, &ps)) die("bad interarrival '" + v + "'");
        grid.interarrivals_ps.push_back(ps);
      }
      have_grid_flags = true;
    } else if (arg == "--gs") {
      for (const std::string& k : split_csv(next_arg(i, "--gs"))) {
        const auto parsed = noc::gs_set_from_string(k);
        if (!parsed.has_value()) die("unknown GS set '" + k + "'");
        grid.gs_sets.push_back(*parsed);
      }
      have_grid_flags = true;
    } else if (arg == "--churn") {
      for (const std::string& v : split_csv(next_arg(i, "--churn"))) {
        std::uint64_t ps = 0;
        if (!parse_u64(v, &ps)) die("bad churn interarrival '" + v + "'");
        grid.churn_interarrivals_ps.push_back(ps);
      }
      have_grid_flags = true;
    } else if (arg == "--churn-hold") {
      std::uint64_t ps = 0;
      if (!parse_u64(next_arg(i, "--churn-hold"), &ps) || ps == 0) {
        die("bad --churn-hold");
      }
      grid.base.churn_hold_ps = ps;
      set_churn_hold = true;
    } else if (arg == "--churn-queue") {
      std::uint64_t n = 0;
      if (!parse_u64(next_arg(i, "--churn-queue"), &n) || n > 100000) {
        die("bad --churn-queue");
      }
      grid.base.churn_queue = static_cast<unsigned>(n);
      set_churn_queue = true;
    } else if (arg == "--churn-gs-period") {
      std::uint64_t ps = 0;
      if (!parse_u64(next_arg(i, "--churn-gs-period"), &ps) || ps == 0) {
        die("bad --churn-gs-period");
      }
      grid.base.churn_gs_period_ps = ps;
      set_churn_gs_period = true;
    } else if (arg == "--concentration") {
      std::uint64_t k = 0;
      if (!parse_u64(next_arg(i, "--concentration"), &k) || k == 0 ||
          k > 16) {
        die("bad --concentration (want 1..16)");
      }
      grid.base.concentration = static_cast<std::uint16_t>(k);
      have_grid_flags = true;
    } else if (arg == "--seeds") {
      std::uint64_t n = 0;
      if (!parse_u64(next_arg(i, "--seeds"), &n) || n == 0 || n > 4096) {
        die("bad --seeds count");
      }
      grid.seeds.clear();
      for (std::uint64_t s = 1; s <= n; ++s) grid.seeds.push_back(s);
      have_grid_flags = true;
    } else if (arg == "--seed") {
      std::uint64_t s = 0;
      if (!parse_u64(next_arg(i, "--seed"), &s)) die("bad --seed");
      grid.seeds = {s};
      have_grid_flags = true;
    } else if (arg == "--gs-period") {
      std::uint64_t ps = 0;
      if (!parse_u64(next_arg(i, "--gs-period"), &ps)) die("bad --gs-period");
      grid.base.gs_period_ps = ps;
      set_gs_period = true;
    } else if (arg == "--duration-ns") {
      std::uint64_t ns = 0;
      if (!parse_u64(next_arg(i, "--duration-ns"), &ns) || ns == 0 ||
          ns > 1000000000000ull) {
        die("bad --duration-ns");
      }
      grid.base.duration_ps = ns * 1000;
      set_duration = true;
    } else if (arg == "--payload") {
      std::uint64_t w = 0;
      if (!parse_u64(next_arg(i, "--payload"), &w) || w == 0 || w > 256) {
        die("bad --payload");
      }
      grid.base.payload_words = static_cast<unsigned>(w);
      set_payload = true;
    } else if (arg == "--arbiter") {
      const std::string a = next_arg(i, "--arbiter");
      if (a == "fair-share") {
        grid.base.router.arbiter = noc::ArbiterKind::kFairShare;
      } else if (a == "static-priority") {
        grid.base.router.arbiter = noc::ArbiterKind::kStaticPriority;
      } else if (a == "unregulated") {
        grid.base.router.arbiter = noc::ArbiterKind::kUnregulated;
      } else {
        die("unknown arbiter '" + a + "'");
      }
      set_arbiter = true;
    } else if (arg == "--jobs") {
      std::uint64_t n = 0;
      if (!parse_u64(next_arg(i, "--jobs"), &n) || n > 1024) {
        die("bad --jobs");
      }
      jobs = static_cast<unsigned>(n);
    } else if (arg == "--shards") {
      std::uint64_t n = 0;
      if (!parse_u64(next_arg(i, "--shards"), &n) || n == 0 || n > 64) {
        die("bad --shards (want 1..64)");
      }
      grid.base.shards = static_cast<unsigned>(n);
      set_shards = true;
    } else if (arg == "--spin-us") {
      std::uint64_t n = 0;
      if (!parse_u64(next_arg(i, "--spin-us"), &n) || n > 10000) {
        die("bad --spin-us (want 0..10000)");
      }
      grid.base.spin_us = static_cast<std::uint32_t>(n);
      set_spin_us = true;
    } else if (arg == "--repeat") {
      std::uint64_t n = 0;
      if (!parse_u64(next_arg(i, "--repeat"), &n) || n == 0 || n > 100) {
        die("bad --repeat (want 1..100)");
      }
      repeat = static_cast<unsigned>(n);
    } else if (arg == "--filter") {
      filter = next_arg(i, "--filter");
    } else if (arg == "--out") {
      out_file = next_arg(i, "--out");
    } else if (arg == "--stable") {
      stable = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage(stderr);
      die("unknown argument '" + arg + "'");
    }
  }

  if (!preset.empty()) {
    if (have_grid_flags) die("--preset cannot be combined with grid flags");
    const auto g = exp::find_preset(preset);
    if (!g.has_value()) die("unknown preset '" + preset + "'");
    // Explicit scenario options (--duration-ns etc.) still apply on top.
    const exp::ScenarioSpec base = grid.base;
    grid = *g;
    if (set_duration) grid.base.duration_ps = base.duration_ps;
    if (set_gs_period) grid.base.gs_period_ps = base.gs_period_ps;
    if (set_payload) grid.base.payload_words = base.payload_words;
    if (set_arbiter) grid.base.router.arbiter = base.router.arbiter;
    if (set_churn_hold) grid.base.churn_hold_ps = base.churn_hold_ps;
    if (set_churn_queue) grid.base.churn_queue = base.churn_queue;
    if (set_churn_gs_period) {
      grid.base.churn_gs_period_ps = base.churn_gs_period_ps;
    }
    if (set_shards) grid.base.shards = base.shards;
    if (set_spin_us) grid.base.spin_us = base.spin_us;
  }

  std::vector<exp::ScenarioSpec> specs = grid.expand();
  if (!filter.empty()) {
    std::vector<exp::ScenarioSpec> kept;
    for (exp::ScenarioSpec& s : specs) {
      if (s.name.find(filter) != std::string::npos) {
        kept.push_back(std::move(s));
      }
    }
    if (kept.empty()) {
      die("--filter '" + filter + "' matches no scenario of this grid");
    }
    specs = std::move(kept);
  }
  if (specs.empty()) die("empty scenario grid");

  // Open the report before the grid runs: a path that cannot be written
  // fails now, not after the whole sweep's wall time.
  std::FILE* out = nullptr;
  if (!out_file.empty()) {
    out = std::fopen(out_file.c_str(), "w");
    if (out == nullptr) die("cannot open '" + out_file + "' for writing");
  }

  exp::SweepRunner::ProgressFn progress;
  if (!quiet) {
    std::printf("running %zu scenarios...\n", specs.size());
    progress = [](std::size_t done, std::size_t total,
                  const exp::ScenarioResult& r) {
      std::printf("[%3zu/%zu] %-40s %s (%.0f ms)\n", done, total,
                  r.spec.name.c_str(), r.ok() ? "ok" : r.error.c_str(),
                  r.wall_ms);
      std::fflush(stdout);
    };
  }

  const exp::SweepReport report =
      exp::SweepRunner().run(specs, jobs, progress, repeat);

  if (!quiet) {
    std::printf("\n");
    print_summary(report);
  }

  if (out != nullptr) {
    const std::string json = stable ? report.stats_json() : report.full_json();
    const bool written = std::fwrite(json.data(), 1, json.size(), out) ==
                         json.size();
    // fclose flushes the buffered tail, so it can fail even when every
    // fwrite was accepted.
    if (std::fclose(out) != 0 || !written) {
      die("cannot write the report to '" + out_file + "'");
    }
    if (!quiet) std::printf("report written to %s\n", out_file.c_str());
  }

  if (report.failed() > 0) return 1;
  if (report.total_violations() > 0) return 2;
  return 0;
}
