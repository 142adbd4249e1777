#!/usr/bin/env python3
"""Repository benchmark of the MANGO NoC simulator.

    python3 perfbench/run.py --workload mesh8-gs [--seed 1] [--seconds 30] [--trace 0|1]
    python3 perfbench/run.py --smoke

Builds the simulator from the checkout's sources into .bench_build/perfbench
(Release only), then measures one workload for --seconds:

  --trace 0  repeats the workload, one process per repetition, through
             exp::run_scenario(spec, RunOptions{}) and reports the
             end-to-end metrics as medians over the repetitions;
  --trace 1  adds the traced replay (spans around every layer's public
             calls, written to .bench_build/perfbench/traces) and the
             mango_sweep cross-reference, and reports the per-layer metrics.

Every repetition's stats are hashed and gated: a digest that differs from
the first repetition, a guarantee violation, a sequence error or a scenario
error fails the repetition's GS connections. mesh8-shards2's digest is also
compared with mesh8-gs's (shard-count invariance); a mismatch is reported as
shard.single_kernel_match = 0 and a warning, not as failed connections,
because the shard engine diverges from the single kernel on some seeds.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --smoke runs both paths once on a
4x4 mesh and checks the metric set, digests and failures in seconds.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BIN = BUILD / "mango_bench"
SWEEP = BUILD / "mango_sweep"
CHILD_TIMEOUT_S = 150

# The workloads BENCHMARK.json gates on, then mesh32-be: the 1024-router
# regime, runnable by hand but not gated, because on a shared host its
# memory-bound host time swings more run to run than any bound allows.
WORKLOADS = ("mesh8-gs", "torus8-churn", "mesh8-shards2", "mesh32-be")
# Sharded workloads and the single-kernel workload whose stats they are
# meant to reproduce byte for byte.
SINGLE_KERNEL_TWIN = {"mesh8-shards2": "mesh8-gs"}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "ev/s",
    "peak_rss_mb": "MB",
    "gs_latency_p99_ns": "ns",
    "be_latency_p99_ns": "ns",
    "kept_frac": "ratio",
}

PER_LAYER = {
    "plan.topology_ms": "ms",
    "plan.routing_ms": "ms",
    "plan.route_table_ms": "ms",
    "plan.cdg_ms": "ms",
    "plan.partition_ms": "ms",
    "plan.heap_mb": "MB",
    "net.assemble_ms": "ms",
    "net.arena_mb": "MB",
    "conn.open_set_ms": "ms",
    "conn.gs_connections": "count",
    "churn.requested": "count",
    "churn.admitted": "count",
    "churn.rejected": "count",
    "churn.closed": "count",
    "churn.admit_ratio": "ratio",
    "churn.setup_p99_ns": "ns",
    "traffic.start_ms": "ms",
    "traffic.be_generated": "count",
    "traffic.gs_generated": "count",
    "traffic.be_held_ratio": "ratio",
    "loop.events": "count",
    "loop.events_per_sim_ns": "ev/ns",
    "loop.ns_per_event_first": "ns/ev",
    "loop.ns_per_event_steady": "ns/ev",
    "loop.heap_growth_mb": "MB",
    "loop.events_per_link_flit": "ev/flit",
    "router.switch_flits": "count",
    "router.arb_grants": "count",
    "router.be_flits": "count",
    "router.vc_control_signals": "count",
    "link.flits": "count",
    "link.peak_utilization": "ratio",
    "sink.gs_samples": "count",
    "sink.be_samples": "count",
    "report.collect_ms": "ms",
    "report.network_ms": "ms",
    "report.json_ms": "ms",
    "shard.windows_run": "count",
    "shard.windows_elided": "count",
    "shard.elided_ratio": "ratio",
    "shard.event_imbalance": "ratio",
    "shard.single_kernel_match": "bool",
    "trace.overhead_ms": "ms",
    "trace.span_coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and environment
# ---------------------------------------------------------------------------

def build():
    for need in ("src/exp/scenario.cpp", "tools/mango_sweep.cpp"):
        if not (ROOT / need).is_file():
            raise BenchError(f"mango sources not found: {need} is missing "
                             "next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = [cmake, "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        run_build_step(cfg)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step([cmake, "--build", str(BUILD), "-j", jobs])
    info = child_json([str(BIN), "info"])
    if info["defect"]:
        raise BenchError(f"refusing to measure this binary: {info['defect']}")
    return info


def run_build_step(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=840)
    if p.returncode != 0:
        log(p.stdout)
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def environment(info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = p.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [
            ROOT / "tools" / "mango_sweep.cpp", HERE / "mango_bench.cpp"]:
        if path.is_file():
            src.update(str(path.relative_to(ROOT)).encode())
            src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": info["compiler"],
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_json(cmd):
    """Runs one child to completion and parses its JSON output."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    if p.returncode != 0 or not p.stdout.strip():
        log(p.stderr)
        raise BenchError(f"exit {p.returncode}: {' '.join(cmd)}")
    return json.loads(p.stdout)


def run_rep(workload, seed):
    return child_json([str(BIN), "run", workload, str(seed)])


def trace_rep(workload, seed, index):
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / f"{workload}-s{seed}-{index}.json"
    out = child_json([str(BIN), "trace", workload, str(seed), str(spans_path)])
    spans = json.loads(spans_path.read_text())["spans"]
    covered = sum(s["end_ns"] - s["start_ns"] for s in spans
                  if s["name"] in ("setup", "report")
                  or s["name"].startswith("loop.slice."))
    out["span_coverage"] = covered / 1e6 / out["wall_ms"]
    return out


def fnv1a(data):
    h = 1469598103934665603
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def cross_reference(workload, seed, ref):
    """Runs the equivalent mango_sweep grid; returns (events, digest)."""
    xref = BUILD / "xref"
    xref.mkdir(parents=True, exist_ok=True)
    out = xref / f"{workload}-s{seed}.json"
    args = ref["workloads"][workload]["mango_sweep"]
    cmd = [str(SWEEP), *args, "--seed", str(seed), "--stable", "--quiet",
           "--out", str(out)]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode not in (0, 2) or not out.is_file():
        log(p.stderr)
        raise BenchError(f"exit {p.returncode}: {' '.join(cmd)}")
    data = out.read_bytes()
    events = json.loads(data)["results"][0]["stats"]["events"]
    return events, fnv1a(data)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def repeat_until(deadline, min_reps, fn):
    reps = []
    while len(reps) < min_reps or time.monotonic() < deadline:
        reps.append(fn(len(reps)))
    return reps


class Gate:
    """Counts attempted and failed GS connections across repetitions."""

    def __init__(self):
        self.reference = None  # the first good repetition's digest
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, rep, label):
        size = rep.get("gs_connections", 0) + rep.get("churn_requested", 0)
        attempted = max(size, 1)
        if self.reference is None and rep.get("ok", True):
            self.reference = rep["digest"]
        if not rep.get("ok", True):
            failed = attempted
            self.problems.append(f"{label}: scenario error: {rep['error']}")
        elif rep["digest"] != self.reference:
            failed = attempted
            self.problems.append(f"{label}: stats digest {rep['digest']} != "
                                 f"{self.reference}")
        else:
            failed = max(rep["guarantee_violations"],
                         1 if rep["gs_seq_errors"] else 0)
            if failed:
                self.problems.append(f"{label}: {failed} guarantee violations")
        self.attempted += attempted
        self.failed += failed

    def note(self, problem):
        """A check outside the connection count (it makes the run wrong)."""
        self.problems.append(problem)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end_metrics(reps, gate):
    good = [r for r in reps if r["ok"]] or reps
    samples = {
        "setup_s": [r["construct_ms"] / 1e3 for r in good],
        "run_s": [r["run_ms"] / 1e3 for r in good],
        "events_per_s": [r["events"] / (r["wall_ms"] / 1e3) for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "gs_latency_p99_ns": [r["gs_latency_p99_ns"] for r in good],
        "be_latency_p99_ns": [r["be_latency_p99_ns"] for r in good],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["kept_frac"] = 1.0 - gate.failed / max(gate.attempted, 1)
    for name, v in samples.items():
        q1, q3 = quartiles(v)
        print(f"  {name:<20} {metrics[name]:<14.6g} {END_TO_END[name]:<6} "
              f"median of {len(v)}; q1 {q1:.6g}, q3 {q3:.6g}, "
              f"min {min(v):.6g}, max {max(v):.6g}")
    print(f"  {'failed_frac':<20} {gate.failed / max(gate.attempted, 1):<14.6g}"
          f" {'ratio':<6} {gate.failed} of {gate.attempted} attempted GS "
          f"connections (kept_frac = 1 - failed_frac)")
    return metrics


def per_layer_metrics(traced, untraced, twin_match):
    metrics = {"shard.single_kernel_match": 1 if twin_match else 0}
    for name in traced[0]["metrics"]:
        metrics[name] = statistics.median(t["metrics"][name] for t in traced)
    traced_wall = statistics.median(t["wall_ms"] + t["teardown_ms"]
                                    for t in traced)
    untraced_wall = statistics.median(r["wall_ms"] for r in untraced)
    metrics["trace.overhead_ms"] = traced_wall - untraced_wall
    metrics["trace.span_coverage"] = statistics.median(
        t["span_coverage"] for t in traced)
    for name in PER_LAYER:
        print(f"  {name:<28} {metrics[name]:<16.6g} {PER_LAYER[name]}")
    print(f"  (medians of {len(traced)} traced replays; overhead is traced "
          f"{traced_wall:.1f} ms minus untraced median {untraced_wall:.1f} ms)")
    return metrics


def measure(workload, seed, seconds, trace, ref):
    start = time.monotonic()
    gate = Gate()
    twin = SINGLE_KERNEL_TWIN.get(workload)
    twin_digest = run_rep(twin, seed)["digest"] if twin else None
    budget = seconds * (0.4 if trace else 1.0)
    untraced = repeat_until(start + budget, 3 if not trace else 2,
                            lambda i: run_rep(workload, seed))
    for i, r in enumerate(untraced):
        gate.check(r, f"repetition {i}")
    recorded = ref["workloads"][workload]["digests"].get(str(seed))
    if recorded and recorded != gate.reference:
        log(f"warning: {workload} seed {seed} stats digest {gate.reference} "
            f"differs from the recorded {recorded}: simulated behaviour "
            "changed")
    print(f"{workload} seed {seed}: {len(untraced)} untraced repetitions, "
          f"events {untraced[0]['events']}, digest {gate.reference}"
          f"{'' if not recorded else ' (recorded: ' + recorded + ')'}")
    twin_match = twin is None or twin_digest == gate.reference
    if not twin_match:
        log(f"warning: {workload} seed {seed} stats digest {gate.reference} "
            f"differs from {twin}'s {twin_digest}: the sharded run does not "
            "reproduce the single-kernel stats")
    if not trace:
        return gate, end_to_end_metrics(untraced, gate), {"untraced": untraced}

    traced = repeat_until(start + seconds, 2,
                          lambda i: trace_rep(workload, seed, i))
    for i, t in enumerate(traced):
        gate.check(t, f"traced replay {i}")
        if abs(t["span_coverage"] - 1.0) > 0.10:
            gate.note(f"traced replay {i}: setup + loop slices + report "
                      f"cover {t['span_coverage']:.3f} of its wall time")
    events, digest = cross_reference(workload, seed, ref)
    if events != untraced[0]["events"] or digest != gate.reference:
        gate.note(f"mango_sweep reports events {events} digest {digest}, "
                  f"the benchmark {untraced[0]['events']} {gate.reference}")
    print(f"  mango_sweep cross-reference: events {events}, digest {digest}")
    return (gate, per_layer_metrics(traced, untraced, twin_match),
            {"untraced": untraced, "traced": traced})


def result_line(gate, metrics, units):
    return {
        "correct": not gate.problems and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def save(name, env, result, reps):
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(
        {"environment": env, "result": result, "repetitions": reps},
        indent=1) + "\n")


def smoke(ref):
    """Both paths once on the 4x4 smoke workload, then the self-checks."""
    env = environment(build())
    gate_t, e2e, reps_t = measure("smoke", 1, 0, False, ref)
    gate_l, layers, reps_l = measure("smoke", 1, 0, True, ref)
    problems = gate_t.problems + gate_l.problems
    if gate_t.reference != gate_l.reference:
        problems.append("timed and traced paths disagree on the digest")
    if gate_t.failed or gate_l.failed:
        problems.append("failed_frac is not 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table, got in (("end_to_end", e2e), ("per_layer", layers)):
        declared = {m["name"]: m["unit"] for m in spec[table]}
        printed = END_TO_END if table == "end_to_end" else PER_LAYER
        if declared != printed:
            problems.append(f"BENCHMARK.json {table} differs from the "
                            "metrics this script prints")
        problems += [f"{table} metric {n} missing" for n in printed
                     if not isinstance(got.get(n), (int, float))]
    gate = Gate()
    gate.attempted = gate_t.attempted + gate_l.attempted
    gate.failed = gate_t.failed + gate_l.failed
    gate.problems = problems
    for p in problems:
        log(f"smoke: {p}")
    result = result_line(gate, {**e2e, **layers}, {**END_TO_END, **PER_LAYER})
    save("smoke", env, result, {"timed": reps_t, "traced": reps_l})
    print(f"smoke: {'ok' if result['correct'] else 'FAILED'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test on a 4x4 mesh (seconds)")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        ref = json.loads((HERE / "workloads.json").read_text())
        if args.smoke:
            return smoke(ref)
        env = environment(build())
        print("environment: " + json.dumps(env))
        gate, metrics, reps = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), ref)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    for p in gate.problems:
        log(f"perfbench: {p}")
    result = result_line(gate, metrics, PER_LAYER if args.trace else END_TO_END)
    save(f"{args.workload}-s{args.seed}-trace{args.trace}", env, result, reps)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
