#!/usr/bin/env python3
"""Cross-link checker: docs must not reference things that don't exist.

Greps README.md and DESIGN.md for the artifacts they point readers at —
preset names (``--preset NAME``), mango_sweep CLI flags (``--flag``),
benchmark binaries (``bench_*``), test suites (``test_*``), tracked
benchmark histories (``BENCH_*.json``) and backticked source paths
(``src/...``, ``tests/...``, ``tools/...``, ``bench/...``,
``examples/...``, and ``sim/...``, ``noc/...``, ``exp/...`` under src/),
backticked qualified names (``Class::member``, ``ns::name``),
backticked call forms (``name(`` / ``name()``), bare backticked
snake_case names (``coalesce_handshakes``, ``sleepers_``), bare
backticked CamelCase names (``ScenarioSpec``, ``DeadlockCheck``) and
backticked test cases (``Suite.Case``, ``test_binary.Case``) — and
verifies each one against ground truth: ``mango_sweep --list-presets`` /
``--help`` output, the repository tree, the identifiers of the code
(comments and docstrings stripped) under src/ and tools/ (and, for bare
snake_case names, perfbench/ and the keys of the BENCH_*.json
histories; for bare CamelCase names, perfbench/, tests/, bench/ and
examples/), and the ``TEST``, ``TEST_F`` and ``TEST_P`` declarations
under tests/.  Exits
nonzero listing every dangling reference, so CI (and the ``docs_cross_links``
ctest) fails when a rename or removal leaves the docs behind.

Usage: check_doc_links.py [--sweep-bin PATH] [--repo PATH]
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

DOC_FILES = ["README.md", "DESIGN.md"]

# Backticked paths under these roots must exist.  The src/ subtrees are
# also named without their src/ prefix, the way #include lines spell them.
PATH_ROOTS = ("src", "tests", "tools", "bench", "examples")
SRC_SUBTREES = ("sim", "noc", "exp")
PATH_RE = re.compile(r"(?<![\w./-])((?:%s)/[\w./{},*-]*)"
                     % "|".join(PATH_ROOTS + SRC_SUBTREES))

# Code whose identifiers a backticked qualified name or call form may
# cite: C++ under src/ and tools/, plus the Python tools.
CODE_ROOTS = ("src", "tools")
CODE_SUFFIXES = {".cpp", ".hpp", ".py"}
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# ``A::B`` chains (``Simulator::run_before``, ``sim::EventKey``); names in
# the standard library's namespace are not this repository's to check.
QUALIFIED_RE = re.compile(r"(?<![\w:])([A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+)")
# ``name(`` where the span closes the call later (``run_until(t)``,
# ``next_event_key()``), so prose parentheses in a span are not calls.
CALL_RE = re.compile(r"(?<![\w:])([A-Za-z_]\w*)\((?=[^`]*\))")
FOREIGN_NAMESPACES = {"std"}

# A backticked span that is one snake_case name (``run_before``,
# ``engine_waiting_``): at least one inner underscore, so plain words
# stay prose.  test_* and bench_* names have their own rules below.
SNAKE_RE = re.compile(r"_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+_?")
# Bare names may also cite the benchmark harness and the metric keys of
# the tracked histories.
BARE_NAME_ROOTS = CODE_ROOTS + ("perfbench",)
# A backticked span that is one CamelCase name (``ScenarioSpec``,
# ``FabricPlanCache``): two or more capitalized humps, so a capitalized
# word (``Network``) stays prose.  Such a span may also name a test case
# or fixture, so the tests, benches and examples count as well.
CAMEL_RE = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+")
CAMEL_NAME_ROOTS = BARE_NAME_ROOTS + ("tests", "bench", "examples")
# Names a measurement record quotes on purpose although the code no
# longer has them: DESIGN.md section 6's records of the calendar-wheel
# kernel (its sampler profile and its loop and schedule-path changes)
# name the functions of the layout they measured.
RECORDED_NAMES = {"alloc_node", "pop_earliest", "pop_next",
                  "next_occupied", "insert_wheel"}

# ``Suite.Case`` (a gtest suite and case) or ``test_binary.Case`` (a case
# in tests/test_binary.cpp): the case is capitalized, which keeps file
# names (``ROADMAP.md``, ``E7.txt``) out.
TEST_REF_RE = re.compile(
    r"(?<![\w./])([A-Z]\w*|test_[a-z0-9_]+)\.([A-Z]\w*)(?![\w.])")
TEST_DECL_RE = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")

# Flags that appear in docs but belong to other tools (cmake, ctest,
# benchmark binaries, perfbench, git) rather than mango_sweep.  Anything
# matching these is skipped during the flag check.
NON_SWEEP_FLAGS = {
    "--output-on-failure",       # ctest
    "--test-dir",                # ctest
    "--benchmark_min_time",      # google-benchmark
    "--benchmark_format",        # google-benchmark
    "--benchmark_out",           # google-benchmark
    "--benchmark_out_format",    # google-benchmark
    "--build",                   # cmake
    "--target",                  # cmake
    "--workload",                # perfbench/run.py
    "--seconds",                 # perfbench/run.py
    "--smoke",                   # perfbench/run.py
    "--trace",                   # perfbench/run.py
}

# Reverse check: execution-strategy flags whose whole point is the
# "stats are byte-identical, only wall time moves" contract.  Each must
# be documented in BOTH ``mango_sweep --help`` and README.md — a flag
# here that exists in the binary but not the docs (or vice versa) is a
# CI failure, so the contract surface can't silently drift.
REQUIRED_DOCUMENTED_FLAGS = {
    "--shards",
    "--repeat",
    "--spin-us",
}


def run(cmd):
    return subprocess.run(
        cmd, check=True, capture_output=True, text=True
    ).stdout


def collect_ground_truth(sweep_bin, repo):
    presets = set()
    for line in run([sweep_bin, "--list-presets"]).splitlines():
        m = re.match(r"\s*(\S+)\s+\d+ scenarios", line)
        if m:
            presets.add(m.group(1))

    flags = set(re.findall(r"--[a-z][a-z0-9-]*", run([sweep_bin, "--help"])))

    benches = {p.stem for p in (repo / "bench").glob("bench_*.cpp")}
    tests = {p.stem for p in (repo / "tests").glob("test_*.cpp")}
    bench_json = {p.name for p in repo.glob("BENCH_*.json")}
    return presets, flags, benches, tests, bench_json


def strip_comments(path, text):
    """Code without its comments (C++) or comments and docstrings (Python),
    so a name that survives only in prose does not count as existing."""
    if path.suffix == ".py":
        text = re.sub(r'"""[\s\S]*?"""', " ", text)
        return re.sub(r"#[^\n]*", " ", text)
    text = re.sub(r"/\*[\s\S]*?\*/", " ", text)
    return re.sub(r"//[^\n]*", " ", text)


def collect_identifiers(repo, roots=CODE_ROOTS):
    """Identifiers of the code under `roots`.  This checker is left out:
    its own lists (RECORDED_NAMES) must not vouch for a name."""
    idents = set()
    me = pathlib.Path(__file__).resolve()
    for root in roots:
        for f in (repo / root).rglob("*"):
            if (f.suffix in CODE_SUFFIXES and f.is_file()
                    and f.resolve() != me):
                idents.update(IDENT_RE.findall(
                    strip_comments(f, f.read_text())))
    return idents


def json_keys(node):
    """Every object key anywhere in a parsed JSON document."""
    if isinstance(node, dict):
        return set(node).union(*map(json_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(json_keys, node))
    return set()


def collect_bare_names(repo):
    """What a bare backticked snake_case name may cite: identifiers of
    src/, tools/ and perfbench/, plus the BENCH_*.json keys."""
    names = collect_identifiers(repo, BARE_NAME_ROOTS)
    for f in repo.glob("BENCH_*.json"):
        names |= json_keys(json.loads(f.read_text()))
    return names


def collect_test_cases(repo):
    """Every (suite, case) declared under tests/, and (binary, case) for
    the test_*.cpp file that declares it."""
    cases = set()
    for f in (repo / "tests").rglob("*.cpp"):
        for suite, case in TEST_DECL_RE.findall(
                strip_comments(f, f.read_text())):
            cases.add((suite, case))
            cases.add((f.stem, case))
    return cases


def check_test_names(path, cases, where):
    """Every backticked ``Suite.Case`` / ``test_binary.Case`` must name a
    TEST, TEST_F or TEST_P under tests/."""
    errors = []
    for span in re.findall(r"`([^`\n]+)`", path.read_text()):
        for suite, case in TEST_REF_RE.findall(span):
            if (suite, case) not in cases:
                ref = f"{suite}.{case}"
                errors.append(f"{where(ref)}: test `{ref}` is declared by "
                              "no TEST/TEST_F/TEST_P in tests/")
    return errors


def check_identifiers(path, idents, where):
    """Every backticked ``A::B`` and ``name(`` must name code that exists.

    A member is spelled as the code spells it, trailing underscore
    included (``Simulator::dispatch_lane``)."""
    errors = []
    seen = set()
    for span in re.findall(r"`([^`\n]+)`", path.read_text()):
        for ref in QUALIFIED_RE.findall(span):
            parts = [p.lstrip("~") for p in ref.split("::")]
            if parts[0] in FOREIGN_NAMESPACES or ref in seen:
                continue
            seen.add(ref)
            missing = [p for p in parts if p not in idents]
            if missing:
                errors.append(f"{where(ref)}: `{ref}` names no identifier "
                              f"in src/ or tools/ ({', '.join(missing)})")
        for name in CALL_RE.findall(span):
            if name in seen:
                continue
            seen.add(name)
            if name not in idents:
                errors.append(f"{where(name + '(')}: call `{name}(` names "
                              f"no identifier in src/ or tools/")
    return errors


def check_bare_names(path, names, camel_names, where):
    """Every backticked span that is a lone snake_case name must name an
    identifier or a history key (see SNAKE_RE and RECORDED_NAMES), and
    every lone CamelCase name an identifier (see CAMEL_RE)."""
    errors = []
    seen = set()
    for span in re.findall(r"`([^`\n]+)`", path.read_text()):
        name = span.strip()
        if name in seen:
            continue
        seen.add(name)
        if CAMEL_RE.fullmatch(name):
            if name not in camel_names:
                errors.append(f"{where(name)}: `{name}` names no identifier "
                              "in src/, tools/, perfbench/, tests/, bench/ "
                              "or examples/")
            continue
        if (not SNAKE_RE.fullmatch(name)
                or name.startswith(("test_", "bench_"))):
            continue
        if name not in names and name not in RECORDED_NAMES:
            errors.append(f"{where(name)}: `{name}` names no identifier in "
                          "src/, tools/ or perfbench/ and no BENCH_*.json "
                          "key")
    return errors


def check_doc(path, presets, flags, benches, tests, bench_json, idents,
              cases, bare_names, camel_names):
    errors = []
    text = path.read_text()
    lines = text.splitlines()

    def where(needle):
        for i, line in enumerate(lines, 1):
            if needle in line:
                return f"{path.name}:{i}"
        return path.name

    # --preset NAME and `preset-name` preset references.  Preset names
    # are only checkable when adjacent to the word "preset" or a
    # --preset flag; bare backticked words are too ambiguous.
    for name in re.findall(r"--preset\s+`?([a-z0-9][a-z0-9-]*)`?", text):
        if name not in presets:
            errors.append(f"{where(name)}: preset `{name}` (via --preset) "
                          "not in --list-presets")
    for name in re.findall(r"`([a-z0-9][a-z0-9-]*)`\s+preset", text) + \
            re.findall(r"preset\s+`([a-z0-9][a-z0-9-]*)`", text):
        if name not in presets:
            errors.append(f"{where(name)}: preset `{name}` "
                          "not in --list-presets")

    # mango_sweep CLI flags: every --flag token in the docs must be a
    # real flag (or an explicitly whitelisted foreign tool's).
    for flag in set(re.findall(r"--[a-z][a-z0-9-]*", text)):
        if flag in NON_SWEEP_FLAGS:
            continue
        if flag.startswith("--benchmark"):
            continue
        if flag not in flags and flag.startswith("--"):
            # cmake -D options and long prose dashes don't match the
            # regex; anything that does and isn't known is dangling.
            errors.append(f"{where(flag)}: flag `{flag}` not in "
                          "mango_sweep --help")

    # bench_* and test_* artifact names.
    for name in set(re.findall(r"\b(bench_[a-z0-9_]+)\b", text)):
        if name.endswith(("_json", "_cpp")):
            continue
        if name not in benches:
            errors.append(f"{where(name)}: benchmark `{name}` has no "
                          f"bench/{name}.cpp")
    for name in set(re.findall(r"\b(test_[a-z0-9_]+)\b", text)):
        if name.endswith(("_json", "_cpp")):
            continue
        if name not in tests:
            errors.append(f"{where(name)}: test suite `{name}` has no "
                          f"tests/{name}.cpp")

    # BENCH_*.json histories.
    for name in set(re.findall(r"\b(BENCH_[A-Za-z0-9_]+\.json)\b", text)):
        if name == "BENCH_*.json".replace("*", name):  # never matches
            continue
        if name not in bench_json:
            errors.append(f"{where(name)}: history `{name}` does not exist")

    errors += check_paths(path, path.parent, where)
    errors += check_identifiers(path, idents, where)
    errors += check_bare_names(path, bare_names, camel_names, where)
    errors += check_test_names(path, cases, where)
    return errors


def expand_braces(path):
    """``a.{hpp,cpp}`` -> [``a.hpp``, ``a.cpp``] (one level, repeatable)."""
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(path[:m.start()] + alt + path[m.end():])
    return out


def check_paths(path, repo, where):
    """Every backticked source path must name a file or directory."""
    errors = []
    for span in re.findall(r"`([^`\n]+)`", path.read_text()):
        for ref in PATH_RE.findall(span):
            ref = ref.rstrip(".,:;")
            for candidate in expand_braces(ref):
                rel = candidate
                if rel.split("/", 1)[0] in SRC_SUBTREES:
                    rel = "src/" + rel
                if not any(repo.glob(rel.rstrip("/"))):
                    errors.append(f"{where(ref)}: path `{ref}` does not "
                                  f"exist ({rel})")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sweep-bin", default="build/mango_sweep")
    ap.add_argument("--repo", default=".")
    opts = ap.parse_args()

    repo = pathlib.Path(opts.repo).resolve()
    presets, flags, benches, tests, bench_json = collect_ground_truth(
        opts.sweep_bin, repo)
    idents = collect_identifiers(repo)
    bare_names = collect_bare_names(repo)
    camel_names = collect_identifiers(repo, CAMEL_NAME_ROOTS)
    cases = collect_test_cases(repo)
    if not presets:
        print("could not parse any presets from --list-presets",
              file=sys.stderr)
        return 2

    errors = []
    for doc in DOC_FILES:
        errors += check_doc(repo / doc, presets, flags, benches, tests,
                            bench_json, idents, cases, bare_names,
                            camel_names)

    readme_flags = set(re.findall(r"--[a-z][a-z0-9-]*",
                                  (repo / "README.md").read_text()))
    for flag in sorted(REQUIRED_DOCUMENTED_FLAGS):
        if flag not in flags:
            errors.append(f"required flag `{flag}` not in "
                          "mango_sweep --help")
        if flag not in readme_flags:
            errors.append(f"required flag `{flag}` not documented "
                          "in README.md")

    for e in errors:
        print(f"dangling doc reference: {e}", file=sys.stderr)
    if not errors:
        checked = ", ".join(DOC_FILES)
        print(f"doc cross-links ok ({checked}: {len(presets)} presets, "
              f"{len(flags)} flags, {len(benches)} benches, "
              f"{len(tests)} test suites, {len(idents)} code identifiers, "
              f"{len(bare_names)} bare names, {len(camel_names)} type "
              f"and test names, "
              f"{len(cases)} suite and binary case names on record)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
