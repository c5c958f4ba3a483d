#!/usr/bin/env python3
"""Coverage split for src/: which lines the workloads reach, which only tests reach.

A line of simulator code that no bench and no example ever executes is either a
check, an oracle a test needs, a feature a planned item will use, or dead weight.
This script sorts every executable line of src/*.cc into three buckets so that
triage has numbers to start from:

  workloads  executed by the CI-scale benches or the four examples;
  test-only  executed only once the tier-1 tests (ctest) have also run;
  never      executed by nothing.

src/sim/auditor.cc is left out: it runs only in FLEXPIPE_AUDIT builds and in its
own tests, so it would swamp the test-only bucket.

It needs a build configured for gcov:

  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage \\
        -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j
  python3 ci/coverage_split.py --build build-cov

The run deletes the build's old .gcda counters, runs `flexpipe_bench` (every bench,
FLEXPIPE_STRESS_SCALE=ci) and the four examples, snapshots gcov, runs ctest, reads
gcov again, and prints per-file "never" and "test-only" line counts followed by
the totals. It uses only the standard library and gcc's `gcov --json-format`.

  python3 ci/coverage_split.py --self-test

checks the gcov parser and the split on the fixtures in ci/lint_fixtures/coverage/
and runs nothing else.

Exits non-zero when a bench, an example or ctest fails (or a self-test
expectation fails).
"""

import argparse
import json
import os
import subprocess
import sys

EXCLUDED = ("src/sim/auditor.cc",)
EXAMPLES = ("quickstart", "bursty_serving", "fragmented_cluster", "trace_replay")
OBJECT_DIR = os.path.join("src", "CMakeFiles", "flexpipe_core.dir")
FIXTURE_DIR = os.path.join("ci", "lint_fixtures", "coverage")

# The fixtures describe two gcov runs over four src files, a header and the auditor.
# Expected (executable, workloads, test-only, never) per counted file.
FIXTURE_EXPECTATIONS = {
    "src/a/alpha.cc": (4, 2, 1, 1),
    "src/b/beta.cc": (3, 0, 0, 3),
    "src/b/gamma.cc": (2, 2, 0, 0),
    "src/c/delta.cc": (2, 0, 2, 0),
}


def parse_gcov_json(text, root):
    """Folds gcov --json-format documents into {src path: {line: count}}.

    `text` holds one JSON document per line, as `gcov --stdout --json-format`
    prints them. Paths are made relative to `root`; only src/*.cc files outside
    EXCLUDED are kept. A line listed more than once (one entry per function that
    shares it, e.g. a lambda) counts the sum of its entries.
    """
    counts = {}
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        doc = json.loads(raw)
        cwd = doc.get("current_working_directory", "")
        for entry in doc.get("files", []):
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if not (rel.startswith("src/") and rel.endswith(".cc")) or rel in EXCLUDED:
                continue
            lines = counts.setdefault(rel, {})
            for line in entry.get("lines", []):
                number = line["line_number"]
                lines[number] = lines.get(number, 0) + line["count"]
    return counts


def split(workloads, everything):
    """Per file: (executable, workloads, test-only, never) line counts.

    `workloads` is the snapshot taken after the benches and examples,
    `everything` the one taken after ctest as well.
    """
    rows = {}
    for path, lines in everything.items():
        before = workloads.get(path, {})
        reached = test_only = never = 0
        for number, count in lines.items():
            if count == 0:
                never += 1
            elif before.get(number, 0) == 0:
                test_only += 1
            else:
                reached += 1
        rows[path] = (len(lines), reached, test_only, never)
    return rows


def print_report(rows):
    totals = [sum(r[i] for r in rows.values()) for i in range(4)]
    listed = sorted(
        ((path, r) for path, r in rows.items() if r[2] or r[3]),
        key=lambda item: (-(item[1][2] + item[1][3]), item[0]),
    )
    print(f"{'file':<40} {'exec':>6} {'test-only':>10} {'never':>6}")
    for path, (executable, _, test_only, never) in listed:
        print(f"{path:<40} {executable:>6} {test_only:>10} {never:>6}")
    executable, reached, test_only, never = totals
    print(f"{'total':<40} {executable:>6} {test_only:>10} {never:>6}")
    print(
        f"executable {executable}, workloads {reached}, test-only {test_only}, "
        f"never {never}, never + test-only {test_only + never}"
    )


def gcov_snapshot(build, root):
    object_dir = os.path.join(build, OBJECT_DIR)
    data_files = sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(object_dir)
        for name in names
        if name.endswith(".gcno")
    )
    if not data_files:
        sys.exit(f"no .gcno files under {object_dir}: is the build configured with --coverage?")
    result = subprocess.run(
        ["gcov", "--json-format", "--stdout", *data_files],
        cwd=object_dir, check=True, capture_output=True, text=True,
    )
    return parse_gcov_json(result.stdout, root)


def run(argv, cwd, env=None):
    print("+ " + " ".join(argv), flush=True)
    result = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    if result.returncode != 0:
        sys.exit(f"{argv[0]} exited with {result.returncode}")


def run_split(root, build):
    build = os.path.abspath(build)
    for dirpath, _, names in os.walk(build):
        for name in names:
            if name.endswith(".gcda"):
                os.remove(os.path.join(dirpath, name))
    env = dict(os.environ, FLEXPIPE_STRESS_SCALE="ci")
    run([os.path.join(build, "flexpipe_bench")], root, env)
    for example in EXAMPLES:
        run([os.path.join(build, example)], root, env)
    workloads = gcov_snapshot(build, root)
    # Two ctest jobs: the suites are short, and each job holds a whole simulation.
    run(["ctest", "--test-dir", build, "-j", "2", "--output-on-failure"], root)
    everything = gcov_snapshot(build, root)
    print_report(split(workloads, everything))
    return 0


def run_self_test(root):
    fixture_dir = os.path.join(root, FIXTURE_DIR)
    snapshots = []
    for name in ("workloads.json", "everything.json"):
        with open(os.path.join(fixture_dir, name), encoding="utf-8") as f:
            # Fixture paths are written against the placeholder root "/repo".
            snapshots.append(parse_gcov_json(f.read(), "/repo"))
    rows = split(*snapshots)
    failures = []
    for path in sorted(set(rows) | set(FIXTURE_EXPECTATIONS)):
        got, want = rows.get(path), FIXTURE_EXPECTATIONS.get(path)
        if got != want:
            failures.append(f"{path}: expected {want}, got {got}")
    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}")
        return 1
    print(f"self-test passed: {len(FIXTURE_EXPECTATIONS)} files split as expected")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: the checkout containing ci/)")
    parser.add_argument("--build", help="a build directory configured with --coverage")
    parser.add_argument("--self-test", action="store_true",
                        help="check the parser and the split on the fixtures")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(args.root)
    if not args.build:
        parser.error("--build is required unless --self-test is given")
    return run_split(os.path.abspath(args.root), args.build)


if __name__ == "__main__":
    sys.exit(main())
