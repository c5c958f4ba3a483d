#!/usr/bin/env python3
"""Benchmark of the FlexPipe simulator.

    python3 perfbench/run.py --workload steady_mix --seed 1 --seconds 35 --trace 0

Run from the repository root. Builds perfbench_driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs every replica of the workload once and
then repeats them for --seconds of wall time, checks every run, and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, from untraced runs. --trace 1 also runs
each repeat traced and reports the per-layer metrics.
Exits non-zero when a check fails, when the build fails, or when the build is a
sanitizer or audit build. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (name, unit) of every reported metric, in BENCHMARK.json's order.
END_TO_END = [
    ("host_req_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_latency_p50_s", "s"),
    ("sim_ttft_p50_s", "s"),
    ("sim_slo_attainment", "frac"),
    ("sim_stage_slot_s_per_req", "slot_s"),
    ("sim_completed_frac", "frac"),
]
# Simulated end-to-end results whose spread between seeds is wider than any useful
# bound; reported per layer, where they repeat exactly at a seed.
SIM_PER_LAYER = ["sim_latency_p999_s", "sim_ttft_p999_s", "sim_failed_frac"]
PER_LAYER = [
    ("sim_latency_p999_s", "s"),
    ("sim_ttft_p999_s", "s"),
    ("sim_failed_frac", "frac"),
    ("sim.events", "count"),
    ("sim.events_per_req", "count"),
    ("sim.arena_slots", "count"),
    ("sim.dispatch_self_s", "s"),
    ("sim.engine_ns_per_event", "ns"),
    ("runtime.mean_stages", "count"),
    ("runtime.queue_depth_mean", "count"),
    ("runtime.router_max_queue", "count"),
    ("runtime.peak_live_requests", "count"),
    ("runtime.stage_busy_s", "s"),
    ("runtime.stage_stall_s", "s"),
    ("runtime.stage_util", "frac"),
    ("runtime.queue_mean_s", "s"),
    ("runtime.exec_mean_s", "s"),
    ("runtime.comm_mean_s", "s"),
    ("core.on_arrival_s", "s"),
    ("core.on_arrival_calls", "count"),
    ("core.refactors", "count"),
    ("core.refactor_pause_s", "s"),
    ("core.kv_migrated_gib", "GiB"),
    ("core.cold_loads", "count"),
    ("core.warm_loads", "count"),
    ("core.warm_load_ratio", "frac"),
    ("core.alloc_wait_mean_s", "s"),
    ("core.peak_stage_slots", "count"),
    ("core.live_instances_mean", "count"),
    ("core.on_gpus_lost_s", "s"),
    ("core.on_gpus_lost_calls", "count"),
    ("core.instances_lost", "count"),
    ("core.requeued", "count"),
    ("core.resumed", "count"),
    ("core.restarted", "count"),
    ("core.kv_invalidated_tokens", "count"),
    ("core.health_flags", "count"),
    ("core.quarantines", "count"),
    ("core.health_migrations", "count"),
    ("cluster.peak_distinct_gpus", "count"),
    ("cluster.faults_fired", "count"),
    ("cluster.gpus_lost", "count"),
    ("cluster.mean_sm_util", "frac"),
    ("trace.next_s", "s"),
    ("trace.next_calls", "count"),
    ("setup.env_s", "s"),
    ("setup.system_s", "s"),
    ("setup.deploy_s", "s"),
    ("trace_overhead", "frac"),
]
WORKLOADS = ["steady_mix", "bursty_mix", "fault_storm"]
# Must equal kCalibrationReferenceS in harness.h.
CALIBRATION_REFERENCE_S = 0.05

# After the first driver process, which runs every replica once, later processes
# repeat this many replicas at a time, cycling through them.
CHUNK = 8
# Wall-clock cap on one driver process; a whole benchmark run must end within 180 s.
DRIVER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the driver; returns its path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench_driver"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            raise BenchError("build step failed: %s" % " ".join(step))
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, traced, replicas=None):
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if replicas is not None:
        cmd += ["--replicas", "%d:%d" % replicas]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: %s" % " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(proc.stderr[-4000:])
        raise BenchError("driver printed nothing (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def stamp(driver, workload, seed, trace):
    proc = subprocess.run([driver, "--stamp"], capture_output=True, text=True, check=True)
    info = json.loads(proc.stdout)
    if info["untimeable"]:
        raise BenchError("refusing to time a %s build" % info["untimeable"])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    info.update({
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    })
    return info


def source_digest():
    """Digest of the simulator and benchmark sources: identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def check_run(run, failures):
    for i, replica in enumerate(run["replicas"]):
        for failure in replica["failures"]:
            failures.append("replica %d (seed %d): %s" % (i, replica["seed"], failure))
    if run["exit_code"] != 0 and not failures:
        failures.append("driver exited with %d" % run["exit_code"])


def check_identical(reference, other, what, failures):
    """Every simulated result of `other` must equal `reference`'s bit for bit."""
    ref = {r["seed"]: r["signature"] for r in reference["replicas"]}
    for replica in other["replicas"]:
        expected = ref.get(replica["seed"])
        if expected is None:
            continue
        for name, value in replica["signature"].items():
            if expected.get(name) != value:
                failures.append("%s: replica seed %d: %s = %r, expected %r"
                                % (what, replica["seed"], name, value, expected.get(name)))


def replica_mean(run, section, name):
    values = [r[section][name] for r in run["replicas"] if name in r[section]]
    return sum(values) / len(values) if values else 0.0


def calibrated(run, replica, key):
    """A host time of one replica in reference seconds: its CPU seconds scaled by the
    reference calibration time over the median calibration time of its driver
    process."""
    host = run["replicas"][replica]["host"]
    speed = statistics.median([r["host"]["calibration_before_s"] for r in run["replicas"]]
                              + [run["replicas"][-1]["host"]["calibration_after_s"]])
    return host[key] * CALIBRATION_REFERENCE_S / speed


def replica_samples(runs, key):
    """Replica seed -> the calibrated `key` time of that replica in every run."""
    samples = {}
    for run in runs:
        for i, replica in enumerate(run["replicas"]):
            samples.setdefault(replica["seed"], []).append(calibrated(run, i, key))
    return samples


def host_req_per_s(runs):
    """Completed requests per calibrated CPU second. Each replica's time is the median
    of its repeats: a replica is the same simulation in every run, so the median
    filters out the machine's noise."""
    completed = sum(replica["signature"]["completed"] for replica in runs[0]["replicas"])
    samples = replica_samples(runs, "run_s")
    return completed / sum(statistics.median(v) for v in samples.values())


def end_to_end_metrics(runs):
    full = runs[0]
    setup = replica_samples(runs, "setup_s")
    out = {name: full["pooled"][name] for name, _ in END_TO_END if name.startswith("sim_")}
    out.update({
        "host_req_per_s": host_req_per_s(runs),
        "setup_s": statistics.median(x for v in setup.values() for x in v),
        "peak_rss_mib": full["peak_rss_mib"],
    })
    return out


def per_layer_metrics(untraced, traced):
    full = untraced[0]
    out = {}
    for name in SIM_PER_LAYER:
        out[name] = full["pooled"][name]
    for name in full["replicas"][0]["signature"]:
        if "." in name:  # layer counts; the rest of the signature is raw totals
            out[name] = replica_mean(full, "signature", name)
    records = [replica for run in traced for replica in run["replicas"]]
    for name in records[0]["traced"]:
        out[name] = statistics.mean(replica["traced"][name] for replica in records)
    out["sim.arena_slots"] = replica_mean(full, "traced", "sim.arena_slots")
    out["sim.engine_ns_per_event"] = statistics.median(r["engine_ns_per_event"] for r in traced)
    for name, key in (("setup.env_s", "env_s"), ("setup.system_s", "system_s"),
                      ("setup.deploy_s", "deploy_s")):
        out[name] = statistics.median(x for v in replica_samples(traced, key).values() for x in v)
    # The same replicas' median times with and without tracing.
    with_trace = replica_samples(traced, "run_s")
    without = replica_samples(untraced, "run_s")
    out["trace_overhead"] = (sum(statistics.median(with_trace[s]) for s in with_trace)
                             / sum(statistics.median(without[s]) for s in with_trace) - 1.0)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        driver = build()
        info = stamp(driver, args.workload, args.seed, args.trace)
        print("stamp " + json.dumps(info, sort_keys=True), flush=True)

        failures = []
        start = time.monotonic()
        # The first process runs every replica once. Repeats follow, CHUNK replicas per
        # process, while another round should end within half a round of --seconds;
        # under --trace 1 each round also runs its chunk traced, right after, so both
        # see the same machine conditions.
        full = run_driver(driver, args.workload, args.seed, traced=False)
        check_run(full, failures)
        untraced, traced = [full], []
        count = len(full["replicas"])
        chunks = [(first, min(first + CHUNK, count)) for first in range(0, count, CHUNK)]
        rounds = 0
        while not failures:
            round_start = time.monotonic()
            chunk = chunks[rounds % len(chunks)]
            untraced.append(run_driver(driver, args.workload, args.seed, False, chunk))
            check_run(untraced[-1], failures)
            if args.trace == 1:
                traced.append(run_driver(driver, args.workload, args.seed, True, chunk))
                check_run(traced[-1], failures)
            rounds += 1
            now = time.monotonic()
            if now - start + (now - round_start) / 2 > args.seconds:
                break
        if not failures and args.trace == 0:
            # One traced replica outside the timed runs: tracing must change nothing.
            traced.append(run_driver(driver, args.workload, args.seed, True, (0, 1)))
            check_run(traced[-1], failures)
        for run in untraced[1:]:
            check_identical(full, run, "repeat run", failures)
        for run in traced:
            check_identical(full, run, "traced run", failures)

        if args.trace == 0:
            values, table = end_to_end_metrics(untraced), END_TO_END
        else:
            values, table = per_layer_metrics(untraced, traced), PER_LAYER
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}

        pooled = full["pooled"]
        attempted = int(sum(r["signature"]["submitted"] for r in full["replicas"]))
        completed = int(sum(r["signature"]["completed"] for r in full["replicas"]))
        print("%s seed %d: %d replicas, %d driver processes, %d requests (latency samples %d, "
              "TTFT samples %d)" % (args.workload, args.seed, count, len(untraced) + len(traced),
                                    attempted, pooled["sim_latency_samples"],
                                    pooled["sim_ttft_samples"]))
        for name, unit in table:
            print("  %-30s %16.6g %s" % (name, values[name], unit))
        for failure in failures:
            log("CHECK FAILED: " + failure)

        os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
        record = os.path.join(build_dir(), "results", "%s-seed%d-trace%d.json"
                              % (args.workload, args.seed, args.trace))
        with open(record, "w") as f:
            json.dump({"stamp": info, "failures": failures, "untraced": untraced,
                       "traced": traced, "metrics": metrics}, f)

        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": attempted - completed, "metrics": metrics}), flush=True)
        return 0 if not failures else 1
    except (BenchError, OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
