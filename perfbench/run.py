#!/usr/bin/env python3
"""Host-time benchmark of the Pimba simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the driver
(perfbench/CMakeLists.txt, Release) into .bench_build/ (or
$CARGO_TARGET_DIR), generates the workload's scenario from the seed,
then runs one driver process per repetition until S seconds have
passed, checks every repetition's output, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones (medians over the
repetitions); with --trace 1 repetitions alternate spans off and on and
the metrics are the per-layer ones. The line before it is the full
record: build metadata, sim_digest and every sample.

Workloads, metrics and predictions: perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
MIN_REPS = 3          # per variant, even past the time budget
HARD_LIMIT_S = 150.0  # stop starting repetitions after this long
DRIVER_TIMEOUT_S = 120

# name -> unit. Must match BENCHMARK.json (perfbench/test_perfbench.py).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_req_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "check_pass_frac": "frac",
}
PER_LAYER = {
    "config.load_s": "s",
    "config.self_s": "s",
    "serving.arrivals_s": "s",
    "serving.arrivals_n": "count",
    "serving.iterations": "count",
    "serving.iters_per_req": "count",
    "serving.preemptions": "count",
    "serving.recomputed_tokens": "count",
    "serving.cancelled": "count",
    "serving.wasted_tokens": "count",
    "serving.peak_batch": "count",
    "serving.avg_block_util": "frac",
    "serving.useful_token_frac": "frac",
    "serving.engine_advance_s": "s",
    "serving.engine_submit_s": "s",
    "serving.ns_per_iter": "ns",
    "serving.self_s": "s",
    "cluster.run_s": "s",
    "cluster.self_s": "s",
    "cluster.ns_per_iter": "ns",
    "cluster.load_imbalance": "ratio",
    "cluster.scale_events": "count",
    "cluster.replica_s": "sim_s",
    "sim.step_cold_us": "us",
    "sim.step_warm_us": "us",
    "sim.steps": "count",
    "sim.self_s": "s",
    "pim.kernel_cold_us": "us",
    "pim.kernel_warm_us": "us",
    "pim.self_s": "s",
    "obs.events": "count",
    "obs.trace_mb": "MB",
    "obs.render_s": "s",
    "obs.overhead_x": "x",
    "obs.self_s": "s",
    "bench.self_s": "s",
    "bench.span_overhead_s": "s",
}


class BenchError(Exception):
    pass


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "config" / "runner.h").is_file():
        raise BenchError(f"no simulator sources under {ROOT}/src; run "
                         "from the root of a source checkout")
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_driver", "-j", str(min(os.cpu_count() or 1,
                                                     4))])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed, see {log}:\n" +
                                 log.read_text()[-4000:])
    return out / "perfbench_driver"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_driver(driver, workload, inputs, extra):
    cmd = [str(driver), "--workload", workload]
    for p in inputs:
        cmd += ["--scenario", str(p)]
    try:
        r = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True,
                           text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"driver timed out after {DRIVER_TIMEOUT_S} s"}
    if r.returncode != 0:
        return {"error": f"driver exited {r.returncode}: "
                         f"{r.stderr.strip()[-2000:]}"}
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "driver printed no record"}


def median(values):
    return statistics.median(values) if values else 0.0


def variants_for(workload, trace):
    """Repetition kinds, cycled in order. "main" is the workload as a
    user runs it; "noobs" the traced workload with the program's tracer
    and timeline off; "spans" main with the benchmark's spans on."""
    if not trace:
        return ["main"]
    return ["main", "noobs", "spans"] if workload == "traced" \
        else ["main", "spans"]


def measure(driver, workload, inputs, out_dir, seconds, trace):
    variants = variants_for(workload, trace)
    recs = {v: [] for v in variants}
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(r) >= MIN_REPS for r in recs.values())
        if (enough and elapsed >= seconds) or elapsed >= HARD_LIMIT_S:
            break
        v = variants[i % len(variants)]
        extra = []
        if v == "noobs":
            extra.append("--no-obs")
        if v == "spans":
            extra += ["--spans", str(out_dir / "spans.json")]
        if i == 0 and workload in ("replay", "control"):
            extra.append("--sum-outputs")
        if workload == "traced":
            extra += ["--report", str(out_dir / f"report-{v}.txt")]
        recs[v].append(run_driver(driver, workload, inputs, extra))
        i += 1
    return recs


def traced_extra_checks(driver, inputs, out_dir, recs):
    """Failures beyond the per-record checks, as (variant, index,
    reason): the traced report must equal the untraced one byte for
    byte, and the trace must pass tools/check_trace.py."""
    out = []
    if "noobs" not in recs:
        # --trace 0 measures only traced repetitions: run the untraced
        # reference once, after the timed window.
        recs["noobs"] = [run_driver(driver, "traced", inputs,
                                    ["--no-obs", "--report",
                                     str(out_dir / "report-noobs.txt")])]
    ref = out_dir / "report-noobs.txt"
    got = out_dir / "report-main.txt"
    last = len(recs["main"]) - 1
    if not ref.is_file() or not got.is_file() or \
            got.read_bytes() != ref.read_bytes():
        out.append(("main", last,
                    "traced report differs from the untraced report"))
    trace_file = out_dir / "trace.json"
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "check_trace.py"),
                        "--require-lifecycle", "--require-phases",
                        str(trace_file)],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        out.append(("main", last, "check_trace.py rejected the trace: " +
                    r.stderr.strip()[-1000:]))
    return out


def end_to_end(main, passed, attempted):
    ok = [r for r in main if "error" not in r]
    return {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in ok]),
        "sim_req_per_s": median([r["retired"] / r["simulate_s"]
                                 for r in ok]),
        "points_per_s": median([r["points"] / r["simulate_s"]
                                for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "check_pass_frac": passed / attempted,
    }


def per_layer(recs):
    """Medians over the spans-on repetitions; layers a workload does not
    run report 0."""
    spans = [r for r in recs["spans"] if "error" not in r]
    main = [r for r in recs["main"] if "error" not in r]
    out = {name: median([r["layer"].get(name, 0.0) for r in spans])
           for name in PER_LAYER}
    out["bench.span_overhead_s"] = (median([r["wall_s"] for r in spans]) -
                                    median([r["wall_s"] for r in main]))
    if "noobs" in recs:
        noobs = [r["wall_s"] for r in recs["noobs"] if "error" not in r]
        out["obs.overhead_x"] = (median([r["wall_s"] for r in main]) /
                                 median(noobs)) if noobs else 0.0
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args()

    try:
        driver = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    out_dir = build_dir() / "out" / opts.workload
    in_dir = build_dir() / "inputs"
    out_dir.mkdir(parents=True, exist_ok=True)
    in_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()
    scenarios = workloads.GENERATORS[opts.workload](opts.seed, out_dir)
    inputs = []
    for i, sc in enumerate(scenarios):
        p = in_dir / f"{opts.workload}-{opts.seed}-{i}.json"
        p.write_text(json.dumps(sc, indent=1))
        inputs.append(p)
    expected = workloads.expected(opts.workload, scenarios)

    recs = measure(driver, opts.workload, inputs, out_dir, opts.seconds,
                   opts.trace)

    first = recs["main"][0]
    if "sum_outputs" in first.get("facts", {}):
        expected["sum_outputs"] = first["facts"]["sum_outputs"]
    extra_fail = []
    if opts.workload == "traced":
        extra_fail = traced_extra_checks(driver, inputs, out_dir, recs)
    keys = [(v, i) for v, rs in recs.items() for i in range(len(rs))]
    failures = {keys[k]: reasons for k, reasons in checks.failed_reps(
        opts.workload, expected, [recs[v][i] for v, i in keys]).items()}
    for v, i, reason in extra_fail:
        failures.setdefault((v, i), []).append(reason)
    for (v, i), reasons in sorted(failures.items()):
        print(f"perfbench: {v} repetition {i} failed: "
              + "; ".join(reasons), file=sys.stderr)

    attempted = sum(len(rs) for rs in recs.values())
    failed = len(failures)
    if opts.trace:
        values, units = per_layer(recs), PER_LAYER
    else:
        values = end_to_end(recs["main"], attempted - failed, attempted)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    build_info = next((r["build"] for rs in recs.values() for r in rs
                       if "build" in r), {})
    digests = sorted({r["digest"] for r in recs["main"] if "digest" in r})
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "build": dict(build_info, nproc=os.cpu_count(), git_sha=git_sha(),
                      machine=platform.machine()),
        "samples": {v: [{k: r.get(k) for k in
                         ("wall_s", "setup_s", "simulate_s", "report_s",
                          "peak_rss_mb", "retired", "points", "digest",
                          "error")
                         if k in r} for r in rs]
                    for v, rs in recs.items()},
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
