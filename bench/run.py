"""qgeom benchmark: time to verified answers, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload headline --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-check

Every repetition runs in a fresh interpreter (bench/child.py), so library
caches start cold, as they do for a CLI call or a script.  One closed-loop
client runs the repetitions one after another on one thread, with the
library's default workers=1.  A run first starts a few interpreters that
only import `qgeom.cli` (set-up probes), then repeats the workload until
`--seconds` have passed; medians are reported.  Wall times are scaled to
a reference machine speed (see REFERENCE_S).

With `--trace 0` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with `--trace 1` untraced and traced
repetitions alternate and it holds every per-layer metric, including the
tracing overhead `trace.wall_ratio`.  A human-readable table goes to
stderr and a full report, with the traced spans, to bench/out/.  Any
failed check makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("headline", "pg-spreads", "lattice")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
EXACT_UNITS = ("count", "bytes")
SELF_CHECK_CORRUPTION = ("pg-spreads", "pg33.all.spreads")
# wall_s is reported in seconds at the machine speed at which child.py's
# reference computation takes this long: each repetition's workload time is
# divided by the reference timed just before and after it in the same
# process, which cancels most of the drift in the speed of a shared machine.
# The unscaled times are printed and kept in the report.
REFERENCE_S = 0.04


class ChildFailed(RuntimeError):
    pass


def spawn(workload=None, seed=0, trace=0, corrupt=None):
    """Run one repetition (or, without a workload, one set-up probe)."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py")]
    if workload is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QGEOM_WORKERS", None)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(cmd[1:])} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("setup_done") - launched
    return record


def measure(workload, seed, seconds, trace, corrupt=None):
    """Set-up probes, then repetitions while the next one fits in `seconds`
    (at least one).  Returns the probe, untraced and traced records."""
    start = time.monotonic()
    probes = [spawn() for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(spawn(workload, seed, 0, corrupt))
        if trace:
            traced.append(spawn(workload, seed, 1, corrupt))
        now = time.monotonic()
        if now + (now - t0) > start + seconds:
            return probes, plain, traced


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def scaled_wall(reps):
    """Median wall time, in seconds at the reference speed."""
    return statistics.median(r["wall_s"] * REFERENCE_S / statistics.fmean(r["reference_s"])
                             for r in reps)


def summarize(spec, probes, plain, traced):
    """The result object of one run, plus the details for the report."""
    checks = [c for rep in plain + traced for c in rep["checks"]]
    details = {"samples": {"setup_s": [r["setup_s"] for r in probes + plain],
                           "wall_s": [r["wall_s"] for r in plain],
                           "reference_s": [r["reference_s"] for r in plain],
                           "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}}
    if not traced:
        declared = spec["end_to_end"]
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in probes + plain),
                   "wall_s": scaled_wall(plain),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    else:
        declared = spec["per_layer"]
        exact = {m["name"] for m in declared if m["unit"] in EXACT_UNITS}
        metrics = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            if name in exact:
                checks.append(("counts_repeat." + name, len(set(values)) == 1))
            metrics[name] = statistics.median(values)
        metrics["trace.wall_ratio"] = scaled_wall(traced) / scaled_wall(plain)
        details["samples"]["traced_wall_s"] = [r["wall_s"] for r in traced]
        details["samples"]["traced_reference_s"] = [r["reference_s"] for r in traced]
        for key in ("counters", "self_s", "spans"):
            details[key] = traced[0][key]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(names))} are not both "
                         "measured and declared in BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in declared}
    details["failed_checks"] = sorted({name for name, ok in checks if not ok})
    failed = sum(1 for _, ok in checks if not ok)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}
    return result, details


def behaviour_changes(workload, result):
    """Exact counts that differ from the recorded baseline (not failures)."""
    with open(os.path.join(BENCH, "baseline_counts.json")) as fh:
        baseline = json.load(fh).get(workload, {})
    return [(name, value, result["metrics"][name]["value"])
            for name, value in sorted(baseline.items())
            if name in result["metrics"] and result["metrics"][name]["value"] != value]


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file) as fh:
                    commit = fh.read().strip()
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "unknown"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def print_table(workload, seed, trace, result, details, changes):
    err = sys.stderr
    samples = details["samples"]
    print(f"== {workload}  seed {seed}  trace {trace}", file=err)
    for name, metric in result["metrics"].items():
        n = len(samples[name] if name in samples else samples["traced_wall_s"])
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']:6s} median of {n}",
              file=err)
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':40s} {frac:>14.6g} 1      "
          f"{result['failed']} of {result['attempted']} checks", file=err)
    for name in details["failed_checks"]:
        print(f"  FAILED check {name}", file=err)
    untraced = statistics.median(samples["wall_s"])
    print(f"  unscaled medians: setup_s {statistics.median(samples['setup_s']):.4f} s, "
          f"wall_s {untraced:.4f} s, reference "
          f"{statistics.median(map(statistics.fmean, samples['reference_s'])):.4f} s",
          file=err)
    if trace:
        traced = statistics.median(samples["traced_wall_s"])
        ratio = result["metrics"]["trace.wall_ratio"]["value"]
        print(f"  tracing overhead: unscaled traced wall_s {traced:.4f} s vs untraced "
              f"{untraced:.4f} s; scaled ratio {ratio:.4f} ({100 * (ratio - 1):+.1f}%)",
              file=err)
        counters = details["counters"]
        for key in sorted(k for k in counters if k.startswith("search.tree: ")):
            print(f"  {key[len('search.tree: '):]}  x{counters[key]}", file=err)
        built = sorted(int(k.rsplit(".", 1)[1]) for k in counters
                       if k.startswith("gq.build_q4.kept."))
        for q in built:
            print(f"  gq.build_q4 lines kept at q={q}: {counters[f'gq.build_q4.kept.{q}']}"
                  f"/{counters[f'gq.build_q4.walked.{q}']}", file=err)
    for name, old, new in changes:
        print(f"  behaviour change: {name} was {old}, now {new}", file=err)


def run_one(spec, workload, seed, seconds, trace, env):
    probes, plain, traced = measure(workload, seed, seconds, trace)
    result, details = summarize(spec, probes, plain, traced)
    changes = behaviour_changes(workload, result) if trace else []
    print_table(workload, seed, trace, result, details, changes)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "result": result,
              "behaviour_changes": [{"metric": n, "baseline": o, "now": v}
                                    for n, o, v in changes], **details}
    path = os.path.join(OUT, f"report-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    return result


def self_check(spec):
    """A corrupted expected answer must show up in failed_frac and fail the run."""
    workload, check = SELF_CHECK_CORRUPTION
    probes, plain, traced = measure(workload, 0, 0, 1, corrupt=check)
    result, details = summarize(spec, probes, plain, traced)
    reps = len(plain) + len(traced)
    ok = (details["failed_checks"] == [check] and result["failed"] == reps
          and not result["correct"])
    print(f"self-check: corrupted '{check}' gave {result['failed']} failed of "
          f"{result['attempted']} checks over {reps} repetitions; every metric "
          f"name is declared in BENCHMARK.json: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "qgeom", "cli.py")):
        print(f"error: no qgeom source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.self_check:
            return self_check(spec)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        env = environment()
        print(f"environment: {json.dumps(env)}", file=sys.stderr)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_one(spec, w, args.seed, seconds, args.trace, env) for w in names}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results}
    else:
        line = results[args.workload]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
