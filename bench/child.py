"""One repetition of a benchmark workload in a fresh interpreter.

Started by run.py, never imported.  The first thing it does is import
`qgeom.cli` from the checkout's `src/`, and it reports the monotonic
clock reading right after that import, so the parent can time set-up
from the moment it launched this interpreter.  It then runs one
workload, untraced or traced, and prints one JSON object on stdout.

    python3 bench/child.py --workload headline --seed 1 --trace 0
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import qgeom.cli  # noqa: E402

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

from qgeom import gf  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

CLI_SUBCOMMANDS = ("gq-build", "gq-check", "gq-dual", "gq-iso", "search-ovoids",
                   "search-spreads", "search-partition-ovoids", "search-partition-spreads")
PROJSPACE_OPS = ("enumerate_subspaces", "subspace_points", "contains", "join", "meet",
                 "dualize")


def _enumerated(tracer, frame, args, result):
    tracer.count("projspace.subspaces", len(result))
    if len(args) > 1 and args[1] == 2:
        tracer.note_lines(len(result))


def _q4_built(tracer, frame, args, result):
    walked = tracer.lines_walked(frame)
    if walked:  # a cache hit walks nothing
        tracer.counters[f"gq.build_q4.kept.{args[0]}"] = result.n_lines
        tracer.counters[f"gq.build_q4.walked.{args[0]}"] = walked


def _solved(tracer, frame, args, cert):
    tracer.count("search.nodes", cert.nodes_visited)
    tracer.count("search.solutions", cert.solution_count)
    instance = args[0]
    tree = (f"exact cover {instance.n_elements} elements x {len(instance.options)} "
            f"options ({cert.mode}): {cert.nodes_visited} nodes, "
            f"{cert.solution_count} solutions")
    tracer.count("search.tree: " + tree)


def _partitioned(tracer, frame, args, cert):
    tracer.count("search.partition_nodes", cert.nodes_visited)


# (module, attribute, layer, hot, hook); hot layers are aggregated, not spanned
TARGETS = [
    ("qgeom.gf", "field_new", "gf.field_new", True, None),
    ("qgeom.projspace", "enumerate_subspaces", "projspace.enumerate_subspaces", False,
     _enumerated),
    *[("qgeom.projspace", op, f"projspace.{op}", True, None) for op in PROJSPACE_OPS[1:]],
    ("qgeom.designs", "spread_holes", "designs.spread_holes", True, None),
    *[("qgeom.designs", fn, f"designs.{fn}", False, None)
      for fn in ("is_design", "is_geometric_spread", "classify_solids", "dual_design")],
    ("qgeom.gq", "build_w", "gq.build", False, None),
    ("qgeom.gq", "build_q4", "gq.build", False, _q4_built),
    ("qgeom.gq", "check_gq", "gq.check_gq", False, None),
    ("qgeom.gq", "is_isomorphic", "gq.is_isomorphic", False, None),
    ("qgeom.gq", "is_elliptic_quadric_ovoid", "gq.elliptic", True, None),
    ("qgeom.gq", "is_gq_ovoid", "gq.predicate", True, None),
    ("qgeom.gq", "is_gq_spread", "gq.predicate", True, None),
    ("qgeom.gq", "structure_from_json", "cli.decode", False, None),
    ("qgeom.search", "solve_exact_cover", "search.solve", False, _solved),
    *[("qgeom.search", fn, "search.enumerate", False, None)
      for fn in ("enumerate_gq_ovoids", "enumerate_gq_spreads", "enumerate_pg_line_spreads")],
    ("qgeom.search", "partition_into_ovoids", "search.partition", False, _partitioned),
    ("qgeom.search", "partition_into_spreads", "search.partition", False, _partitioned),
    ("qgeom.search", "pairwise_intersection_matrix", "search.intersection_matrix", False,
     None),
    ("qgeom.cli", "main", lambda args: "cli.main." + "-".join(args[0][:2]), False, None),
]


def field_tables_s(repeats=5):
    """Median time to build cold field tables for every q <= 16."""
    orders = [q for q in range(2, gf.MAX_FIELD_ORDER + 1) if gf.prime_power_decomposition(q)]
    samples = []
    for _ in range(repeats):
        gf.arith.cache_clear()
        gf.ops_for_order.cache_clear()
        t0 = time.perf_counter()
        for q in orders:
            gf.arith(gf.field_new(q))
        samples.append(time.perf_counter() - t0)
    gf.arith.cache_clear()
    gf.ops_for_order.cache_clear()
    return statistics.median(samples)


def reference_s(repeats=5):
    """Mean time of a fixed pure-Python computation that uses no qgeom code.

    It is timed before and after the workload.  run.py divides the
    workload's time by the mean of the two, which cancels most of the drift
    in machine speed between runs.  The
    garbage collector is off meanwhile, so the heap a workload leaves behind
    does not change the reference's cost, and the working set is small, so
    the reference does not set the process's peak memory."""
    samples = []
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for salt in range(10):
                rows = [tuple((i * j + salt) % 5 for j in range(6)) for i in range(2000)]
                counts = {}
                for row in rows:
                    counts[row] = counts.get(row, 0) + 1
                sorted(set(rows))
                acc = 0
                for row in rows:
                    x = 0
                    for v in row:
                        x = (x << 3) | v
                    acc ^= x
                for row in rows:
                    frozenset(row)
            samples.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.fmean(samples)


def layer_metrics(tr, tables_s):
    """Per-layer values of one traced repetition; `.s` values are self times."""
    counters = tr.counters
    m = {"gf.tables_s": tables_s, "gf.field_new.calls": tr.calls("gf.field_new")}
    for op in PROJSPACE_OPS:
        m[f"projspace.{op}.s"] = tr.self_s(f"projspace.{op}")
        m[f"projspace.{op}.calls"] = tr.calls(f"projspace.{op}")
    enum_s = tr.self_s("projspace.enumerate_subspaces")
    m["projspace.subspaces_per_s"] = counters.get("projspace.subspaces", 0) / enum_s if enum_s else 0.0
    m["designs.spread_holes.s"] = tr.self_s("designs.spread_holes")
    m["designs.spread_holes.calls"] = tr.calls("designs.spread_holes")
    for fn in ("is_geometric_spread", "is_design", "classify_solids", "dual_design"):
        m[f"designs.{fn}.s"] = tr.self_s(f"designs.{fn}")
    m["gq.build.s"] = tr.self_s("gq.build")
    built = [int(key.rsplit(".", 1)[1]) for key in counters if key.startswith("gq.build_q4.kept.")]
    m["gq.build_q4.lines_kept_ratio"] = (
        counters[f"gq.build_q4.kept.{max(built)}"] / counters[f"gq.build_q4.walked.{max(built)}"]
        if built else 0.0)
    for layer in ("check_gq", "is_isomorphic", "elliptic", "predicate"):
        m[f"gq.{layer}.s"] = tr.self_s(f"gq.{layer}")
    m["gq.predicate.calls"] = tr.calls("gq.predicate")
    solve_s = tr.self_s("search.solve")
    nodes = counters.get("search.nodes", 0)
    m["search.solve.s"] = solve_s
    m["search.nodes"] = nodes
    m["search.nodes_per_s"] = nodes / solve_s if solve_s else 0.0
    m["search.solutions"] = counters.get("search.solutions", 0)
    m["search.solutions_per_node"] = m["search.solutions"] / nodes if nodes else 0.0
    enumerate_s = tr.inclusive_s("search.enumerate")
    verify_s = sum(tr.edges.get(("search.enumerate", layer), 0.0)
                   for layer in ("designs.spread_holes", "gq.predicate"))
    m["search.verify_share"] = verify_s / enumerate_s if enumerate_s else 0.0
    m["search.partition_nodes"] = counters.get("search.partition_nodes", 0)
    m["search.intersection_matrix.s"] = tr.self_s("search.intersection_matrix")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.s"] = tr.self_s(f"cli.main.{sub}")
    m["cli.json_bytes"] = counters.get("cli.json_bytes", 0)
    m["cli.decode.s"] = tr.self_s("cli.decode")
    return m


def main():
    if os.path.dirname(os.path.abspath(qgeom.cli.__file__)) != os.path.join(SRC, "qgeom"):
        sys.exit(f"qgeom was imported from {qgeom.cli.__file__}, not from {SRC}")
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", help="check whose expected answer is made wrong")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = {"setup_done": SETUP_DONE}
    if not args.setup_only:
        os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, "bench", "out"))
        before = reference_s()
        try:
            out.update(_run(args, workdir))
        finally:
            shutil.rmtree(workdir)
        out["reference_s"] = [before, reference_s()]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def _run(args, workdir):
    workload = WORKLOADS[args.workload]
    if not args.trace:
        ctx = Context(args.seed, workdir, args.corrupt)
        t0 = time.perf_counter()
        workload(ctx)
        return {"wall_s": time.perf_counter() - t0, "checks": ctx.checks}
    tables_s = field_tables_s()
    tracer = Tracer()
    tracer.instrument(TARGETS)
    ctx = Context(args.seed, workdir, args.corrupt, tracer)
    t0 = time.perf_counter()
    tracer.run("workload", workload, ctx)
    wall_s = time.perf_counter() - t0
    return {"wall_s": wall_s, "checks": ctx.checks,
            "layers": layer_metrics(tracer, tables_s),
            "counters": tracer.counters,
            "self_s": {name: st[1] for name, st in sorted(tracer.stats.items())},
            "spans": tracer.spans}


if __name__ == "__main__":
    main()
