"""Command-line front end: every workbench computation as a subcommand.

Conventions:
  * generator commands (gq build/dual, design spread-gen/dual/derive)
    write their JSON payload to --out, or to stdout when --out is
    omitted or '-'; a one-line summary goes to stderr so pipelines stay
    clean;
  * verdict commands print a human-readable summary to stdout, or a
    full run report with --json;
  * '-' as an input filename reads from stdin;
  * search commands exit 0 on success, 2 when a node budget was
    exceeded, and 10 when nonexistence was certified; usage errors exit
    64 so scripts can tell them apart from budget aborts.

All randomness sits behind --seed (default 0), and identical
invocations produce byte-identical payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, designs, gq, projspace, search
from .errors import BudgetExceededError, QGeomError
from .gf import arith, field_new

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_ERROR = 1
EXIT_NONEXISTENCE = 10
EXIT_USAGE = 64

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class _Io:
    """Tracks input digests and routes payload/summary output."""

    def __init__(self, args, argv):
        self.args = args
        self.argv = list(argv)
        self._hash = hashlib.sha256()
        self._read_anything = False
        self._t0 = time.monotonic()

    def read_json(self, path):
        if path == "-":
            data = sys.stdin.read().encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        self._hash.update(data)
        self._read_anything = True
        return json.loads(data)

    def inputs_digest(self):
        return self._hash.hexdigest() if self._read_anything else None

    def emit(self, payload, summary, *, payload_is_output: bool) -> None:
        """payload_is_output: generator commands stream the payload to
        stdout/--out; verdict commands print the summary and only show
        the payload in a file or inside --json."""
        out = self.args.out
        if out and out != "-":
            with open(out, "w") as fh:
                fh.write(_canonical(payload))
        if self.args.json:
            report = {
                "schema_version": SCHEMA_VERSION,
                "command": self.argv,
                "inputs_digest": self.inputs_digest(),
                "outputs": payload,
                "wall_time_s": round(time.monotonic() - self._t0, 6),
                "version": __version__,
            }
            sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
            return
        if payload_is_output:
            if out is None or out == "-":
                sys.stdout.write(_canonical(payload))
            print(summary, file=sys.stderr)
        else:
            print(summary)


def _search_kwargs(args):
    return {"workers": args.workers, "node_limit": args.limit,
            "max_solutions": args.max_solutions, "seed": args.seed}


def _int_at_least(low: int):
    """argparse type: an exact integer >= low; accepts 1e7 style literals."""
    def parse(text: str) -> int:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or value.denominator != 1 or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(value)
    return parse


# ----------------------------------------------------------------------
# field
# ----------------------------------------------------------------------

def cmd_field(io, args):
    spec = field_new(args.q)
    ops = arith(spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "p": spec.p, "e": spec.e, "q": spec.q,
        "modulus": list(spec.modulus),
        "add": [[ops.add(a, b) for b in range(spec.q)] for a in range(spec.q)],
        "mul": [[ops.mul(a, b) for b in range(spec.q)] for a in range(spec.q)],
        "inv": [None] + [ops.inv(a) for a in range(1, spec.q)],
    }
    mono = "".join(str(c) for c in reversed(spec.modulus))
    io.emit(payload,
            f"F_{spec.q} = F_{spec.p}^{spec.e}, modulus coefficients (desc) {mono}",
            payload_is_output=True)
    return EXIT_OK


# ----------------------------------------------------------------------
# lambda
# ----------------------------------------------------------------------

def _triangle_rows(params):
    rows = []
    for r in range(params.t + 1):
        rows.append([designs.lambda_ij(params, r - m, m) for m in range(r + 1)])
    return rows


def render_lambda_triangle(params) -> str:
    rows = _triangle_rows(params)
    cells = [[str(x) if x.denominator != 1 else str(x.numerator) for x in row]
             for row in rows]
    width = max(len(c) for row in cells for c in row) + 2
    lines = [f"{params} lambda triangle (rows i+j = 0..t, left to right: "
             "lambda_(i+j,0) .. lambda_(0,i+j)):"]
    for r, row in enumerate(cells):
        pad = " " * ((params.t - r) * width // 2)
        lines.append((pad + "".join(c.center(width) for c in row)).rstrip())
    rep = designs.admissible(params)
    if rep.ok:
        lines.append("admissible: yes")
    else:
        s, lam = rep.first_fractional()
        lines.append(f"not admissible (lambda_{s} = {lam})")
    return "\n".join(lines)


def cmd_lambda(io, args):
    params = designs.DesignParams(t=args.t, v=args.v, k=args.k, lam=args.l, q=args.q)
    rows = _triangle_rows(params)
    rep = designs.admissible(params)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": {"t": params.t, "v": params.v, "k": params.k,
                   "lambda": params.lam, "q": params.q},
        "triangle": [[[x.numerator, x.denominator] for x in row] for row in rows],
        "lambda_s": [[x.numerator, x.denominator] for x in rep.lambdas],
        "admissible": rep.ok,
    }
    io.emit(payload, render_lambda_triangle(params), payload_is_output=False)
    return EXIT_OK


# ----------------------------------------------------------------------
# gq
# ----------------------------------------------------------------------

def cmd_gq_build(io, args):
    build = gq.build_w if args.type == "W" else gq.build_q4
    s = build(args.q)
    io.emit(gq.structure_to_json(s),
            f"{args.type}({args.q}): {s.n_points} points, {s.n_lines} lines",
            payload_is_output=True)
    return EXIT_OK


def cmd_gq_check(io, args):
    s = gq.structure_from_json(io.read_json(args.file))
    verdict = gq.check_gq(s)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "axioms_ok": verdict.axioms_ok,
        "order": [verdict.order.s, verdict.order.t] if verdict.order else None,
        "degenerate": verdict.degenerate,
        "reason": verdict.reason,
    }
    if verdict.axioms_ok and verdict.order:
        summary = f"GQ of order ({verdict.order.s},{verdict.order.t})"
        if verdict.degenerate:
            summary += " (degenerate)"
    elif verdict.axioms_ok:
        summary = "axioms hold but line size / point degree is not constant"
    else:
        summary = f"not a GQ: {verdict.reason}"
    io.emit(payload, summary, payload_is_output=False)
    return EXIT_OK if verdict.axioms_ok else EXIT_ERROR


def cmd_gq_dual(io, args):
    s = gq.structure_from_json(io.read_json(args.file))
    d = gq.dualize_structure(s)
    io.emit(gq.structure_to_json(d),
            f"dual: {d.n_points} points, {d.n_lines} lines", payload_is_output=True)
    return EXIT_OK


def cmd_gq_iso(io, args):
    a = gq.structure_from_json(io.read_json(args.a))
    b = gq.structure_from_json(io.read_json(args.b))
    result = gq.is_isomorphic(a, b, node_limit=args.limit)
    if result is None:
        io.emit({"schema_version": SCHEMA_VERSION, "isomorphic": False},
                "not isomorphic", payload_is_output=False)
        return EXIT_ERROR
    pm, lm = result
    payload = {"schema_version": SCHEMA_VERSION, "isomorphic": True,
               "point_map": list(pm), "line_map": list(lm)}
    io.emit(payload, f"isomorphic (point map {list(pm)})", payload_is_output=False)
    return EXIT_OK


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def _certificate_exit(cert) -> int:
    if cert.nonexistence_certified:
        return EXIT_NONEXISTENCE
    return EXIT_OK


def _describe(cert) -> str:
    status = "completed" if cert.completed else "incomplete"
    return (f"mode={cert.mode} solutions={cert.solution_count} "
            f"nodes={cert.nodes_visited} {status}")


def cmd_search_gq(io, args):
    s = gq.structure_from_json(io.read_json(args.file))
    fn = {
        "spreads": search.enumerate_gq_spreads,
        "ovoids": search.enumerate_gq_ovoids,
        "partition-spreads": search.partition_into_spreads,
        "partition-ovoids": search.partition_into_ovoids,
    }[args.what]
    try:
        cert = fn(s, args.mode, **_search_kwargs(args))
    except BudgetExceededError as exc:
        _write_certificate(io, args, exc.certificate)
        return EXIT_BUDGET
    _write_certificate(io, args, cert)
    return _certificate_exit(cert)


def _write_certificate(io, args, cert):
    if cert is None:
        print("budget exceeded before a certificate existed", file=sys.stderr)
        return
    io.emit(search.certificate_to_json(cert), _describe(cert), payload_is_output=True)


def cmd_search_pg(io, args):
    spec = field_new(args.q)
    try:
        cert = search.enumerate_pg_line_spreads(args.v, spec, args.mode,
                                                **_search_kwargs(args))
    except BudgetExceededError as exc:
        _write_certificate(io, args, exc.certificate)
        return EXIT_BUDGET
    if args.spread_out and cert.solutions:
        blocks = search.pg_spread_blocks(args.v, spec, cert.solutions[0])
        with open(args.spread_out, "w") as fh:
            fh.write(_canonical(designs.blockset_to_json(blocks)))
    _write_certificate(io, args, cert)
    return _certificate_exit(cert)


# ----------------------------------------------------------------------
# design
# ----------------------------------------------------------------------

def cmd_design_check(io, args):
    blocks = designs.blockset_from_json(io.read_json(args.file))
    params = designs.DesignParams(t=args.t, v=args.v, k=args.k, lam=args.l, q=args.q)
    rep = designs.is_design(blocks, params)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": str(params),
        "ok": rep.ok,
        "witnesses": [
            {"subspace": projspace.subspace_to_json(T), "count": c}
            for T, c in rep.witnesses
        ],
    }
    summary = (f"pass: {params}" if rep.ok
               else f"fail: {params}, {len(rep.witnesses)} witness(es) shown")
    io.emit(payload, summary, payload_is_output=False)
    return EXIT_OK if rep.ok else EXIT_ERROR


def cmd_design_dual(io, args):
    blocks = designs.blockset_from_json(io.read_json(args.file))
    form = projspace.dot_form(blocks.v, blocks.q)
    dual, _ = designs.dual_design(blocks, form)
    io.emit(designs.blockset_to_json(dual),
            f"dualized {len(blocks)} blocks to dimension {dual.k}", payload_is_output=True)
    return EXIT_OK


def cmd_design_derive(io, args):
    blocks = designs.blockset_from_json(io.read_json(args.file))
    spec = field_new(blocks.q)
    points = projspace.all_points(blocks.v, spec)
    if not 0 <= args.point < len(points):
        raise QGeomError(f"point index {args.point} outside PG({blocks.v - 1},{blocks.q})")
    der = designs.derived_design(blocks, points[args.point])
    io.emit(designs.blockset_to_json(der),
            f"derived design at point {args.point}: {len(der)} blocks",
            payload_is_output=True)
    return EXIT_OK


def cmd_design_spread_gen(io, args):
    spec = field_new(args.q)
    blocks = designs.desarguesian_spread(args.v, args.k, spec)
    io.emit(designs.blockset_to_json(blocks),
            f"Desarguesian ({args.k - 1})-spread of PG({args.v - 1},{args.q}): "
            f"{len(blocks)} blocks", payload_is_output=True)
    return EXIT_OK


def cmd_design_geometric(io, args):
    blocks = designs.blockset_from_json(io.read_json(args.file))
    rep = designs.is_geometric_spread(blocks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "geometric": rep.ok,
        "witness": projspace.subspace_to_json(rep.witness) if rep.witness else None,
        "witness_count": rep.count,
    }
    if rep.ok:
        summary = "geometric: true"
    else:
        rows = [list(r) for r in rep.witness.basis]
        summary = (f"geometric: false, witness {2 * blocks.k}-subspace {rows} "
                   f"holds {rep.count} blocks")
    io.emit(payload, summary, payload_is_output=False)
    return EXIT_OK if rep.ok else EXIT_ERROR


def cmd_design_alpha(io, args):
    blocks = designs.blockset_from_json(io.read_json(args.file))
    spec = field_new(blocks.q)
    points = projspace.all_points(blocks.v, spec)
    if not 0 <= args.point < len(points):
        raise QGeomError(f"point index {args.point} outside PG({blocks.v - 1},{blocks.q})")
    ok = designs.is_alpha_point(blocks, points[args.point])
    io.emit({"schema_version": SCHEMA_VERSION, "alpha_point": ok,
             "point": args.point},
            f"alpha point: {'true' if ok else 'false'}", payload_is_output=False)
    return EXIT_OK if ok else EXIT_ERROR


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------

def _add_common(p, out=True):
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable run report to stdout")
    if out:
        p.add_argument("--out", help="write the JSON payload to this file ('-' = stdout)")


def _add_search_flags(p):
    p.add_argument("--mode", choices=search.MODES, default="all")
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="node budget (accepts 1e7 style)")
    p.add_argument("--max-solutions", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="option-order shuffle seed (default 0)")
    p.add_argument("--workers", type=_int_at_least(1),
                   default=os.environ.get("QGEOM_WORKERS", "1"),
                   help="worker processes, at least 1 (default QGEOM_WORKERS or 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qgeom", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="field tables for F_q")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("lambda", help="lambda triangle and admissibility")
    for flag in ("t", "v", "k", "l", "q"):
        p.add_argument(f"--{flag}", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_lambda)

    pg = sub.add_parser("gq", help="generalized quadrangle constructions")
    gsub = pg.add_subparsers(dest="gq_command", required=True)
    p = gsub.add_parser("build")
    p.add_argument("--type", choices=("W", "Q4"), required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_gq_build)
    p = gsub.add_parser("check")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_gq_check)
    p = gsub.add_parser("dual")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_gq_dual)
    p = gsub.add_parser("iso")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--limit", type=_int_at_least(0), default=10 ** 7,
                   help="candidate-try budget (default 1e7)")
    _add_common(p)
    p.set_defaults(fn=cmd_gq_iso)

    ps = sub.add_parser("search", help="certified exhaustive searches")
    ssub = ps.add_subparsers(dest="search_command", required=True)
    for what in ("spreads", "ovoids", "partition-spreads", "partition-ovoids"):
        p = ssub.add_parser(what)
        p.add_argument("file")
        _add_search_flags(p)
        _add_common(p)
        p.set_defaults(fn=cmd_search_gq, what=what)
    p = ssub.add_parser("pg-spreads")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--spread-out", help="write the first spread as a block-set file")
    _add_search_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_search_pg)

    pd = sub.add_parser("design", help="block-set operations")
    dsub = pd.add_subparsers(dest="design_command", required=True)
    p = dsub.add_parser("check")
    p.add_argument("file")
    for flag in ("t", "v", "k", "l", "q"):
        p.add_argument(f"--{flag}", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_design_check)
    p = dsub.add_parser("dual")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_design_dual)
    p = dsub.add_parser("derive")
    p.add_argument("file")
    p.add_argument("--point", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_design_derive)
    p = dsub.add_parser("spread-gen")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_design_spread_gen)
    p = dsub.add_parser("geometric")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_design_geometric)
    p = dsub.add_parser("alpha")
    p.add_argument("file")
    p.add_argument("--point", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_design_alpha)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    io = _Io(args, ["qgeom"] + argv)
    try:
        return args.fn(io, args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
