"""The three benchmark workloads.

Each workload function takes a `Context` and returns nothing; it records
every verified answer through `ctx.expect`.  Library functions are
looked up through their module at call time (`gq.build_q4`, not a name
imported into this file), so the tracer's wrappers see these calls too.

Every expected answer below is independent of the search order, so any
seed must pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

from qgeom import cli, designs, gf, gq, projspace, search


class Context:
    def __init__(self, seed, workdir, corrupt=None, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.corrupt = corrupt
        self.tracer = tracer
        self.checks = []

    def expect(self, name, actual, expected):
        """Record one check; `corrupt` names a check whose expected answer
        is deliberately wrong, to prove that failures are counted."""
        if name == self.corrupt:
            expected = object()  # an answer nothing can equal
        self.checks.append((name, actual == expected))

    def cli(self, argv, *, stdin=None, payload_stdout=False):
        """Run `qgeom <argv>` in-process; return (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        finally:
            sys.stdin = saved_stdin
        text = out.getvalue()
        if self.tracer is not None:
            written = len(text.encode()) if payload_stdout else 0
            if "--out" in argv:
                written += os.path.getsize(argv[argv.index("--out") + 1])
            self.tracer.count("cli.json_bytes", written)
        return code, text

    def path(self, name):
        return os.path.join(self.workdir, name)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# headline: the paper's pipeline for q = 2..5 through the CLI
# ----------------------------------------------------------------------

def headline(ctx):
    seed = ["--seed", ctx.seed]
    for q in (2, 3, 4, 5):
        q4_file, w_file = ctx.path(f"q4-{q}.json"), ctx.path(f"w-{q}.json")
        for kind, path in (("Q4", q4_file), ("W", w_file)):
            code, _ = ctx.cli(["gq", "build", "--type", kind, "--q", q, "--out", path])
            ctx.expect(f"build.{kind}.{q}.exit", code, 0)
            code, text = ctx.cli(["gq", "check", path])
            ctx.expect(f"check.{kind}.{q}", (code, text), (0, f"GQ of order ({q},{q})\n"))

        files = {what: ctx.path(f"{what}-{q}.json") for what in
                 ("ovoids", "spreads", "partition-ovoids", "partition-spreads")}
        for what, source, exit_code in (("ovoids", q4_file, 0), ("spreads", w_file, 0),
                                        ("partition-ovoids", q4_file, 10),
                                        ("partition-spreads", w_file, 10)):
            code, _ = ctx.cli(["search", what, source, *seed, "--out", files[what]])
            ctx.expect(f"search.{what}.{q}.exit", code, exit_code)
        certs = {what: search.certificate_from_json(_load(path))
                 for what, path in files.items()}

        code, dual = ctx.cli(["gq", "dual", w_file], payload_stdout=True)
        ctx.expect(f"dual.{q}.exit", code, 0)
        iso_file = ctx.path(f"iso-{q}.json")
        code, _ = ctx.cli(["gq", "iso", "-", q4_file, "--out", iso_file], stdin=dual)
        ctx.expect(f"iso.{q}.exit", code, 0)
        point_map = _load(iso_file)["point_map"]

        ovoids, spreads = certs["ovoids"], certs["spreads"]
        expected = q * q * (q * q - 1) // 2  # 6, 36, 120, 300
        ctx.expect(f"ovoids.{q}.count", (ovoids.completed, ovoids.solution_count),
                   (True, expected))
        ctx.expect(f"spreads.{q}.count", (spreads.completed, spreads.solution_count),
                   (True, expected))
        for what in ("partition-ovoids", "partition-spreads"):
            ctx.expect(f"{what}.{q}.nonexistence", certs[what].nonexistence_certified, True)

        m = search.pairwise_intersection_matrix(ovoids, "ovoid")
        off_diagonal = m[~np.eye(len(m), dtype=bool)]
        ctx.expect(f"ovoids.{q}.min_intersection_ge_1", int(off_diagonal.min()) >= 1, True)

        q4, w = gq.build_q4(q), gq.build_w(q)
        elliptic = sum(1 for s in ovoids.solutions if gq.is_elliptic_quadric_ovoid(q4, s))
        ctx.expect(f"ovoids.{q}.elliptic", elliptic, expected)

        images = {tuple(sorted(point_map[j] for j in s)) for s in spreads.solutions}
        ctx.expect(f"duality.{q}", images, {tuple(sorted(s)) for s in ovoids.solutions})

        ctx.expect(f"digest.ovoids.{q}", ovoids.digest,
                   search.instance_digest(search.gq_ovoid_instance(q4)))
        ctx.expect(f"digest.spreads.{q}", spreads.digest,
                   search.instance_digest(search.gq_spread_instance(w)))
        for what, first, n, label in (("partition-ovoids", ovoids, q4.n_points, "ovoid"),
                                      ("partition-spreads", spreads, w.n_lines, "spread")):
            instance = search.exact_cover_instance(
                n, first.solutions,
                names=[f"{label}-{i}" for i in range(len(first.solutions))])
            ctx.expect(f"digest.{what}.{q}", certs[what].digest,
                       search.instance_digest(instance))


# ----------------------------------------------------------------------
# pg-spreads: one deep tree with thousands of re-verified solutions
# ----------------------------------------------------------------------

def pg_spreads(ctx):
    for v, q, mode, expected in ((4, 3, "all", 8424), (4, 2, "all", 56),
                                 (4, 3, "count", 8424)):
        spec = gf.field_new(q)
        cert = search.enumerate_pg_line_spreads(v, spec, mode, seed=ctx.seed)
        ctx.expect(f"pg{v - 1}{q}.{mode}.spreads", (cert.completed, cert.solution_count),
                   (True, expected))
        ctx.expect(f"pg{v - 1}{q}.{mode}.stored", len(cert.solutions),
                   expected if mode == "all" else 0)
        ctx.expect(f"digest.pg{v - 1}{q}.{mode}", cert.digest,
                   search.instance_digest(search.pg_line_spread_instance(v, spec)))


# ----------------------------------------------------------------------
# lattice: subspace enumeration, incidence and design predicates
# ----------------------------------------------------------------------

GRASSMANNIANS = ((7, 3, 2), (6, 2, 3), (6, 3, 3), (5, 2, 4), (5, 2, 5))
DESARGUESIAN = ((4, 2, 2), (4, 2, 3), (4, 2, 4), (4, 2, 5), (6, 2, 2), (6, 3, 2), (6, 2, 3))
PG52_SAMPLE = 10


def lattice(ctx):
    for v, k, q in GRASSMANNIANS:
        subspaces = projspace.enumerate_subspaces(v, k, gf.field_new(q))
        ctx.expect(f"grassmannian.{v}.{k}.{q}", len(subspaces),
                   projspace.gaussian_binomial(v, k, q))

    for v, k, q in DESARGUESIAN:
        blocks = designs.desarguesian_spread(v, k, gf.field_new(q))
        params = designs.DesignParams(t=1, v=v, k=k, lam=1, q=q)
        ctx.expect(f"desarguesian.{v}.{k}.{q}.design",
                   designs.is_design(blocks, params).ok, True)
        ctx.expect(f"desarguesian.{v}.{k}.{q}.geometric",
                   designs.is_geometric_spread(blocks).ok, True)
        form = projspace.dot_form(v, q)
        dual, _ = designs.dual_design(blocks, form)
        back, _ = designs.dual_design(dual, form)
        ctx.expect(f"desarguesian.{v}.{k}.{q}.dual",
                   (dual.k, len(dual), back.blocks), (v - k, len(blocks), blocks.blocks))

    for q in (2, 3, 4, 5):
        form = projspace.dot_form(4, q)
        lines = projspace.enumerate_subspaces(4, 2, gf.field_new(q))
        involution = all(
            projspace.dualize(projspace.dualize(L, form), form) == L for L in lines)
        ctx.expect(f"dualize.involution.{q}", involution, True)

    for q in (2, 3, 4):
        blocks, apex = designs.cone_over(designs.desarguesian_spread(4, 2, gf.field_new(q)))
        full = projspace.full_space(5, q)
        ctx.expect(f"focal.{q}.point", designs.beta_flat_focus(blocks, full).focal, apex)
        solids = designs.classify_solids(blocks, full)
        ctx.expect(f"focal.{q}.solids", (len(solids.rich), len(solids.poor)),
                   (q ** 3 + q ** 2 + q + 1, q ** 4))
        ctx.expect(f"focal.{q}.alpha", designs.is_alpha_point(blocks, apex), True)

    spec = gf.field_new(2)
    cert = search.enumerate_pg_line_spreads(6, spec, "first", max_solutions=PG52_SAMPLE,
                                            seed=ctx.seed, node_limit=10 ** 7)
    ctx.expect("pg52.sample.size", cert.solution_count, PG52_SAMPLE)
    ctx.expect("digest.pg52.sample", cert.digest,
               search.instance_digest(search.pg_line_spread_instance(6, spec)))
    geometric = [designs.is_geometric_spread(search.pg_spread_blocks(6, spec, s)).ok
                 for s in cert.solutions]
    ctx.expect("pg52.sample.nongeometric_witness", geometric.count(False) >= 1, True)


WORKLOADS = {"headline": headline, "pg-spreads": pg_spreads, "lattice": lattice}
