"""Acceptance suite: the ten exit criteria of the workbench, each with
its stated tolerance (exact equality throughout) and time envelope.

Every test prints one `ACCEPT <n> ... PASS` line; run with `pytest -s`
(or read the captured output) to see the checklist.
"""

import time

import numpy as np
import pytest

from qgeom.cli import main as cli_main
from qgeom.designs import (
    DesignParams,
    classify_solids,
    cone_over,
    derived_design,
    desarguesian_spread,
    is_design,
    is_geometric_spread,
)
from qgeom.gf import field_new
from qgeom.gq import (
    GQOrder,
    build_q4,
    build_w,
    check_gq,
    dualize_structure,
    is_elliptic_quadric_ovoid,
    is_gq_ovoid,
    is_isomorphic,
)
from qgeom.projspace import (
    contains,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    meet,
    point_index,
    subspace_points,
)
from qgeom.search import (
    enumerate_gq_ovoids,
    enumerate_gq_spreads,
    enumerate_pg_line_spreads,
    pairwise_intersection_matrix,
    partition_into_ovoids,
    partition_into_spreads,
    pg_spread_blocks,
)


def _report(n, text, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPT {n}: {text} PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s envelope"


def test_accept_01_counting_oracle():
    t0 = time.monotonic()
    for q in (2, 3):
        spec = field_new(q)
        for v in range(6):
            for k in range(v + 1):
                assert len(enumerate_subspaces(v, k, spec)) == \
                    gaussian_binomial(v, k, q)
    _report(1, "subspace enumeration matches Gaussian binomials "
               "(q in {2,3}, 0 <= k <= v <= 5)", t0, 10.0)


def test_accept_02_lambda_triangle(capsys):
    t0 = time.monotonic()
    assert cli_main(["lambda", "--t", "2", "--v", "7", "--k", "3",
                     "--l", "1", "--q", "2"]) == 0
    out2 = capsys.readouterr().out
    rows2 = [line.split() for line in out2.splitlines()[1:4]]
    assert rows2 == [["381"], ["21", "45"], ["1", "5", "5"]]
    assert cli_main(["lambda", "--t", "2", "--v", "7", "--k", "3",
                     "--l", "1", "--q", "3"]) == 0
    out3 = capsys.readouterr().out
    assert out3.splitlines()[1].split() == ["7651"]
    with capsys.disabled():
        _report(2, "lambda triangle 381/21/45/1/5/5 at q=2 and 7651 at q=3",
                t0, 1.0)


def test_accept_03_desarguesian_spreads():
    t0 = time.monotonic()
    for v, k, q in ((4, 2, 2), (6, 2, 2), (4, 2, 3), (6, 3, 2)):
        blocks = desarguesian_spread(v, k, field_new(q))
        assert is_design(blocks, DesignParams(1, v, k, 1, q)).ok
        assert is_geometric_spread(blocks).ok
    _report(3, "Desarguesian spreads are Steiner point partitions and "
               "geometric for (4,2,2),(6,2,2),(4,2,3),(6,3,2)", t0, 30.0)


def test_accept_04_nongeometric_witness():
    t0 = time.monotonic()
    spec = field_new(2)
    cert = enumerate_pg_line_spreads(6, spec, "first", max_solutions=20,
                                     seed=7, node_limit=10 ** 7)
    witness = None
    for sol in cert.solutions:
        rep = is_geometric_spread(pg_spread_blocks(6, spec, sol))
        if not rep.ok:
            witness = rep
            break
    assert witness is not None, "no non-geometric spread within the sample"
    assert witness.witness.k == 4 and witness.count not in (0, 1, 5)
    _report(4, f"sampled PG(5,2) line spread fails the geometric test "
               f"(a solid holds {witness.count} blocks)", t0, 300.0)


def test_accept_05_gq_constructions():
    t0 = time.monotonic()
    for q in (2, 3, 4):
        expected = (q + 1) * (q * q + 1)
        for s in (build_w(q), build_q4(q)):
            verdict = check_gq(s)
            assert verdict.axioms_ok and not verdict.degenerate
            assert verdict.order == GQOrder(q, q)
            assert s.n_points == expected and s.n_lines == expected
    _report(5, "W(q) and Q(4,q) are GQs of order (q,q) with (q+1)(q^2+1) "
               "points and lines for q in {2,3,4}", t0, 60.0)


def test_accept_06_duality():
    t0 = time.monotonic()
    for q in (2, 3):
        a = dualize_structure(build_w(q))
        b = build_q4(q)
        result = is_isomorphic(a, b)
        assert result is not None
        pm, lm = result
        for j, pts in enumerate(a.line_points):
            assert tuple(sorted(pm[p] for p in pts)) == b.line_points[lm[j]]
    _report(6, "dual of W(q) is isomorphic to Q(4,q) for q in {2,3} "
               "(bijection verified edge by edge)", t0, 60.0)


def test_accept_07_no_partition_q2():
    t0 = time.monotonic()
    q4 = build_q4(2)
    ovoids = enumerate_gq_ovoids(q4)
    assert ovoids.completed and ovoids.solution_count == 6
    m = pairwise_intersection_matrix(ovoids, "ovoid")
    off = m[~np.eye(len(m), dtype=bool)]
    assert (off >= 1).all()
    assert partition_into_ovoids(q4).nonexistence_certified
    assert partition_into_spreads(build_w(2)).nonexistence_certified
    _report(7, "q=2: all ovoid pairs of Q(4,2) intersect; no ovoid "
               "partition; dually no spread partition of W(2)", t0, 60.0)


def test_accept_08_elliptic_ovoids_no_partition_q3():
    t0 = time.monotonic()
    q4 = build_q4(3)
    ovoids = enumerate_gq_ovoids(q4)
    assert ovoids.completed
    assert all(len(s) == 10 for s in ovoids.solutions)
    assert all(is_elliptic_quadric_ovoid(q4, s) for s in ovoids.solutions)
    m = pairwise_intersection_matrix(ovoids, "ovoid")
    off = m[~np.eye(len(m), dtype=bool)]
    assert (off >= 1).all()
    assert partition_into_ovoids(q4).nonexistence_certified
    _report(8, f"q=3: all {ovoids.solution_count} ovoids of Q(4,3) are "
               "elliptic sections of size 10, pairwise intersecting; no "
               "partition", t0, 900.0)


def test_accept_09_partition_equivalence():
    t0 = time.monotonic()
    for q in (2, 3):
        w, q4 = build_w(q), build_q4(q)
        ps = partition_into_spreads(w)
        po = partition_into_ovoids(q4)
        assert ps.nonexistence_certified == po.nonexistence_certified
        assert ps.solution_count == po.solution_count
        # the duality bijection carries spreads one-to-one onto ovoids
        pm, _ = is_isomorphic(dualize_structure(w), q4)
        spreads = enumerate_gq_spreads(w)
        ovoids = enumerate_gq_ovoids(q4)
        # double counting forces the solution sizes
        assert all(len(s) == q * q + 1 for s in spreads.solutions)
        assert all(len(s) == q * q + 1 for s in ovoids.solutions)
        images = {tuple(sorted(pm[j] for j in sol)) for sol in spreads.solutions}
        assert all(is_gq_ovoid(q4, img) for img in images)
        assert images == {tuple(sorted(s)) for s in ovoids.solutions}
    _report(9, "partition verdicts of W(q) and Q(4,q) agree and duality "
               "maps spreads bijectively onto ovoids (q in {2,3})", t0, 1200.0)


@pytest.mark.parametrize("q", [2, 3])
def test_accept_10_beta_flat_micro_model(q):
    t0 = time.monotonic()
    spec = field_new(q)
    blocks, apex = cone_over(desarguesian_spread(4, 2, spec))
    F = full_space(5, q)
    # (a) the quotient family at the focal point is a line spread of F/P
    der = derived_design(blocks, apex)
    assert is_design(der, DesignParams(1, 4, 2, 1, q)).ok
    # ... equivalently, every point except the focal one lies on a
    # unique block
    for P in enumerate_subspaces(5, 1, spec):
        cover = sum(1 for B in blocks.blocks if contains(B, P))
        assert cover == (q * q + 1 if P == apex else 1)
    # (b) poor solids are exactly those missing the focal point, with
    # q^4 poor and q^3+q^2+q+1 rich
    cls = classify_solids(blocks, F)
    assert len(cls.rich) == q ** 3 + q ** 2 + q + 1
    assert len(cls.poor) == q ** 4
    assert all(contains(S, apex) for S in cls.rich)
    assert all(not contains(S, apex) for S in cls.poor)
    # (c) on every poor solid the block traces form a line spread
    for S in cls.poor:
        traces = {meet(B, S) for B in blocks.blocks}
        assert all(t.k == 2 for t in traces)
        assert len(traces) == q * q + 1
        seen = set()
        for t in traces:
            pts = {point_index(p.basis[0], 5, q) for p in subspace_points(t)}
            assert not pts & seen
            seen |= pts
        assert seen == {point_index(p.basis[0], 5, q) for p in subspace_points(S)}
    _report(10, f"beta-flat cone model at q={q}: derived line spread, "
                f"{q ** 4} poor / {q ** 3 + q ** 2 + q + 1} rich solids, "
                "spread traces on every poor solid", t0, 120.0)
