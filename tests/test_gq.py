"""Generalized quadrangle tests: the classical constructions, axiom
checking on hand-verifiable toys, duality, and isomorphism search."""

from dataclasses import replace

import numpy as np
import pytest

from qgeom.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    MissingLabelsError,
    OutOfRangeError,
    UnknownIdError,
)
from qgeom.gf import field_new
from qgeom.gq import (
    GQOrder,
    build_q4,
    build_w,
    check_gq,
    dualize_structure,
    incidence_from_lines,
    is_elliptic_quadric_ovoid,
    is_gq_ovoid,
    is_gq_spread,
    is_isomorphic,
    structure_from_json,
    structure_to_json,
)
from qgeom.projspace import (
    contains,
    enumerate_subspaces,
    form_value,
    join,
    subspace_points,
    symplectic_form,
)
from qgeom.search import gq_ovoid_instance, gq_spread_instance, solve_exact_cover


def grid3x3():
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return incidence_from_lines(9, rows + cols)


# ----------------------------------------------------------------------
# Constructions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_w_and_q4_counts(q):
    expected = (q + 1) * (q * q + 1)
    for s in (build_w(q), build_q4(q)):
        assert s.n_points == expected
        assert s.n_lines == expected
        assert all(len(pts) == q + 1 for pts in s.line_points)
        assert all(len(ls) == q + 1 for ls in s.point_lines)


def test_w_lines_are_the_isotropic_ones():
    # independent filter: count lines of PG(3,2) on which the
    # alternating form vanishes identically
    spec = field_new(2)
    form = symplectic_form(2)
    count = 0
    for L in enumerate_subspaces(4, 2, spec):
        pts = [p.vector for p in subspace_points(L)]
        if all(form_value(form, x, y, 2) == 0 for x in pts for y in pts):
            count += 1
    assert count == build_w(2).n_lines == 15


def test_q4_lines_lie_on_the_quadric():
    q4 = build_q4(3)
    zeros = {lab for lab in q4.point_labels}
    for L in q4.line_labels:
        for p in subspace_points(L):
            import qgeom.projspace as ps
            assert ps.Subspace(v=5, k=1, q=3, basis=(p.vector,)) in zeros


def test_q4_has_no_plane_on_the_quadric():
    # parabolic type: the zero set of the form contains lines but no plane
    spec = field_new(2)
    q4 = build_q4(2)
    on_quadric = {lab.basis[0] for lab in q4.point_labels}
    for E in enumerate_subspaces(5, 3, spec):
        pts = {p.vector for p in subspace_points(E)}
        assert not pts <= on_quadric


def test_build_rejects_large_q():
    with pytest.raises(OutOfRangeError):
        build_w(17)
    with pytest.raises(OutOfRangeError):
        build_q4(32)


# ----------------------------------------------------------------------
# Axioms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_classical_structures_are_gqs_of_order_q_q(q):
    for s in (build_w(q), build_q4(q)):
        verdict = check_gq(s)
        assert verdict.axioms_ok
        assert verdict.order == GQOrder(q, q)
        assert not verdict.degenerate


def test_grid_is_a_gq_of_order_2_1():
    verdict = check_gq(grid3x3())
    assert verdict.axioms_ok and verdict.order == GQOrder(2, 1)
    assert not verdict.degenerate


def test_projective_space_is_not_a_gq():
    spec = field_new(2)
    lines = [tuple(p.index for p in subspace_points(L))
             for L in enumerate_subspaces(4, 2, spec)]
    verdict = check_gq(incidence_from_lines(15, lines))
    assert not verdict.axioms_ok  # triangles break the projection axiom


def test_degenerate_structure_is_flagged():
    # a pencil of two lines through point 0: axioms hold vacuously, yet
    # every point lies on a line through 0
    pencil = incidence_from_lines(3, [(0, 1), (0, 2)])
    verdict = check_gq(pencil)
    assert verdict.axioms_ok
    assert verdict.degenerate
    assert verdict.order is None  # degrees are not constant


def test_two_lines_through_two_points_rejected_by_axioms():
    # lines 0 and 1 share the digon {0, 1}; the extra line keeps the
    # point rows distinct so the constructor accepts the structure
    s = incidence_from_lines(5, [(0, 1, 2), (0, 1, 3), (0, 4)])
    verdict = check_gq(s)
    assert not verdict.axioms_ok


# ----------------------------------------------------------------------
# Duality
# ----------------------------------------------------------------------

def test_dual_is_an_involution():
    for s in (grid3x3(), build_w(2)):
        assert dualize_structure(dualize_structure(s)).line_points == s.line_points


def test_dual_swaps_the_order():
    assert check_gq(dualize_structure(grid3x3())).order == GQOrder(1, 2)


def test_dual_of_w2_is_a_gq():
    verdict = check_gq(dualize_structure(build_w(2)))
    assert verdict.axioms_ok and verdict.order == GQOrder(2, 2)


# ----------------------------------------------------------------------
# Isomorphism
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_dual_w_is_isomorphic_to_q4(q):
    result = is_isomorphic(dualize_structure(build_w(q)), build_q4(q))
    assert result is not None
    pm, lm = result
    a, b = dualize_structure(build_w(q)), build_q4(q)
    for j, pts in enumerate(a.line_points):
        assert tuple(sorted(pm[p] for p in pts)) == b.line_points[lm[j]]


@pytest.mark.parametrize("q", [2, 4])
def test_w_self_dual_for_even_q(q):
    assert is_isomorphic(build_w(q), build_q4(q)) is not None


def test_identity_isomorphism():
    w = build_w(2)
    assert is_isomorphic(w, w) is not None


def test_size_mismatch_is_not_isomorphic():
    assert is_isomorphic(build_w(2), grid3x3()) is None


def test_nonisomorphic_same_size_certified():
    # grid versus a "broken grid" with one line redirected
    grid = grid3x3()
    other = incidence_from_lines(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8),
                                     (0, 3, 6), (1, 4, 7), (2, 5, 7)])
    assert is_isomorphic(grid, other) is None


def test_isomorphism_budget():
    with pytest.raises(BudgetExceededError):
        is_isomorphic(build_w(3), dualize_structure(build_w(3)), node_limit=3)


# ----------------------------------------------------------------------
# Spreads / ovoids / elliptic sections
# ----------------------------------------------------------------------

def test_grid_spread_and_ovoid_predicates():
    grid = grid3x3()
    assert is_gq_spread(grid, {0, 1, 2})       # the three rows
    assert is_gq_spread(grid, {3, 4, 5})       # the three columns
    assert not is_gq_spread(grid, {0, 1, 3})
    assert is_gq_ovoid(grid, {0, 4, 8})        # a transversal
    assert not is_gq_ovoid(grid, {0, 1, 2})


def test_all_points_and_empty_set_are_not_ovoids():
    q4 = build_q4(2)
    assert not is_gq_ovoid(q4, set(range(q4.n_points)))
    assert not is_gq_ovoid(q4, set())


def _meets_once_reference(incidence, ids):
    """The per-row generator count that the mask test replaced."""
    chosen = set(ids)
    return all(sum(1 for y in row if y in chosen) == 1 for row in incidence)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_meets_once_mask_test_agrees_with_the_row_count(q):
    for s in (build_q4(q), build_w(q)):
        assert s.line_masks() is s.line_masks() and s.point_masks() is s.point_masks()
        ovoids = solve_exact_cover(gq_ovoid_instance(s), "all").solutions
        spreads = solve_exact_cover(gq_spread_instance(s), "all").solutions
        # for odd q, Q(4,q) has no spreads and W(q) has no ovoids
        assert max(len(ovoids), len(spreads)) == {2: 6, 3: 36, 4: 120, 5: 300}[q]
        for pred, incidence, sets, n in ((is_gq_ovoid, s.line_points, ovoids, s.n_points),
                                         (is_gq_spread, s.point_lines, spreads, s.n_lines)):
            for chosen in sets:
                extra = next(x for x in range(n) if x not in chosen)
                variants = (chosen,                  # meets every row once
                            chosen + (extra,),       # meets some row twice
                            chosen[1:],              # misses some row
                            chosen[1:] + (extra,))   # may do both
                for ids in variants:
                    assert pred(s, ids) == _meets_once_reference(incidence, ids)
                assert pred(s, chosen) and not pred(s, variants[1]) and not pred(s, variants[2])


def test_unknown_ids_rejected():
    grid = grid3x3()
    with pytest.raises(UnknownIdError):
        is_gq_spread(grid, {99})
    with pytest.raises(UnknownIdError):
        is_gq_ovoid(grid, {-1})


def test_elliptic_section_oracle_q2():
    # oracle: hyperplane sections of the quadric with 5 points and no
    # quadric line; exactly those sections are the ovoids
    spec = field_new(2)
    q4 = build_q4(2)
    label_index = {lab: i for i, lab in enumerate(q4.point_labels)}
    sections = set()
    for H in enumerate_subspaces(5, 4, spec):
        sec = frozenset(label_index[lab] for lab in q4.point_labels
                        if contains(H, lab))
        holds_line = any(contains(H, L) for L in q4.line_labels)
        if len(sec) == 5 and not holds_line:
            sections.add(sec)
    assert len(sections) == 6
    for sec in sections:
        assert is_gq_ovoid(q4, sec)
        assert is_elliptic_quadric_ovoid(q4, sec)


def test_elliptic_check_needs_labels():
    grid = grid3x3()
    with pytest.raises(MissingLabelsError):
        is_elliptic_quadric_ovoid(grid, {0, 4, 8})


def test_elliptic_check_rejects_mixed_ambient_labels():
    q4 = build_q4(2)
    ovoid = [0, 2, 5, 9, 13]
    assert is_elliptic_quadric_ovoid(q4, ovoid)
    foreign_line = enumerate_subspaces(4, 2, field_new(2))[0]
    bad_lines = replace(q4, line_labels=q4.line_labels[:-1] + (foreign_line,))
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(bad_lines, ovoid)
    # a point label off the ovoid, from PG(4,3)
    foreign_point = enumerate_subspaces(5, 1, field_new(3))[0]
    bad_points = replace(q4, point_labels=q4.point_labels[:-1] + (foreign_point,))
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(bad_points, ovoid)


def test_elliptic_check_false_verdicts():
    q4 = build_q4(2)
    ovoid = [0, 2, 5, 9, 13]
    labels = q4.point_labels
    outside = next(i for i in range(q4.n_points) if i not in ovoid)
    # an ovoid point relabelled off the section: the labels span PG(4,2)
    swapped = list(labels)
    swapped[ovoid[0]], swapped[outside] = labels[outside], labels[ovoid[0]]
    assert not is_elliptic_quadric_ovoid(replace(q4, point_labels=tuple(swapped)), ovoid)
    # a second point carrying an ovoid label: the section is too big
    doubled = labels[:outside] + (labels[ovoid[0]],) + labels[outside + 1:]
    assert not is_elliptic_quadric_ovoid(replace(q4, point_labels=doubled), ovoid)
    # a line label inside the span of the ovoid
    chord = join(labels[ovoid[0]], labels[ovoid[1]])
    lines = (chord,) + q4.line_labels[1:]
    assert not is_elliptic_quadric_ovoid(replace(q4, line_labels=lines), ovoid)


def test_elliptic_check_rejects_mixed_ambient_ovoid_labels():
    q4 = build_q4(2)
    ovoid = [0, 2, 5, 9, 13]
    foreign_point = enumerate_subspaces(5, 1, field_new(3))[0]
    labels = q4.point_labels[:9] + (foreign_point,) + q4.point_labels[10:]
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(replace(q4, point_labels=labels), ovoid)


def test_elliptic_check_rejects_non_ovoid():
    q4 = build_q4(2)
    with pytest.raises(ValueError):
        is_elliptic_quadric_ovoid(q4, {0, 1, 2, 3, 4})


# ----------------------------------------------------------------------
# Structure plumbing
# ----------------------------------------------------------------------

def test_incidence_invariants():
    with pytest.raises(ValueError):
        incidence_from_lines(3, [(0, 1), (0, 1)])  # repeated line
    with pytest.raises(ValueError):
        incidence_from_lines(4, [(0, 1), (2, 3), (0, 1, 2)][:2] + [(2, 3)])
    with pytest.raises(UnknownIdError):
        incidence_from_lines(2, [(0, 5)])


def test_incidence_matrix():
    grid = grid3x3()
    m = grid.incidence_matrix()
    assert m.shape == (9, 6)
    assert m.sum() == 18
    assert np.array_equal(m.sum(axis=0), np.full(6, 3))


def test_structure_json_round_trip_with_labels():
    w = build_w(2)
    again = structure_from_json(structure_to_json(w))
    assert again.line_points == w.line_points
    assert again.point_labels == w.point_labels
    assert again.line_labels == w.line_labels
    grid = grid3x3()
    again = structure_from_json(structure_to_json(grid))
    assert again.line_points == grid.line_points
    assert again.point_labels is None


@pytest.mark.parametrize("line_id", [5, -1, 1, "0", 0.0, True])
def test_structure_from_json_rejects_unknown_line_ids(line_id):
    obj = {"schema_version": 1, "points": 2, "lines": 1,
           "incidence": [[0], [line_id]]}
    with pytest.raises(UnknownIdError):
        structure_from_json(obj)
