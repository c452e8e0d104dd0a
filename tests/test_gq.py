"""Generalized quadrangle tests: the classical constructions, axiom
checking on hand-verifiable toys, duality, and isomorphism search."""

import importlib
import pkgutil
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qgeom
from qgeom import designs, projspace, search
from qgeom.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    MissingLabelsError,
    OutOfRangeError,
    UnknownIdError,
)
from qgeom.gf import dot, field_new, ops_for_order
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
    BilinearForm,
    _kernel,
    bit_ids,
    contains,
    enumerate_subspaces,
    form_value,
    join,
    point_index,
    point_mask,
    require_ambient,
    rref,
    subspace_from_rows,
    subspace_points,
    subspace_to_json,
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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_w_lines_are_the_isotropic_ones(q):
    # independent filter: the lines of PG(3,q) on which the alternating
    # form vanishes identically, point pair by point pair
    spec = field_new(q)
    form = symplectic_form(q)
    lines = []
    for L in enumerate_subspaces(4, 2, spec):
        pts = [p.basis[0] for p in subspace_points(L)]
        if all(form_value(form, x, y, q) == 0 for x in pts for y in pts):
            lines.append(L)
    assert len(lines) == build_w(q).n_lines == (q + 1) * (q * q + 1)
    assert tuple(lines) == build_w(q).line_labels


@pytest.mark.parametrize("q", [2, 3, 4])
def test_q4_is_the_zero_set_of_its_quadratic_form(q):
    # independent oracle: x1 x2 + x3 x4 + x5^2 in field arithmetic, and
    # every line of PG(4,q) whose q + 1 points are all zeroes
    ops = ops_for_order(q)

    def quadric(x):
        return ops.add(ops.add(ops.mul(x[0], x[1]), ops.mul(x[2], x[3])), ops.mul(x[4], x[4]))

    spec = field_new(q)
    zeroes = [p.basis[0] for p in enumerate_subspaces(5, 1, spec) if quadric(p.basis[0]) == 0]
    index = {x: i for i, x in enumerate(zeroes)}
    lines = [L for L in enumerate_subspaces(5, 2, spec)
             if all(quadric(p.basis[0]) == 0 for p in subspace_points(L))]
    q4 = build_q4(q)
    assert [P.basis[0] for P in q4.point_labels] == zeroes
    assert len(zeroes) == (q + 1) * (q * q + 1)
    assert q4.line_labels == tuple(lines)
    assert q4.line_points == tuple(tuple(sorted(index[p.basis[0]] for p in subspace_points(L)))
                                   for L in lines)


def _walked_quadrangle(v, q, quadratic, polar):
    # the construction the builds replaced: walk every line of PG(v-1,q)
    # and keep those whose RREF rows are zeroes with polar value 0
    spec = field_new(q)
    zeroes = [p for p in enumerate_subspaces(v, 1, spec)
              if form_value(quadratic, p.basis[0], p.basis[0], q) == 0]
    idx = {point_index(p.basis[0], v, q): i for i, p in enumerate(zeroes)}
    singular = {p.basis[0] for p in zeroes}
    lines = [L for L in enumerate_subspaces(v, 2, spec)
             if L.basis[0] in singular and L.basis[1] in singular
             and form_value(polar, L.basis[0], L.basis[1], q) == 0]
    return incidence_from_lines(
        len(zeroes), [[idx[i] for i in bit_ids(point_mask(L))] for L in lines],
        point_labels=tuple(zeroes),
        line_labels=tuple(lines))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_builds_equal_the_walk_over_every_line_without_enumerating(q, monkeypatch):
    ops = ops_for_order(q)
    upper = ((0, 1, 0, 0, 0), (0,) * 5, (0, 0, 0, 1, 0), (0,) * 5, (0, 0, 0, 0, 1))
    polar = tuple(tuple(map(ops.add, row, col)) for row, col in zip(upper, zip(*upper)))
    walked = (_walked_quadrangle(4, q, BilinearForm(gram=((0,) * 4,) * 4), symplectic_form(q)),
              _walked_quadrangle(5, q, BilinearForm(gram=upper), BilinearForm(gram=polar)))

    def no_enumeration(*args):
        raise AssertionError("a build enumerated the subspaces of PG(v-1,q)")

    # every qgeom module that binds the name, so no caller slips past the patch
    modules = [importlib.import_module(f"qgeom.{m.name}")
               for m in pkgutil.iter_modules(qgeom.__path__)]
    binders = [mod for mod in modules if hasattr(mod, "enumerate_subspaces")]
    assert {projspace, search, designs} <= set(binders)
    for mod in binders:
        monkeypatch.setattr(mod, "enumerate_subspaces", no_enumeration)
    # __wrapped__ skips the lru_cache, so the builds run under the patch
    assert (build_w.__wrapped__(q), build_q4.__wrapped__(q)) == walked


def test_q4_lines_lie_on_the_quadric():
    q4 = build_q4(3)
    zeros = {lab for lab in q4.point_labels}
    for L in q4.line_labels:
        for p in subspace_points(L):
            assert p in zeros


def test_q4_has_no_plane_on_the_quadric():
    # parabolic type: the zero set of the form contains lines but no plane
    spec = field_new(2)
    q4 = build_q4(2)
    on_quadric = {lab.basis[0] for lab in q4.point_labels}
    for E in enumerate_subspaces(5, 3, spec):
        pts = {p.basis[0] for p in subspace_points(E)}
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
    lines = [tuple(point_index(p.basis[0], 4, 2) for p in subspace_points(L))
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


def test_nonisomorphic_with_equal_counts_and_degrees_is_certified_by_the_search():
    # as graphs (2-point lines), a 6-cycle and two triangles agree in every
    # count and degree, so only the exhausted search can say no
    hexagon = incidence_from_lines(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = incidence_from_lines(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for a, b in ((hexagon, triangles), (triangles, hexagon)):
        with pytest.raises(BudgetExceededError):
            is_isomorphic(a, b, node_limit=20)
        assert is_isomorphic(a, b, node_limit=100) is None


def test_isomorphism_search_is_deeper_than_the_recursion_limit():
    # a 32 x 32 grid has 1,088 vertices, one search level each; the second
    # copy numbers its points and lines backwards
    m = 32
    lines = ([tuple(range(i * m, (i + 1) * m)) for i in range(m)]
             + [tuple(range(j, m * m, m)) for j in range(m)])
    grid = incidence_from_lines(m * m, lines)
    other = incidence_from_lines(m * m, [tuple(m * m - 1 - p for p in pts)
                                         for pts in reversed(lines)])
    pm, lm = is_isomorphic(grid, other)
    for j, pts in enumerate(grid.line_points):
        assert tuple(sorted(pm[p] for p in pts)) == other.line_points[lm[j]]


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
        assert s.line_masks is s.line_masks and s.point_masks is s.point_masks
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


def _elliptic_reference(q4, pointset):
    """The per-label test that the vectorized section pass replaced: the
    span of all ovoid rows, then a Python dot per label row and normal."""
    if q4.point_labels is None or q4.line_labels is None:
        raise MissingLabelsError("structure carries no coordinate labels")
    ids = sorted(set(pointset))
    if not is_gq_ovoid(q4, ids):
        raise ValueError("point set is not an ovoid of the structure")
    labels = [q4.point_labels[i] for i in ids]
    v, q = labels[0].v, labels[0].q
    require_ambient(v, q, labels)
    span = subspace_from_rows([lab.basis[0] for lab in labels], v, q)
    if span.k != 4:
        return False
    require_ambient(v, q, q4.point_labels + q4.line_labels)
    ops = ops_for_order(q)
    normals = _kernel(span.basis, v, q)

    def inside(lab):
        return not any(dot(row, n, ops) for row in lab.basis for n in normals)

    section = [i for i, lab in enumerate(q4.point_labels) if inside(lab)]
    if section != ids:
        return False
    return not any(inside(lab) for lab in q4.line_labels)


def _outcome(test, q4, pointset):
    """The verdict, or the type of the error raised."""
    try:
        return test(q4, pointset)
    except ValueError as exc:  # every qgeom error here is a ValueError
        return type(exc)


def _elliptic_outcome(q4, pointset):
    """The verdict (or error type) of the test, after checking that the
    reference gives the same one."""
    got = _outcome(is_elliptic_quadric_ovoid, q4, pointset)
    assert got == _outcome(_elliptic_reference, q4, pointset)
    return got


@lru_cache(maxsize=None)
def _q4_ovoids(q):
    q4 = build_q4(q)
    return q4, solve_exact_cover(gq_ovoid_instance(q4), "all").solutions


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_every_ovoid_is_elliptic_as_in_the_reference(q):
    q4, ovoids = _q4_ovoids(q)
    assert len(ovoids) == q * q * (q * q - 1) // 2
    assert all(_elliptic_outcome(q4, ovoid) is True for ovoid in ovoids)
    assert q4.label_rows is q4.label_rows  # built once per structure


def test_elliptic_check_needs_labels():
    grid = grid3x3()
    with pytest.raises(MissingLabelsError):
        is_elliptic_quadric_ovoid(grid, {0, 4, 8})
    assert _elliptic_outcome(grid, {0, 4, 8}) is MissingLabelsError


def test_elliptic_check_rejects_mixed_ambient_labels():
    q4 = build_q4(2)
    ovoid = [0, 2, 5, 9, 13]
    assert is_elliptic_quadric_ovoid(q4, ovoid)
    foreign_line = enumerate_subspaces(4, 2, field_new(2))[0]
    bad_lines = replace(q4, line_labels=q4.line_labels[:-1] + (foreign_line,))
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(bad_lines, ovoid)
    assert _elliptic_outcome(bad_lines, ovoid) is AmbientMismatchError
    # a point label off the ovoid, from PG(4,3)
    foreign_point = enumerate_subspaces(5, 1, field_new(3))[0]
    bad_points = replace(q4, point_labels=q4.point_labels[:-1] + (foreign_point,))
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(bad_points, ovoid)
    assert _elliptic_outcome(bad_points, ovoid) is AmbientMismatchError
    # a rank-5 ovoid is refused before the other labels are looked at
    swapped = list(bad_points.point_labels)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert _elliptic_outcome(replace(bad_points, point_labels=tuple(swapped)), ovoid) is False


def test_elliptic_check_false_verdicts():
    q4 = build_q4(2)
    ovoid = [0, 2, 5, 9, 13]
    labels = q4.point_labels
    outside = next(i for i in range(q4.n_points) if i not in ovoid)
    # an ovoid point relabelled off the section: the labels span PG(4,2)
    swapped = list(labels)
    swapped[ovoid[0]], swapped[outside] = labels[outside], labels[ovoid[0]]
    assert _elliptic_outcome(replace(q4, point_labels=tuple(swapped)), ovoid) is False
    # a second point carrying an ovoid label: the section is too big
    doubled = labels[:outside] + (labels[ovoid[0]],) + labels[outside + 1:]
    assert _elliptic_outcome(replace(q4, point_labels=doubled), ovoid) is False
    # a line label inside the span of the ovoid
    chord = join(labels[ovoid[0]], labels[ovoid[1]])
    lines = (chord,) + q4.line_labels[1:]
    assert _elliptic_outcome(replace(q4, line_labels=lines), ovoid) is False


def test_elliptic_check_rejects_mixed_ambient_ovoid_labels():
    q4 = build_q4(2)
    ovoid = [0, 2, 5, 9, 13]
    foreign_point = enumerate_subspaces(5, 1, field_new(3))[0]
    labels = q4.point_labels[:9] + (foreign_point,) + q4.point_labels[10:]
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(replace(q4, point_labels=labels), ovoid)
    assert _elliptic_outcome(replace(q4, point_labels=labels), ovoid) is AmbientMismatchError


def test_elliptic_check_rejects_a_line_label_on_an_ovoid_point():
    q4, ovoids = _q4_ovoids(3)
    ovoid = ovoids[0]
    assert is_elliptic_quadric_ovoid(q4, ovoid)
    payload = structure_to_json(q4)
    payload["labels"]["points"][ovoid[2]] = subspace_to_json(q4.line_labels[0])
    relabelled = structure_from_json(payload)  # labels are not checked for kind here
    with pytest.raises(ValueError, match="^an ovoid point is labelled by a .* not a point$"):
        is_elliptic_quadric_ovoid(relabelled, ovoid)


@pytest.mark.parametrize("kind", ["point", "line"])
def test_elliptic_check_rejects_labels_of_the_wrong_kind_off_the_ovoid(kind):
    q4, ovoids = _q4_ovoids(3)
    ovoid = ovoids[0]
    off = next(i for i in range(q4.n_points) if i not in ovoid)
    if kind == "point":  # a point off the ovoid labelled by a line
        s = replace(q4, point_labels=q4.point_labels[:off] + (q4.line_labels[0],)
                    + q4.point_labels[off + 1:])
    else:  # a line labelled by a point
        s = replace(q4, line_labels=(q4.point_labels[off],) + q4.line_labels[1:])
    with pytest.raises(ValueError, match="^point labels must be points and line labels lines$"):
        is_elliptic_quadric_ovoid(s, ovoid)


def test_the_dual_decodes_but_its_label_rows_are_refused():
    # `gq dual` puts line labels on points, and `gq iso` reads that payload
    dual = structure_from_json(structure_to_json(dualize_structure(build_q4(2))))
    with pytest.raises(ValueError, match="^point labels must be points and line labels lines$"):
        dual.label_rows


def test_elliptic_check_rejects_non_ovoid():
    q4 = build_q4(2)
    with pytest.raises(ValueError):
        is_elliptic_quadric_ovoid(q4, {0, 1, 2, 3, 4})
    assert _elliptic_outcome(q4, {0, 1, 2, 3, 4}) is ValueError


@st.composite
def _relabelled_ovoids(draw):
    """An ovoid a of Q(4,2) or Q(4,3) under permuted point labels, and
    whether the labels on a are those of some ovoid.  Half of the draws
    move the labels of some ovoid b onto the points of a."""
    q4, ovoids = _q4_ovoids(draw(st.sampled_from((2, 3))))
    a, b = draw(st.sampled_from(ovoids)), draw(st.sampled_from(ovoids))
    perm = draw(st.permutations(range(q4.n_points)))
    if draw(st.booleans()):
        on_b = iter([x for x in perm if x in b])
        off_b = iter([x for x in perm if x not in b])
        perm = [next(on_b) if i in a else next(off_b) for i in range(q4.n_points)]
    labels = tuple(q4.point_labels[x] for x in perm)
    on_ovoid = sorted(perm[i] for i in a) in [list(o) for o in ovoids]
    return replace(q4, point_labels=labels), a, on_ovoid


@settings(max_examples=250, deadline=None)
@given(_relabelled_ovoids())
def test_elliptic_test_matches_the_reference_under_relabelling(case):
    # for q <= 3 every ovoid of Q(4,q) is an elliptic section
    q4, ovoid, on_ovoid = case
    assert _elliptic_outcome(q4, ovoid) is on_ovoid
    rank = len(rref([q4.point_labels[i].basis[0] for i in ovoid], q4.point_labels[0].q))
    event(f"rank {rank}, labels of an ovoid: {on_ovoid}")
    assert rank == 4 or not on_ovoid  # any other rank takes the early exit


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


def test_points_on_the_same_lines_are_refused():
    with pytest.raises(ValueError, match="^two points lie on exactly the same lines$"):
        incidence_from_lines(3, [(0, 1, 2)])


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
