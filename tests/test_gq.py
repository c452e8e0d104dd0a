"""Generalized quadrangle tests: the classical constructions, axiom
checking on hand-verifiable toys, duality, and isomorphism search."""

import importlib
import pkgutil
from dataclasses import replace
from functools import lru_cache, reduce
from operator import or_

import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

import qgeom
from qgeom import designs, gq, projspace, search
from qgeom.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    MissingLabelsError,
    OutOfRangeError,
    PayloadError,
    UnknownIdError,
)
from qgeom.gf import dot, field_new, ops_for_order
from qgeom.gq import (
    GQCheck,
    GQOrder,
    IncidenceStructure,
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
    q_number,
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


@pytest.mark.parametrize("q", [2, 3])
def test_w_evaluates_no_form_and_q4_its_quadratic_form_once_a_point(q, monkeypatch):
    """Every point of PG(3,q) is a point of W(q), so its build evaluates
    no form; Q(4,q) evaluates Q once on each point of PG(4,q)."""
    calls = []
    real = projspace.form_value

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in (gq, projspace):
        monkeypatch.setattr(mod, "form_value", counted)
    build_w.__wrapped__(q)  # past the lru_cache
    assert calls == []
    build_q4.__wrapped__(q)
    assert len(calls) == q_number(5, q)


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


def _check_gq_reference(structure):
    """``check_gq`` as it was with its scan of all line pairs for axioms
    (i)+(ii), ahead of the projection pass."""
    np_, nl = structure.n_points, structure.n_lines
    if np_ == 0 or nl == 0:
        return GQCheck(False, None, False, "point and line sets must be non-empty")
    lm = structure.line_masks
    # axioms (i)+(ii): no two points on two common lines
    for j in range(nl):
        for j2 in range(j + 1, nl):
            inter = lm[j] & lm[j2]
            if inter.bit_count() > 1:
                return GQCheck(False, None, False,
                               f"lines {j} and {j2} share two points")
    coll = []
    for i in range(np_):
        m = 0
        for j in structure.point_lines[i]:
            m |= lm[j]
        coll.append(m)
    full = (1 << np_) - 1
    degenerate = any(coll[i] | (1 << i) == full and structure.point_lines[i]
                     for i in range(np_))
    # axiom (iii): unique projection of a point onto a non-incident line
    for i in range(np_):
        bit = 1 << i
        ci = coll[i]
        for j in range(nl):
            if lm[j] & bit:
                continue
            c = (lm[j] & ci).bit_count()
            if c != 1:
                return GQCheck(False, None, degenerate,
                               f"point {i} has {c} projections onto line {j}")
    sizes = {len(pts) for pts in structure.line_points}
    degrees = {len(ls) for ls in structure.point_lines}
    order = None
    if len(sizes) == 1 and len(degrees) == 1:
        order = GQOrder(s=sizes.pop() - 1, t=degrees.pop() - 1)
    return GQCheck(True, order, degenerate)


_GRID_LINES = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)]
_DUAL_GRID_LINES = [(i, 3 + j) for i in range(3) for j in range(3)]


@st.composite
def _small_structures(draw):
    """A structure on at most 9 points built by ``incidence_from_lines``:
    random lines, or the lines of the 3 x 3 grid or its dual, relabelled,
    with at most one dropped and at most one random line added."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        lines = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=12))
    else:
        n, base = draw(st.sampled_from([(9, _GRID_LINES), (6, _DUAL_GRID_LINES)]))
        perm = draw(st.permutations(range(n)))
        lines = [frozenset(perm[p] for p in L) for L in base]
        if draw(st.booleans()):
            lines.remove(draw(st.sampled_from(lines)))
        if draw(st.booleans()):
            lines.append(draw(st.frozensets(st.integers(0, n - 1))))
    try:
        return incidence_from_lines(n, dict.fromkeys(lines))
    except ValueError:  # two points on the same lines
        reject()


@settings(max_examples=400, deadline=None)
@given(_small_structures())
def test_check_gq_agrees_with_the_pair_scan_reference(s):
    verdict, reference = check_gq(s), _check_gq_reference(s)
    assert (verdict.axioms_ok, verdict.order) == (reference.axioms_ok, reference.order)
    if "share two points" not in (reference.reason or ""):
        assert verdict == reference  # the projection pass runs as it did
    event(f"axioms hold: {reference.axioms_ok}, pair scan refused: {verdict != reference}")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_check_gq_agrees_with_the_pair_scan_reference_on_the_classical_gqs(q):
    for s in (build_w(q), build_q4(q)):
        for t in (s, dualize_structure(s)):
            assert check_gq(t) == _check_gq_reference(t) == GQCheck(True, GQOrder(q, q), False)


def test_a_digon_is_refused_with_a_projection_witness():
    s = incidence_from_lines(5, [(0, 1, 2), (0, 1, 3), (0, 4)])
    assert _check_gq_reference(s) == GQCheck(False, None, False, "lines 0 and 1 share two points")
    # point 2 sees 0 and 1 of line 1 along line 0; point 0 is collinear with all
    assert check_gq(s) == GQCheck(False, None, True, "point 2 has 2 projections onto line 1")


def test_a_repeated_line_built_directly_is_refused():
    # check_gq relies on this: every point off a repeated line {0, 1}
    # would project onto it once
    with pytest.raises(ValueError, match=r"^two lines share the point set \(0, 1\)$"):
        IncidenceStructure(n_points=3, line_points=((0, 1), (0, 1), (1, 2)))


# ----------------------------------------------------------------------
# Duality
# ----------------------------------------------------------------------

def test_dual_is_an_involution():
    for s in (grid3x3(), build_w(2)):
        assert dualize_structure(dualize_structure(s)).line_points == s.line_points


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dual_is_an_involution_with_labels_on_the_classical_gqs(q):
    for s in (build_w(q), build_q4(q)):
        dual = dualize_structure(s)
        assert (dual.point_labels, dual.line_labels) == (s.line_labels, s.point_labels)
        again = dualize_structure(dual)
        assert again == s and again.point_lines == s.point_lines  # == compares the labels


@settings(max_examples=200, deadline=None)
@given(_small_structures())
def test_dual_is_an_involution_on_small_structures(s):
    dual = dualize_structure(s)
    assert (dual.n_points, dual.line_points, dual.point_lines) == \
        (s.n_lines, s.point_lines, s.line_points)
    assert dualize_structure(dual) == s


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


@pytest.mark.parametrize("q", [3, 5])
def test_w_is_not_q4_for_odd_q_before_the_search(q):
    # every point of W(q) is regular, and for odd q no point of Q(4,q) is
    assert is_isomorphic(build_w(q), build_q4(q), node_limit=10 ** 5) is None


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


def _cycles(*lengths):
    """Disjoint cycles as a structure of 2-point lines."""
    lines, start = [], 0
    for n in lengths:
        lines += [(start + i, start + (i + 1) % n) for i in range(n)]
        start += n
    return incidence_from_lines(start, lines)


def test_nonisomorphic_with_equal_counts_and_degrees_is_certified_by_the_search():
    # as graphs (2-point lines), a 12-cycle and two 6-cycles agree in every
    # count and degree and in every point's perp-perp profile, so only the
    # exhausted search can say no
    for a, b in ((_cycles(12), _cycles(6, 6)), (_cycles(6, 6), _cycles(12))):
        with pytest.raises(BudgetExceededError):
            is_isomorphic(a, b, node_limit=100)
        assert is_isomorphic(a, b, node_limit=1000) is None


def test_perp_profiles_refuse_a_6_cycle_against_two_triangles_before_the_search():
    hexagon, triangles = _cycles(6), _cycles(3, 3)
    profiles = [gq._perp_profile(gq._collinearity_masks(s), 0) for s in (hexagon, triangles)]
    assert profiles == [[3, 3, 6], [6, 6, 6]]
    assert is_isomorphic(hexagon, triangles, node_limit=0) is None


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


def _connectivity_order_reference(adj, deg):
    """The quadratic greedy: a max over every untaken vertex per step."""
    order, taken, remaining = [], 0, set(range(len(adj)))
    while remaining:
        best = max(remaining, key=lambda x: ((adj[x] & taken).bit_count(), deg[x], -x))
        order.append(best)
        taken |= 1 << best
        remaining.remove(best)
    return order


def test_connectivity_order_matches_the_quadratic_greedy():
    structures = [grid3x3(), dualize_structure(grid3x3())]
    for q in (2, 3, 4, 5):
        structures += [dualize_structure(build_w(q)), build_q4(q)]
    for s in structures:
        adj = gq._bipartite_adjacency(s)
        deg = [m.bit_count() for m in adj]
        assert gq._connectivity_order(adj, deg) == _connectivity_order_reference(adj, deg)


def test_isomorphism_budget():
    with pytest.raises(BudgetExceededError):
        is_isomorphic(dualize_structure(build_w(3)), build_q4(3), node_limit=3)


@pytest.mark.parametrize("value,message", [(-1, "must be at least 0, got -1"),
                                           (True, "must be an integer, got True"),
                                           (2.5, "must be an integer, got 2.5")])
def test_isomorphism_budget_is_checked_as_the_solver_checks_it(value, message):
    with pytest.raises(ValueError, match=f"^node_limit {message}$"):
        is_isomorphic(build_w(2), build_w(2), node_limit=value)


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


@pytest.mark.parametrize("pred", [is_gq_ovoid, is_elliptic_quadric_ovoid])
def test_ovoid_predicates_refuse_ids_that_are_not_ints(pred):
    q4 = build_q4(3)
    ovoid = (0, 1, 2, 3, 22, 23, 24, 25, 26, 27)
    assert is_gq_ovoid(q4, ovoid)
    for bad, shown in ((False, "False"), (True, "True"), (2.0, "2.0")):
        chosen = [bad if x == int(bad) else x for x in ovoid]
        with pytest.raises(ValueError, match=f"^point id {shown} is not an integer$"):
            pred(q4, chosen)
    with pytest.raises(ValueError, match="^point id False is not an integer$"):
        pred(q4, [False, *ovoid])  # also where 0 is listed too, before a set merges them


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
    # a point label off the ovoid, from PG(4,3)
    foreign_point = enumerate_subspaces(5, 1, field_new(3))[0]
    bad_points = replace(q4, point_labels=q4.point_labels[:-1] + (foreign_point,))
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(bad_points, ovoid)
    assert _elliptic_outcome(bad_points, ovoid) is AmbientMismatchError
    # every point label is checked before the ovoid's rank, so a rank-5 ovoid is
    # refused too, where the reference answers before looking at the others
    swapped = list(bad_points.point_labels)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    rank5 = replace(bad_points, point_labels=tuple(swapped))
    assert _elliptic_reference(rank5, ovoid) is False
    with pytest.raises(AmbientMismatchError):
        is_elliptic_quadric_ovoid(rank5, ovoid)


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
    # the ovoid's points relabelled by points of one plane: no prefix spans a solid
    flat = list(labels)
    for i, P in zip(ovoid, subspace_points(enumerate_subspaces(5, 3, field_new(2))[0])):
        flat[i] = P
    assert _elliptic_outcome(replace(q4, point_labels=tuple(flat)), ovoid) is False


def test_elliptic_check_does_not_read_a_secant_line_label():
    # a secant of the ovoid as a line label: the reference finds it inside
    # the section, but the section's size already settles the verdict
    q4 = build_q4(2)
    ovoid = [0, 2, 5, 9, 13]
    chord = join(q4.point_labels[ovoid[0]], q4.point_labels[ovoid[1]])
    secant = replace(q4, line_labels=(chord,) + q4.line_labels[1:])
    assert _elliptic_reference(secant, ovoid) is False
    assert is_elliptic_quadric_ovoid(secant, ovoid) is True


@pytest.mark.parametrize("q", [2, 3])
def test_elliptic_check_reads_point_labels_only(q):
    q4, ovoids = _q4_ovoids(q)
    unlined = replace(q4, line_labels=None)
    for ovoid in ovoids:
        assert is_elliptic_quadric_ovoid(unlined, ovoid) is _elliptic_outcome(q4, ovoid)
    # one row per point: coordinate 0's masks cover exactly the points
    assert reduce(or_, q4.label_rows[0]) == (1 << q4.n_points) - 1


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
    with pytest.raises(ValueError, match="^point labels must be points$"):
        is_elliptic_quadric_ovoid(relabelled, ovoid)


def test_elliptic_check_rejects_labels_of_the_wrong_kind_off_the_ovoid():
    q4, ovoids = _q4_ovoids(3)
    ovoid = ovoids[0]
    off = next(i for i in range(q4.n_points) if i not in ovoid)
    # a point off the ovoid labelled by a line
    s = replace(q4, point_labels=q4.point_labels[:off] + (q4.line_labels[0],)
                + q4.point_labels[off + 1:])
    with pytest.raises(ValueError, match="^point labels must be points$"):
        is_elliptic_quadric_ovoid(s, ovoid)


def test_the_dual_decodes_but_its_label_rows_are_refused():
    # `gq dual` puts line labels on points, and `gq iso` reads that payload
    dual = structure_from_json(structure_to_json(dualize_structure(build_q4(2))))
    with pytest.raises(ValueError, match="^point labels must be points$"):
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


def _grid_with_labels():
    """The 3 x 3 grid labelled by the points and lines of Q(4,2) (any
    distinct subspaces of the right counts do here)."""
    q4 = build_q4(2)
    return replace(grid3x3(), point_labels=q4.point_labels[:9], line_labels=q4.line_labels[:6])


_BROKEN_STRUCTURES = [  # (changes to the labelled grid, error, message)
    ({"line_points": ((0, 2, 1),) + grid3x3().line_points[1:]}, ValueError,
     r"^line 0 does not list strictly increasing point ids$"),
    ({"line_points": ((0, 0, 1, 2),) + grid3x3().line_points[1:]}, ValueError,
     r"^line 0 does not list strictly increasing point ids$"),
    ({"line_points": ((-1, 0),) + grid3x3().line_points[1:]}, UnknownIdError,
     r"^line contains a point id outside the structure$"),
    ({"n_points": 8}, UnknownIdError, r"^line contains a point id outside the structure$"),
    ({"line_points": grid3x3().line_points[:5] + ((0, 1, 2),)}, ValueError,
     r"^two lines share the point set \(0, 1, 2\)$"),
    ({"line_points": grid3x3().line_points[:3]}, ValueError,
     r"^two points lie on exactly the same lines$"),
    ({"n_points": 11}, ValueError, r"^two points lie on exactly the same lines$"),
    ({"point_labels": build_q4(2).point_labels[:3]}, ValueError,
     r"^3 point labels for 9 points$"),
    ({"line_labels": build_q4(2).line_labels[:7]}, ValueError, r"^7 line labels for 6 lines$"),
]


@pytest.mark.parametrize("changes, error, message", _BROKEN_STRUCTURES)
def test_the_constructor_refuses_a_broken_structure(changes, error, message):
    grid = _grid_with_labels()
    fields = {"n_points": 9, "line_points": grid.line_points,
              "point_labels": grid.point_labels, "line_labels": grid.line_labels}
    with pytest.raises(error, match=message):
        IncidenceStructure(**{**fields, **changes})
    with pytest.raises(error, match=message):
        replace(grid, **changes)


def test_point_lines_is_the_transpose_of_line_points():
    for s in (grid3x3(), dualize_structure(grid3x3()), build_w(3), build_q4(3),
              incidence_from_lines(4, [(3, 1), (), (2, 1, 0), (0, 3)])):
        assert s.point_lines == tuple(
            tuple(j for j, pts in enumerate(s.line_points) if p in pts)
            for p in range(s.n_points))


def test_the_grid_cannot_be_built_with_directions_that_disagree():
    # pencils are computed from the lines: given this wrong pencil for
    # point 8, the grid would count 4 ovoids instead of 6
    g = grid3x3()
    with pytest.raises(TypeError):
        IncidenceStructure(n_points=9, line_points=g.line_points,
                           point_lines=g.point_lines[:8] + ((0,),))
    with pytest.raises(ValueError):
        replace(g, point_lines=g.point_lines[:8] + ((0,),))
    assert search.enumerate_gq_ovoids(g).solution_count == 6


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


@pytest.mark.parametrize("kind", ["points", "lines"])
def test_structure_from_json_refuses_a_repeated_label(kind):
    payload = structure_to_json(build_w(2))
    labels = payload["labels"][kind]
    labels[-1] = labels[0]
    with pytest.raises(PayloadError,
                       match=f"^{kind[:-1]} labels list 15 subspaces, 14 of them distinct$"):
        structure_from_json(payload)
