"""Subspace lattice tests.

The enumeration/count cross-checks use two independent routes: the
Gaussian binomial product formula versus RREF generation, plus (for the
small cases) a span-closure oracle that never touches echelon forms.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeom.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DegenerateFormError,
    NotContainedError,
    NotIncidentError,
)
from qgeom import projspace
from qgeom.gf import arith, field_new, ops_for_order
from qgeom.projspace import (
    Subspace,
    all_points,
    contains,
    dot_form,
    dualize,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    join,
    line_pencil,
    mask_of,
    meet,
    normalize_vector,
    point_index,
    point_mask,
    point_to_subspace,
    q_number,
    quotient,
    restrict_filter,
    subspace_from_json,
    subspace_from_rows,
    subspace_points,
    subspace_to_json,
    subspaces_within,
    symplectic_form,
    zero_subspace,
)

F2 = field_new(2)
F3 = field_new(3)


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------

def test_gaussian_binomial_values():
    assert gaussian_binomial(7, 3, 2) == 11811
    assert gaussian_binomial(4, 5, 3) == 0
    assert gaussian_binomial(4, -1, 3) == 0
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(0, 0, 2) == 1


def test_gaussian_binomial_matches_enumeration_7_3_2():
    assert len(enumerate_subspaces(7, 3, F2)) == 11811


def test_gaussian_binomial_symmetry():
    for v in range(6):
        for k in range(v + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(v, k, q) == gaussian_binomial(v, v - k, q)


def test_gaussian_binomial_rejects_bad_q():
    with pytest.raises(ValueError):
        gaussian_binomial(4, 2, 6)
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, 2)


def test_q_number():
    assert q_number(6, 2) == 63
    assert q_number(0, 5) == 0
    assert q_number(4, 2) == 15
    assert q_number(4, 3) == (3 ** 4 - 1) // 2


def _span_closure_count(v, k, q):
    """Count k-subspaces by collecting spans of independent k-tuples.

    Dedupes by frozen point sets, no echelon forms involved."""
    ops = arith(field_new(q))
    vectors = [vec for vec in itertools.product(range(q), repeat=v) if any(vec)]

    def add(x, y):
        return tuple(ops.add(a, b) for a, b in zip(x, y))

    def scale(c, x):
        return tuple(ops.mul(c, a) for a in x)

    spans = set()
    for combo in itertools.combinations(vectors, k):
        span = {(0,) * v}
        for vec in combo:
            span = {add(s, scale(c, vec)) for s in span for c in range(q)}
        if len(span) == q ** k:
            spans.add(frozenset(span))
    return len(spans)


@pytest.mark.parametrize("v,k,q", [(3, 1, 2), (4, 2, 2), (4, 3, 2),
                                   (3, 2, 3), (4, 2, 3), (5, 2, 2)])
def test_enumeration_against_span_closure_oracle(v, k, q):
    oracle = _span_closure_count(v, k, q)
    assert oracle == gaussian_binomial(v, k, q)
    assert len(enumerate_subspaces(v, k, field_new(q))) == oracle


def test_enumeration_basics():
    assert len(enumerate_subspaces(3, 1, F2)) == 7
    assert len(enumerate_subspaces(4, 2, F2)) == 35
    whole = enumerate_subspaces(2, 2, F3)
    assert whole == [full_space(2, 3)]
    subs = enumerate_subspaces(4, 2, F2)
    assert subs == sorted(subs)
    assert len(set(subs)) == len(subs)


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces(24, 12, F2)


# ----------------------------------------------------------------------
# Meet / join / containment
# ----------------------------------------------------------------------

def test_meet_join_idempotence_and_points():
    lines = enumerate_subspaces(4, 2, F2)
    L = lines[0]
    assert meet(L, L) == L
    assert join(L, L) == L
    pts = all_points(4, F2)
    P, Q = (point_to_subspace(p, 4, 2) for p in pts[:2])
    assert join(P, Q).k == 2
    assert meet(P, Q).k == 0


def test_dimension_formula_all_line_pairs():
    lines = enumerate_subspaces(4, 2, F2)
    for U in lines:
        for W in lines:
            assert U.k + W.k == meet(U, W).k + join(U, W).k


def test_meet_of_two_planes_in_a_solid():
    planes = enumerate_subspaces(4, 3, F2)
    A, B = planes[0], planes[1]
    assert meet(A, B).k == 2  # 3 + 3 - 4


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        meet(full_space(3, 2), full_space(4, 2))
    with pytest.raises(AmbientMismatchError):
        contains(full_space(4, 2), full_space(4, 3))


def test_subspace_canonical_form_is_validated():
    with pytest.raises(ValueError):
        Subspace(v=3, k=1, q=2, basis=((0, 0, 0),))
    with pytest.raises(ValueError):
        Subspace(v=3, k=2, q=2, basis=((0, 1, 0), (1, 0, 0)))  # pivots decrease
    with pytest.raises(ValueError):
        Subspace(v=3, k=2, q=3, basis=((1, 2, 0), (0, 2, 0)))  # pivot not 1


def test_subspace_from_rows_canonicalizes():
    U = subspace_from_rows([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3, 2)
    assert U.k == 2
    V = subspace_from_rows([(0, 1, 1), (1, 1, 0)], 3, 2)
    assert U == V


# ----------------------------------------------------------------------
# Duality
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_duality_involution_and_inclusion_reversal(q):
    spec = field_new(q)
    form = dot_form(4, q)
    everything = [S for k in range(5) for S in enumerate_subspaces(4, k, spec)]
    duals = {S: dualize(S, form) for S in everything}
    for S in everything:
        assert duals[S].k == 4 - S.k
        assert dualize(duals[S], form) == S
    for U in everything:
        for W in everything:
            lhs = contains(W, U)
            rhs = contains(duals[U], duals[W])
            assert lhs == rhs


def test_duality_special_cases():
    form = dot_form(4, 2)
    assert dualize(full_space(4, 2), form) == zero_subspace(4, 2)
    h = enumerate_subspaces(7, 6, F2)[0]
    assert dualize(h, dot_form(7, 2)).k == 1


def test_duality_symplectic_on_lines():
    form = symplectic_form(2)
    for L in enumerate_subspaces(4, 2, F2):
        assert dualize(dualize(L, form), form) == L


def test_degenerate_form_rejected():
    bad = dot_form(4, 2)
    gram = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    from qgeom.projspace import BilinearForm
    with pytest.raises(DegenerateFormError):
        dualize(full_space(4, 2), BilinearForm(gram=gram, kind="symmetric"))
    del bad


# ----------------------------------------------------------------------
# Quotients
# ----------------------------------------------------------------------

def test_quotient_degenerate_and_dimensions():
    pts = all_points(6, F2)
    P = point_to_subspace(pts[0], 6, 2)
    assert quotient(P, P) == zero_subspace(5, 2)
    plane = next(E for E in enumerate_subspaces(6, 3, F2) if contains(E, P))
    assert quotient(plane, P).k == 2


def test_quotient_by_a_line():
    L = enumerate_subspaces(4, 2, F2)[0]
    solid = full_space(4, 2)
    assert quotient(solid, L).k == 2
    plane = next(E for E in enumerate_subspaces(4, 3, F2) if contains(E, L))
    assert quotient(plane, L).k == 1


def test_quotient_requires_containment():
    pts = all_points(4, F2)
    P = point_to_subspace(pts[0], 4, 2)
    L = next(L for L in enumerate_subspaces(4, 2, F2) if not contains(L, P))
    with pytest.raises(NotContainedError):
        quotient(L, P)


def test_quotient_preserves_meets():
    pts = all_points(4, F2)
    P = point_to_subspace(pts[0], 4, 2)
    through = [B for B in enumerate_subspaces(4, 3, F2) if contains(B, P)]
    for B1 in through:
        for B2 in through:
            lhs = quotient(meet(B1, B2), P)
            rhs = meet(quotient(B1, P), quotient(B2, P))
            assert lhs == rhs


# ----------------------------------------------------------------------
# Filters, pencils, points
# ----------------------------------------------------------------------

def test_restrict_filter():
    lines = enumerate_subspaces(4, 2, F2)
    assert restrict_filter(lines, zero_subspace(4, 2), full_space(4, 2)) == lines
    P = point_to_subspace(all_points(4, F2)[0], 4, 2)
    through = restrict_filter(lines, P, full_space(4, 2))
    assert len(through) == 7  # [3]_2 lines per point
    # U not below W gives the empty filter
    Q = point_to_subspace(all_points(4, F2)[1], 4, 2)
    assert restrict_filter(lines, P, Q) == []


@pytest.mark.parametrize("q,expected", [(2, 3), (3, 4)])
def test_line_pencil_size(q, expected):
    spec = field_new(q)
    E = enumerate_subspaces(4, 3, spec)[0]
    P = point_to_subspace(subspace_points(E)[0], 4, q)
    pencil = line_pencil(P, E)
    assert len(pencil) == expected
    assert all(contains(E, L) and contains(L, P) for L in pencil)


def test_line_pencil_requires_incidence():
    E = enumerate_subspaces(4, 3, F2)[0]
    outside = next(p for p in all_points(4, F2)
                   if not contains(E, point_to_subspace(p, 4, 2)))
    with pytest.raises(NotIncidentError):
        line_pencil(point_to_subspace(outside, 4, 2), E)


def test_point_table_is_lexicographic_and_matches_enumeration():
    pts = all_points(4, F2)
    assert [p.index for p in pts] == list(range(15))
    vectors = [p.vector for p in pts]
    assert vectors == sorted(vectors)
    ones = enumerate_subspaces(4, 1, F2)
    assert [S.basis[0] for S in ones] == vectors


def test_normalize_and_index():
    assert normalize_vector((0, 2, 1), 3) == (0, 1, 2)
    assert point_index((0, 2, 1), 3, 3) == point_index((0, 1, 2), 3, 3)
    with pytest.raises(ValueError):
        normalize_vector((0, 0), 2)


def test_subspace_points_and_mask():
    L = enumerate_subspaces(4, 2, F2)[0]
    pts = subspace_points(L)
    assert len(pts) == 3
    assert point_mask(L).bit_count() == 3


def test_point_mask_is_memoized_per_subspace(monkeypatch):
    real = projspace.subspace_points
    calls = []
    monkeypatch.setattr(projspace, "subspace_points", lambda U: calls.append(U) or real(U))
    L = subspace_from_rows([(1, 0, 2, 0), (0, 1, 1, 1)], 4, 3)
    twin = subspace_from_rows(L.basis, 4, 3)
    before = (hash(twin), repr(twin))
    assert point_mask(L) == point_mask(L) == mask_of(p.index for p in real(L))
    assert calls == [L]
    # a memoized mask leaves equality, hashing, order and repr alone
    assert L == twin and not L < twin and not twin < L
    assert (hash(L), repr(L)) == before


@pytest.mark.parametrize("q", [2, 3])
def test_mask_subset_agrees_with_contains(q):
    spec = field_new(q)
    small = [U for k in (0, 1, 2) for U in enumerate_subspaces(4, k, spec)]
    large = [U for k in (2, 3) for U in enumerate_subspaces(4, k, spec)]
    for U in small:
        assert point_mask(U) == mask_of(p.index for p in subspace_points(U))
        for W in large:
            assert (not point_mask(U) & ~point_mask(W)) == contains(W, U)


def test_subspaces_within():
    E = enumerate_subspaces(5, 4, F2)[0]
    inner = subspaces_within(E, 2)
    assert len(inner) == gaussian_binomial(4, 2, 2)
    assert all(contains(E, L) for L in inner)
    assert subspaces_within(E, 5) == []


def test_subspace_json_round_trip():
    for S in enumerate_subspaces(4, 2, F3)[:10]:
        assert subspace_from_json(subspace_to_json(S)) == S


# ----------------------------------------------------------------------
# Trusted construction: canonical bases built without re-validation
# ----------------------------------------------------------------------

# sha256 prefixes of repr([U.basis for U in enumerate_subspaces(v, k, F_q)]),
# recorded from the enumeration that validated every subspace and sorted
# the dataclasses themselves.
ENUMERATION_DIGESTS = {
    (7, 3, 2): "8a917dde5c8addee",
    (6, 2, 3): "ed9c8bbf69a1685f",
    (6, 3, 3): "6b87047953316d21",
    (5, 2, 4): "f4846e0340262689",
    (5, 2, 5): "b791d3cc0f85ba91",
    (4, 2, 7): "781aa999e58d5555",
}


@pytest.mark.parametrize("vkq", sorted(ENUMERATION_DIGESTS))
def test_enumeration_bases_and_order_are_pinned(vkq):
    v, k, q = vkq
    bases = [U.basis for U in enumerate_subspaces(v, k, field_new(q))]
    assert hashlib.sha256(repr(bases).encode()).hexdigest()[:16] == ENUMERATION_DIGESTS[vkq]


def _revalidated(U):
    """U rebuilt through the public, validating constructor."""
    return Subspace(v=U.v, k=U.k, q=U.q, basis=U.basis)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("v", [0, 1, 2, 3, 4])
def test_validating_constructor_accepts_every_constructed_subspace(v, q):
    spec = field_new(q)
    built = [zero_subspace(v, q), full_space(v, q)]
    built += [point_to_subspace(P, v, q) for P in all_points(v, spec)]
    for k in range(v + 1):
        built += enumerate_subspaces(v, k, spec)
    if v == 4:  # dualize and meet wrap _kernel's RREF output unvalidated
        built += [dualize(L, dot_form(v, q)) for L in enumerate_subspaces(v, 2, spec)]
        if q <= 3:
            planes = enumerate_subspaces(v, 3, spec)
            built += [meet(A, B) for A, B in itertools.product(planes, repeat=2)]
    for U in built:
        twin = _revalidated(U)
        assert twin == U and hash(twin) == hash(U) and repr(twin) == repr(U)
    for k in range(v + 1):
        grassmannian = enumerate_subspaces(v, k, spec)
        assert grassmannian == sorted(map(_revalidated, grassmannian))  # dataclass order


def _rref_reference(rows, q):
    """Row reduction with one field-method call per entry."""
    ops = arith(field_new(q))
    m = [list(r) for r in rows]
    nrows, ncols, r = len(m), len(m[0]) if m else 0, 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if m[r][c] != 1:
            f = ops.inv(m[r][c])
            m[r] = [ops.mul(f, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r])


def _contains_reference(outer, inner):
    """Containment by clearing inner's rows against outer's pivots, one
    field-method call per entry."""
    if inner.k > outer.k:
        return False
    ops = arith(field_new(outer.q))
    pivots = [next(c for c, x in enumerate(row) if x) for row in outer.basis]
    for row in inner.basis:
        vec = list(row)
        for brow, p in zip(outer.basis, pivots):
            f = vec[p]
            if f:
                vec = [ops.sub(x, ops.mul(f, y)) for x, y in zip(vec, brow)]
        if any(vec):
            return False
    return True


def _kernel_reference(rows, v, q):
    """Null space of any matrix: reduce the rows, read off one kernel vector
    per free column, reduce those."""
    ops = arith(field_new(q))
    reduced = _rref_reference(rows, q)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    basis = []
    for f in (c for c in range(v) if c not in pivots):
        vec = [0] * v
        vec[f] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = ops.neg(row[f])
        basis.append(tuple(vec))
    return _rref_reference(basis, q)


def _quotient_reference(B, P):
    """B/P through the explicit frame: P's rows, then the unit vectors of
    P's non-pivot columns; coordinates of B's rows by the frame's inverse."""
    v, q = B.v, B.q
    ops = arith(field_new(q))
    pivots = [next(c for c, x in enumerate(row) if x) for row in P.basis]
    frame = list(P.basis) + [tuple(int(j == c) for j in range(v))
                             for c in range(v) if c not in pivots]
    aug = [list(r) + [int(i == j) for j in range(v)] for i, r in enumerate(frame)]
    inv = [r[v:] for r in _rref_reference(aug, q)]
    qrows = []
    for x in B.basis:
        coords = []
        for j in range(v):
            acc = 0
            for r in range(v):
                acc = ops.add(acc, ops.mul(x[r], inv[r][j]))
            coords.append(acc)
        qrows.append(coords[P.k:])
    return _rref_reference(qrows, q)


@st.composite
def _row_sets(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    v = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, q - 1), min_size=v, max_size=v)
    return q, v, draw(st.lists(row, max_size=6)), draw(st.lists(row, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_row_sets())
def test_row_operations_agree_with_the_method_call_reference(case):
    q, v, rows, others = case
    U = subspace_from_rows(rows, v, q)
    X = subspace_from_rows(others, v, q)
    assert U.basis == _rref_reference(rows, q)
    assert _revalidated(U) == U and _revalidated(X) == X
    assert contains(U, X) == _contains_reference(U, X)
    assert contains(X, U) == _contains_reference(X, U)
    assert contains(U, subspace_from_rows(rows[:2], v, q))
    assert contains(join(U, X), X) and contains(U, meet(U, X))
    assert projspace._kernel(U.basis, v, q) == _kernel_reference(rows, v, q)
    assert meet(U, X).basis == _kernel_reference(
        _kernel_reference(rows, v, q) + _kernel_reference(others, v, q), v, q)
    assert dualize(U, dot_form(v, q)).basis == _kernel_reference(U.basis, v, q)
    M, J = meet(U, X), join(U, X)
    for B, P in ((U, M), (J, X), (J, U), (U, U)):
        assert quotient(B, P).basis == _quotient_reference(B, P)
    ops = ops_for_order(q)
    for c in itertools.islice(all_points(U.k, field_new(q)), 30):
        expected = [0] * v
        for ci, brow in zip(c.vector, U.basis):
            expected = [ops.add(x, ops.mul(ci, y)) for x, y in zip(expected, brow)]
        assert projspace._combine(c.vector, U.basis, v, ops) == expected


def test_subspace_from_rows_rejects_rows_of_the_wrong_width():
    with pytest.raises(ValueError):
        subspace_from_rows([(1, 0, 1)], 4, 2)
