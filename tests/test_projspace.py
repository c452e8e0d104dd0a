"""Subspace lattice tests.

The enumeration/count cross-checks use two independent routes: the
Gaussian binomial product formula versus RREF generation, plus (for the
small cases) a span-closure oracle that never touches echelon forms.
"""

import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgeom.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DegenerateFormError,
    NotContainedError,
    NotAPrimePowerError,
    NotIncidentError,
    OutOfRangeError,
    PayloadError,
)
from qgeom import gf, projspace
from qgeom.designs import derived_design, desarguesian_spread
from qgeom.gf import arith, field_new, ops_for_order
from qgeom.projspace import (
    BilinearForm,
    Subspace,
    annihilated,
    bit_ids,
    check_point_index,
    contains,
    disjoint_union,
    dot_form,
    dualize,
    enumerate_subspaces,
    form_value,
    full_space,
    gaussian_binomial,
    join,
    line_pencil,
    mask_of,
    meet,
    normalize_vector,
    point_index,
    point_at,
    point_mask,
    q_number,
    quotient,
    restrict_filter,
    row_masks,
    rref,
    subspace_from_json,
    subspace_from_rows,
    subspace_points,
    subspace_to_json,
    subspaces_within,
    symplectic_form,
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


@pytest.mark.parametrize("v,q", [(0, 2), (3, 2), (4, 3), (2, 4)])
def test_enumeration_counts_every_dimension_as_the_closed_form(v, q):
    for k in range(-1, v + 2):
        assert len(enumerate_subspaces(v, k, field_new(q))) == gaussian_binomial(v, k, q)
    assert subspaces_within(full_space(v, q), -1) == []


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces(24, 12, F2)


def _live_subspaces(v, k, q):
    """How many Subspace objects of F_q^v of dimension k the interpreter
    holds; a subspace takes no weak reference, so the collector counts them."""
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if type(obj) is Subspace and obj[:3] == (v, k, q))


def test_enumeration_keeps_nothing_after_the_caller_drops_it():
    before = _live_subspaces(5, 2, 3)
    first = enumerate_subspaces(5, 2, F3)
    second = enumerate_subspaces(5, 2, F3)
    count = gaussian_binomial(5, 2, 3)
    assert second == first == sorted(first) and len(first) == count
    assert _live_subspaces(5, 2, 3) == before + 2 * count  # each call builds its own
    first.clear()  # a caller's list is its own
    assert enumerate_subspaces(5, 2, F3) == second
    del first, second
    assert _live_subspaces(5, 2, 3) == before


# ----------------------------------------------------------------------
# Meet / join / containment
# ----------------------------------------------------------------------

def test_meet_join_idempotence_and_points():
    lines = enumerate_subspaces(4, 2, F2)
    L = lines[0]
    assert meet(L, L) == L
    assert join(L, L) == L
    P, Q = enumerate_subspaces(4, 1, F2)[:2]
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


@pytest.mark.parametrize("v,k,q,basis,error", [
    (2, 1, 2, ((1, 5),), ValueError),  # 5 is not an element of F_2
    (3, 2, 2, ((1, 0, 3), (0, 1, 1)), ValueError),
    (2, 1, 6, ((1, 0),), NotAPrimePowerError),
])
def test_subspace_entries_must_lie_in_a_field(v, k, q, basis, error):
    with pytest.raises(error):
        Subspace(v=v, k=k, q=q, basis=basis)
    if q == 2:  # the decoder still names the payload at fault
        obj = {"v": v, "k": k, "q": q, "rows": [list(r) for r in basis]}
        with pytest.raises(PayloadError):
            subspace_from_json(obj)


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
    assert dualize(full_space(4, 2), form) == Subspace(4, 0, 2, ())
    h = enumerate_subspaces(7, 6, F2)[0]
    assert dualize(h, dot_form(7, 2)).k == 1


def test_duality_symplectic_on_lines():
    form = symplectic_form(2)
    for L in enumerate_subspaces(4, 2, F2):
        assert dualize(dualize(L, form), form) == L


@pytest.mark.parametrize("q", [3, 4, 5])
def test_dualize_takes_the_form_with_the_subspace_on_the_right(q):
    """b(x, u) = x G u^T for every x in U^perp and u in U.  G is neither
    symmetric nor alternating, so G^T would give other complements; the
    dot and symplectic forms cannot tell the two sides apart."""
    form = BilinearForm(gram=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    spec = field_new(q)
    for k in range(5):
        for U in enumerate_subspaces(4, k, spec):
            perp = dualize(U, form)
            assert perp.k == 4 - k
            assert all(form_value(form, x, u, q) == 0 for x in perp.basis for u in U.basis)


@pytest.mark.parametrize("entry,q", [(-1, 4), (7, 3), (1.0, 2), (True, 2)])
def test_bilinear_form_refuses_entries_outside_the_field(entry, q):
    """Over F_4, diag(1, -1, 1, 1) means the dot form, as -1 = 1 there, but
    a negative entry would index the last table row; 7 lies past F_3's
    tables, and a float or a bool is no field element."""
    gram = tuple(tuple(entry if i == j == 1 else int(i == j) for j in range(4)) for i in range(4))
    line = subspace_from_rows([[1, 0, 0, 0], [0, 1, 3 % q, 2 % q]], 4, q)
    with pytest.raises(ValueError, match="Gram matrix entries"):
        dualize(line, BilinearForm(gram=gram))


def test_form_value_refuses_vectors_of_another_dimension():
    """A vector shorter or longer than the form was cut to the shorter
    length, so both calls read 1 before the check."""
    form = dot_form(4, 2)
    with pytest.raises(AmbientMismatchError):
        form_value(form, (1, 0, 0), (1, 0, 0, 0), 2)
    with pytest.raises(AmbientMismatchError):
        form_value(form, (1, 0, 0, 0, 1), (1, 0, 0, 0, 1), 2)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_form_value_is_the_sum_over_the_gram_matrix(q):
    """b(x, y) = sum_ij x_i G_ij y_j, with a Gram matrix that is neither
    symmetric nor alternating, so swapping G's rows and columns shows."""
    ops, rng = arith(field_new(q)), random.Random(q)
    gram = tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(4))
    assert gram != tuple(zip(*gram))
    form = BilinearForm(gram=gram)
    for _ in range(200):
        x, y = (tuple(rng.randrange(q) for _ in range(4)) for _ in range(2))
        expected = 0
        for i, j in itertools.product(range(4), repeat=2):
            expected = ops.add(expected, ops.mul(ops.mul(x[i], gram[i][j]), y[j]))
        assert form_value(form, x, y, q) == expected


def test_forms_and_pencils_refuse_arguments_of_the_wrong_shape():
    with pytest.raises(ValueError, match="^Gram matrix must be square$"):
        BilinearForm(gram=((1, 0), (0,)))
    with pytest.raises(AmbientMismatchError, match="^form dimension does not match"):
        dualize(enumerate_subspaces(4, 2, F2)[0], dot_form(5, 2))
    E = enumerate_subspaces(4, 3, F2)[0]
    with pytest.raises(ValueError, match="^line_pencil expects a point and a plane$"):
        line_pencil(subspaces_within(E, 2)[0], E)


def test_degenerate_form_rejected():
    bad = dot_form(4, 2)
    gram = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    with pytest.raises(DegenerateFormError):
        dualize(full_space(4, 2), BilinearForm(gram=gram))
    del bad


# ----------------------------------------------------------------------
# Quotients
# ----------------------------------------------------------------------

def test_quotient_degenerate_and_dimensions():
    P = point_at(0, 6, 2)
    assert quotient(P, P) == Subspace(5, 0, 2, ())
    plane = next(E for E in enumerate_subspaces(6, 3, F2) if contains(E, P))
    assert quotient(plane, P).k == 2


def test_quotient_by_a_line():
    L = enumerate_subspaces(4, 2, F2)[0]
    solid = full_space(4, 2)
    assert quotient(solid, L).k == 2
    plane = next(E for E in enumerate_subspaces(4, 3, F2) if contains(E, L))
    assert quotient(plane, L).k == 1


def test_quotient_requires_containment():
    P = point_at(0, 4, 2)
    L = next(L for L in enumerate_subspaces(4, 2, F2) if not contains(L, P))
    with pytest.raises(NotContainedError):
        quotient(L, P)


def test_quotient_preserves_meets():
    P = point_at(0, 4, 2)
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
    assert restrict_filter(lines, Subspace(4, 0, 2, ()), full_space(4, 2)) == lines
    P = point_at(0, 4, 2)
    through = restrict_filter(lines, P, full_space(4, 2))
    assert len(through) == 7  # [3]_2 lines per point
    # U not below W gives the empty filter
    Q = point_at(1, 4, 2)
    assert restrict_filter(lines, P, Q) == []


@pytest.mark.parametrize("q,expected", [(2, 3), (3, 4)])
def test_line_pencil_size(q, expected):
    spec = field_new(q)
    E = enumerate_subspaces(4, 3, spec)[0]
    P = subspace_points(E)[0]
    pencil = line_pencil(P, E)
    assert len(pencil) == expected
    assert all(contains(E, L) and contains(L, P) for L in pencil)


def test_line_pencil_requires_incidence():
    E = enumerate_subspaces(4, 3, F2)[0]
    outside = next(P for P in enumerate_subspaces(4, 1, F2) if not contains(E, P))
    with pytest.raises(NotIncidentError):
        line_pencil(outside, E)


def test_point_table_is_lexicographic_and_matches_enumeration():
    ids = projspace._point_ids(4, 2)
    assert list(ids.values()) == list(range(15))
    vectors = list(ids)
    assert vectors == sorted(vectors)
    ones = enumerate_subspaces(4, 1, F2)
    assert [S.basis[0] for S in ones] == vectors


def test_normalize_and_index():
    assert normalize_vector((0, 2, 1), 3) == (0, 1, 2)
    assert point_index((0, 2, 1), 3, 3) == point_index((0, 1, 2), 3, 3)
    with pytest.raises(ValueError):
        normalize_vector((0, 0), 2)


@pytest.mark.parametrize("vec,error", [
    ((1, 0), AmbientMismatchError),  # too short for F_2^3
    ((1, 0, 0, 0), AmbientMismatchError),
    ((1, 0, 2), ValueError),  # 2 is not an element of F_2
    ((1, 0, -1), ValueError),
    ((1.0, 0, 0), ValueError),
    ((0, 0, 0), ValueError),
])
def test_point_index_refuses_a_vector_that_names_no_point(vec, error):
    with pytest.raises(error):
        point_index(vec, 3, 2)


def test_subspace_points_and_mask():
    L = enumerate_subspaces(4, 2, F2)[0]
    pts = subspace_points(L)
    assert len(pts) == 3
    assert point_mask(L).bit_count() == 3


@pytest.mark.parametrize("v,q", [(4, 2), (4, 3), (5, 2)])
def test_subspace_points_are_the_points_of_the_mask(v, q):
    for k in range(v + 1):
        for U in enumerate_subspaces(v, k, field_new(q)):
            assert subspace_points(U) == tuple(point_at(i, v, q) for i in bit_ids(point_mask(U)))


def _points_on(U):
    """The point mask of U, by ``contains`` over every point."""
    return mask_of(i for i, P in enumerate(enumerate_subspaces(U.v, 1, field_new(U.q)))
                   if contains(U, P))


def test_each_point_mask_call_reads_the_point_ids(monkeypatch):
    real = projspace._point_ids
    calls = []
    monkeypatch.setattr(projspace, "_point_ids", lambda v, q: calls.append((v, q)) or real(v, q))
    L = subspace_from_rows([(1, 0, 2, 0), (0, 1, 1, 1)], 4, 3)
    twin = subspace_from_rows(L.basis, 4, 3)
    before = (hash(twin), repr(twin))
    for _ in range(2):
        calls.clear()
        assert point_mask(L) == _points_on(L)
        assert calls == [(4, 3), (2, 3)]  # the ids of PG(3,3), the coefficients of a line
    # a mask leaves equality, hashing, order and repr alone
    assert L == twin and not L < twin and not twin < L
    assert (hash(L), repr(L)) == before


@pytest.mark.parametrize("q", [2, 3])
def test_mask_subset_agrees_with_contains(q):
    spec = field_new(q)
    small = [U for k in (0, 1, 2) for U in enumerate_subspaces(4, k, spec)]
    large = [U for k in (2, 3) for U in enumerate_subspaces(4, k, spec)]
    large_masks = [point_mask(W) for W in large]
    for U in small:
        assert point_mask(U) == _points_on(U)
        for W, wm in zip(large, large_masks):
            assert (not point_mask(U) & ~wm) == contains(W, U)


def test_subspaces_within():
    E = enumerate_subspaces(5, 4, F2)[0]
    inner = subspaces_within(E, 2)
    assert len(inner) == gaussian_binomial(4, 2, 2)
    assert all(contains(E, L) for L in inner)
    assert subspaces_within(E, 5) == []


def _subspaces_within_reference(W, k):
    """Each image of a k-subspace of F_q^{W.k} row-reduced, then sorted."""
    if k > W.k:
        return []
    ops = ops_for_order(W.q)
    return sorted(
        subspace_from_rows([projspace._combine(c, W.basis, W.v, ops) for c in T.basis], W.v, W.q)
        for T in enumerate_subspaces(W.k, k, field_new(W.q)))


def _normalize_reference(vec, q):
    """vec times the inverse of its first nonzero entry."""
    ops = arith(field_new(q))
    lead = next((x for x in vec if x), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    return tuple(ops.mul(ops.inv(lead), x) for x in vec)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_subspaces_within_and_normalize_vector_agree_with_the_reductions_they_replaced(q):
    rng = random.Random(q)
    for v in range(6):
        for m in range(v + 1):  # one sampled W of each dimension
            W = subspace_from_rows([], v, q)
            while W.k < m:
                W = join(W, subspace_from_rows([[rng.randrange(q) for _ in range(v)]], v, q))
            for k in range(m + 2):
                assert subspaces_within(W, k) == _subspaces_within_reference(W, k)
        for vec in itertools.product(range(q), repeat=v):
            if any(vec):
                assert normalize_vector(vec, q) == _normalize_reference(vec, q)
            else:
                with pytest.raises(ValueError, match="^cannot normalize the zero vector$"):
                    normalize_vector(vec, q)


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
    built = [full_space(v, q)]
    built += [point_at(i, v, q) for i in range(q_number(v, q))]
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
        assert grassmannian == sorted(map(_revalidated, grassmannian))  # tuple order


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                    reason="object sizes of CPython 3.11 and later")
def test_enumerated_subspaces_stay_lean():
    """A subspace is one slotted tuple, with no dict of its own: about
    160 B per subspace here, bound at 172 B (a 7 % margin); the frozen
    dataclass it replaced took about 185 B."""
    gc.collect()  # empties the free lists, so every tuple built below is traced
    tracemalloc.start()
    try:
        subspaces = enumerate_subspaces(5, 2, F3)
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert used / len(subspaces) <= 172


def test_unvalidated_and_validated_construction_agree():
    basis = ((1, 0, 2, 0), (0, 1, 1, 1))
    trusted = projspace._canonical(4, 2, 3, basis)
    checked = Subspace(v=4, k=2, q=3, basis=basis)
    assert trusted == checked and hash(trusted) == hash(checked)
    lines = enumerate_subspaces(4, 2, F3)
    i = lines.index(checked)
    assert sorted(lines + [trusted]) == lines[:i] + [trusted, checked] + lines[i + 1:]
    for U in (trusted, checked):
        assert point_mask(U) == _points_on(U)


def test_no_construction_path_yields_an_instance_dict():
    basis = ((1, 0, 2, 0), (0, 1, 1, 1))
    U = Subspace(4, 2, 3, basis)
    built = [
        U,
        projspace._canonical(4, 2, 3, basis),
        Subspace._make((4, 2, 3, basis)),
        U._replace(basis=((1, 0, 0, 0), (0, 1, 0, 0))),
        *(pickle.loads(pickle.dumps(U, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy(U),
        copy.deepcopy(U),
        subspace_from_json(subspace_to_json(U)),
        point_at(5, 4, 3),
        *enumerate_subspaces(4, 2, F3),
    ]
    assert Subspace.__slots__ == ()
    for W in built:
        assert type(W) is Subspace and not hasattr(W, "__dict__")


def test_a_subspace_is_frozen():
    U = point_at(5, 4, 3)
    for name in ("v", "k", "q", "basis", "_point_mask", "extra"):
        with pytest.raises(AttributeError):
            setattr(U, name, 0)
        with pytest.raises(AttributeError):
            delattr(U, name)
    assert U == point_at(5, 4, 3)


@pytest.mark.parametrize("rebuild", [
    *(lambda U, p=p: pickle.loads(pickle.dumps(U, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy,
    copy.deepcopy,
])
def test_pickle_and_copy_rebuild_through_the_check(rebuild):
    U = subspace_from_rows([(1, 0, 2, 0), (0, 1, 1, 1)], 4, 3)
    mask = point_mask(U)
    twin = rebuild(U)
    assert type(twin) is Subspace and twin == U and hash(twin) == hash(U)
    assert not hasattr(twin, "__dict__") and point_mask(twin) == mask
    bad = projspace._canonical(3, 2, 2, ((0, 1, 0), (1, 0, 0)))  # pivots decrease
    with pytest.raises(ValueError, match="^basis is not in reduced row-echelon form$"):
        rebuild(bad)


def test_make_and_replace_refuse_a_bad_basis():
    U = Subspace(v=3, k=1, q=3, basis=((1, 2, 0),))
    assert Subspace._make((3, 1, 3, ((1, 2, 0),))) == U
    assert U._replace(basis=((0, 1, 2),)) == Subspace(v=3, k=1, q=3, basis=((0, 1, 2),))
    with pytest.raises(ValueError, match="reduced row-echelon"):
        Subspace._make((3, 1, 3, ((2, 1, 0),)))
    with pytest.raises(ValueError, match="reduced row-echelon"):
        U._replace(basis=((0, 0, 0),))
    with pytest.raises(ValueError, match="outside"):
        U._replace(k=4)
    with pytest.raises(NotAPrimePowerError):
        U._replace(q=6)


def test_a_subspace_is_its_field_tuple():
    U = subspace_from_rows([(1, 0, 2, 0), (0, 1, 1, 1)], 4, 3)
    fields = (U.v, U.k, U.q, U.basis)
    point_mask(U)
    assert not hasattr(U, "__dict__")  # nothing is memoized on the instance
    assert U == fields and hash(U) == hash(fields) and tuple(U) == fields


def _rref_reference(rows, q):
    """RREF in two passes: forward elimination to an echelon form that
    keeps each pivot row unscaled, then back-substitution from the last
    pivot up; inverses are found by search, not read from a table."""
    ops = arith(field_new(q))
    m = [list(r) for r in rows if any(r)]
    echelon, pivots = [], []
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i, r in enumerate(m) if r[c]), None)
        if i is None:
            continue
        top = m.pop(i)
        f = ops.neg(next(b for b in range(1, q) if ops.mul(top[c], b) == 1))
        m = [r if not r[c] else [ops.add(x, ops.mul(ops.mul(f, r[c]), y)) for x, y in zip(r, top)]
             for r in m]
        echelon.append(top)
        pivots.append(c)
    for i in reversed(range(len(echelon))):
        c = pivots[i]
        f = next(b for b in range(1, q) if ops.mul(echelon[i][c], b) == 1)
        echelon[i] = [ops.mul(f, x) for x in echelon[i]]
        for j in range(i):
            g = ops.neg(echelon[j][c])
            echelon[j] = [ops.add(x, ops.mul(g, y)) for x, y in zip(echelon[j], echelon[i])]
    return tuple(map(tuple, echelon))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_rref_agrees_with_a_two_pass_reference(q):
    ops, rng = arith(field_new(q)), random.Random(q)
    cases = [[], [()], [(), ()], [(0, 0, 0)], [(0, 0), (0, 0)]]
    for _ in range(60):
        v, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [tuple(rng.randrange(q) for _ in range(v)) for _ in range(n)]
        cases.append(rows)
        cases.append(rows + [(0,) * v] + rows[:2])  # a zero row and repeated rows
    for v in range(1, 6):  # full rank: an upper unitriangular matrix, rows mixed
        square = [[int(i == j) or (rng.randrange(q) if j > i else 0) for j in range(v)]
                  for i in range(v)]
        for _ in range(3 * (v - 1)):
            i, j = rng.sample(range(v), 2)
            f = rng.randrange(q)
            square[i] = [ops.add(x, ops.mul(f, y)) for x, y in zip(square[i], square[j])]
        rng.shuffle(square)
        cases.append([tuple(r) for r in square])
        assert rref(cases[-1], q) == tuple(tuple(int(i == j) for j in range(v)) for i in range(v))
    for rows in cases:
        assert rref(rows, q) == _rref_reference(rows, q)


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
@example((3, 2, [[1, 0], [0, 1]], [[2, 1], [0, 0]]))  # U is the full space: no normals
@example((4, 3, [[1, 2, 3]], []))  # no rows to test
@example((8, 4, [[1, 0, 7, 5], [0, 1, 6, 2]], [[1, 0, 7, 5], [3, 4, 0, 0], [0, 0, 0, 0]]))
@example((9, 5, [[1, 0, 2, 8, 4], [0, 0, 1, 3, 6]], [[1, 0, 0, 4, 0], [2, 0, 4, 7, 8]]))
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
    assert projspace._kernel(rows, v, q) == _kernel_reference(rows, v, q)  # rows not RREF
    assert meet(U, X).basis == _kernel_reference(
        _kernel_reference(rows, v, q) + _kernel_reference(others, v, q), v, q)
    assert dualize(U, dot_form(v, q)).basis == _kernel_reference(U.basis, v, q)
    inside = [contains(U, subspace_from_rows([r], v, q)) for r in others]
    assert annihilated(row_masks(others, v, q), projspace._kernel(U.basis, v, q), q) \
        == mask_of(i for i, ok in enumerate(inside) if ok)
    M, J = meet(U, X), join(U, X)
    for B, P in ((U, M), (J, X), (J, U), (U, U)):
        assert quotient(B, P).basis == _quotient_reference(B, P)
    ops = ops_for_order(q)
    for c in itertools.islice(projspace._point_ids(U.k, q), 30):
        expected = [0] * v
        for ci, brow in zip(c, U.basis):
            expected = [ops.add(x, ops.mul(ci, y)) for x, y in zip(expected, brow)]
        assert projspace._combine(c, U.basis, v, ops) == expected


@settings(max_examples=200, deadline=None)
@given(_row_sets())
@example((3, 2, [[1, 0], [0, 1]], [[2, 1], [0, 0]]))  # U is the full space: no normals
def test_normals_read_off_an_rref_basis_span_its_kernel(case):
    q, v, rows, others = case
    U = subspace_from_rows(rows, v, q)
    normals = projspace._normals(U.basis, v, q)
    assert len(normals) == v - U.k
    assert _rref_reference(normals, q) == _kernel_reference(rows, v, q)
    inside = [contains(U, subspace_from_rows([r], v, q)) for r in others]
    assert annihilated(row_masks(others, v, q), normals, q) \
        == mask_of(i for i, ok in enumerate(inside) if ok)


@st.composite
def _candidate_bases(draw):
    """(q, v, M) over the ranges of ``_row_sets``: M is a random matrix of at
    most v rows, the reference RREF of one, or that RREF with one entry
    changed, since a random matrix is rarely RREF."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    v = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, q - 1), min_size=v, max_size=v)
    rows = draw(st.lists(row, max_size=6))
    kind = draw(st.sampled_from(["random", "rref", "perturbed"]))
    if kind == "random":
        rows = rows[:v]
    else:
        rows = [list(r) for r in _rref_reference(rows, q)]
    if kind == "perturbed" and rows:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, v - 1))
        rows[i][j] = draw(st.integers(0, q - 1))
    return q, v, tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(_candidate_bases())
@example((2, 3, ((0, 1, 0), (1, 0, 0))))  # pivots decrease
@example((3, 3, ((1, 1, 0), (0, 1, 2))))  # a pivot column is not cleared
@example((4, 2, ((1, 2),)))
@example((5, 4, ()))
@example((2, 3, ((1, 0, 0),)))  # RREF, but a list of lists is refused
def test_a_basis_is_accepted_exactly_when_it_is_its_reference_rref(case):
    q, v, basis = case
    k = len(basis)
    payload = {"v": v, "k": k, "q": q, "rows": [list(r) for r in basis]}
    if basis == _rref_reference(basis, q):
        U = Subspace(v, k, q, basis)
        assert U.basis == basis and subspace_from_json(payload) == U
    else:
        message = "^basis is not in reduced row-echelon form$"
        with pytest.raises(ValueError, match=message) as exc:
            Subspace(v, k, q, basis)
        assert not isinstance(exc.value, PayloadError)
        with pytest.raises(PayloadError, match=message):
            subspace_from_json(payload)
    for listed in ([list(r) for r in basis], list(basis), tuple(map(list, basis))):
        if listed != basis:  # () is the one tuple among them, when k = 0
            with pytest.raises(ValueError, match="^basis must be a tuple of "):
                Subspace(v, k, q, listed)


def test_row_masks_refuse_a_huge_q_before_factoring_it(monkeypatch):
    def no_factoring(q):
        raise AssertionError(f"factored q={q}")

    monkeypatch.setattr(gf, "prime_power_decomposition", no_factoring)
    with pytest.raises(OutOfRangeError, match="^q=2305843009213693951 exceeds "):
        row_masks([], 5, 2 ** 61 - 1)


def test_subspace_from_rows_rejects_rows_of_the_wrong_width():
    with pytest.raises(ValueError):
        subspace_from_rows([(1, 0, 1)], 4, 2)


def test_disjoint_union():
    assert disjoint_union([]) == (0, 0)
    assert disjoint_union([0b0011, 0b0100, 0b1000]) == (0b1111, 0)
    # the third of four masks meets the union of the first two
    assert disjoint_union([0b0001, 0b0110, 0b1100, 0b0001]) == (0b0111, 0b0100)
    assert disjoint_union([0b01, 0, 0b10, 0]) == (0b11, 0)


def test_points_have_one_numbering():
    """Enumeration, ``point_at``, ``point_index`` and ``point_mask`` agree
    on every point id; a derived design refuses what is not a point of
    its space."""
    for v, q in [*((v, q) for v in range(1, 6) for q in (2, 3, 4, 5)),
                 (3, 7), (3, 8), (3, 9), (2, 11), (3, 13), (2, 16), (3, 16)]:
        points = enumerate_subspaces(v, 1, field_new(q))
        assert len(points) == q_number(v, q)
        for i, P in enumerate(points):
            assert P == point_at(i, v, q)
            assert point_index(P.basis[0], v, q) == i
            assert point_mask(P) == 1 << i
    spread = desarguesian_spread(4, 2, F2)
    with pytest.raises(ValueError, match="at a point"):
        derived_design(spread, enumerate_subspaces(4, 2, F2)[0])
    with pytest.raises(AmbientMismatchError):
        derived_design(spread, point_at(0, 5, 2))


@pytest.mark.parametrize("index", [-1, 15, 10 ** 6])
def test_point_at_refuses_an_index_outside_the_space(index):
    with pytest.raises(OutOfRangeError, match=rf"^point index {index} outside PG\(3,2\)$"):
        point_at(index, 4, 2)


@pytest.mark.parametrize("index", [1.0, True, "1"])
def test_point_at_refuses_an_index_that_is_not_an_int(index):
    with pytest.raises(ValueError, match=f"^point index must be an integer, got {index!r}$"):
        point_at(index, 4, 2)
    with pytest.raises(ValueError, match="^point index must be an integer"):
        check_point_index(index, 4, 2)


@pytest.mark.parametrize("index", [0, 5, 200])
def test_point_at_refuses_an_order_that_is_no_field(index):
    with pytest.raises(NotAPrimePowerError):
        point_at(index, 4, 6)


def test_point_at_counts_no_subspaces(monkeypatch):
    # the range check reads [v]_q off q^v, not off a Gaussian binomial per id
    calls = []
    real = projspace.gaussian_binomial
    monkeypatch.setattr(projspace, "gaussian_binomial",
                        lambda *args: calls.append(args) or real(*args))
    for index in range(2 ** 14 - 1):
        point_at(index, 14, 2)
    assert calls == []
    with pytest.raises(OutOfRangeError):
        point_at(2 ** 14 - 1, 14, 2)


def test_check_point_index_agrees_with_the_point_count():
    # indices around [v]_q and around 2^v, where the bit-length shortcut ends
    for v in range(-1, 7):
        for q in (2, 3, 4, 5):
            n = q_number(max(v, 0), q)
            for index in {-2, -1, 0, 1, n - 1, n, n + 1, 2 ** max(v, 0) - 1, 2 ** max(v, 0)}:
                if 0 <= index < n:
                    check_point_index(index, v, q)
                else:
                    with pytest.raises(OutOfRangeError, match=rf"^point index {index} outside "):
                        check_point_index(index, v, q)
