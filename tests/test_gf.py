"""Field arithmetic tests: exhaustive axioms for every supported order,
spec'd examples, and independent polynomial/matrix oracles for the
extension machinery."""

import hashlib

import pytest

from qgeom import gf
from qgeom.errors import NotAPrimePowerError, OutOfRangeError
from qgeom.gf import arith, field_new, field_reduction, prime_power_decomposition

ALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_prime_power_decomposition():
    assert prime_power_decomposition(2) == (2, 1)
    assert prime_power_decomposition(16) == (2, 4)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(6) is None
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None
    assert prime_power_decomposition(2 ** 40) == (2, 40)
    assert prime_power_decomposition(65521 ** 2) == (65521, 2)
    assert prime_power_decomposition(4294967291) == (4294967291, 1)  # largest prime < 2^32
    with pytest.raises(OutOfRangeError, match="^q=2305843009213693951 has no prime factor"):
        prime_power_decomposition(2 ** 61 - 1)


def test_field_new_prime():
    spec = field_new(2)
    assert (spec.p, spec.e) == (2, 1)


def test_field_new_rejects_composite():
    with pytest.raises(NotAPrimePowerError):
        field_new(6)


def test_field_new_rejects_large():
    with pytest.raises(OutOfRangeError):
        field_new(17)
    with pytest.raises(OutOfRangeError):
        field_new(32)


def test_field_new_refuses_a_huge_q_before_factoring_it(monkeypatch):
    def no_factoring(q):
        raise AssertionError(f"factored q={q}")

    monkeypatch.setattr(gf, "prime_power_decomposition", no_factoring)
    with pytest.raises(OutOfRangeError, match="^q=2305843009213693951 exceeds "):
        field_new(2 ** 61 - 1)


def _poly_is_irreducible_over_f2(coeffs):
    # quadratic over F_2 is irreducible iff it has no root
    c0, c1, c2 = coeffs
    roots = [x for x in (0, 1) if (c0 + c1 * x + c2 * x * x) % 2 == 0]
    return not roots


@pytest.mark.parametrize("fields,error,message", [
    ((2, 1, 6, (0, 1)), NotAPrimePowerError, r"^q=6 is not 2\^1$"),
    ((17, 1, 17, (0, 1)), OutOfRangeError, r"^q=17 outside \[2, 16\]$"),
    ((2, 2, 4, (1, 1)), ValueError, "^modulus must be monic of degree e$"),
    ((2, 2, 4, (1, 0, 1)), ValueError, "^modulus is reducible$"),  # x^2 + 1 = (x + 1)^2
])
def test_a_directly_built_field_spec_is_checked(fields, error, message):
    with pytest.raises(error, match=message):
        gf.FieldSpec(*fields)


def test_field_new_4_modulus_is_unique_irreducible_quadratic():
    # oracle: check all 4 monic quadratics over F_2 by hand
    irreducible = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)
                   if _poly_is_irreducible_over_f2((c0, c1, 1))]
    assert irreducible == [(1, 1, 1)]  # x^2 + x + 1
    assert field_new(4).modulus == (1, 1, 1)


def test_modulus_choices_are_conventional():
    assert field_new(8).modulus == (1, 1, 0, 1)      # x^3 + x + 1
    assert field_new(9).modulus == (1, 0, 1)         # x^2 + 1
    assert field_new(16).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_f3_square():
    assert arith(field_new(3)).mul(2, 2) == 1


def test_f5_inverse():
    assert arith(field_new(5)).inv(2) == 3


def _poly_mul_oracle(a, b, ops, modulus):
    """Independent polynomial multiplication modulo ``modulus`` over the
    field of ``ops``, on elements given by their base-q digits."""
    q = ops.q
    k = len(modulus) - 1
    da = [a // q ** i % q for i in range(k)]
    db = [b // q ** i % q for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] = ops.add(prod[i + j], ops.mul(da[i], db[j]))
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        for j, mj in enumerate(modulus):
            prod[i - k + j] = ops.sub(prod[i - k + j], ops.mul(c, mj))
    return sum(ci * q ** i for i, ci in enumerate(prod[:k]))


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_multiplication_against_polynomial_oracle(q):
    spec = field_new(q)
    ops, prime = arith(spec), arith(field_new(spec.p))
    for a in range(q):
        for b in range(q):
            assert ops.mul(a, b) == _poly_mul_oracle(a, b, prime, spec.modulus)
    # the root x to the power e is minus the modulus tail; for q = 4, x * x = x + 1
    tail = sum((-c) % spec.p * spec.p ** i for i, c in enumerate(spec.modulus[:-1]))
    assert ops.mul(spec.p, ops.pow(spec.p, spec.e - 1)) == tail


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_field_axioms_exhaustive(q):
    ops = arith(field_new(q))
    els = list(ops.elements())
    for a in els:
        assert ops.add(a, 0) == a
        assert ops.mul(a, 1) == a
        assert ops.mul(a, 0) == 0
        assert ops.add(a, ops.neg(a)) == 0
        for b in els:
            assert ops.add(a, b) == ops.add(b, a)
            assert ops.mul(a, b) == ops.mul(b, a)
            assert ops.sub(a, b) == ops.add(a, ops.neg(b))
    # associativity and distributivity on all triples
    for a in els:
        for b in els:
            ab_add = ops.add(a, b)
            ab_mul = ops.mul(a, b)
            for c in els:
                assert ops.add(ab_add, c) == ops.add(a, ops.add(b, c))
                assert ops.mul(ab_mul, c) == ops.mul(a, ops.mul(b, c))
                assert ops.mul(a, ops.add(b, c)) == ops.add(ab_mul, ops.mul(a, c))


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_inverses_and_frobenius(q):
    ops = arith(field_new(q))
    for a in range(1, q):
        assert ops.mul(a, ops.inv(a)) == 1
    for a in range(q):
        assert ops.pow(a, q) == a  # a^{p^e} = a
    with pytest.raises(ZeroDivisionError):
        ops.inv(0)


def test_pow_negative_exponent():
    ops = arith(field_new(7))
    for a in range(1, 7):
        assert ops.mul(ops.pow(a, -1), a) == 1
        assert ops.pow(a, -2) == ops.inv(ops.mul(a, a))


# ----------------------------------------------------------------------
# Field reduction
# ----------------------------------------------------------------------

def _matmul_mod(a, b, q):
    n = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(n)) % q
                 for j in range(n)) for i in range(n))


def _rank_mod2(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(n):
            if i != rank and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_reduction_2_2_nonzero_matrices_form_cyclic_group_of_order_3():
    red = field_reduction(2, 2)
    mats = red.mul_matrices
    assert len(mats) == 4
    ident = ((1, 0), (0, 1))
    assert mats[0] == ((0, 0), (0, 0))
    assert mats[1] == ident
    nonzero = set(mats[1:])
    # closure and order-3 cyclicity by direct matrix multiplication
    for m in mats[1:]:
        assert _matmul_mod(_matmul_mod(m, m, 2), m, 2) == ident
        for m2 in mats[1:]:
            assert _matmul_mod(m, m2, 2) in nonzero
    g = mats[2]
    powers = {g}
    cur = g
    for _ in range(2):
        cur = _matmul_mod(cur, g, 2)
        powers.add(cur)
    assert powers == nonzero


def test_reduction_2_3_has_seven_invertible_matrices():
    red = field_reduction(2, 3)
    assert len(red.mul_matrices) == 8
    inv = [m for m in red.mul_matrices if _rank_mod2(m) == 3]
    assert len(inv) == 7
    assert _rank_mod2(red.mul_matrices[0]) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_reduction_degree_one_is_scalars(q):
    red = field_reduction(q, 1)
    assert red.order == q
    assert red.mul_matrices == tuple(((a,),) for a in range(q))


@pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (2, 3), (2, 6), (4, 2), (5, 2), (3, 4)])
def test_reduction_homomorphism(q, k):
    red = field_reduction(q, k)
    ops = arith(red.base)
    mats = red.mul_matrices
    order = red.order
    assert mats[0] == tuple((0,) * k for _ in range(k))
    assert mats[1] == tuple(tuple(int(i == j) for j in range(k)) for i in range(k))

    def matmul(a, b):
        n = len(a)
        return tuple(
            tuple(_sum_mod(ops, (ops.mul(a[i][t], b[t][j]) for t in range(n)))
                  for j in range(n)) for i in range(n))

    pairs = ((a, b) for a in range(order) for b in range(order)) \
        if order <= 64 else ((a, b) for a in range(0, order, 5)
                             for b in range(0, order, 7))
    for a, b in pairs:
        assert mats[_poly_mul_oracle(a, b, ops, red.modulus)] == matmul(mats[a], mats[b])


# sha256 of repr(mul_matrices) for the largest towers over F_2, F_3 and F_16
REDUCTION_SHA256 = {
    (2, 12): "bc5bb443a01f7731e1ece92fc51677ab4159aa6b47e5101d74c6072a55ca2440",
    (3, 7): "5a5ae5330b7dc1133820915a69b19ca0b7af74222ca7e3b06abc52d6cc592b90",
    (16, 3): "1d320bccc8b53b9d18177f619c621f6769f63eea9f67bba436de0e9309dc2eb9",
}


@pytest.mark.parametrize("q,k", sorted(REDUCTION_SHA256))
def test_reduction_matrices_digest_is_pinned(q, k):
    mats = field_reduction(q, k).mul_matrices
    assert hashlib.sha256(repr(mats).encode()).hexdigest() == REDUCTION_SHA256[q, k]


def _sum_mod(ops, items):
    acc = 0
    for x in items:
        acc = ops.add(acc, x)
    return acc


def test_reduction_budget():
    with pytest.raises(OutOfRangeError):
        field_reduction(2, 13)
    with pytest.raises(OutOfRangeError):
        field_reduction(3, 8)
    with pytest.raises(OutOfRangeError):
        field_reduction(2, 0)
