"""Exact arithmetic for small finite fields and their extension towers.

Field elements are plain integers in ``[0, q)``.  For a prime field the
index is the residue; for ``q = p^e`` the base-p digits of the index are
the coefficients of the residue polynomial, lowest degree first, so the
index ``p`` always denotes the adjoined root.

Arithmetic is backed by full ``q x q`` lookup tables.  With ``q <= 16``
the tables stay tiny and scalar operations inside enumeration loops are
plain list indexing.  Extension towers ``F_{q^k}`` over ``F_q`` (the
field-reduction view of a vector space) are exposed only through their
multiplication matrices, never through a public element API.  One
multiply-by-root construction (``_mul_matrices``) gives both the
multiplication matrices of ``F_{q^k}`` and, over ``F_p``, the
multiplication table of ``F_{p^e}``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotAPrimePowerError, OutOfRangeError

MAX_FIELD_ORDER = 16
MAX_EXTENSION_ORDER = 4096
_TRIAL_DIVISION_LIMIT = 1 << 16


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p^e, or None if q is not a prime power.

    Trial division stops at 2^16, which settles every q below 2^32.  A
    larger q with no prime factor up to 2^16 raises OutOfRangeError.
    """
    if q < 2:
        return None
    for p in range(2, min(math.isqrt(q), _TRIAL_DIVISION_LIMIT) + 1):
        if q % p == 0:
            break
    else:
        if q > _TRIAL_DIVISION_LIMIT ** 2:
            raise OutOfRangeError(
                f"q={q} has no prime factor up to 2^16 and is too large to factor")
        p = q
    e, n = 0, q
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


# ----------------------------------------------------------------------
# Polynomial helpers.  Coefficient tuples are ascending degree; the
# coefficient arithmetic is delegated to a FieldOps instance, so the
# same code serves F_p^e tables and F_q^k towers alike.
# ----------------------------------------------------------------------

def _mul_matrices(ops, modulus) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The k x k multiplication matrix of each element of F[y]/(modulus),
    for the field F of ``ops`` and a monic modulus of degree k.

    Elements are indexed by their base-q digits, lowest first, and column
    j of matrix a holds the digits of a * y^j.  Multiplying by y shifts
    the digits up and folds the top one back in through y^k = -(modulus
    tail).
    """
    q, k = ops.q, len(modulus) - 1
    add, mul = ops._add, ops._mul
    y_k = tuple(ops.neg(c) for c in modulus[:k])
    mats = []
    for a in range(q ** k):
        col = [a // q ** i % q for i in range(k)]
        cols = [col]
        for _ in range(k - 1):
            t = col[k - 1]
            col = [0] + col[:k - 1]
            if t:
                for i, c in enumerate(y_k):
                    if c:
                        col[i] = add[col[i]][mul[t][c]]
            cols.append(col)
        mats.append(tuple(zip(*cols)))
    return tuple(mats)


def _poly_rem(num, den, ops):
    """Remainder of num modulo the monic polynomial den."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        for j, dj in enumerate(den):
            num[i - dn + j] = ops.sub(num[i - dn + j], ops.mul(c, dj))
    return num[:dn]


def _is_irreducible(poly, ops):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    q = ops.q
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(q), repeat=d):
            divisor = tuple(tail) + (1,)
            if not any(_poly_rem(poly, divisor, ops)):
                return False
    return True


def _smallest_irreducible(deg: int, ops) -> tuple[int, ...]:
    """First monic irreducible of the given degree, ordered by the
    integer encoding sum(c_i * q^i) of the coefficient vector."""
    q = ops.q
    for val in range(q ** deg):
        tail = tuple(val // q ** i % q for i in range(deg))
        poly = tail + (1,)
        if _is_irreducible(poly, ops):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {deg} over F_{q}")


# ----------------------------------------------------------------------
# Field specification and table-driven operations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_q with q = p^e, 2 <= q <= 16.

    ``modulus`` is the monic irreducible polynomial over F_p used for
    e > 1, as an ascending coefficient tuple of length e+1.  It is the
    smallest irreducible in the integer encoding of the coefficient
    vector, so element indices are reproducible across runs.  For e = 1
    the placeholder polynomial x is stored.
    """

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        pp = prime_power_decomposition(self.q)
        if pp != (self.p, self.e):
            raise NotAPrimePowerError(f"q={self.q} is not {self.p}^{self.e}")
        if not 2 <= self.q <= MAX_FIELD_ORDER:
            raise OutOfRangeError(f"q={self.q} outside [2, {MAX_FIELD_ORDER}]")
        if len(self.modulus) != self.e + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if self.e > 1 and not _is_irreducible(self.modulus, arith(field_new(self.p))):
            raise ValueError("modulus is reducible")


@lru_cache(maxsize=None)
def field_new(q: int) -> FieldSpec:
    """The canonical FieldSpec of order q, built once per q.

    The modulus choice is deterministic (smallest irreducible, see
    FieldSpec), so canonical subspace forms and golden files are stable
    across builds.
    """
    if q > MAX_FIELD_ORDER:  # before q is factored
        raise OutOfRangeError(f"q={q} exceeds the supported maximum {MAX_FIELD_ORDER}")
    pp = prime_power_decomposition(q)
    if pp is None:
        raise NotAPrimePowerError(f"q={q} is not a prime power")
    p, e = pp
    if e == 1:
        modulus = (0, 1)
    else:
        modulus = _smallest_irreducible(e, arith(field_new(p)))
    return FieldSpec(p=p, e=e, q=q, modulus=modulus)


class FieldOps:
    """Arithmetic over a FieldSpec via precomputed q x q tables.

    Immutable after construction; safe for unrestricted shared reads.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.q = q = spec.q
        p, e = spec.p, spec.e
        if e == 1:
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            base = arith(field_new(p))
            digits = [tuple(i // p ** j % p for j in range(e)) for i in range(q)]

            def index(coeffs):
                return sum(c * p ** j for j, c in enumerate(coeffs))

            add = [[index(base.add(x, y) for x, y in zip(digits[a], digits[b]))
                    for b in range(q)] for a in range(q)]
            mul = [[index(dot(row, digits[b], base) for row in m) for b in range(q)]
                   for m in _mul_matrices(base, spec.modulus)]
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        neg = [0] * q
        for a in range(q):
            for b in range(q):
                if self._add[a][b] == 0:
                    neg[a] = b
                    break
        self._neg = tuple(neg)
        self._sub = tuple(tuple(self._add[a][neg[b]] for b in range(q)) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv = tuple(inv)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        out, base = 1, a
        while n:
            if n & 1:
                out = self._mul[out][base]
            base = self._mul[base][base]
            n >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        return f"FieldOps(q={self.q})"


@lru_cache(maxsize=None)
def arith(spec: FieldSpec) -> FieldOps:
    """Table-backed add/sub/mul/inv/pow operations for a field."""
    return FieldOps(spec)


@lru_cache(maxsize=None)
def ops_for_order(q: int) -> FieldOps:
    return arith(field_new(q))


# ----------------------------------------------------------------------
# Field reduction: F_{q^k} as a k-dimensional F_q-vector space
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldReduction:
    """The extension F_{q^k} viewed as F_q^k.

    Extension elements are indexed by their base-q digit vectors
    (lowest coefficient first): index 0 is zero, index 1 the identity.
    ``mul_matrices[a]`` is the k x k matrix over F_q of multiplication
    by element a, acting on coordinate columns, so column j holds the
    coordinates of a * y^j for the adjoined root y.

    ``modulus`` is the monic irreducible degree-k polynomial over F_q
    defining the tower.  Orders above MAX_FIELD_ORDER are supported up
    to MAX_EXTENSION_ORDER for internal spread construction, hence no
    element-level API beyond the matrices.
    """

    base: FieldSpec
    k: int
    order: int
    modulus: tuple[int, ...]
    mul_matrices: tuple[tuple[tuple[int, ...], ...], ...]


def dot(x, y, ops) -> int:
    """Sum of x_i * y_i over the field of ``ops``."""
    add, mul = ops._add, ops._mul
    acc = 0
    for xi, yi in zip(x, y):
        acc = add[acc][mul[xi][yi]]
    return acc


def field_reduction(q: int, k: int) -> FieldReduction:
    """Multiplication-matrix family of F_{q^k} over F_q.

    Raises OutOfRangeError when q^k exceeds MAX_EXTENSION_ORDER.
    """
    if k < 1:
        raise OutOfRangeError(f"extension degree k={k} must be >= 1")
    base = field_new(q)
    order = q ** k
    if order > MAX_EXTENSION_ORDER:
        raise OutOfRangeError(
            f"extension order {q}^{k} exceeds the budget {MAX_EXTENSION_ORDER}")
    ops = arith(base)
    modulus = (0, 1) if k == 1 else _smallest_irreducible(k, ops)
    return FieldReduction(base=base, k=k, order=order, modulus=modulus,
                          mul_matrices=_mul_matrices(ops, modulus))
