"""The subspace lattice of V = F_q^v, i.e. the projective geometry PG(v-1, q).

Subspaces are kept in reduced row-echelon form with leftmost pivots, so
equality of subspaces is equality of canonical matrices and subspaces can
be hashed and placed in sets.  Points (1-subspaces) additionally get dense
integer ids by the lexicographic rank of their normalized vector; all
incidence data downstream is bit-packed over these ids.

A basis is validated where it enters from outside: the public
``Subspace(...)`` constructor and ``subspace_from_json``.  Bases built
here (``rref`` output, enumeration, points, the zero and full space) are
RREF by construction and are wrapped by ``_canonical`` without the check.

A subspace's point mask (``point_mask``) is computed on first use and
memoized on that subspace object, so it lives exactly as long as the
subspace does.  Hot verification loops test containment within one
ambient space as a mask subset test, ``inner & ~outer == 0``, after
``require_ambient``; ``contains`` stays the row-reduction test for
subspaces that are used once.

All reduction goes through ``rref`` and one residual step: ``contains``
tests that the residuals vanish, ``quotient`` reads coordinates off them,
and ``meet``/``dualize`` hand ``_kernel`` a matrix that is already RREF.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DegenerateFormError,
    NotContainedError,
    NotIncidentError,
    PayloadError,
)
from .gf import FieldSpec, dot, field_new, ops_for_order, prime_power_decomposition

ENUMERATION_BUDGET = 10 ** 7


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------

def gaussian_binomial(v: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^v; 0 when k is outside {0, ..., v}.

    Exact integer arithmetic throughout.
    """
    if v < 0:
        raise ValueError("ambient dimension must be >= 0")
    if prime_power_decomposition(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    if k < 0 or k > v:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (v - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def q_number(v: int, q: int) -> int:
    """[v]_q, the number of points of PG(v-1, q)."""
    return gaussian_binomial(v, 1, q)


# ----------------------------------------------------------------------
# Row reduction over F_q
# ----------------------------------------------------------------------

def rref(rows, q: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form (nonzero rows only) of integer-index rows."""
    ops = ops_for_order(q)
    sub, mul, inv = ops._sub, ops._mul, ops._inv
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if m[r][c] != 1:
            scale = mul[inv[m[r][c]]]
            m[r] = [scale[x] for x in m[r]]
        lead = m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                scale = mul[m[i][c]]
                m[i] = [sub[x][scale[y]] for x, y in zip(m[i], lead)]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r])


def _pivot_cols(basis) -> tuple[int, ...]:
    """Pivot columns of an RREF basis: each row's leading entry is its first 1."""
    return tuple(row.index(1) for row in basis)


# ----------------------------------------------------------------------
# Subspaces
# ----------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Subspace:
    """A k-subspace of F_q^v as its unique RREF basis matrix.

    The geometric names follow k = 1, 2, 3, 4, v-1: point, line, plane,
    solid, hyperplane.
    """

    v: int
    k: int
    q: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 0 <= self.k <= self.v:
            raise ValueError(f"dimension k={self.k} outside [0, {self.v}]")
        if len(self.basis) != self.k or any(len(r) != self.v for r in self.basis):
            raise ValueError("basis shape does not match (k, v)")
        pivots = []
        for row in self.basis:
            p = next((c for c, x in enumerate(row) if x), None)
            if p is None or row[p] != 1:
                raise ValueError("basis is not in reduced row-echelon form")
            pivots.append(p)
        if any(a >= b for a, b in zip(pivots, pivots[1:])):
            raise ValueError("pivot columns must strictly increase")
        for i, p in enumerate(pivots):
            if any(self.basis[j][p] != 0 for j in range(self.k) if j != i):
                raise ValueError("pivot columns must be cleared")

    def __repr__(self):
        rows = ",".join("".join(map(str, r)) for r in self.basis)
        return f"Subspace({self.k}<{self.v} q={self.q} [{rows}])"

    @cached_property
    def _point_mask(self) -> int:
        if self.k == 1:  # the RREF row of a point is its normalized vector
            return 1 << _point_data(self.v, self.q)[1][self.basis[0]]
        return mask_of(p.index for p in subspace_points(self))


def _canonical(v: int, k: int, q: int, basis) -> Subspace:
    """A Subspace over a basis that is RREF by construction, unvalidated."""
    U = object.__new__(Subspace)
    U.__dict__.update(v=v, k=k, q=q, basis=basis)
    return U


def subspace_from_rows(rows, v: int, q: int) -> Subspace:
    """Canonical subspace spanned by the given coordinate rows."""
    basis = rref(rows, q)
    if any(len(r) != v for r in basis):
        raise ValueError("basis shape does not match (k, v)")
    return _canonical(v, len(basis), q, basis)


def zero_subspace(v: int, q: int) -> Subspace:
    return _canonical(v, 0, q, ())


def full_space(v: int, q: int) -> Subspace:
    ident = tuple(tuple(1 if i == j else 0 for j in range(v)) for i in range(v))
    return _canonical(v, v, q, ident)


def enumerate_subspaces(v: int, k: int, spec: FieldSpec) -> list[Subspace]:
    """All k-subspaces of F_q^v in lexicographic RREF order.

    Generation runs over pivot-column patterns with the non-pivot
    entries filled from F_q, then sorts canonically.  Guarded by
    ENUMERATION_BUDGET to fail fast on desk-scale overruns.  Results are
    cached per (v, k, q); a fresh list over the shared immutable
    subspaces is returned each call.
    """
    return list(_enumerate_cached(v, k, spec.q))


@lru_cache(maxsize=None)
def _enumerate_cached(v: int, k: int, q: int) -> tuple[Subspace, ...]:
    count = gaussian_binomial(v, k, q)
    if count > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{count} subspaces exceed the enumeration budget {ENUMERATION_BUDGET}")
    bases = []
    for pivots in itertools.combinations(range(v), k):
        per_row = []
        for p in pivots:  # 1 at the pivot p, free entries right of p off the pivots
            entries = [range(q) if c > p and c not in pivots else (int(c == p),)
                       for c in range(v)]
            per_row.append(itertools.product(*entries))
        bases.extend(itertools.product(*per_row))
    bases.sort()
    return tuple(_canonical(v, k, q, basis) for basis in bases)


def require_ambient(v: int, q: int, subspaces) -> None:
    """Raise AmbientMismatchError unless every subspace lives in F_q^v.

    Point masks number the points of one PG(v-1, q), so masks of two
    subspaces may be compared only after this check.
    """
    if any((U.v, U.q) != (v, q) for U in subspaces):
        raise AmbientMismatchError("subspaces live in different ambient spaces")


def contains(outer: Subspace, inner: Subspace) -> bool:
    """Whether inner <= outer (same ambient required)."""
    require_ambient(outer.v, outer.q, (inner,))
    return inner.k <= outer.k and not any(
        map(any, _residuals(inner.basis, outer.basis, outer.q)))


def _residuals(rows, basis, q: int):
    """Each row with its part in span(basis) removed, for an RREF basis.

    A residual is 0 at the pivot columns of basis and equals its row minus
    a combination of basis rows, so it is 0 iff the row lies in the span.
    """
    ops = ops_for_order(q)
    sub, mul = ops._sub, ops._mul
    steps = tuple(zip(basis, _pivot_cols(basis)))
    for row in rows:
        for brow, p in steps:
            f = row[p]
            if f:
                scale = mul[f]
                row = [sub[x][scale[y]] for x, y in zip(row, brow)]
        yield row


def meet(U: Subspace, W: Subspace) -> Subspace:
    """Intersection of two subspaces."""
    require_ambient(U.v, U.q, (W,))
    cu = _kernel(U.basis, U.v, U.q)
    cw = _kernel(W.basis, W.v, W.q)
    basis = _kernel(rref(cu + cw, U.q), U.v, U.q)
    return _canonical(U.v, len(basis), U.q, basis)


def join(U: Subspace, W: Subspace) -> Subspace:
    """Sum of two subspaces."""
    require_ambient(U.v, U.q, (W,))
    return subspace_from_rows(U.basis + W.basis, U.v, U.q)


def _kernel(basis, v: int, q: int) -> tuple[tuple[int, ...], ...]:
    """RREF basis of {x : M x^T = 0} for the matrix M with the given rows.

    The rows must already be RREF; they are not reduced again.
    """
    neg = ops_for_order(q).neg
    pivots = _pivot_cols(basis)
    free = [c for c in range(v) if c not in pivots]
    kernel = []
    for f in free:
        vec = [0] * v
        vec[f] = 1
        for row, p in zip(basis, pivots):
            vec[p] = neg(row[f])
        kernel.append(tuple(vec))
    return rref(kernel, q)


# ----------------------------------------------------------------------
# Points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointId:
    """A point of PG(v-1, q): normalized vector plus dense integer id."""

    vector: tuple[int, ...]
    index: int


@lru_cache(maxsize=None)
def _point_data(v: int, q: int):
    field_new(q)  # validate q
    vectors = []
    for lead in range(v):
        for tail in itertools.product(range(q), repeat=v - lead - 1):
            vectors.append((0,) * lead + (1,) + tail)
    vectors.sort()
    points = tuple(PointId(vector=vec, index=i) for i, vec in enumerate(vectors))
    return points, {vec: i for i, vec in enumerate(vectors)}


def all_points(v: int, spec: FieldSpec) -> tuple[PointId, ...]:
    """The [v]_q points of PG(v-1, q) in lexicographic order of their
    normalized representative."""
    return _point_data(v, spec.q)[0]


def normalize_vector(vec, q: int) -> tuple[int, ...]:
    """Scale a nonzero vector so that its first nonzero entry is 1."""
    ops = ops_for_order(q)
    lead = next((x for x in vec if x), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    if lead == 1:
        return tuple(vec)
    f = ops.inv(lead)
    return tuple(ops.mul(f, x) for x in vec)


def point_index(vec, v: int, q: int) -> int:
    return _point_data(v, q)[1][normalize_vector(vec, q)]


def point_of_vector(vec, v: int, q: int) -> PointId:
    return _point_data(v, q)[0][point_index(vec, v, q)]


def point_to_subspace(P: PointId, v: int, q: int) -> Subspace:
    return _canonical(v, 1, q, (P.vector,))


def subspace_points(U: Subspace) -> tuple[PointId, ...]:
    """The [k]_q points lying on U, as PointIds of the ambient space."""
    if U.k == 0:
        return ()
    ops = ops_for_order(U.q)
    points, index = _point_data(U.v, U.q)
    # a normalized coordinate row times an RREF basis is normalized
    ids = sorted(index[tuple(_combine(c.vector, U.basis, U.v, ops))]
                 for c in _point_data(U.k, U.q)[0])
    return tuple(points[i] for i in ids)


def _combine(coeffs, rows, v: int, ops) -> list[int]:
    """The length-v vector sum_i coeffs[i] * rows[i]."""
    add, mul = ops._add, ops._mul
    vec = [0] * v
    for ci, row in zip(coeffs, rows):
        if ci:
            scale = mul[ci]
            for j, x in enumerate(row):
                if x:
                    vec[j] = add[vec[j]][scale[x]]
    return vec


def point_mask(U: Subspace) -> int:
    """Bit-packed point-id set of U: bit i is set iff point i lies on U.

    Computed on first use and memoized on U itself, never for a whole
    Grassmannian at once.  Within one ambient space, inner <= outer iff
    ``point_mask(inner) & ~point_mask(outer) == 0``.
    """
    return U._point_mask


def mask_of(ids) -> int:
    """Bit-packed set of integer ids."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bit_ids(mask: int):
    """The ids of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subspaces_within(W: Subspace, k: int) -> list[Subspace]:
    """All k-subspaces of the ambient space contained in W, canonical order."""
    if k > W.k:
        return []
    ops = ops_for_order(W.q)
    return sorted(
        subspace_from_rows([_combine(c, W.basis, W.v, ops) for c in T.basis], W.v, W.q)
        for T in enumerate_subspaces(W.k, k, field_new(W.q)))


# ----------------------------------------------------------------------
# Bilinear forms and duality
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form on F_q^v given by its Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    kind: str = "generic"

    def __post_init__(self):
        v = len(self.gram)
        if any(len(r) != v for r in self.gram):
            raise ValueError("Gram matrix must be square")
        if self.kind not in ("symmetric", "alternating", "generic"):
            raise ValueError(f"unknown form kind {self.kind!r}")


def dot_form(v: int, q: int) -> BilinearForm:
    """The standard symmetric form with identity Gram matrix."""
    gram = tuple(tuple(1 if i == j else 0 for j in range(v)) for i in range(v))
    return BilinearForm(gram=gram, kind="symmetric")


def symplectic_form(q: int) -> BilinearForm:
    """The alternating form b(x, y) = x1 y2 - x2 y1 + x3 y4 - x4 y3 on F_q^4."""
    ops = ops_for_order(q)
    n1 = ops.neg(1)
    gram = ((0, 1, 0, 0), (n1, 0, 0, 0), (0, 0, 0, 1), (0, 0, n1, 0))
    return BilinearForm(gram=gram, kind="alternating")


def form_value(form: BilinearForm, x, y, q: int) -> int:
    ops = ops_for_order(q)
    return dot(x, [dot(grow, y, ops) for grow in form.gram], ops)


def dualize(U: Subspace, form: BilinearForm) -> Subspace:
    """U^perp = {x : b(x, u) = 0 for all u in U} for a nondegenerate form."""
    v, q = U.v, U.q
    if len(form.gram) != v:
        raise AmbientMismatchError("form dimension does not match the subspace")
    if _gram_rank(form, q) != v:
        raise DegenerateFormError("Gram matrix is singular")
    ops = ops_for_order(q)
    constraints = []
    for u in U.basis:
        constraints.append(tuple(dot(grow, u, ops) for grow in form.gram))
    basis = _kernel(rref(constraints, q), v, q)
    return _canonical(v, len(basis), q, basis)


@lru_cache(maxsize=None)
def _gram_rank(form: BilinearForm, q: int) -> int:
    return len(rref(form.gram, q))


# ----------------------------------------------------------------------
# Quotients, filters, pencils
# ----------------------------------------------------------------------

def quotient(B: Subspace, P: Subspace) -> Subspace:
    """B/P as a subspace of the fixed coordinate frame on V/P.

    The frame completes P's basis with the unit vectors of its non-pivot
    columns in ascending order, so the frame (and every derived-design
    output) depends only on P.  A residual of a row of B against P is 0
    at P's pivots, so its other entries are the row's coordinates on
    those unit vectors.
    """
    if not contains(B, P):
        raise NotContainedError("quotient requires P <= B")
    pivots = _pivot_cols(P.basis)
    keep = [c for c in range(B.v) if c not in pivots]
    qrows = [[r[c] for c in keep] for r in _residuals(B.basis, P.basis, B.q)]
    return subspace_from_rows(qrows, B.v - P.k, B.q)


def restrict_filter(S, U: Subspace, W: Subspace) -> list[Subspace]:
    """Members B of S with U <= B <= W, order preserved."""
    return [B for B in S if contains(B, U) and contains(W, B)]


def line_pencil(P: Subspace, E: Subspace) -> list[Subspace]:
    """The q+1 lines through the point P inside the plane E."""
    if P.k != 1 or E.k != 3:
        raise ValueError("line_pencil expects a point and a plane")
    if not contains(E, P):
        raise NotIncidentError("the point does not lie in the plane")
    lines = set()
    for Q in subspace_points(E):
        if Q.vector != P.basis[0]:
            lines.add(join(P, point_to_subspace(Q, E.v, E.q)))
    return sorted(lines)


# ----------------------------------------------------------------------
# JSON form (the wire format shared by all CLI commands)
# ----------------------------------------------------------------------

def subspace_to_json(U: Subspace) -> dict:
    return {"v": U.v, "k": U.k, "q": U.q, "rows": [list(r) for r in U.basis]}


def json_object(obj, what: str, *keys: str) -> dict:
    """obj itself if it is a JSON object with the given keys; PayloadError otherwise."""
    if not isinstance(obj, dict):
        raise PayloadError(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise PayloadError(f"{what} payload has no key {key!r}")
    return obj


def subspace_from_json(obj: dict) -> Subspace:
    obj = json_object(obj, "subspace", "v", "k", "q", "rows")
    v, k, q, rows = obj["v"], obj["k"], obj["q"], obj["rows"]
    if any(type(x) is not int for x in (v, k, q)):
        raise PayloadError("subspace v, k and q must be integers")
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(x) is int and 0 <= x < q for x in r)
            for r in rows):
        raise PayloadError(f"subspace rows must be lists of field elements in [0, {q})")
    return Subspace(v=v, k=k, q=q, basis=tuple(tuple(r) for r in rows))
