"""The subspace lattice of V = F_q^v, i.e. the projective geometry PG(v-1, q).

Subspaces are kept in reduced row-echelon form with leftmost pivots, so
equality of subspaces is equality of canonical matrices and subspaces can
be hashed and placed in sets.  A point is a 1-subspace, whose RREF row is
its normalized vector (first nonzero entry 1).  Points have dense integer
ids, the lexicographic rank of that vector, and all incidence data
downstream is bit-packed over these ids.  One cached table,
``_point_ids``, maps each normalized vector to its id, with its keys listed
in id order; ``point_at`` finds the point of an id by arithmetic, without
the table.

A basis is validated where it enters from outside, by one check in the
public ``Subspace(...)`` constructor that ``subspace_from_json`` and
``full_space`` go through: ``rref`` must return it unchanged.
Bases built here (``rref`` output, enumeration, ``_images``,
``point_at``) and in ``designs`` (Desarguesian spread blocks, ``cone_over``
lifts) are RREF by construction and are wrapped by ``_canonical`` unchecked.
A ``Subspace`` is one slotted tuple ``(v, k, q, basis)`` with no instance
dict: it hashes, compares and sorts as that plain tuple does, equals it,
and takes no attribute and no weak reference.  ``_canonical`` builds it
with ``tuple.__new__``, past the check in ``Subspace.__new__``; ``_make``,
``_replace``, pickling and copying all go through the check.
``tracemalloc`` reads 169 B per subspace, basis and list included, at the
peak of ``enumerate_subspaces(8, 4, 2)`` on CPython 3.11.

Containment is asked by rows: ``contains`` answers one pair, and
``annihilated`` over ``row_masks`` many rows against one subspace.  Point
masks serve covers (``disjoint_union``) and search options.  The subspaces
inside W are one map, ``_images``, of the coordinate subspaces of F_q^{W.k}.

All reduction goes through ``rref`` (``normalize_vector`` is one row's RREF)
and one residual step, behind ``contains`` and ``quotient``; every orthogonal
complement is ``_kernel``, one ``rref`` read off by ``_normals`` (which mask
tests apply to RREF bases); every G u is ``_combine`` of G's columns by u.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DegenerateFormError,
    NotContainedError,
    NotIncidentError,
    OutOfRangeError,
    PayloadError,
    QGeomError,
)
from .gf import FieldSpec, dot, field_new, ops_for_order, prime_power_decomposition

ENUMERATION_BUDGET = 10 ** 7
SCHEMA_VERSION = 1  # written by every encoder, the only one the decoders accept


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
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        lead = m[piv]
        m[piv] = m[r]
        if lead[c] != 1:
            scale = mul[inv[lead[c]]]
            lead = [scale[x] for x in lead]
        m[r] = lead
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                scale = mul[f]
                m[i] = [sub[x][scale[y]] for x, y in zip(row, lead)]
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, m[:r]))


def _pivot_cols(basis) -> tuple[int, ...]:
    """Pivot columns of an RREF basis: each row's leading entry is its first 1."""
    return tuple(row.index(1) for row in basis)


# ----------------------------------------------------------------------
# Subspaces
# ----------------------------------------------------------------------

class Subspace(namedtuple("_SubspaceFields", "v k q basis")):
    """A k-subspace of F_q^v as its unique RREF basis matrix.

    The geometric names follow k = 1, 2, 3, 4, v-1: point, line, plane,
    solid, hyperplane.
    """

    __slots__ = ()

    def __new__(cls, v: int, k: int, q: int, basis: tuple[tuple[int, ...], ...]):
        if not 0 <= k <= v:
            raise ValueError(f"dimension k={k} outside [0, {v}]")
        if type(basis) is not tuple or len(basis) != k or any(
                type(r) is not tuple or len(r) != v for r in basis):
            raise ValueError(f"basis must be a tuple of {k} rows, each a tuple of {v} entries")
        ops_for_order(q)  # field_new(q) once per q: raises unless q is a field order
        if any(type(x) is not int or not 0 <= x < q for row in basis for x in row):
            raise ValueError(f"basis entries must be field elements in [0, {q})")
        if rref(basis, q) != basis:  # RREF is unique: a basis is RREF iff rref keeps it
            raise ValueError("basis is not in reduced row-echelon form")
        return super().__new__(cls, v, k, q, basis)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # through the check, which namedtuple's _make skips

    def __reduce__(self):
        return Subspace, tuple(self)  # pickle and copy rebuild through the check

    def __repr__(self):
        rows = ",".join("".join(map(str, r)) for r in self.basis)
        return f"Subspace({self.k}<{self.v} q={self.q} [{rows}])"


def _canonical(v: int, k: int, q: int, basis) -> Subspace:
    """A Subspace over a basis that is RREF by construction, unvalidated."""
    return tuple.__new__(Subspace, (v, k, q, basis))


def subspace_from_rows(rows, v: int, q: int) -> Subspace:
    """Canonical subspace spanned by the given coordinate rows."""
    basis = rref(rows, q)
    if any(len(r) != v for r in basis):
        raise ValueError("basis shape does not match (k, v)")
    return _canonical(v, len(basis), q, basis)


def full_space(v: int, q: int) -> Subspace:
    ident = tuple(tuple(1 if i == j else 0 for j in range(v)) for i in range(v))
    return Subspace(v, v, q, ident)


def enumerate_subspaces(v: int, k: int, spec: FieldSpec) -> list[Subspace]:
    """All k-subspaces of F_q^v in lexicographic RREF order.

    Generation runs over pivot-column patterns with the non-pivot
    entries filled from F_q, then sorts canonically.  Guarded by
    ENUMERATION_BUDGET to fail fast on desk-scale overruns.  Each call
    builds new subspace objects and keeps none of them, so a
    Grassmannian is freed when its caller drops the list.
    """
    q = spec.q
    require_enumerable(v, k, q)
    if not 0 <= k <= v:
        return []
    bases = []
    for pivots in itertools.combinations(range(v), k):
        per_row = []
        for p in pivots:  # 1 at the pivot p, free entries right of p off the pivots
            entries = [range(q) if c > p and c not in pivots else (int(c == p),)
                       for c in range(v)]
            per_row.append(itertools.product(*entries))
        bases.extend(itertools.product(*per_row))
    bases.sort()
    return [_canonical(v, k, q, basis) for basis in bases]


def require_enumerable(v: int, k: int, q: int) -> None:
    """Raise BudgetExceededError when the k-subspaces of F_q^v number
    more than ENUMERATION_BUDGET."""
    count = gaussian_binomial(v, k, q)
    if count > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{count} subspaces exceed the enumeration budget {ENUMERATION_BUDGET}")


def require_int(name: str, value, least=None) -> None:
    """Raise ValueError, naming the argument, unless value is an int (not a
    bool) and not below least."""
    if type(value) is not int or least is not None and value < least:
        rule = f"at least {least}" if type(value) is int else "an integer"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


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
    v, q = U.v, U.q
    basis = _kernel(_kernel(U.basis, v, q) + _kernel(W.basis, v, q), v, q)
    return _canonical(v, len(basis), q, basis)


def join(U: Subspace, W: Subspace) -> Subspace:
    """Sum of two subspaces."""
    require_ambient(U.v, U.q, (W,))
    return subspace_from_rows(U.basis + W.basis, U.v, U.q)


def _kernel(rows, v: int, q: int) -> tuple[tuple[int, ...], ...]:
    """RREF basis of {x : r . x = 0 for every row r}, for any rows: the
    ``_normals`` of their ``rref`` with columns reversed, read back, where
    each starts with its free column's 1, at which the others are 0."""
    reduced = rref([row[::-1] for row in rows], q)
    return tuple([tuple(n[::-1]) for n in reversed(_normals(reduced, v, q))])


def _normals(basis, v: int, q: int) -> list[list[int]]:
    """A basis of {x : r . x = 0 for every row r}, read off an RREF basis
    unreduced: per free column f, e_f less each row's entry at f, at its pivot."""
    neg = ops_for_order(q)._neg
    pivots = _pivot_cols(basis)
    normals = []
    for f in range(v):
        if f not in pivots:
            vec = [0] * v
            vec[f] = 1
            for row, p in zip(basis, pivots):
                vec[p] = neg[row[f]]
            normals.append(vec)
    return normals


def row_masks(rows, v: int, q: int) -> tuple[tuple[int, ...], ...]:
    """``masks[c][a]``: the bit-packed set of the rows whose coordinate c
    is a, row i as bit i; what ``annihilated`` reads."""
    ops_for_order(q)  # checks q before v * q masks are allocated
    masks = [[0] * q for _ in range(v)]
    for i, row in enumerate(rows):
        bit = 1 << i
        for col, a in zip(masks, row):
            col[a] |= bit
    return tuple(map(tuple, masks))


def annihilated(masks, normals, q: int) -> int:
    """The bit-packed set of the rows x of ``row_masks`` with n . x = 0 for
    every normal n; every row when there are no normals.

    Per normal, the rows are split by their partial dot one coordinate at
    a time, at most q * q mask ANDs each: ``parts[s]`` holds the rows whose
    dot over the coordinates so far is s."""
    ops = ops_for_order(q)
    add, mul = ops._add, ops._mul
    live = sum(masks[0]) if masks else 0  # coordinate 0's masks are disjoint
    for n in normals:
        parts = [live] + [0] * (q - 1)
        for col, x in zip(masks, n):
            if x:
                scale, split = mul[x], [0] * q
                for s, part in enumerate(parts):
                    if part:
                        shift = add[s]
                        for a, m in enumerate(col):
                            split[shift[scale[a]]] |= part & m
                parts = split
        live = parts[0]
    return live


# ----------------------------------------------------------------------
# Points
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _point_ids(v: int, q: int) -> dict[tuple[int, ...], int]:
    """Each normalized vector of F_q^v to the id of its point, with the
    keys listed in id order: more leading zeros first, then the tail
    after the leading 1 in lexicographic order."""
    field_new(q)  # validate q
    vectors = ((0,) * lead + (1,) + tail for lead in reversed(range(v))
               for tail in itertools.product(range(q), repeat=v - lead - 1))
    return {vec: i for i, vec in enumerate(vectors)}


def check_point_index(index: int, v: int, q: int) -> None:
    """Raise OutOfRangeError unless ``index`` numbers a point of PG(v-1, q).

    [v]_q >= 2^v - 1, so an index of fewer than v bits is in range
    without computing q^v.
    """
    ops_for_order(q)  # field_new(q) once per q: raises unless q is a field order
    require_int("point index", index)
    if index < 0 or (v <= index.bit_length() and index >= (q ** max(v, 0) - 1) // (q - 1)):
        raise OutOfRangeError(f"point index {index} outside PG({v - 1},{q})")


def point_at(index: int, v: int, q: int) -> Subspace:
    """The point with id ``index`` of PG(v-1, q), by arithmetic, without
    building the id table.

    Points with more leading zeros come first; within one leading
    position the tail is the base-q digits of the offset.
    """
    check_point_index(index, v, q)
    tail_len, offset = 0, index
    while offset >= q ** tail_len:
        offset -= q ** tail_len
        tail_len += 1
    tail = tuple(offset // q ** i % q for i in reversed(range(tail_len)))
    return _canonical(v, 1, q, ((0,) * (v - tail_len - 1) + (1,) + tail,))


def normalize_vector(vec, q: int) -> tuple[int, ...]:
    """A nonzero vector scaled so that its first nonzero entry is 1: its RREF row."""
    reduced = rref((vec,), q)
    if not reduced:
        raise ValueError("cannot normalize the zero vector")
    return reduced[0]


def point_index(vec, v: int, q: int) -> int:
    """The id of the point spanned by a nonzero vector of F_q^v.

    AmbientMismatchError when the vector's length is not v, ValueError
    when an entry is not an element of F_q.
    """
    vec = tuple(vec)
    if len(vec) != v:
        raise AmbientMismatchError(f"vector {vec} does not lie in F_{q}^{v}")
    if any(type(x) is not int or not 0 <= x < q for x in vec):
        raise ValueError(f"vector {vec} has an entry outside F_{q}")
    return _point_ids(v, q)[normalize_vector(vec, q)]


def subspace_points(U: Subspace) -> tuple[Subspace, ...]:
    """The [k]_q points lying on U, in id order, which is canonical order."""
    return tuple(subspaces_within(U, 1))


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
    """Bit-packed point-id set of U: bit i is set iff point i lies on U,
    computed at each call; for covers and search options, not containment.
    """
    ids = _point_ids(U.v, U.q)
    ops = ops_for_order(U.q)
    # a normalized coordinate row times an RREF basis is normalized
    return mask_of(ids[tuple(_combine(c, U.basis, U.v, ops))]
                   for c in _point_ids(U.k, U.q))


def mask_of(ids) -> int:
    """Bit-packed set of integer ids."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def disjoint_union(masks) -> tuple[int, int]:
    """(union, overlap) of bit-packed sets; (full, 0) iff they partition full.

    overlap is what the first mask to meet the union of the masks before it
    shares with that union, returned with it; 0 when they are pairwise disjoint."""
    union = 0
    for m in masks:
        if union & m:
            return union, union & m
        union |= m
    return union, 0


def bit_ids(mask: int):
    """The ids of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subspaces_within(W: Subspace, k: int) -> list[Subspace]:
    """All k-subspaces of the ambient space contained in W, canonical order."""
    return _images(enumerate_subspaces(W.k, k, field_new(W.q)), W)


def _images(coords, W: Subspace) -> list[Subspace]:
    """C W for each RREF coordinate subspace C of F_q^{W.k}, in the order of
    ``coords``: C W is RREF, and reads C at W's pivots, so keeps their order."""
    ops = ops_for_order(W.q)
    return [_canonical(W.v, C.k, W.q, tuple(tuple(_combine(c, W.basis, W.v, ops)) for c in C.basis))
            for C in coords]


# ----------------------------------------------------------------------
# Bilinear forms and duality
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form on F_q^v given by its Gram matrix G:
    b(x, y) = x . (G y), with G y the combination of G's columns by y."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        v = len(self.gram)
        if any(len(r) != v for r in self.gram):
            raise ValueError("Gram matrix must be square")
        if any(type(x) is not int or x < 0 for r in self.gram for x in r):
            raise ValueError("Gram matrix entries must be field elements, ints >= 0")


def dot_form(v: int, q: int) -> BilinearForm:
    """The standard symmetric form with identity Gram matrix."""
    ops_for_order(q)  # raises unless q is a field order
    gram = tuple(tuple(1 if i == j else 0 for j in range(v)) for i in range(v))
    return BilinearForm(gram=gram)


def symplectic_form(q: int) -> BilinearForm:
    """The alternating form b(x, y) = x1 y2 - x2 y1 + x3 y4 - x4 y3 on F_q^4."""
    ops = ops_for_order(q)
    n1 = ops.neg(1)
    gram = ((0, 1, 0, 0), (n1, 0, 0, 0), (0, 0, 0, 1), (0, 0, n1, 0))
    return BilinearForm(gram=gram)


def form_value(form: BilinearForm, x, y, q: int) -> int:
    """b(x, y); AmbientMismatchError unless x and y have the form's dimension."""
    if not len(x) == len(y) == len(form.gram):
        raise AmbientMismatchError("form dimension does not match the vectors")
    ops = ops_for_order(q)
    return dot(x, _combine(y, zip(*form.gram), len(y), ops), ops)


def dualize(U: Subspace, form: BilinearForm) -> Subspace:
    """U^perp = {x : b(x, u) = 0 for all u in U} for a nondegenerate form."""
    v, q = U.v, U.q
    if len(form.gram) != v:
        raise AmbientMismatchError("form dimension does not match the subspace")
    if _gram_rank(form, q) != v:
        raise DegenerateFormError("Gram matrix is singular")
    ops, cols = ops_for_order(q), tuple(zip(*form.gram))
    basis = _kernel([_combine(u, cols, v, ops) for u in U.basis], v, q)  # rows G u
    return _canonical(v, len(basis), q, basis)


@lru_cache(maxsize=None)
def _gram_rank(form: BilinearForm, q: int) -> int:
    if any(x >= q for row in form.gram for x in row):
        raise ValueError(f"Gram matrix entries must be field elements in [0, {q})")
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
    return [L for L in subspaces_within(E, 2) if contains(L, P)]


# ----------------------------------------------------------------------
# JSON form (the wire format shared by all CLI commands)
# ----------------------------------------------------------------------

def subspace_to_json(U: Subspace) -> dict:
    return {"v": U.v, "k": U.k, "q": U.q, "rows": [list(r) for r in U.basis]}


def json_object(obj, what: str, *keys: str) -> dict:
    """obj itself if it is a JSON object with the given keys and, if it
    names one, schema_version SCHEMA_VERSION; PayloadError otherwise."""
    if not isinstance(obj, dict):
        raise PayloadError(f"{what} must be a JSON object, not {type(obj).__name__}")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise PayloadError(f"{what} schema_version must be {SCHEMA_VERSION}, not {version!r}")
    for key in keys:
        if key not in obj:
            raise PayloadError(f"{what} payload has no key {key!r}")
    return obj


def subspace_from_json(obj: dict) -> Subspace:
    """Decode a subspace payload; the basis is checked by ``Subspace(...)``,
    whose ValueError names the payload at fault as a PayloadError."""
    obj = json_object(obj, "subspace", "v", "k", "q", "rows")
    v, k, q, rows = obj["v"], obj["k"], obj["q"], obj["rows"]
    if any(type(x) is not int for x in (v, k, q)):
        raise PayloadError("subspace v, k and q must be integers")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PayloadError("subspace rows must be a list of lists")
    try:
        return Subspace(v, k, q, tuple(map(tuple, rows)))
    except QGeomError:
        raise
    except ValueError as exc:
        raise PayloadError(str(exc)) from exc
