"""Finite generalized quadrangles as abstract incidence structures.

Provides axiom and order verification, dualization, backtracking
isomorphism testing with certified negatives, spread/ovoid predicates,
and the two classical constructions of order (q, q): the symplectic
quadrangle W(q) on the totally isotropic lines of PG(3, q), and the
parabolic quadric Q(4, q) in PG(4, q).

The order convention is the standard one: order (s, t) means s+1 points
per line and t+1 lines per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BudgetExceededError,
    MissingLabelsError,
    OutOfRangeError,
    PayloadError,
    UnknownIdError,
)
from .gf import field_new, ops_for_order
from .projspace import (
    Subspace,
    _kernel,
    all_points,
    bit_ids,
    enumerate_subspaces,
    form_value,
    json_object,
    mask_of,
    point_mask,
    point_to_subspace,
    require_ambient,
    rref,
    subspace_from_json,
    subspace_to_json,
    symplectic_form,
)


@dataclass(frozen=True)
class GQOrder:
    s: int  # s+1 points per line
    t: int  # t+1 lines per point


@dataclass(frozen=True)
class IncidenceStructure:
    """A finite point-line incidence structure with adjacency both ways.

    ``line_points[j]`` lists the point ids on line j (sorted), and
    ``point_lines[i]`` the line ids through point i.  Optional labels
    tie points/lines back to the subspaces of a geometric construction.
    """

    line_points: tuple[tuple[int, ...], ...]
    point_lines: tuple[tuple[int, ...], ...]
    point_labels: tuple[Subspace, ...] | None = None
    line_labels: tuple[Subspace, ...] | None = None

    @property
    def n_points(self) -> int:
        return len(self.point_lines)

    @property
    def n_lines(self) -> int:
        return len(self.line_points)

    def incidence_matrix(self) -> np.ndarray:
        """Dense point x line incidence bit matrix."""
        m = np.zeros((self.n_points, self.n_lines), dtype=bool)
        for j, pts in enumerate(self.line_points):
            m[list(pts), j] = True
        return m

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        """Bit-packed point set of each line, computed once per structure."""
        return tuple(mask_of(pts) for pts in self.line_points)

    @cached_property
    def point_masks(self) -> tuple[int, ...]:
        """Bit-packed line pencil of each point, computed once per structure."""
        return tuple(mask_of(ls) for ls in self.point_lines)

    @cached_property
    def label_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, owner): every basis row of the point labels, then of the
        line labels, computed once per structure.

        ``cols[c]`` holds coordinate c of every row and ``owner`` the label
        of each row, with line j numbered n_points + j.  Raises
        AmbientMismatchError unless all labels live in one F_q^v.
        """
        labels = self.point_labels + self.line_labels
        v, q = labels[0].v, labels[0].q
        require_ambient(v, q, labels)
        rows = [row for lab in labels for row in lab.basis]
        cols = np.array(rows, dtype=np.intp).reshape(len(rows), v).T.copy()
        owner = np.repeat(np.arange(len(labels), dtype=np.intp),
                          [len(lab.basis) for lab in labels])
        return cols, owner


def incidence_from_lines(n_points: int, lines,
                         point_labels=None, line_labels=None) -> IncidenceStructure:
    """Build a structure from the point sets of its lines.

    Enforces that no two lines share a point set and no two points share
    a line pencil (no repeated rows or columns of the bit matrix).
    """
    line_points = []
    seen = set()
    for pts in lines:
        pts = tuple(sorted(set(pts)))
        if any(p < 0 or p >= n_points for p in pts):
            raise UnknownIdError("line contains a point id outside the structure")
        if pts in seen:
            raise ValueError(f"two lines share the point set {pts}")
        seen.add(pts)
        line_points.append(pts)
    per_point = [[] for _ in range(n_points)]
    for j, pts in enumerate(line_points):
        for p in pts:
            per_point[p].append(j)
    point_lines = tuple(tuple(ls) for ls in per_point)
    if len(set(point_lines)) != n_points:
        raise ValueError("two points lie on exactly the same lines")
    return IncidenceStructure(
        line_points=tuple(line_points),
        point_lines=point_lines,
        point_labels=tuple(point_labels) if point_labels is not None else None,
        line_labels=tuple(line_labels) if line_labels is not None else None,
    )


# ----------------------------------------------------------------------
# Classical constructions
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_w(q: int) -> IncidenceStructure:
    """W(q): points of PG(3,q) with the totally isotropic lines of the
    alternating form x1 y2 - x2 y1 + x3 y4 - x4 y3."""
    spec = field_new(q)  # raises OutOfRangeError beyond 16
    form = symplectic_form(q)
    points = all_points(4, spec)
    iso_lines = []
    for L in enumerate_subspaces(4, 2, spec):
        b0, b1 = L.basis
        if form_value(form, b0, b1, q) == 0:
            iso_lines.append(L)
    line_points = [tuple(bit_ids(point_mask(L))) for L in iso_lines]
    point_labels = tuple(point_to_subspace(p, 4, q) for p in points)
    return incidence_from_lines(len(points), line_points,
                                point_labels=point_labels,
                                line_labels=tuple(iso_lines))


def _parabolic_value(vec, q: int) -> int:
    # q(x) = x1 x2 + x3 x4 + x5^2
    ops = ops_for_order(q)
    return ops.add(ops.add(ops.mul(vec[0], vec[1]), ops.mul(vec[2], vec[3])),
                   ops.mul(vec[4], vec[4]))


@lru_cache(maxsize=None)
def build_q4(q: int) -> IncidenceStructure:
    """Q(4,q): projective zeroes of x1 x2 + x3 x4 + x5^2 in PG(4,q),
    with all the lines of PG(4,q) inside the zero set.

    A line <b0, b1> lies in the quadric iff Q(b0) = Q(b1) = Q(b0 + b1) = 0,
    because Q(a b0 + b b1) = a^2 Q(b0) + b^2 Q(b1) + ab (Q(b0 + b1) - Q(b0)
    - Q(b1)) in every characteristic; only the kept lines get point sets.
    """
    spec = field_new(q)
    ops = ops_for_order(q)
    quadric = [p for p in all_points(5, spec) if _parabolic_value(p.vector, q) == 0]
    idx = {p.index: i for i, p in enumerate(quadric)}
    lines = []
    for L in enumerate_subspaces(5, 2, spec):
        b0, b1 = L.basis
        if (_parabolic_value(b0, q) == 0 and _parabolic_value(b1, q) == 0
                and _parabolic_value([ops.add(x, y) for x, y in zip(b0, b1)], q) == 0):
            lines.append(L)
    point_labels = tuple(point_to_subspace(p, 5, q) for p in quadric)
    return incidence_from_lines(
        len(quadric), [[idx[i] for i in bit_ids(point_mask(L))] for L in lines],
        point_labels=point_labels, line_labels=tuple(lines))


# ----------------------------------------------------------------------
# Axiom checking
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GQCheck:
    """Verdict of the generalized-quadrangle axioms.

    ``order`` is set only when the axioms hold with constant line size
    and point degree.  Degeneracy (some point collinear with every
    point) is flagged separately.
    """

    axioms_ok: bool
    order: GQOrder | None
    degenerate: bool
    reason: str | None = None


def check_gq(structure: IncidenceStructure) -> GQCheck:
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


def dualize_structure(structure: IncidenceStructure) -> IncidenceStructure:
    """Swap the roles of points and lines; an involution."""
    return IncidenceStructure(
        line_points=structure.point_lines,
        point_lines=structure.line_points,
        point_labels=structure.line_labels,
        line_labels=structure.point_labels,
    )


# ----------------------------------------------------------------------
# Isomorphism
# ----------------------------------------------------------------------

def is_isomorphic(a: IncidenceStructure, b: IncidenceStructure,
                  node_limit: int = 10 ** 7):
    """Search for an incidence-preserving bijection pair.

    Returns (point_map, line_map) with point_map[i] the b-point image of
    a-point i, or None when the exhausted search certifies there is no
    isomorphism.  Backtracking over the bipartite incidence graph with
    degree pruning and exact adjacency consistency against the mapped
    prefix; adequate for structures up to a few hundred points.

    Raises BudgetExceededError past node_limit candidate tries, which is
    distinct from a certified negative.
    """
    if (a.n_points, a.n_lines) != (b.n_points, b.n_lines):
        return None
    npts = a.n_points
    adj_a = _bipartite_adjacency(a)
    adj_b = _bipartite_adjacency(b)
    deg_a = [m.bit_count() for m in adj_a]
    deg_b = [m.bit_count() for m in adj_b]
    n = len(adj_a)
    kind = [0] * npts + [1] * (a.n_lines)
    if sorted(zip(kind, deg_a)) != sorted(zip(kind, deg_b)):
        return None

    order = _connectivity_order(adj_a, deg_a)
    by_kind = [[y for y in range(n) if kind[y] == 0],
               [y for y in range(n) if kind[y] == 1]]

    mapping = [-1] * n
    used_b = 0
    nodes = 0

    def extend(depth: int) -> bool:
        nonlocal used_b, nodes
        if depth == n:
            return True
        x = order[depth]
        required = mask_of(mapping[y] for y in bit_ids(adj_a[x]) if mapping[y] >= 0)
        for cand in by_kind[kind[x]]:
            if used_b >> cand & 1:
                continue
            if deg_b[cand] != deg_a[x]:
                continue
            if adj_b[cand] & used_b != required:
                continue
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceededError(
                    f"isomorphism search exceeded {node_limit} nodes")
            mapping[x] = cand
            used_b |= 1 << cand
            if extend(depth + 1):
                return True
            used_b &= ~(1 << cand)
            mapping[x] = -1
        return False

    if not extend(0):
        return None
    point_map = tuple(mapping[:npts])
    line_map = tuple(m - npts for m in mapping[npts:])
    # paranoia: re-verify the certificate before handing it out
    for j, pts in enumerate(a.line_points):
        image = tuple(sorted(point_map[p] for p in pts))
        if image != b.line_points[line_map[j]]:
            raise RuntimeError("internal: isomorphism verification failed")
    return point_map, line_map


def _bipartite_adjacency(s: IncidenceStructure) -> list[int]:
    return [m << s.n_points for m in s.point_masks] + list(s.line_masks)


def _connectivity_order(adj: list[int], deg: list[int]) -> list[int]:
    """Visit order maximizing mapped-neighbor counts (greedy)."""
    n = len(adj)
    order = []
    visited = 0
    remaining = set(range(n))
    while remaining:
        best = max(remaining,
                   key=lambda x: ((adj[x] & visited).bit_count(), deg[x], -x))
        order.append(best)
        visited |= 1 << best
        remaining.remove(best)
    return order


# ----------------------------------------------------------------------
# Spreads, ovoids, elliptic sections
# ----------------------------------------------------------------------

def is_gq_spread(structure: IncidenceStructure, lineset) -> bool:
    """Whether each point is incident with exactly one chosen line."""
    return _each_meets_once(structure.point_masks, lineset, structure.n_lines, "line")


def is_gq_ovoid(structure: IncidenceStructure, pointset) -> bool:
    """Whether each line is incident with exactly one chosen point."""
    return _each_meets_once(structure.line_masks, pointset, structure.n_points, "point")


def _each_meets_once(row_masks, ids, n: int, kind: str) -> bool:
    chosen = set(ids)
    for x in chosen:
        if not 0 <= x < n:
            raise UnknownIdError(f"{kind} id {x} outside the structure")
    chosen_mask = mask_of(chosen)
    return all((m & chosen_mask).bit_count() == 1 for m in row_masks)


def is_elliptic_quadric_ovoid(q4: IncidenceStructure, pointset) -> bool:
    """Whether an ovoid of Q(4,q) is an elliptic hyperplane section.

    True iff the ovoid equals the quadric points inside some hyperplane
    of PG(4,q) containing no line of the quadric.  Needs the coordinate
    labels from build_q4.

    The ovoid's rows are eliminated only until rank 4; one vectorized
    dot of the other rows with the normals of that span settles rank 4.
    Then one pass over ``q4.label_rows`` finds the labels inside the
    hyperplane.  The labels of the whole structure are checked for one
    ambient space when that array is built, once per structure.
    """
    if q4.point_labels is None or q4.line_labels is None:
        raise MissingLabelsError("structure carries no coordinate labels")
    ids = sorted(set(pointset))
    if not is_gq_ovoid(q4, ids):
        raise ValueError("point set is not an ovoid of the structure")
    labels = [q4.point_labels[i] for i in ids]
    v, q = labels[0].v, labels[0].q
    require_ambient(v, q, labels)
    normals = _hyperplane_normals([lab.basis[0] for lab in labels], v, q)
    if normals is None:
        return False
    cols, owner = q4.label_rows
    off = np.bincount(owner[_off_normals(cols, normals, q)],
                      minlength=q4.n_points + q4.n_lines)
    # the labels inside are exactly the ovoid's points: line labels are
    # numbered from n_points on, so equality also says no line is inside
    return np.array_equal(np.flatnonzero(off == 0), ids)


def _hyperplane_normals(rows, v: int, q: int):
    """Normals of the span of rows when it has dimension exactly 4, else None.

    Row-reduces a growing prefix of rows only until rank 4, then checks
    the remaining rows against the normals in one vectorized dot.
    """
    basis, end = rref(rows[:4], q), 4
    while len(basis) < 4 and end < len(rows):  # the rank grows by at most 1 a row
        basis, end = rref(basis + (rows[end],), q), end + 1
    if len(basis) < 4:
        return None
    normals = _kernel(basis, v, q)
    rest = np.array(rows[end:], dtype=np.intp).reshape(-1, v).T
    return None if _off_normals(rest, normals, q).any() else normals


def _off_normals(cols, normals, q: int) -> np.ndarray:
    """Per row of the column array cols: whether the row has a nonzero dot
    with some normal, i.e. lies outside the subspace they annihilate."""
    add, mul = _field_arrays(q)
    off = np.zeros(cols.shape[1], dtype=bool)
    for n in normals:
        acc = np.zeros(cols.shape[1], dtype=np.intp)
        for col, x in zip(cols, n):
            if x:
                acc = add[acc, mul[x][col]]
        off |= acc != 0
    return off


@lru_cache(maxsize=None)
def _field_arrays(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only numpy copies of the add and mul tables of F_q."""
    ops = ops_for_order(q)
    tables = np.array(ops._add, dtype=np.intp), np.array(ops._mul, dtype=np.intp)
    for t in tables:
        t.flags.writeable = False
    return tables


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------

def structure_to_json(s: IncidenceStructure) -> dict:
    out = {
        "schema_version": 1,
        "points": s.n_points,
        "lines": s.n_lines,
        "incidence": [list(ls) for ls in s.point_lines],
    }
    if s.point_labels is not None or s.line_labels is not None:
        out["labels"] = {
            "points": [subspace_to_json(x) for x in s.point_labels]
            if s.point_labels is not None else None,
            "lines": [subspace_to_json(x) for x in s.line_labels]
            if s.line_labels is not None else None,
        }
    return out


def structure_from_json(obj: dict) -> IncidenceStructure:
    """Decode a structure payload; every count is checked before anything
    is allocated for it.

    Lines are distinct point sets, and at most one of them is empty, so
    a structure with N incidences has at most N + 1 lines.
    """
    obj = json_object(obj, "structure", "points", "lines", "incidence")
    n_points, n_lines, incidence = obj["points"], obj["lines"], obj["incidence"]
    if type(n_points) is not int or type(n_lines) is not int or not isinstance(incidence, list):
        raise PayloadError("structure needs integer points and lines and an incidence list")
    if n_points != len(incidence):
        raise PayloadError(f"structure has {n_points} points but {len(incidence)} incidence rows")
    for p, ls in enumerate(incidence):
        if not isinstance(ls, list):
            raise PayloadError(f"incidence of point {p} must be a list of line ids")
    n_incidences = sum(map(len, incidence))
    if not 0 <= n_lines <= n_incidences + 1:
        raise PayloadError(f"{n_incidences} incidences cannot fill {n_lines} distinct lines")
    per_line = [[] for _ in range(n_lines)]
    for p, ls in enumerate(incidence):
        for j in ls:
            if type(j) is not int or not 0 <= j < n_lines:
                raise UnknownIdError(f"point {p} lies on line id {j!r} outside the structure")
            per_line[j].append(p)
    labels = json_object(obj.get("labels") or {}, "labels")
    decoded = {}
    for kind, count in (("points", n_points), ("lines", n_lines)):
        given = labels.get(kind)
        if given is not None and not (isinstance(given, list) and len(given) == count):
            raise PayloadError(f"{kind[:-1]} labels must be a list of {count} subspaces")
        decoded[kind] = None if given is None else [subspace_from_json(x) for x in given]
    return incidence_from_lines(n_points, per_line, point_labels=decoded["points"],
                                line_labels=decoded["lines"])
