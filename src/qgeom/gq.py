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

from .errors import (
    BudgetExceededError,
    MissingLabelsError,
    OutOfRangeError,
    PayloadError,
    UnknownIdError,
)
from .gf import dot, ops_for_order
from .projspace import (
    SCHEMA_VERSION,
    BilinearForm,
    Subspace,
    _canonical,
    _combine,
    _kernel,
    _point_ids,
    annihilated,
    bit_ids,
    disjoint_union,
    form_value,
    json_object,
    mask_of,
    require_ambient,
    row_masks,
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

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        """Bit-packed point set of each line, computed once per structure."""
        return tuple(mask_of(pts) for pts in self.line_points)

    @cached_property
    def point_masks(self) -> tuple[int, ...]:
        """Bit-packed line pencil of each point, computed once per structure."""
        return tuple(mask_of(ls) for ls in self.point_lines)

    @cached_property
    def label_rows(self) -> tuple[tuple[int, ...], ...]:
        """``row_masks`` of every basis row of the point labels, then of the
        line labels, computed once per structure.

        Row i is point label i, and rows n_points + 2j and n_points + 2j + 1
        are the basis of line label j.  Raises AmbientMismatchError unless
        all labels live in one F_q^v, and ValueError unless the point labels
        are points and the line labels lines.
        """
        labels = self.point_labels + self.line_labels
        v, q = labels[0].v, labels[0].q
        require_ambient(v, q, labels)
        if any(P.k != 1 for P in self.point_labels) or any(L.k != 2 for L in self.line_labels):
            raise ValueError("point labels must be points and line labels lines")
        return row_masks([row for lab in labels for row in lab.basis], v, q)


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
    alternating form x1 y2 - x2 y1 + x3 y4 - x4 y3; every point is isotropic."""
    return _polar_quadrangle(4, q, BilinearForm(gram=((0,) * 4,) * 4), symplectic_form(q))


@lru_cache(maxsize=None)
def build_q4(q: int) -> IncidenceStructure:
    """Q(4,q): projective zeroes of x1 x2 + x3 x4 + x5^2 in PG(4,q),
    with all the lines of PG(4,q) inside the zero set."""
    ops = ops_for_order(q)
    upper = ((0, 1, 0, 0, 0), (0,) * 5, (0, 0, 0, 1, 0), (0,) * 5, (0, 0, 0, 0, 1))
    polar = tuple(tuple(map(ops.add, row, col)) for row, col in zip(upper, zip(*upper)))
    return _polar_quadrangle(5, q, BilinearForm(gram=upper), BilinearForm(gram=polar))


def _polar_quadrangle(v: int, q: int, quadratic: BilinearForm,
                      polar: BilinearForm) -> IncidenceStructure:
    """The points x of PG(v-1,q) with Q(x) = quadratic(x, x) = 0, and the
    lines of PG(v-1,q) all of whose points are such zeroes.

    Since Q(x a + y b) = x^2 Q(a) + y^2 Q(b) + xy f(a, b) for the polar
    form f, in every characteristic, the lines through a zero a are the
    <a, b> with b a zero in a^perp (for W(q), Q is zero and f alternating).
    a^perp is a hyperplane holding a, as the radical of f holds no zero,
    so its RREF basis is read off its normal.  Dropping the row at a's
    leading position leaves a complement C of a, which each such line
    meets in one normalized point b = x C, x in PG(v-3,q).

    A line's lowest point in id order is the one leading at its second
    pivot.  Taking from a only the b that lead before a finds each line
    once, with (b, a) its RREF basis, so the sorted bases are the lines
    in ``enumerate_subspaces`` order.
    """
    ops = ops_for_order(q)
    zeroes = [a for a in _point_ids(v, q) if form_value(quadratic, a, a, q) == 0]
    idx = {a: i for i, a in enumerate(zeroes)}
    bases = []
    for a in idx:
        normal = [dot(row, a, ops) for row in polar.gram]  # a^perp = {x : normal . x = 0}
        last = max(j for j, n in enumerate(normal) if n)
        scale = ops._mul[ops.neg(ops.inv(normal[last]))]
        lead = a.index(1)
        rest = []  # a^perp's RREF rows e_j - (n_j / n_last) e_last, except j = lead
        for j in range(v):
            if j != last and j != lead:
                row = [0] * v
                row[j], row[last] = 1, scale[normal[j]]
                rest.append(row)
        before = lead - (last < lead)  # the rows of rest with pivot before lead
        for x in _point_ids(v - 2, q):  # the points of PG(v-3,q)
            if x.index(1) < before:
                b = tuple(_combine(x, rest, v, ops))
                if b in idx:
                    bases.append((b, a))
    bases.sort()
    return incidence_from_lines(  # the points b + y a, then a
        len(zeroes), [[idx[tuple(_combine((1, y), L, v, ops))] for y in range(q)] + [idx[L[1]]]
                      for L in bases],
        point_labels=tuple(_canonical(v, 1, q, (a,)) for a in zeroes),
        line_labels=tuple(_canonical(v, 2, q, L) for L in bases))


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
    prefix.  The search keeps an explicit stack of candidate bitmasks,
    one per depth, so its depth is not bounded by the interpreter's
    recursion limit.

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
    depth_of = {x: d for d, x in enumerate(order)}
    # per depth: the neighbours of order[depth] mapped before it, earliest first
    earlier = [sorted((y for y in bit_ids(adj_a[x]) if depth_of[y] < d),
                      key=depth_of.__getitem__) for d, x in enumerate(order)]
    same_class = {}  # (kind, degree) -> mask of the b-vertices of that class
    for y in range(n):
        same_class[kind[y], deg_b[y]] = same_class.get((kind[y], deg_b[y]), 0) | 1 << y

    mapping, pending, required = [-1] * n, [0] * n, [0] * n
    depth, used_b, nodes, entering = 0, 0, 0, True
    while 0 <= depth < n:
        x, prev = order[depth], earlier[depth]
        if entering:  # unused vertices of x's class next to its first mapped neighbour's image
            required[depth] = mask_of(mapping[y] for y in prev)
            pending[depth] = (same_class[kind[x], deg_a[x]] & ~used_b
                              & (adj_b[mapping[prev[0]]] if prev else -1))
        else:  # back from the level below: free x's image
            used_b ^= 1 << mapping[x]
        cands, need = pending[depth], required[depth]
        while cands:
            low = cands & -cands
            cands ^= low
            if adj_b[low.bit_length() - 1] & used_b == need:
                break
        else:
            depth, entering = depth - 1, False
            continue
        pending[depth] = cands
        nodes += 1
        if nodes > node_limit:
            raise BudgetExceededError(f"isomorphism search exceeded {node_limit} nodes")
        mapping[x] = low.bit_length() - 1
        used_b |= low
        depth, entering = depth + 1, True
    if depth < 0:
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
    return _each_meets_once(structure.line_masks, lineset, structure.n_points, "line")


def is_gq_ovoid(structure: IncidenceStructure, pointset) -> bool:
    """Whether each line is incident with exactly one chosen point."""
    return _each_meets_once(structure.point_masks, pointset, structure.n_lines, "point")


def _each_meets_once(masks, ids, n_rows: int, kind: str) -> bool:
    """Whether the chosen ids' masks partition the rows, i.e. each row meets one id."""
    chosen = set(ids)
    for x in chosen:
        if not 0 <= x < len(masks):
            raise UnknownIdError(f"{kind} id {x} outside the structure")
    return disjoint_union([masks[x] for x in chosen]) == ((1 << n_rows) - 1, 0)


def is_elliptic_quadric_ovoid(q4: IncidenceStructure, pointset) -> bool:
    """Whether an ovoid of Q(4,q) is an elliptic hyperplane section.

    True iff the ovoid equals the quadric points inside some hyperplane
    of PG(4,q) containing no line of the quadric.  Needs the coordinate
    labels from build_q4: points labelled by points and lines by lines.

    The ovoid's rows are eliminated only until rank 4; a dot of the other
    rows with the normals of that span settles rank 4.  Then one
    ``annihilated`` pass over ``q4.label_rows`` finds the labels inside
    the hyperplane.  The labels of the whole structure are checked for
    one ambient space and their kinds when those masks are built, once
    per structure.
    """
    if q4.point_labels is None or q4.line_labels is None:
        raise MissingLabelsError("structure carries no coordinate labels")
    ids = sorted(set(pointset))
    if not is_gq_ovoid(q4, ids):
        raise ValueError("point set is not an ovoid of the structure")
    labels = [q4.point_labels[i] for i in ids]
    v, q = labels[0].v, labels[0].q
    require_ambient(v, q, labels)
    if any(lab.k != 1 for lab in labels):
        raise ValueError("an ovoid point is labelled by a subspace that is not a point")
    normals = _hyperplane_normals([lab.basis[0] for lab in labels], v, q)
    if normals is None:
        return False
    inside, n = annihilated(q4.label_rows, normals, q), q4.n_points
    on_lines = inside >> n  # bits 2j and 2j + 1: the two rows of line j
    return (inside & ((1 << n) - 1) == mask_of(ids)
            and not on_lines & on_lines >> 1 & ((1 << 2 * q4.n_lines) - 1) // 3)


def _hyperplane_normals(rows, v: int, q: int):
    """Normals of the span of rows when it has dimension exactly 4, else None.

    Row-reduces a growing prefix of rows only until rank 4, then checks
    the remaining rows against the normals.
    """
    basis, end = rref(rows[:4], q), 4
    while len(basis) < 4 and end < len(rows):  # the rank grows by at most 1 a row
        basis, end = rref(basis + (rows[end],), q), end + 1
    if len(basis) < 4:
        return None
    normals, ops = _kernel(basis, v, q), ops_for_order(q)
    return None if any(dot(n, row, ops) for row in rows[end:] for n in normals) else normals


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------

def structure_to_json(s: IncidenceStructure) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
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
            if per_line[j] and per_line[j][-1] == p:
                raise PayloadError(f"point {p} lists line id {j} twice")
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
