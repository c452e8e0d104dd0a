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

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from operator import and_, lt, or_

from .errors import (
    BudgetExceededError,
    MissingLabelsError,
    PayloadError,
    UnknownIdError,
)
from .gf import ops_for_order
from .projspace import (
    SCHEMA_VERSION,
    BilinearForm,
    Subspace,
    _canonical,
    _combine,
    _kernel,
    _pivot_cols,
    _point_ids,
    annihilated,
    bit_ids,
    disjoint_union,
    form_value,
    json_object,
    mask_of,
    require_ambient,
    require_int,
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
    """A finite point-line incidence structure, checked where it is built.

    ``line_points[j]`` lists the point ids on line j, strictly increasing
    in ``[0, n_points)``.  ``point_lines[i]``, the line ids through point i,
    is computed from them.  No two lines have one point set and no two
    points one pencil.  Optional labels, one per point or per line, tie
    points/lines back to the subspaces of a geometric construction.
    """

    n_points: int
    line_points: tuple[tuple[int, ...], ...]
    point_labels: tuple[Subspace, ...] | None = None
    line_labels: tuple[Subspace, ...] | None = None
    point_lines: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_points
        per_point = [[] for _ in range(n)]
        seen = set()
        for j, pts in enumerate(self.line_points):
            if pts:
                if not all(map(lt, pts, pts[1:])):
                    raise ValueError(f"line {j} does not list strictly increasing point ids")
                if pts[0] < 0 or pts[-1] >= n:
                    raise UnknownIdError("line contains a point id outside the structure")
            if pts in seen:
                raise ValueError(f"two lines share the point set {pts}")
            seen.add(pts)
            for p in pts:
                per_point[p].append(j)
        point_lines = tuple(map(tuple, per_point))
        if len(set(point_lines)) != n:
            raise ValueError("two points lie on exactly the same lines")
        for kind, labels, count in (("point", self.point_labels, n),
                                    ("line", self.line_labels, self.n_lines)):
            if labels is not None and len(labels) != count:
                raise ValueError(f"{len(labels)} {kind} labels for {count} {kind}s")
        object.__setattr__(self, "point_lines", point_lines)

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
        """``row_masks`` of the point labels, row i for point i, once per
        structure.  A hyperplane section of Q(4,q) with q^2+1 points holds
        no quadric line, so no line label is read.  Raises ValueError, or
        AmbientMismatchError, unless the point labels are points of one F_q^v."""
        labels = self.point_labels
        v, q = labels[0].v, labels[0].q
        require_ambient(v, q, labels)
        if any(P.k != 1 for P in labels):
            raise ValueError("point labels must be points")
        return row_masks([P.basis[0] for P in labels], v, q)


def incidence_from_lines(n_points: int, lines,
                         point_labels=None, line_labels=None) -> IncidenceStructure:
    """Build a structure from the point sets of its lines, in any order
    and with repeats; the constructor checks the result."""
    return IncidenceStructure(
        n_points=n_points,
        line_points=tuple(tuple(sorted(set(pts))) for pts in lines),
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
    return _polar_quadrangle(4, q, _point_ids(4, q), symplectic_form(q))


@lru_cache(maxsize=None)
def build_q4(q: int) -> IncidenceStructure:
    """Q(4,q): projective zeroes of x1 x2 + x3 x4 + x5^2 in PG(4,q),
    with all the lines of PG(4,q) inside the zero set."""
    ops = ops_for_order(q)
    upper = BilinearForm(gram=((0, 1, 0, 0, 0), (0,) * 5, (0, 0, 0, 1, 0), (0,) * 5,
                               (0, 0, 0, 0, 1)))
    polar = tuple(tuple(map(ops.add, row, col)) for row, col in zip(upper.gram, zip(*upper.gram)))
    zeroes = [a for a in _point_ids(5, q) if form_value(upper, a, a, q) == 0]
    return _polar_quadrangle(5, q, zeroes, BilinearForm(gram=polar))


def _polar_quadrangle(v: int, q: int, zeroes, polar: BilinearForm) -> IncidenceStructure:
    """The given zeroes of a quadratic form Q on F_q^v, normalized vectors
    in id order, and the lines of PG(v-1,q) all of whose points are zeroes.

    Since Q(x a + y b) = x^2 Q(a) + y^2 Q(b) + xy f(a, b) for the polar
    form f, in every characteristic, the lines through a zero a are the
    <a, b> with b a zero in a^perp (for W(q), Q is zero and f alternating).
    a^perp is a hyperplane holding a, as the radical of f holds no zero,
    so its RREF basis is the ``_kernel`` of its normal.  Dropping the row
    pivoting at a's leading position leaves a complement C of a, which
    each such line meets in one normalized point b = x C, x in PG(v-3,q).

    A line's lowest point in id order is the one leading at its second
    pivot.  Taking from a only the b that lead before a finds each line
    once, with (b, a) its RREF basis, so the sorted bases are the lines
    in ``enumerate_subspaces`` order.
    """
    ops, cols = ops_for_order(q), tuple(zip(*polar.gram))
    idx = {a: i for i, a in enumerate(zeroes)}
    bases = []
    for a in idx:
        perp = _kernel((_combine(a, cols, v, ops),), v, q)  # a^perp, normal G a
        before = _pivot_cols(perp).index(a.index(1))  # the rows of rest with pivot before a's
        rest = perp[:before] + perp[before + 1:]
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
    """The GQ axioms as unique projections, with the order if they hold.

    Axiom (iii) decides (ii), as no two lines of a structure have one point
    set: if lines M and M' share two points, a point of M' off M projects
    onto M twice or more, or M' lies in M and a point of M off M' projects
    |M'| >= 2 times."""
    np_, nl = structure.n_points, structure.n_lines
    if np_ == 0 or nl == 0:
        return GQCheck(False, None, False, "point and line sets must be non-empty")
    lm, coll = structure.line_masks, _collinearity_masks(structure)
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


def _collinearity_masks(structure: IncidenceStructure) -> list[int]:
    """Per point, the bit-packed points on its lines."""
    lm = structure.line_masks
    return [reduce(or_, [lm[j] for j in lines], 0) for lines in structure.point_lines]


def dualize_structure(structure: IncidenceStructure) -> IncidenceStructure:
    """Swap the roles of points and lines; an involution."""
    return IncidenceStructure(
        n_points=structure.n_lines,
        line_points=structure.point_lines,
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

    First, point 0 of a needs a point of b with its ``_perp_profile``, which
    refuses W(q) against Q(4,q), q odd: W(q) has only regular points, Q(4,q) none.

    Raises BudgetExceededError past node_limit candidate tries, which is
    distinct from a certified negative; a node_limit not an int >= 0 is a ValueError.
    """
    require_int("node_limit", node_limit, 0)
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
    if npts:  # any isomorphism maps point 0 to a point of its profile
        profile, coll_b = _perp_profile(_collinearity_masks(a), 0), _collinearity_masks(b)
        if profile not in (_perp_profile(coll_b, y) for y in range(npts)):
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


def _perp_profile(coll: list[int], x: int) -> list[int]:
    """Sorted sizes of {x, y}^perp-perp, y not collinear with x: the points
    collinear with all points collinear with both (all if there is none)."""
    full = (1 << len(coll)) - 1
    return sorted(reduce(and_, [coll[z] for z in bit_ids(coll[x] & coll[y])], full).bit_count()
                  for y in bit_ids(full & ~coll[x] & ~(1 << x)))


def _bipartite_adjacency(s: IncidenceStructure) -> list[int]:
    return [m << s.n_points for m in s.point_masks] + list(s.line_masks)


def _connectivity_order(adj: list[int], deg: list[int]) -> list[int]:
    """Visit order maximizing mapped-neighbor counts (greedy), then degree,
    then lowest id: ``untaken[m, d]`` packs the untaken vertices of degree d
    with m neighbours taken, so a step takes the lowest bit of the largest
    key and moves only the neighbours of the vertex taken."""
    n, untaken, order, taken = len(adj), defaultdict(int), [], 0
    for x, d in enumerate(deg):
        untaken[0, d] |= 1 << x
    while len(order) < n:
        key = max(k for k, m in untaken.items() if m)
        low = untaken[key] & -untaken[key]
        untaken[key] ^= low
        taken |= low
        order.append(low.bit_length() - 1)
        for y in bit_ids(adj[order[-1]] & ~taken):
            m, d = (adj[y] & taken).bit_count(), deg[y]
            untaken[m - 1, d] ^= 1 << y
            untaken[m, d] |= 1 << y
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
    H of PG(4,q) containing no line of the quadric.  H meets Q(4,q) in
    q^2+1 (elliptic), q^2+q+1 or (q+1)^2 points, and only an elliptic
    section holds no quadric line, so only the point labels from build_q4
    are read.  The ovoid's rows are eliminated until rank 4, ``_kernel``
    gives H's normals, and one ``annihilated`` pass over ``q4.label_rows``
    (checked once per structure) must find exactly the ovoid inside H,
    which also refuses an ovoid of rank 5."""
    if q4.point_labels is None:
        raise MissingLabelsError("structure carries no point labels")
    ids = sorted(set(pointset))
    if not is_gq_ovoid(q4, ids):
        raise ValueError("point set is not an ovoid of the structure")
    label_rows = q4.label_rows
    v, q = q4.point_labels[0].v, q4.point_labels[0].q
    normals = _hyperplane_normals([q4.point_labels[i].basis[0] for i in ids], v, q)
    return normals is not None and annihilated(label_rows, normals, q) == mask_of(ids)


def _hyperplane_normals(rows, v: int, q: int):
    """The ``_kernel`` of the first prefix of rows that spans dimension 4,
    row-reduced only until rank 4; None if no prefix does."""
    basis, end = rref(rows[:4], q), 4
    while len(basis) < 4 and end < len(rows):  # the rank grows by at most 1 a row
        basis, end = rref(basis + (rows[end],), q), end + 1
    return _kernel(basis, v, q) if len(basis) == 4 else None


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
    a structure with N incidences has at most N + 1 lines.  No two points,
    and no two lines, may carry the same label.
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
    labels = obj.get("labels")
    labels = {} if labels is None else json_object(labels, "labels")
    decoded = {}
    for kind, count in (("points", n_points), ("lines", n_lines)):
        given = decoded[kind] = labels.get(kind)
        if given is None:
            continue
        if not (isinstance(given, list) and len(given) == count):
            raise PayloadError(f"{kind[:-1]} labels must be a list of {count} subspaces")
        decoded[kind] = tuple(map(subspace_from_json, given))
        distinct = len(set(decoded[kind]))
        if distinct != count:
            raise PayloadError(f"{kind[:-1]} labels list {count} subspaces, "
                               f"{distinct} of them distinct")
    return IncidenceStructure(n_points, tuple(map(tuple, per_line)),
                              point_labels=decoded["points"], line_labels=decoded["lines"])
