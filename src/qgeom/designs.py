"""Subspace designs, spreads, and the block-family predicates built on them.

Covers design verification against claimed parameters, the derived
parameter families lambda_s and lambda_{i,j} (exact fractions, never
floats: the integrality tests must be exact), admissibility, dual and
derived designs, Desarguesian spreads via field reduction, the geometric
spread criterion, and the focal-point / rich-poor-solid predicates used
by the partition arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    DerivedNotASpreadError,
    NotASpreadError,
    NotDivisibleError,
    NotPartialSpreadError,
    NotSteinerLikeError,
    OutOfRangeError,
    ParamMismatchError,
    PayloadError,
)
from .gf import (
    FieldSpec,
    field_new,
    field_reduction,
    prime_power_decomposition,
)
from .projspace import (
    ENUMERATION_BUDGET,
    SCHEMA_VERSION,
    BilinearForm,
    Subspace,
    _canonical,
    _normals,
    _point_ids,
    annihilated,
    bit_ids,
    contains,
    disjoint_union,
    dualize,
    enumerate_subspaces,
    gaussian_binomial,
    join,
    json_object,
    mask_of,
    meet,
    point_at,
    point_mask,
    q_number,
    quotient,
    require_ambient,
    row_masks,
    subspace_from_json,
    subspace_to_json,
    subspaces_within,
)


@dataclass(frozen=True)
class DesignParams:
    """Claimed parameters t-(v, k, lam)_q of a subspace design."""

    t: int
    v: int
    k: int
    lam: int
    q: int

    def __post_init__(self):
        if not 0 <= self.t <= self.k <= self.v - self.t:
            raise ValueError(f"need 0 <= t <= k <= v - t, got {self}")
        if self.lam < 1:
            raise ValueError("lambda must be a positive integer")
        if prime_power_decomposition(self.q) is None:
            raise ValueError(f"q={self.q} is not a prime power")

    def __str__(self):
        return f"{self.t}-({self.v},{self.k},{self.lam})_{self.q}"


@dataclass(frozen=True)
class BlockSet:
    """A finite set of k-subspaces of F_q^v, for a field order q <= 16."""

    v: int
    q: int
    k: int
    blocks: frozenset[Subspace]

    def __post_init__(self):
        field_new(self.q)
        if not 0 <= self.k <= self.v:
            raise ValueError(f"need 0 <= k <= v, got k={self.k} in v={self.v}")
        for B in self.blocks:
            if (B.v, B.q) != (self.v, self.q):
                raise ValueError("block ambient mismatch")
            if B.k != self.k:
                raise ValueError("block dimension mismatch")

    def sorted_blocks(self) -> list[Subspace]:
        # one (v, q, k) per block set, so the basis alone gives Subspace order
        return sorted(self.blocks, key=lambda B: B.basis)

    def __len__(self):
        return len(self.blocks)


def block_set(blocks, v: int | None = None, q: int | None = None,
              k: int | None = None) -> BlockSet:
    """Assemble a BlockSet, inferring the ambient from the blocks."""
    blocks = frozenset(blocks)
    if blocks:
        some = next(iter(blocks))
        v = some.v if v is None else v
        q = some.q if q is None else q
        k = some.k if k is None else k
    if v is None or q is None or k is None:
        raise ValueError("empty block set needs explicit v, q, k")
    return BlockSet(v=v, q=q, k=k, blocks=blocks)


# ----------------------------------------------------------------------
# Design verification and parameter arithmetic
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DesignReport:
    """Outcome of a design check; up to 10 witnesses on failure."""

    ok: bool
    params: DesignParams
    witnesses: tuple[tuple[Subspace, int], ...] = ()


def is_design(blocks: BlockSet, params: DesignParams) -> DesignReport:
    """Check that every t-subspace lies in exactly lambda blocks; their
    number is checked against the budget before any block mask is built."""
    if (blocks.v, blocks.q, blocks.k) != (params.v, params.q, params.k):
        raise ParamMismatchError(
            f"block set ({blocks.v},{blocks.k})_{blocks.q} does not match {params}")
    t_spaces = enumerate_subspaces(params.v, params.t, field_new(params.q))
    block_masks = [point_mask(B) for B in blocks.sorted_blocks()]
    witnesses = []
    for T in t_spaces:
        tm = point_mask(T)
        c = sum(1 for m in block_masks if not tm & ~m)
        if c != params.lam:
            witnesses.append((T, c))
            if len(witnesses) == 10:
                break
    return DesignReport(ok=not witnesses, params=params, witnesses=tuple(witnesses))


def lambda_s(params: DesignParams, s: int) -> Fraction:
    """The derived parameter at level s, lambda_{s,0}: lambda_s is integral
    for all s in {0, ..., t} exactly when the parameters are admissible."""
    if not 0 <= s <= params.t:
        raise OutOfRangeError(f"s={s} outside [0, {params.t}]")
    return lambda_ij(params, s, 0)


def lambda_ij(params: DesignParams, i: int, j: int) -> Fraction:
    """Number of blocks between a fixed i-subspace and a fixed
    (v-j)-subspace containing it; depends only on (i, j)."""
    if i < 0 or j < 0 or i + j > params.t:
        raise OutOfRangeError(f"(i,j)=({i},{j}) needs i,j >= 0 and i+j <= t")
    num = params.lam * gaussian_binomial(params.v - i - j, params.k - i, params.q)
    den = gaussian_binomial(params.v - params.t, params.k - params.t, params.q)
    return Fraction(num, den)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    lambdas: tuple[Fraction, ...]  # lambda_s for s = 0..t

    def first_fractional(self) -> tuple[int, Fraction] | None:
        for s, lam in enumerate(self.lambdas):
            if lam.denominator != 1:
                return s, lam
        return None


def admissible(params: DesignParams) -> AdmissibilityReport:
    """Integrality conditions: all lambda_s integral for s in {0..t}."""
    lams = tuple(lambda_s(params, s) for s in range(params.t + 1))
    return AdmissibilityReport(ok=all(l.denominator == 1 for l in lams), lambdas=lams)


def dual_params(params: DesignParams) -> DesignParams:
    """Parameters of the dual design t-(v, v-k, lambda_{0,t})_q."""
    lam = lambda_ij(params, 0, params.t)
    if lam.denominator != 1:
        raise ValueError(f"dual lambda {lam} is not integral")
    return DesignParams(t=params.t, v=params.v, k=params.v - params.k,
                        lam=int(lam), q=params.q)


def dual_design(blocks: BlockSet, form: BilinearForm,
                params: DesignParams | None = None):
    """Dualize every block; returns (dual block set, dual parameters).

    Dual parameters are computed when the original parameters are
    supplied, else None.
    """
    dual_blocks = frozenset(dualize(B, form) for B in blocks.blocks)
    out = BlockSet(v=blocks.v, q=blocks.q, k=blocks.v - blocks.k, blocks=dual_blocks)
    return out, (dual_params(params) if params is not None else None)


def derived_design(blocks: BlockSet, P: Subspace) -> BlockSet:
    """Der_P: blocks through the point P, quotiented by P, in the fixed
    frame on V/P.  AmbientMismatchError if P does not lie in the block
    set's space, ValueError if P is not a point."""
    require_ambient(blocks.v, blocks.q, (P,))
    if P.k != 1:
        raise ValueError(f"a derived design is taken at a point, not at a {P.k}-subspace")
    der = frozenset(quotient(B, P) for B in blocks.blocks if contains(B, P))
    return BlockSet(v=blocks.v - 1, q=blocks.q, k=blocks.k - 1, blocks=der)


# ----------------------------------------------------------------------
# Spreads
# ----------------------------------------------------------------------

def desarguesian_spread(v: int, k: int, spec: FieldSpec) -> BlockSet:
    """The (k-1)-spread of F_q^v obtained by viewing V as F_{q^k}^{v/k}.

    The blocks are the F_{q^k}-points under field reduction; there are
    [v]_q / [k]_q of them.  Raises BudgetExceededError before building
    anything when that count exceeds ENUMERATION_BUDGET.
    """
    if k >= 1 and v % k != 0:  # field_reduction refuses k < 1
        raise NotDivisibleError(f"k={k} does not divide v={v}")
    q = spec.q
    red = field_reduction(q, k)
    count = q_number(v, q) // q_number(k, q)
    if count > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{count} spread blocks exceed the enumeration budget {ENUMERATION_BUDGET}")
    m = v // k
    # cols[j][c]: column j of the multiplication matrix of element c
    cols = [[tuple(M[r][j] for r in range(k)) for M in red.mul_matrices]
            for j in range(k)]
    blocks = []
    for lead in range(m):
        # M(0) = 0 and M(1) = I, so the rows are RREF with pivots lead*k .. lead*k+k-1
        for tail in itertools.product(range(red.order), repeat=m - lead - 1):
            coords = (0,) * lead + (1,) + tail
            # built from a list, not an iterator: a tuple grown from an iterator
            # can keep an over-allocated block (+9 MB for the 87,381 blocks of (18,2,2))
            rows = tuple(tuple([x for c in coords for x in col[c]]) for col in cols)
            blocks.append(_canonical(v, k, q, rows))
    return BlockSet(v=v, q=q, k=k, blocks=frozenset(blocks))


def spread_holes(blocks: BlockSet) -> frozenset[Subspace]:
    """Points not covered by any block of a partial spread.

    Raises NotPartialSpreadError if some point is covered twice; the
    witness is the lowest such point on the first block (in canonical
    order) that meets an earlier one.
    """
    v, q = blocks.v, blocks.q
    n_points = len(_point_ids(v, q))
    cover, twice = disjoint_union(map(point_mask, blocks.sorted_blocks()))
    if twice:
        p = point_at((twice & -twice).bit_length() - 1, v, q)
        raise NotPartialSpreadError(f"point {p.basis[0]} is covered more than once", witness=p)
    return frozenset(point_at(i, v, q) for i in bit_ids(~cover & ((1 << n_points) - 1)))


@dataclass(frozen=True)
class GeometricReport:
    ok: bool
    witness: Subspace | None = None  # a 2k-subspace with a bad block count
    count: int | None = None


def is_geometric_spread(blocks: BlockSet) -> GeometricReport:
    """Geometric (normal) spread test: every 2k-subspace holds 0, 1 or
    q^k + 1 blocks.

    Any 2k-subspace with two blocks is their join, so only joins of block
    pairs need a look.  Two disjoint blocks span a 2k-subspace, so two
    blocks in a join already built span that join.  The pairs are walked
    in canonical order, and such a pair is skipped: each distinct join is
    built and masked once, 21 joins instead of 210 for the Desarguesian
    line spread of PG(5,2).  Every point's row is packed once, so a join's
    point mask is one ``annihilated`` call over its normals.  The witness
    is the smallest join, in Subspace order, that does not hold q^k + 1
    blocks, reported with its block count.
    """
    DesignParams(t=1, v=blocks.v, k=blocks.k, lam=1, q=blocks.q)  # checks k
    block_list = blocks.sorted_blocks()
    # A spread has [v]_q / [k]_q blocks.  Count them before any mask of
    # [v]_q bits is built, and without q^v when no block's rows bound v.
    k_points = q_number(blocks.k, blocks.q)
    if not block_list or len(block_list) * k_points != q_number(blocks.v, blocks.q):
        raise NotASpreadError("block set is not a spread")
    block_masks = [point_mask(B) for B in block_list]
    if disjoint_union(block_masks) != ((1 << q_number(blocks.v, blocks.q)) - 1, 0):
        raise NotASpreadError("block set is not a spread")
    target = blocks.q ** blocks.k + 1
    points = row_masks(_point_ids(blocks.v, blocks.q), blocks.v, blocks.q)
    partners = [0] * len(block_list)  # bit j of partners[i]: i and j lie in a built join
    bad = []
    for i, j in itertools.combinations(range(len(block_list)), 2):
        if partners[i] >> j & 1:
            continue
        J = join(block_list[i], block_list[j])
        jm = annihilated(points, _normals(J.basis, J.v, J.q), J.q)
        inside = [b for b, m in enumerate(block_masks) if not m & ~jm]
        if len(inside) != target:
            bad.append((J, len(inside)))
        together = mask_of(inside)
        for b in inside:
            partners[b] |= together
    J, count = min(bad, default=(None, None))
    return GeometricReport(ok=not bad, witness=J, count=count)


def is_alpha_point(blocks: BlockSet, P: Subspace) -> bool:
    """Whether the derived block family at P is a geometric line spread.

    Raises DerivedNotASpreadError when the derived family is not a
    spread at all (e.g. P lies on no block).
    """
    return is_alpha_derived(derived_design(blocks, P))


def is_alpha_derived(der: BlockSet) -> bool:
    """``is_alpha_point``'s verdict from the derived design Der_P itself."""
    if not der.blocks:
        raise DerivedNotASpreadError("no block passes through the point")
    try:
        return is_geometric_spread(der).ok
    except NotASpreadError:
        raise DerivedNotASpreadError("derived family is not a spread") from None


# ----------------------------------------------------------------------
# Focal points and solid classification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BetaFlatReport:
    """Focal-point report for a 5-subspace.

    ``focal`` is the unique common point of all blocks inside the flat.
    With fewer than two blocks the focal point is reported absent even
    though any point of a single block vacuously works; that convention
    avoids spurious focal points.
    """

    flat: Subspace
    focal: Subspace | None
    block_count: int


def beta_flat_focus(blocks: BlockSet, F: Subspace) -> BetaFlatReport:
    if F.k != 5:
        raise ValueError("focal-point analysis expects a 5-subspace")
    require_ambient(blocks.v, blocks.q, (F,))
    fm = point_mask(F)
    inside = [B for B in blocks.sorted_blocks() if not point_mask(B) & ~fm]
    if len(inside) < 2:
        return BetaFlatReport(flat=F, focal=None, block_count=len(inside))
    common = inside[0]
    for B in inside[1:]:
        common = meet(common, B)
        if common.k == 0:
            break
    return BetaFlatReport(flat=F, focal=common if common.k == 1 else None,
                          block_count=len(inside))


@dataclass(frozen=True)
class SolidClassification:
    rich: frozenset[Subspace]  # solids containing exactly one block
    poor: frozenset[Subspace]  # solids containing none


def classify_solids(blocks: BlockSet, within: Subspace) -> SolidClassification:
    """Partition the solids of ``within`` into rich and poor.

    A block lies in a solid iff the solid's normals kill its 3 rows, packed
    once as rows 3b..3b+2 for block b, so one ``annihilated`` call per solid
    and a shift-AND count the blocks inside.  Raises NotSteinerLikeError for
    the first solid, in canonical order, that contains two or more blocks,
    which a Steiner family of planes never allows.
    """
    if blocks.k != 3:
        raise ValueError("solid classification expects plane blocks (k=3)")
    if within.k < 4:
        raise ValueError("need a subspace of dimension >= 4")
    require_ambient(blocks.v, blocks.q, (within,))  # the masks read v coordinates a row
    masks = row_masks([row for B in blocks.blocks for row in B.basis], within.v, within.q)
    firsts = ((1 << 3 * len(blocks)) - 1) // 7  # bit 3b of each block b
    rich, poor = [], []
    for S in subspaces_within(within, 4):
        inside = annihilated(masks, _normals(S.basis, S.v, S.q), S.q)
        c = (inside & inside >> 1 & inside >> 2 & firsts).bit_count()
        if c >= 2:
            raise NotSteinerLikeError(
                f"solid contains {c} blocks", witness=S)
        (rich if c == 1 else poor).append(S)
    return SolidClassification(rich=frozenset(rich), poor=frozenset(poor))


def cone_over(blocks: BlockSet) -> tuple[BlockSet, Subspace]:
    """Lift every block into one extra coordinate and join with the new
    unit point (the apex).  The derived design at the apex recovers the
    original block set."""
    v2 = blocks.v + 1
    apex_vec = (0,) * blocks.v + (1,)
    lifted = []
    for B in blocks.blocks:  # the apex row's pivot is the new last column
        rows = tuple(r + (0,) for r in B.basis) + (apex_vec,)
        lifted.append(_canonical(v2, blocks.k + 1, blocks.q, rows))
    apex = _canonical(v2, 1, blocks.q, (apex_vec,))
    return (BlockSet(v=v2, q=blocks.q, k=blocks.k + 1, blocks=frozenset(lifted)),
            apex)


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------

def blockset_to_json(blocks: BlockSet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "v": blocks.v,
        "k": blocks.k,
        "q": blocks.q,
        "blocks": [subspace_to_json(B) for B in blocks.sorted_blocks()],
    }


def blockset_from_json(obj: dict) -> BlockSet:
    obj = json_object(obj, "block set", "v", "q", "k", "blocks")
    if any(type(obj[f]) is not int for f in "vqk") or not isinstance(obj["blocks"], list):
        raise PayloadError("a block set needs integer v, q and k and a list of blocks")
    blocks = frozenset(subspace_from_json(b) for b in obj["blocks"])
    if len(blocks) != len(obj["blocks"]):
        raise PayloadError(f"block set lists {len(obj['blocks'])} blocks, "
                           f"{len(blocks)} of them distinct")
    return BlockSet(v=obj["v"], q=obj["q"], k=obj["k"], blocks=blocks)
