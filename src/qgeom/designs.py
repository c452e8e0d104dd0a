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
    DerivedNotASpreadError,
    NotASpreadError,
    NotDivisibleError,
    NotPartialSpreadError,
    NotSteinerLikeError,
    OutOfRangeError,
    ParamMismatchError,
    PayloadError,
)
from .gf import FieldSpec, field_new, field_reduction, ops_for_order, prime_power_decomposition
from .projspace import (
    BilinearForm,
    PointId,
    Subspace,
    all_points,
    bit_ids,
    contains,
    dualize,
    enumerate_subspaces,
    gaussian_binomial,
    join,
    json_object,
    meet,
    point_mask,
    point_of_vector,
    point_to_subspace,
    quotient,
    require_ambient,
    subspace_from_json,
    subspace_from_rows,
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
    """A finite set of k-subspaces of F_q^v."""

    v: int
    q: int
    k: int
    blocks: frozenset[Subspace]

    def __post_init__(self):
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
    """Check that every t-subspace lies in exactly lambda blocks."""
    if (blocks.v, blocks.q, blocks.k) != (params.v, params.q, params.k):
        raise ParamMismatchError(
            f"block set ({blocks.v},{blocks.k})_{blocks.q} does not match {params}")
    spec = field_new(params.q)
    block_masks = [point_mask(B) for B in blocks.sorted_blocks()]
    witnesses = []
    for T in enumerate_subspaces(params.v, params.t, spec):
        tm = point_mask(T)
        c = sum(1 for m in block_masks if not tm & ~m)
        if c != params.lam:
            witnesses.append((T, c))
            if len(witnesses) == 10:
                break
    return DesignReport(ok=not witnesses, params=params, witnesses=tuple(witnesses))


def lambda_s(params: DesignParams, s: int) -> Fraction:
    """The derived parameter at level s: lambda_s is integral for all
    s in {0, ..., t} exactly when the parameters are admissible."""
    if not 0 <= s <= params.t:
        raise OutOfRangeError(f"s={s} outside [0, {params.t}]")
    num = params.lam * gaussian_binomial(params.v - s, params.t - s, params.q)
    den = gaussian_binomial(params.k - s, params.t - s, params.q)
    return Fraction(num, den)


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


def derived_design(blocks: BlockSet, P: PointId) -> BlockSet:
    """Der_P: blocks through P, quotiented by P, in the fixed frame on V/P."""
    Psub = point_to_subspace(P, blocks.v, blocks.q)
    der = frozenset(quotient(B, Psub) for B in blocks.blocks if contains(B, Psub))
    return BlockSet(v=blocks.v - 1, q=blocks.q, k=blocks.k - 1, blocks=der)


# ----------------------------------------------------------------------
# Spreads
# ----------------------------------------------------------------------

def desarguesian_spread(v: int, k: int, spec: FieldSpec) -> BlockSet:
    """The (k-1)-spread of F_q^v obtained by viewing V as F_{q^k}^{v/k}.

    The blocks are the F_{q^k}-points under field reduction; there are
    [v]_q / [k]_q of them.
    """
    if v % k != 0:
        raise NotDivisibleError(f"k={k} does not divide v={v}")
    q = spec.q
    red = field_reduction(q, k)
    m = v // k
    mats = red.mul_matrices
    blocks = []
    for lead in range(m):
        for tail in itertools.product(range(red.order), repeat=m - lead - 1):
            coords = (0,) * lead + (1,) + tail
            rows = []
            for j in range(k):
                row = []
                for c in coords:
                    M = mats[c]
                    row.extend(M[r][j] for r in range(k))
                rows.append(row)
            blocks.append(subspace_from_rows(rows, v, q))
    return BlockSet(v=v, q=q, k=k, blocks=frozenset(blocks))


def spread_holes(blocks: BlockSet) -> frozenset[PointId]:
    """Points not covered by any block of a partial spread.

    Raises NotPartialSpreadError if some point is covered twice; the
    witness is the lowest such point on the first block (in canonical
    order) that meets an earlier one.
    """
    points = all_points(blocks.v, field_new(blocks.q))
    cover = 0
    for B in blocks.sorted_blocks():
        m = point_mask(B)
        twice = cover & m
        if twice:
            p = points[(twice & -twice).bit_length() - 1]
            raise NotPartialSpreadError(
                f"point {p.vector} is covered more than once", witness=p)
        cover |= m
    return frozenset(points[i] for i in bit_ids(~cover & ((1 << len(points)) - 1)))


@dataclass(frozen=True)
class GeometricReport:
    ok: bool
    witness: Subspace | None = None  # a 2k-subspace with a bad block count
    count: int | None = None


def is_geometric_spread(blocks: BlockSet) -> GeometricReport:
    """Geometric (normal) spread test: every 2k-subspace holds 0, 1 or
    q^k + 1 blocks.

    Scanning the joins of block pairs is equivalent to scanning all
    2k-subspaces, because any 2k-subspace with two blocks is their join;
    this drops the cost from a Grassmannian sweep to #blocks^2 joins.
    """
    params = DesignParams(t=1, v=blocks.v, k=blocks.k, lam=1, q=blocks.q)
    if not is_design(blocks, params).ok:
        raise NotASpreadError("block set is not a spread")
    target = blocks.q ** blocks.k + 1
    block_list = blocks.sorted_blocks()
    block_masks = [point_mask(B) for B in block_list]
    joins = set()
    for i, B in enumerate(block_list):
        for Bp in block_list[i + 1:]:
            joins.add(join(B, Bp))
    for J in sorted(joins):
        jm = point_mask(J)
        c = sum(1 for m in block_masks if not m & ~jm)
        if c != target:
            return GeometricReport(ok=False, witness=J, count=c)
    return GeometricReport(ok=True)


def is_alpha_point(blocks: BlockSet, P: PointId) -> bool:
    """Whether the derived block family at P is a geometric line spread.

    Raises DerivedNotASpreadError when the derived family is not a
    spread at all (e.g. P lies on no block).
    """
    der = derived_design(blocks, P)
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
    focal: PointId | None
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
            return BetaFlatReport(flat=F, focal=None, block_count=len(inside))
    if common.k != 1:
        return BetaFlatReport(flat=F, focal=None, block_count=len(inside))
    focal = point_of_vector(common.basis[0], F.v, F.q)
    return BetaFlatReport(flat=F, focal=focal, block_count=len(inside))


@dataclass(frozen=True)
class SolidClassification:
    rich: frozenset[Subspace]  # solids containing exactly one block
    poor: frozenset[Subspace]  # solids containing none


def classify_solids(blocks: BlockSet, within: Subspace) -> SolidClassification:
    """Partition the solids of ``within`` into rich and poor.

    Raises NotSteinerLikeError if a solid contains two or more blocks,
    which a Steiner family of planes never allows.
    """
    if blocks.k != 3:
        raise ValueError("solid classification expects plane blocks (k=3)")
    if within.k < 4:
        raise ValueError("need a subspace of dimension >= 4")
    block_list = blocks.sorted_blocks()
    rich, poor = [], []
    for S in subspaces_within(within, 4):
        c = sum(1 for B in block_list if contains(S, B))
        if c >= 2:
            raise NotSteinerLikeError(
                f"solid contains {c} blocks", witness=S)
        (rich if c == 1 else poor).append(S)
    return SolidClassification(rich=frozenset(rich), poor=frozenset(poor))


def cone_over(blocks: BlockSet) -> tuple[BlockSet, PointId]:
    """Lift every block into one extra coordinate and join with the new
    unit point (the apex).  The derived design at the apex recovers the
    original block set."""
    v2 = blocks.v + 1
    apex_vec = (0,) * blocks.v + (1,)
    lifted = []
    for B in blocks.blocks:
        rows = [r + (0,) for r in B.basis] + [apex_vec]
        lifted.append(subspace_from_rows(rows, v2, blocks.q))
    apex = point_of_vector(apex_vec, v2, blocks.q)
    return (BlockSet(v=v2, q=blocks.q, k=blocks.k + 1, blocks=frozenset(lifted)),
            apex)


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------

def blockset_to_json(blocks: BlockSet) -> dict:
    return {
        "schema_version": 1,
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
    return BlockSet(v=obj["v"], q=obj["q"], k=obj["k"], blocks=blocks)
