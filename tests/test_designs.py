"""Design machinery tests: parameter arithmetic against closed forms,
design verification, spreads, and the focal-point predicates, with the
field-reduction cone model as a fully checkable micro-instance."""

import itertools
from fractions import Fraction

import pytest

from qgeom import designs, gf
from qgeom.designs import (
    AdmissibilityReport,
    BlockSet,
    DesignParams,
    GeometricReport,
    SolidClassification,
    admissible,
    beta_flat_focus,
    block_set,
    blockset_from_json,
    blockset_to_json,
    classify_solids,
    cone_over,
    derived_design,
    desarguesian_spread,
    dual_design,
    dual_params,
    is_alpha_point,
    is_design,
    is_geometric_spread,
    lambda_ij,
    lambda_s,
    spread_holes,
)
from qgeom.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DerivedNotASpreadError,
    NotAPrimePowerError,
    NotASpreadError,
    NotDivisibleError,
    NotPartialSpreadError,
    NotSteinerLikeError,
    OutOfRangeError,
    ParamMismatchError,
)
from qgeom.gf import field_new
from qgeom.projspace import (
    Subspace,
    contains,
    disjoint_union,
    dot_form,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    join,
    meet,
    point_at,
    point_index,
    point_mask,
    q_number,
    rref,
    subspace_from_rows,
    subspace_points,
    subspaces_within,
    symplectic_form,
)
from qgeom.search import enumerate_pg_line_spreads, pg_spread_blocks

F2 = field_new(2)
F3 = field_new(3)
FANO2 = DesignParams(t=2, v=7, k=3, lam=1, q=2)
FANO3 = DesignParams(t=2, v=7, k=3, lam=1, q=3)


# ----------------------------------------------------------------------
# is_design
# ----------------------------------------------------------------------

def test_spread_is_a_steiner_point_partition():
    spread = desarguesian_spread(4, 2, F2)
    assert is_design(spread, DesignParams(1, 4, 2, 1, 2)).ok


def test_full_grassmannian_is_a_design():
    lines = block_set(enumerate_subspaces(4, 2, F2))
    assert is_design(lines, DesignParams(1, 4, 2, 7, 2)).ok


def test_dropping_a_block_yields_three_witnesses():
    spread = desarguesian_spread(4, 2, F2)
    blocks = spread.sorted_blocks()
    removed = blocks.pop()
    damaged = block_set(blocks)
    rep = is_design(damaged, DesignParams(1, 4, 2, 1, 2))
    assert not rep.ok
    assert len(rep.witnesses) == 3  # the removed line held [2]_2 = 3 points
    missing = {T.basis[0] for T, c in rep.witnesses}
    assert all(c == 0 for _, c in rep.witnesses)
    assert missing == {p.basis[0] for p in subspace_points(removed)}


def test_is_design_reports_at_most_ten_witnesses():
    # no block: each of the 15 points of PG(3,2) lies in 0 blocks, not 1
    rep = is_design(block_set([], v=4, q=2, k=2), DesignParams(1, 4, 2, 1, 2))
    assert not rep.ok
    assert rep.witnesses == tuple((P, 0) for P in enumerate_subspaces(4, 1, F2)[:10])


def test_is_design_param_mismatch():
    spread = desarguesian_spread(4, 2, F2)
    with pytest.raises(ParamMismatchError):
        is_design(spread, DesignParams(1, 4, 2, 1, 3))


def test_is_design_applies_the_budget_before_building_block_masks(monkeypatch):
    # [13 choose 2]_2 = 11,180,715 lines exceed the budget; PG(12,2) has 8,191 points
    def no_masks(U):
        raise AssertionError("point_mask called before the budget check")

    monkeypatch.setattr(designs, "point_mask", no_masks)
    plane = block_set([subspace_from_rows(((1,) + (0,) * 12, (0, 1) + (0,) * 11,
                                           (0, 0, 1) + (0,) * 10), 13, 2)])
    with pytest.raises(BudgetExceededError, match="^11180715 subspaces exceed"):
        is_design(plane, DesignParams(t=2, v=13, k=3, lam=1, q=2))


def test_design_params_invariants():
    with pytest.raises(ValueError):
        DesignParams(2, 5, 4, 1, 2)  # k > v - t
    with pytest.raises(ValueError):
        DesignParams(1, 4, 2, 0, 2)
    with pytest.raises(ValueError):
        DesignParams(1, 4, 2, 1, 6)


# ----------------------------------------------------------------------
# lambda_s / lambda_ij / admissibility
# ----------------------------------------------------------------------

def test_lambda_s_block_counts():
    assert lambda_s(FANO2, 0) == 381
    assert lambda_s(FANO3, 0) == 7651
    assert lambda_s(FANO2, 2) == 1  # lambda_t = lambda
    with pytest.raises(OutOfRangeError):
        lambda_s(FANO2, 3)


def test_lambda_s_closed_form():
    for params in (FANO2, FANO3):
        q = params.q
        for s in range(3):
            expected = Fraction(gaussian_binomial(7 - s, 2 - s, q),
                                gaussian_binomial(3 - s, 2 - s, q))
            assert lambda_s(params, s) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_lambda_triangle_polynomials(q):
    # the six entries of the triangle for 2-(7,3,1)_q as polynomials in q
    params = DesignParams(2, 7, 3, 1, q)
    assert lambda_ij(params, 0, 0) == q**8 + q**6 + q**5 + q**4 + q**3 + q**2 + 1
    assert lambda_ij(params, 1, 0) == q**4 + q**2 + 1
    assert lambda_ij(params, 0, 1) == q**5 + q**3 + q**2 + 1
    assert lambda_ij(params, 2, 0) == 1
    assert lambda_ij(params, 1, 1) == q**2 + 1
    assert lambda_ij(params, 0, 2) == q**2 + 1


def test_lambda_00_equals_lambda_s0():
    for params in (FANO2, FANO3, DesignParams(1, 6, 2, 1, 2),
                   DesignParams(2, 8, 4, 3, 2)):
        assert lambda_ij(params, 0, 0) == lambda_s(params, 0)


def test_lambda_ij_range_check():
    with pytest.raises(OutOfRangeError):
        lambda_ij(FANO2, 2, 1)
    with pytest.raises(OutOfRangeError):
        lambda_ij(FANO2, -1, 0)


def test_admissibility():
    assert admissible(FANO2).ok
    assert admissible(FANO2).first_fractional() is None
    rep = admissible(DesignParams(2, 6, 3, 1, 2))
    assert not rep.ok
    assert rep.first_fractional() == (1, Fraction(31, 3))
    assert admissible(DesignParams(1, 6, 2, 1, 2)).ok
    assert isinstance(rep, AdmissibilityReport)


# ----------------------------------------------------------------------
# Dual and derived designs
# ----------------------------------------------------------------------

def test_dual_of_spread_is_a_dual_spread():
    spread = desarguesian_spread(4, 2, F2)
    params = DesignParams(1, 4, 2, 1, 2)
    form = dot_form(4, 2)
    dual, dparams = dual_design(spread, form, params)
    assert dparams == DesignParams(1, 4, 2, 1, 2)
    assert is_design(dual, dparams).ok


def test_dual_design_is_an_involution():
    form = dot_form(4, 2)
    for blocks in (desarguesian_spread(4, 2, F2),
                   block_set(enumerate_subspaces(4, 2, F2)[:7])):
        double, _ = dual_design(*dual_design(blocks, form)[:1], form)
        assert double.blocks == blocks.blocks


def test_dual_involution_over_every_searched_spread():
    # exhaustive over every line spread of PG(3,2) and PG(3,3) the
    # search engine can find; the q=3 case (8424 spreads) is the
    # heaviest test of the suite
    from qgeom.search import enumerate_pg_line_spreads
    for q in (2, 3):
        spec = field_new(q)
        form = dot_form(4, q)
        lines = enumerate_subspaces(4, 2, spec)
        cert = enumerate_pg_line_spreads(4, spec)
        for sol in cert.solutions:
            blocks = block_set([lines[j] for j in sol], v=4, q=q, k=2)
            once, _ = dual_design(blocks, form)
            twice, _ = dual_design(once, form)
            assert twice.blocks == blocks.blocks


@pytest.mark.parametrize("q", [2, 3])
def test_dual_fano_parameters(q):
    params = DesignParams(2, 7, 3, 1, q)
    expected_lam = Fraction(gaussian_binomial(5, 3, q), gaussian_binomial(5, 1, q))
    assert expected_lam.denominator == 1
    dp = dual_params(params)
    assert dp == DesignParams(2, 7, 4, int(expected_lam), q)


def test_dual_params_refuse_a_fractional_dual_lambda():
    # lambda_{0,1} of 1-(5,2,1)_2 is [4,2]_2 / [4,1]_2 = 35/15
    assert lambda_ij(DesignParams(1, 5, 2, 1, 2), 0, 1) == Fraction(7, 3)
    with pytest.raises(ValueError, match="^dual lambda 7/3 is not integral$"):
        dual_params(DesignParams(1, 5, 2, 1, 2))


def test_derived_design_of_spread_is_single_block():
    spread = desarguesian_spread(4, 2, F2)
    for P in enumerate_subspaces(4, 1, F2):
        der = derived_design(spread, P)
        assert len(der) == 1
        assert der.k == 1 and der.v == 3


def test_derived_design_point_on_no_block_is_empty():
    one_line = block_set([desarguesian_spread(4, 2, F2).sorted_blocks()[0]])
    uncovered = next(P for P in enumerate_subspaces(4, 1, F2)
                     if not contains(one_line.sorted_blocks()[0], P))
    assert len(derived_design(one_line, uncovered)) == 0


def test_derived_design_of_cone_recovers_spread_parameters():
    # cone over the Desarguesian line spread of PG(3,q): the q^2+1
    # lifted planes through the apex derive back to a line spread
    for spec in (F2, F3):
        spread = desarguesian_spread(4, 2, spec)
        lifted, apex = cone_over(spread)
        der = derived_design(lifted, apex)
        assert is_design(der, DesignParams(1, 4, 2, 1, spec.q)).ok


# ----------------------------------------------------------------------
# Spreads
# ----------------------------------------------------------------------

@pytest.mark.parametrize("v,k,q,count", [(4, 2, 2, 5), (6, 2, 2, 21),
                                         (4, 2, 3, 10), (6, 3, 2, 9)])
def test_desarguesian_spread_counts_and_design_property(v, k, q, count):
    spec = field_new(q)
    blocks = desarguesian_spread(v, k, spec)
    assert len(blocks) == count == q_number(v, q) // q_number(k, q)
    assert is_design(blocks, DesignParams(1, v, k, 1, q)).ok


# lattice's Desarguesian list in bench/workloads.py, plus one k = 6 tower
_SPREAD_PARAMS = [(4, 2, 2), (4, 2, 3), (4, 2, 4), (4, 2, 5), (6, 2, 2), (6, 3, 2),
                  (6, 2, 3), (12, 6, 2)]


def _assert_canonical_blocks(blocks):
    for B in blocks.blocks:
        assert B.basis == rref(B.basis, B.q)
        assert Subspace(B.v, B.k, B.q, B.basis) == B  # the validating constructor


@pytest.mark.parametrize("v,k,q", _SPREAD_PARAMS)
def test_desarguesian_spread_blocks_are_canonical(v, k, q):
    _assert_canonical_blocks(desarguesian_spread(v, k, field_new(q)))


@pytest.mark.parametrize("v,k,q", [p for p in _SPREAD_PARAMS if p[2] <= 4])
def test_cone_over_blocks_are_canonical(v, k, q):
    _assert_canonical_blocks(cone_over(desarguesian_spread(v, k, field_new(q)))[0])


def test_desarguesian_spread_divisibility():
    with pytest.raises(NotDivisibleError):
        desarguesian_spread(5, 2, F2)


def test_desarguesian_spread_block_count_is_under_the_enumeration_budget(monkeypatch):
    monkeypatch.setattr(designs, "ENUMERATION_BUDGET", 5)
    assert len(desarguesian_spread(4, 2, F2)) == 5  # exactly at the budget
    monkeypatch.setattr(designs, "ENUMERATION_BUDGET", 4)
    with pytest.raises(BudgetExceededError, match="^5 spread blocks exceed the "
                                                  "enumeration budget 4$"):
        desarguesian_spread(4, 2, F2)


def test_spread_holes():
    spread = desarguesian_spread(6, 2, F2)
    assert spread_holes(spread) == frozenset()
    blocks = spread.sorted_blocks()
    removed = blocks.pop()
    holes = spread_holes(block_set(blocks))
    assert len(holes) == q_number(2, 2)
    assert holes == set(subspace_points(removed))


def test_spread_holes_rejects_overlap():
    lines = enumerate_subspaces(4, 2, F2)
    L = lines[0]
    crossing = next(M for M in lines[1:] if meet(L, M).k == 1)
    with pytest.raises(NotPartialSpreadError) as err:
        spread_holes(block_set([L, crossing]))
    assert err.value.witness is not None


def _overlapping_blocks(case):
    if case == "crossing pair":
        lines = enumerate_subspaces(4, 2, F2)
        return [lines[0], next(M for M in lines[1:] if meet(lines[0], M).k == 1)]
    if case == "spread plus a line":
        spread = desarguesian_spread(4, 2, F3).sorted_blocks()
        extra = next(M for M in enumerate_subspaces(4, 2, F3)
                     if M not in spread and M > spread[3])
        return spread + [extra]
    # a line after the first two spread lines that meets each of them
    chord = subspace_from_rows([(1, 1, 0, 0), (0, 0, 0, 1)], 4, 3)
    return desarguesian_spread(4, 2, F3).sorted_blocks()[:2] + [chord]


@pytest.mark.parametrize("case,witness", [
    ("crossing pair", ((0, 0, 0, 1), 0)),
    ("spread plus a line", ((1, 0, 0, 2), 15)),
    ("chord meeting two blocks", ((0, 0, 0, 1), 0)),
])
def test_spread_holes_overlap_witness_is_pinned(case, witness):
    # the lowest point of the first block (canonical order) that meets an
    # earlier block; values recorded from the per-point implementation
    with pytest.raises(NotPartialSpreadError) as err:
        spread_holes(block_set(_overlapping_blocks(case)))
    P = err.value.witness
    assert (P.basis[0], point_index(P.basis[0], P.v, P.q)) == witness


def _geometric_reference(blocks):
    """The all-pairs scan: every join of two blocks, in Subspace order."""
    DesignParams(t=1, v=blocks.v, k=blocks.k, lam=1, q=blocks.q)
    field_new(blocks.q)
    block_list = blocks.sorted_blocks()
    block_masks = [point_mask(B) for B in block_list]
    if disjoint_union(block_masks) != ((1 << q_number(blocks.v, blocks.q)) - 1, 0):
        raise NotASpreadError("block set is not a spread")
    target = blocks.q ** blocks.k + 1
    for J in sorted({join(B, Bp) for B, Bp in itertools.combinations(block_list, 2)}):
        jm = point_mask(J)
        c = sum(1 for m in block_masks if not m & ~jm)
        if c != target:
            return GeometricReport(ok=False, witness=J, count=c)
    return GeometricReport(ok=True)


_GEOMETRIC_PARAMS = [(4, 2, 2), (6, 2, 2), (4, 2, 3), (6, 3, 2), (4, 2, 4), (4, 2, 5),
                     (6, 2, 3), (8, 2, 2), (6, 3, 3), (8, 4, 2)]


def _sampled_pg52_spreads(seed, count=10):
    cert = enumerate_pg_line_spreads(6, F2, "first", max_solutions=count, seed=seed)
    return [pg_spread_blocks(6, F2, sol) for sol in cert.solutions]


@pytest.mark.parametrize("v,k,q", _GEOMETRIC_PARAMS)
def test_desarguesian_spreads_are_geometric(v, k, q):
    spread = desarguesian_spread(v, k, field_new(q))
    assert is_geometric_spread(spread) == _geometric_reference(spread) == GeometricReport(ok=True)


def test_geometric_check_requires_a_spread():
    with pytest.raises(NotASpreadError):
        is_geometric_spread(block_set(enumerate_subspaces(4, 2, F2)[:4]))


@pytest.mark.parametrize("v,k", [(4, 5), (4, -1), (0, 2), (-2, 2)])
def test_block_set_dimension_must_fit_the_space(v, k):
    with pytest.raises(ValueError, match=f"need 0 <= k <= v, got k={k} in v={v}"):
        BlockSet(v=v, q=2, k=k, blocks=frozenset())


_RAW_Q_ENTRIES = {
    "Subspace": lambda q: Subspace(v=2, k=1, q=q, basis=((1, 0),)),
    "BlockSet": lambda q: BlockSet(v=4, q=q, k=2, blocks=frozenset()),
    "full_space": lambda q: full_space(3, q),
    "dot_form": lambda q: dot_form(3, q),
    "symplectic_form": symplectic_form,
    "point_at": lambda q: point_at(0, 3, q),
    "blockset_from_json": lambda q: blockset_from_json({"v": 4, "q": q, "k": 2, "blocks": []}),
}


@pytest.mark.parametrize("q,error", [(6, NotAPrimePowerError), (17, OutOfRangeError)])
@pytest.mark.parametrize("entry", sorted(_RAW_Q_ENTRIES))
def test_every_entry_taking_a_raw_q_refuses_one_that_is_no_field_order(entry, q, error):
    with pytest.raises(error) as err:
        _RAW_Q_ENTRIES[entry](q)
    assert type(err.value) is error


def _malformed_block_set(case):
    if case == "k = v":
        return BlockSet(v=4, q=2, k=4, blocks=frozenset({full_space(4, 2)}))
    if case == "k = 0":
        return BlockSet(v=4, q=2, k=0, blocks=frozenset())
    if case == "q = 6":
        return BlockSet(v=4, q=6, k=2, blocks=frozenset())
    if case == "empty, q = 17":
        return BlockSet(v=4, q=17, k=2, blocks=frozenset())
    if case == "empty":
        return BlockSet(v=4, q=2, k=2, blocks=frozenset())
    if case == "overlapping":
        return block_set(_overlapping_blocks("crossing pair"))
    if case == "five lines, two meeting":  # 5 x 3 points: only the union can refuse it
        return block_set(enumerate_subspaces(4, 2, F2)[:5])
    return block_set(desarguesian_spread(4, 2, F3).sorted_blocks()[1:])  # one block short


@pytest.mark.parametrize("case,error", [
    ("k = v", ValueError), ("k = 0", ValueError), ("q = 6", NotAPrimePowerError),
    ("empty, q = 17", OutOfRangeError),
    ("empty", NotASpreadError), ("overlapping", NotASpreadError),
    ("five lines, two meeting", NotASpreadError), ("Desarguesian minus a block", NotASpreadError),
])
def test_geometric_check_of_malformed_block_sets(case, error):
    with pytest.raises(error) as err:
        is_geometric_spread(_malformed_block_set(case))
    assert type(err.value) is error


def test_geometric_check_refuses_a_huge_q_before_factoring_it(monkeypatch):
    def no_factoring(q):
        raise AssertionError(f"factored q={q}")

    monkeypatch.setattr(designs, "prime_power_decomposition", no_factoring)
    monkeypatch.setattr(gf, "prime_power_decomposition", no_factoring)
    with pytest.raises(OutOfRangeError, match="^q=2305843009213693951 exceeds "):
        is_geometric_spread(BlockSet(v=4, q=2 ** 61 - 1, k=2, blocks=frozenset()))


def test_nongeometric_witness_from_sampled_spread():
    # a sampled non-Desarguesian line spread of PG(5,2); the witness is
    # a solid holding exactly 2 of its lines
    from qgeom.search import enumerate_pg_line_spreads, pg_spread_blocks
    cert = enumerate_pg_line_spreads(6, F2, "first", max_solutions=5, seed=7)
    reports = [is_geometric_spread(pg_spread_blocks(6, F2, sol))
               for sol in cert.solutions]
    bad = [r for r in reports if not r.ok]
    assert bad, "sampling found only geometric spreads"
    assert all(r.witness.k == 4 and r.count not in (0, 1, 5) for r in bad)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_geometric_walk_agrees_with_the_all_pairs_scan_on_sampled_spreads(seed):
    spreads = _sampled_pg52_spreads(seed)
    assert len(spreads) == 10
    for spread in spreads:
        assert is_geometric_spread(spread) == _geometric_reference(spread)


def test_geometric_walk_agrees_with_the_all_pairs_scan_on_derived_cone_designs(
        switched_spread):
    spreads = [desarguesian_spread(4, 2, field_new(q)) for q in (2, 3, 4)]
    spreads += [desarguesian_spread(6, 2, F2), switched_spread] + _sampled_pg52_spreads(7, 3)
    verdicts = []
    for spread in spreads:
        lifted, apex = cone_over(spread)
        der = derived_design(lifted, apex)
        rep = is_geometric_spread(der)
        assert rep == _geometric_reference(der)
        assert is_alpha_point(lifted, apex) is rep.ok
        verdicts.append(rep.ok)
    assert verdicts[:4] == [True] * 4 and not all(verdicts[4:])


def test_switched_spread_witness_is_pinned(switched_spread):
    rep = is_geometric_spread(switched_spread)
    assert rep == _geometric_reference(switched_spread)
    assert not rep.ok and rep.count == 2
    assert ["".join(map(str, row)) for row in rep.witness.basis] == [
        "100000", "010000", "001001", "000110"]


def _distinct_pair_joins(blocks):
    return len({join(B, Bp) for B, Bp in itertools.combinations(blocks.sorted_blocks(), 2)})


def _count_joins(monkeypatch):
    calls = []
    real = designs.join

    def counting_join(U, W):
        calls.append(None)
        return real(U, W)

    monkeypatch.setattr(designs, "join", counting_join)
    return calls


@pytest.mark.parametrize("v,k,q,joins", [
    (4, 2, 5, 1), (6, 2, 2, 21), (6, 2, 3, 91), (8, 2, 2, 357),
    # two non-geometric line spreads of PG(5,2): bad joins are built once too
    pytest.param("sampled", 2, 2, 194, id="sampled"),
    pytest.param("switched", 2, 2, 69, id="switched")])
def test_geometric_walk_joins_each_distinct_2k_space_once(v, k, q, joins, monkeypatch,
                                                          switched_spread):
    if v == "sampled":
        spread = _sampled_pg52_spreads(1, 1)[0]
    elif v == "switched":
        spread = switched_spread
    else:
        spread = desarguesian_spread(v, k, field_new(q))
    assert _distinct_pair_joins(spread) == joins  # out of len(spread) choose 2 pairs
    calls = _count_joins(monkeypatch)
    assert is_geometric_spread(spread).ok is (type(v) is int)
    assert len(calls) == joins


# ----------------------------------------------------------------------
# Alpha points
# ----------------------------------------------------------------------

def test_alpha_point_at_cone_apex_over_geometric_spread():
    lifted, apex = cone_over(desarguesian_spread(6, 2, F2))
    assert is_alpha_point(lifted, apex)


def test_alpha_point_false_over_nongeometric_spread():
    from qgeom.search import enumerate_pg_line_spreads, pg_spread_blocks
    cert = enumerate_pg_line_spreads(6, F2, "first", max_solutions=5, seed=7)
    spread = next(pg_spread_blocks(6, F2, sol) for sol in cert.solutions
                  if not is_geometric_spread(pg_spread_blocks(6, F2, sol)).ok)
    lifted, apex = cone_over(spread)
    assert is_alpha_point(lifted, apex) is False


def test_alpha_point_error_paths():
    lifted, apex = cone_over(desarguesian_spread(4, 2, F2))
    # a non-apex point lies on a single block, whose quotient is far from
    # a spread of the 4-dimensional quotient space
    off_apex = next(P for P in enumerate_subspaces(5, 1, F2) if P != apex)
    with pytest.raises(DerivedNotASpreadError):
        is_alpha_point(lifted, off_apex)
    # a point on no block at all
    partial = block_set(lifted.sorted_blocks()[:2], v=5, q=2, k=3)
    uncovered = next(P for P in enumerate_subspaces(5, 1, F2)
                     if not any(contains(B, P) for B in partial.blocks))
    with pytest.raises(DerivedNotASpreadError):
        is_alpha_point(partial, uncovered)


def test_point_of_another_projective_space_is_refused():
    spread = desarguesian_spread(4, 2, F2)
    foreign = [next(P for P in enumerate_subspaces(5, 1, F2) if P.basis[0] == (0, 0, 1, 0, 0)),
               enumerate_subspaces(3, 1, F2)[-1],
               enumerate_subspaces(4, 1, F3)[7]]
    assert foreign[2].basis[0] == (0, 1, 1, 0)
    for P in foreign:
        # in range, so only the ambient space gives it away
        assert point_index(P.basis[0], P.v, P.q) < q_number(4, 2)
        with pytest.raises(AmbientMismatchError):
            derived_design(spread, P)
        with pytest.raises(AmbientMismatchError):
            is_alpha_point(spread, P)


# ----------------------------------------------------------------------
# Focal points and solids
# ----------------------------------------------------------------------

def _beta_flat_model(q):
    """q^2+1 planes of F_q^5 through one point, meeting pairwise there."""
    spread = desarguesian_spread(4, 2, field_new(q))
    return cone_over(spread)


@pytest.mark.parametrize("q", [2, 3])
def test_beta_flat_focus_of_the_cone_model(q):
    blocks, apex = _beta_flat_model(q)
    rep = beta_flat_focus(blocks, full_space(5, q))
    assert rep.block_count == q * q + 1
    assert rep.focal == apex


def test_beta_flat_focus_rejects_a_flat_of_another_ambient():
    blocks, _ = _beta_flat_model(2)
    with pytest.raises(AmbientMismatchError):
        beta_flat_focus(blocks, full_space(5, 3))
    hyperplane = subspace_from_rows([tuple(int(i == j) for j in range(6)) for i in range(5)],
                                    6, 2)
    with pytest.raises(AmbientMismatchError):
        beta_flat_focus(blocks, hyperplane)


def test_beta_flat_single_block_reports_no_focus():
    blocks, _ = _beta_flat_model(2)
    single = block_set([blocks.sorted_blocks()[0]], v=5, q=2, k=3)
    rep = beta_flat_focus(single, full_space(5, 2))
    assert rep.block_count == 1 and rep.focal is None


def test_beta_flat_without_common_point_reports_no_focus():
    # three planes of F_2^5 meeting pairwise in three different points
    A = subspace_from_rows([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)], 5, 2)
    B = subspace_from_rows([(1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)], 5, 2)
    C = subspace_from_rows([(0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 0, 1)], 5, 2)
    assert meet(A, B).k == meet(A, C).k == meet(B, C).k == 1
    rep = beta_flat_focus(block_set([A, B, C]), full_space(5, 2))
    assert rep.block_count == 3 and rep.focal is None


@pytest.mark.parametrize("q", [2, 3])
def test_classify_solids_of_the_cone_model(q):
    blocks, apex = _beta_flat_model(q)
    cls = classify_solids(blocks, full_space(5, q))
    assert len(cls.rich) == q**3 + q**2 + q + 1
    assert len(cls.poor) == q**4
    assert all(contains(S, apex) for S in cls.rich)
    assert all(not contains(S, apex) for S in cls.poor)


def test_classify_solids_single_solid():
    blocks, _ = _beta_flat_model(2)
    B = blocks.sorted_blocks()[0]
    solid = next(S for S in enumerate_subspaces(5, 4, F2) if contains(S, B))
    cls = classify_solids(blocks, solid)
    assert cls.rich == frozenset({solid}) and cls.poor == frozenset()


def test_classify_solids_empty_blocks_all_poor():
    empty = block_set([], v=5, q=2, k=3)
    cls = classify_solids(empty, full_space(5, 2))
    assert not cls.rich
    assert len(cls.poor) == gaussian_binomial(5, 4, 2)


def test_focus_and_solids_refuse_arguments_of_the_wrong_dimension():
    blocks, _ = _beta_flat_model(2)
    with pytest.raises(ValueError, match="^focal-point analysis expects a 5-subspace$"):
        beta_flat_focus(blocks, enumerate_subspaces(5, 4, F2)[0])
    with pytest.raises(ValueError, match=r"^solid classification expects plane blocks \(k=3\)$"):
        classify_solids(desarguesian_spread(4, 2, F2), full_space(4, 2))
    with pytest.raises(ValueError, match="^need a subspace of dimension >= 4$"):
        classify_solids(blocks, blocks.sorted_blocks()[0])


def test_classify_solids_rejects_two_blocks_in_a_solid():
    planes = enumerate_subspaces(4, 3, F2)
    pair = block_set([planes[0], planes[1]])
    with pytest.raises(NotSteinerLikeError) as err:
        classify_solids(pair, full_space(4, 2))
    assert err.value.witness == full_space(4, 2)


def _classify_reference(blocks, within):
    """The per-pair classification: one ``contains`` per solid and block."""
    block_list = blocks.sorted_blocks()
    rich, poor = [], []
    for S in subspaces_within(within, 4):
        c = sum(1 for B in block_list if contains(S, B))
        if c >= 2:
            raise NotSteinerLikeError(f"solid contains {c} blocks", witness=S)
        (rich if c == 1 else poor).append(S)
    return SolidClassification(rich=frozenset(rich), poor=frozenset(poor))


def _classification_outcome(classify, blocks, within):
    try:
        return classify(blocks, within)
    except NotSteinerLikeError as err:
        return str(err), err.witness


_HYPERPLANE_62 = subspace_from_rows([tuple(int(i == j) for j in range(6)) for i in range(5)],
                                    6, 2)


def _classification_case(case):
    if case.startswith("cone"):
        q = int(case[-1])
        return _beta_flat_model(q)[0], full_space(5, q)
    if case == "single solid":
        blocks, _ = _beta_flat_model(2)
        B = blocks.sorted_blocks()[0]
        return blocks, next(S for S in enumerate_subspaces(5, 4, F2) if contains(S, B))
    if case == "5-space, plane spread":
        return desarguesian_spread(6, 3, F2), _HYPERPLANE_62
    if case == "5-space, two planes in a solid":
        return block_set(enumerate_subspaces(6, 3, F2)[100:130]), _HYPERPLANE_62
    return block_set(enumerate_subspaces(4, 3, F2)[:2]), full_space(4, 2)


@pytest.mark.parametrize("case,sizes", [
    ("cone q=2", (15, 16)), ("cone q=3", (40, 81)), ("cone q=4", (85, 256)),
    ("single solid", (1, 0)), ("5-space, plane spread", (3, 28)),
    ("5-space, two planes in a solid", None), ("two planes of PG(3,2)", None),
])
def test_classify_solids_agrees_with_the_per_pair_reference(case, sizes):
    blocks, within = _classification_case(case)
    expected = _classification_outcome(_classify_reference, blocks, within)
    assert _classification_outcome(classify_solids, blocks, within) == expected
    if sizes is None:  # NotSteinerLikeError: message and witness
        assert isinstance(expected, tuple)
    else:
        assert (len(expected.rich), len(expected.poor)) == sizes


@pytest.mark.parametrize("q", [2, 3, 4])
def test_classify_solids_makes_no_contains_call(q, monkeypatch):
    def no_contains(outer, inner):
        raise AssertionError("classify_solids called contains")

    blocks, within = _classification_case(f"cone q={q}")
    monkeypatch.setattr(designs, "contains", no_contains)
    assert len(classify_solids(blocks, within).rich) == q**3 + q**2 + q + 1


@pytest.mark.parametrize("ambient", [(6, 2), (5, 3)])
def test_classify_solids_rejects_blocks_of_another_ambient(ambient):
    blocks, _ = _beta_flat_model(2)
    with pytest.raises(AmbientMismatchError):
        classify_solids(blocks, full_space(*ambient))


def test_classify_solids_checks_the_ambient_of_an_empty_block_set():
    # with no block to compare, only the block set's own (v, q) shows the mismatch
    empty = block_set([], v=4, q=2, k=3)
    with pytest.raises(AmbientMismatchError):
        classify_solids(empty, full_space(5, 2))
    with pytest.raises(AmbientMismatchError):
        beta_flat_focus(empty, full_space(5, 2))


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_blockset_json_round_trip():
    blocks = desarguesian_spread(6, 2, F2)
    again = blockset_from_json(blockset_to_json(blocks))
    assert again == blocks


def test_block_set_validation():
    with pytest.raises(ValueError):
        block_set([], v=None, q=None, k=None)
    with pytest.raises(ValueError):
        BlockSet(v=4, q=2, k=2,
                 blocks=frozenset(enumerate_subspaces(4, 3, F2)[:1]))


@pytest.mark.parametrize("v,k,q", [(4, 2, 2), (4, 2, 3), (5, 3, 2), (6, 2, 2)])
def test_sorted_blocks_is_subspace_order(v, k, q):
    spec = field_new(q)
    every = block_set(enumerate_subspaces(v, k, spec), v=v, q=q, k=k)
    assert every.sorted_blocks() == sorted(every.blocks) == enumerate_subspaces(v, k, spec)
    if v % k == 0:
        spread = desarguesian_spread(v, k, spec)
        assert spread.sorted_blocks() == sorted(spread.blocks)
