"""Search engine tests.

The counting claims are pinned against independent oracles: plain
subset filtering over itertools.combinations for the small GQ cases,
and a naive recursive backtracker (no bitsets, no heuristics shared
with the solver) for the PG(3,2) spread count.  The search tree itself
(node counts, solution order) is locked by pinned digests and by a
set-based Algorithm X with the same column and row rules.
"""

import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeom import search
from qgeom.designs import is_geometric_spread, spread_holes
from qgeom.errors import BudgetExceededError, PayloadError
from qgeom.gf import field_new
from qgeom.gq import build_q4, build_w, incidence_from_lines, is_gq_ovoid, is_gq_spread
from qgeom.projspace import (
    bit_ids,
    enumerate_subspaces,
    mask_of,
    point_index,
    point_mask,
    q_number,
    subspace_points,
)
from qgeom.search import (
    ExactCoverInstance,
    SearchCertificate,
    _Run,
    certificate_from_json,
    certificate_to_json,
    enumerate_gq_ovoids,
    enumerate_gq_spreads,
    enumerate_pg_line_spreads,
    exact_cover_instance,
    gq_ovoid_instance,
    gq_spread_instance,
    instance_digest,
    pairwise_intersection_matrix,
    partition_into_ovoids,
    partition_into_spreads,
    pg_line_spread_instance,
    pg_spread_blocks,
    solve_exact_cover,
)

F2 = field_new(2)
F3 = field_new(3)


def grid3x3():
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return incidence_from_lines(9, rows + cols)


# ----------------------------------------------------------------------
# Core solver
# ----------------------------------------------------------------------

def test_hand_instance_two_solutions():
    inst = exact_cover_instance(3, [{0, 1}, {2}, {0}, {1, 2}])
    cert = solve_exact_cover(inst)
    assert set(cert.solutions) == {(0, 1), (2, 3)}
    assert cert.completed and cert.solution_count == 2
    assert cert.mode == "all"


def test_empty_option_list_certifies_nonexistence():
    cert = solve_exact_cover(ExactCoverInstance(1, ()))
    assert cert.mode == "nonexistence"
    assert cert.nonexistence_certified


def test_empty_universe_has_the_empty_solution():
    cert = solve_exact_cover(ExactCoverInstance(0, ()))
    assert cert.solutions == ((),)
    count = solve_exact_cover(ExactCoverInstance(0, ()), "count")
    assert (count.solution_count, count.solutions, count.nodes_visited) == (1, (), 0)
    assert certificate_from_json(certificate_to_json(count)) == count


def test_instance_validation():
    with pytest.raises(ValueError):
        ExactCoverInstance(3, (0,))  # empty option
    from qgeom.errors import UnknownIdError
    with pytest.raises(UnknownIdError):
        ExactCoverInstance(2, (0b100,))
    with pytest.raises(ValueError, match="^names must match options one to one$"):
        ExactCoverInstance(2, (0b01, 0b10), names=("only",))


@pytest.mark.parametrize("n,rule", [(-1, "at least 0"), (2.0, "an integer"),
                                    (True, "an integer")])
def test_instance_refuses_an_element_count_that_is_no_count(n, rule):
    with pytest.raises(ValueError, match=f"^n_elements must be {rule}, got {n!r}$"):
        ExactCoverInstance(n_elements=n, options=())


def test_mode_first_and_count():
    inst = exact_cover_instance(3, [{0, 1}, {2}, {0}, {1, 2}])
    first = solve_exact_cover(inst, "first")
    assert first.solution_count == 1 and not first.completed
    count = solve_exact_cover(inst, "count")
    assert count.solution_count == 2 and count.solutions == ()
    with pytest.raises(ValueError):
        solve_exact_cover(inst, "everything")


@pytest.mark.parametrize("key,value,least", [("max_solutions", 0, 1), ("max_solutions", -1, 1),
                                             ("node_limit", -5, 0), ("max_solutions", 2.5, 1),
                                             ("node_limit", True, 0), ("seed", 1.5, None),
                                             ("seed", True, None), ("seed", "x", None),
                                             ("option_order", [True, 0, 2, 3], None),
                                             ("option_order", [0.0, 1, 2, 3], None)])
@pytest.mark.parametrize("mode", ["all", "first", "count"])
def test_out_of_range_budgets_are_refused(mode, key, value, least, monkeypatch):
    monkeypatch.setattr(search, "_Run", None)  # refused before the search is set up
    inst = exact_cover_instance(3, [{0, 1}, {2}, {0}, {1, 2}])
    # an option_order is refused by its first entry that is not an int
    name, bad = ("option_order entry", value[0]) if key == "option_order" else (key, value)
    rule = f"at least {least}" if type(bad) is int else "an integer"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {bad!r}$"):
        solve_exact_cover(inst, mode, **{key: value})


@pytest.mark.parametrize("seed", [None, 0, 5, -3, 2 ** 70, 1.5, True, "x"])
def test_every_accepted_seed_decodes_again(seed):
    inst = exact_cover_instance(3, [{0, 1}, {2}, {0}, {1, 2}])
    try:
        cert = solve_exact_cover(inst, seed=seed)
    except ValueError:
        return
    assert certificate_from_json(json.loads(json.dumps(certificate_to_json(cert)))) == cert


@pytest.mark.parametrize("key,value", [("max_solutions", 0), ("node_limit", -1)])
def test_partitions_refuse_out_of_range_budgets_before_either_level(key, value, monkeypatch):
    def first_level(*args, **kwargs):
        raise AssertionError("the first level ran")

    monkeypatch.setattr(search, "enumerate_gq_ovoids", first_level)
    with pytest.raises(ValueError, match=f"^{key} must be at least"):
        partition_into_ovoids(build_q4(2), **{key: value})


def test_option_order_changes_discovery_not_the_set():
    inst = exact_cover_instance(3, [{0, 1}, {2}, {0}, {1, 2}])
    plain = solve_exact_cover(inst)
    shuffled = solve_exact_cover(inst, seed=3)
    assert set(plain.solutions) == set(shuffled.solutions)
    assert shuffled.seed == 3
    assert sorted(shuffled.option_order) == [0, 1, 2, 3]


def test_digest_is_content_addressed():
    a = exact_cover_instance(3, [{0, 1}, {2}])
    b = exact_cover_instance(3, [{1, 0}, {2}])
    c = exact_cover_instance(3, [{0, 2}, {1}])
    assert instance_digest(a) == instance_digest(b)
    assert instance_digest(a) != instance_digest(c)


def test_node_budget_raises_with_partial_certificate():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_pg_line_spreads(4, F2, node_limit=10)
    cert = err.value.certificate
    assert cert is not None
    assert not cert.completed
    assert cert.nodes_visited == 11


@pytest.mark.parametrize("partition,enumerate_first,level", [
    (partition_into_ovoids, enumerate_gq_ovoids, "ovoid"),
    (partition_into_spreads, enumerate_gq_spreads, "spread")])
def test_partition_node_budget_applies_to_each_level(partition, enumerate_first, level):
    q4 = build_q4(2)
    first = enumerate_first(q4).nodes_visited
    with pytest.raises(BudgetExceededError) as err:
        partition(q4, node_limit=first - 1)
    # the first level's partial certificate is of another instance
    assert err.value.certificate is None
    assert str(err.value).startswith(f"first level ({level} enumeration): ")
    cert = partition(q4, node_limit=first)
    assert cert.completed and cert.nodes_visited <= first


# ----------------------------------------------------------------------
# The search tree is locked
# ----------------------------------------------------------------------

def _pin(cert):
    blob = json.dumps([list(s) for s in cert.solutions]).encode()
    return f"{cert.nodes_visited}/{cert.solution_count}/{hashlib.sha256(blob).hexdigest()[:16]}"


TREE_PINS = [  # nodes/solutions/digest with the default order, then with seed 0
    ("ovoids", 3, "280/36/d68f59e303bc6ca1", "280/36/16aa3ddd657c1334"),
    ("spreads", 3, "280/36/47e1ec0d2b281685", "280/36/4cc3ffe03631bf6c"),
    ("ovoids", 4, "1825/120/0c26f1691a51282b", "1825/120/d31d99f4f772c943"),
    ("spreads", 4, "1825/120/435bbcd4f88ef9ed", "1825/120/3b752d173e2a5201"),
    ("ovoids", 5, "15676/300/e1350219484dc818", "15676/300/7158ae82a6362fc4"),
    ("spreads", 5, "15311/300/be950a6fdfa87a8e", "15311/300/2ecc9a3b3a6bfd3b"),
]


@pytest.mark.parametrize("what,q,unseeded,seeded", TREE_PINS)
def test_gq_search_trees_are_pinned(what, q, unseeded, seeded):
    instance = (gq_ovoid_instance(build_q4(q)) if what == "ovoids"
                else gq_spread_instance(build_w(q)))
    assert _pin(solve_exact_cover(instance, "all")) == unseeded
    assert _pin(solve_exact_cover(instance, "all", seed=0)) == seeded


PARTITION_DIGESTS = {  # second-level instance digests: Q(4,q) ovoids, W(q) spreads
    2: ("0577b015c9975f58", "2d58b15c17b57f5a"),
    3: ("c11fa0d93f103791", "446488c72047d708"),
    4: ("28c774f6defe484e", "ff00537b5290c447"),
    5: ("88ca62fa3ecfe757", "23733e8e3a4d3d2e"),
}


@pytest.mark.parametrize("q,nodes", [(2, 2), (3, 9), (4, 24), (5, 50)])
def test_partition_trees_are_pinned(q, nodes):
    ovoids = partition_into_ovoids(build_q4(q), seed=0)
    spreads = partition_into_spreads(build_w(q), seed=0)
    for cert, digest in zip((ovoids, spreads), PARTITION_DIGESTS[q]):
        assert cert.nonexistence_certified and cert.nodes_visited == nodes
        assert cert.digest[:16] == digest


@pytest.mark.parametrize("kwargs", [{}, {"seed": 0}, {"seed": 5},
                                    {"node_limit": 0}, {"max_solutions": 3}])
@pytest.mark.parametrize("mode", ["all", "first", "count"])
def test_no_options_certify_nonexistence_without_a_node(mode, kwargs):
    instance = ExactCoverInstance(n_elements=40, options=())
    assert solve_exact_cover(instance, mode, **kwargs) == SearchCertificate(
        digest=instance_digest(instance), mode="nonexistence", solutions=(),
        nodes_visited=0, option_order=(), completed=True, solution_count=0,
        seed=kwargs.get("seed"))


def test_w3_ovoid_partition_has_no_first_level_to_search():
    w3 = build_w(3)  # W(q) has no ovoid for odd q
    cert = partition_into_ovoids(w3, seed=0)
    assert enumerate_gq_ovoids(w3).nonexistence_certified
    assert cert.nonexistence_certified and cert.nodes_visited == 0
    assert cert.option_order == () and cert.solutions == ()
    assert cert.digest == instance_digest(ExactCoverInstance(w3.n_points, (), names=()))


def test_pg_spread_trees_are_pinned():
    pg33 = pg_line_spread_instance(4, F3)
    assert _pin(solve_exact_cover(pg33, "all")) == "47866/8424/62a9e38dfeccec6a"
    assert _pin(solve_exact_cover(pg33, "all", seed=0)) == "47866/8424/5f7dccb0a2488458"
    pg32 = pg_line_spread_instance(4, F2)
    assert _pin(solve_exact_cover(pg32, "all", seed=0)) == "203/56/789479ff4819f05f"
    pg52 = pg_line_spread_instance(6, F2)
    assert _pin(solve_exact_cover(pg52, "first", max_solutions=10, seed=7)) == \
        "67/10/d2ec5c3a54cfb21b"


@pytest.mark.parametrize("instance,nodes", [
    (gq_ovoid_instance(build_q4(3)), 280),
    (pg_line_spread_instance(4, F2), 203),
], ids=["Q(4,3) ovoids", "PG(3,2) spreads"])
def test_a_recorded_option_order_replays_the_seeded_tree(instance, nodes):
    seeded = solve_exact_cover(instance, "all", seed=0)
    replay = solve_exact_cover(instance, "all", option_order=seeded.option_order)
    assert seeded.nodes_visited == replay.nodes_visited == nodes
    assert replay.solution_count == seeded.solution_count
    assert replay.solutions == seeded.solutions
    assert replay.option_order == seeded.option_order != tuple(range(len(instance.options)))
    assert replay.seed is None and replay.digest == seeded.digest
    with pytest.raises(ValueError, match="^give either option_order or seed, not both$"):
        solve_exact_cover(instance, option_order=seeded.option_order, seed=0)
    for bad in (seeded.option_order[1:], seeded.option_order[:-1] + seeded.option_order[:1]):
        with pytest.raises(ValueError, match="^option_order must be a permutation "):
            solve_exact_cover(instance, option_order=bad)


@pytest.fixture(scope="module")
def pg33_seeded():
    cert = solve_exact_cover(pg_line_spread_instance(4, F3), "all", seed=0)
    assert _pin(cert) == "47866/8424/5f7dccb0a2488458"
    return cert


def test_pg33_budget_abort_keeps_a_prefix_of_the_solutions(pg33_seeded):
    with pytest.raises(BudgetExceededError) as err:
        solve_exact_cover(pg_line_spread_instance(4, F3), "all", seed=0, node_limit=1000)
    cert = err.value.certificate
    assert cert.nodes_visited == 1001 and not cert.completed
    assert 0 < cert.solution_count == len(cert.solutions) < 8424
    assert cert.solutions == pg33_seeded.solutions[:cert.solution_count]


def test_pg33_solution_cap_stops_after_the_first_solutions(pg33_seeded):
    cert = solve_exact_cover(pg_line_spread_instance(4, F3), "all", seed=0,
                             max_solutions=100)
    assert cert.solutions == pg33_seeded.solutions[:100]
    assert cert.solution_count == 100 and not cert.completed


def test_pg33_count_mode_walks_the_same_tree():
    cert = solve_exact_cover(pg_line_spread_instance(4, F3), "count", seed=0)
    assert (cert.nodes_visited, cert.solution_count, cert.solutions) == (47866, 8424, ())
    assert cert.completed


def test_the_solver_takes_no_worker_count():
    # one process walks the whole tree, so node_limit bounds all of it
    with pytest.raises(TypeError, match="unexpected keyword argument 'workers'"):
        solve_exact_cover(gq_ovoid_instance(build_q4(2)), "all", workers=2)


def test_a_tree_deeper_than_the_recursion_limit():
    instance = exact_cover_instance(5000, [[i] for i in range(5000)])
    cert = solve_exact_cover(instance, "all")
    assert cert.solutions == (tuple(range(5000)),) and cert.nodes_visited == 5000
    assert cert.completed and cert.solution_count == 1


class _Halt(Exception):
    pass


def _algorithm_x(instance, order, max_solutions=None, node_limit=None):
    """Textbook Algorithm X on Python sets: the column with fewest live
    options (lowest element on ties), its options in the given order.
    Returns (solutions, nodes, halted)."""
    rows = [set(bit_ids(instance.options[opt])) for opt in order]
    found, nodes = [], [0]

    def search(uncovered, live, chosen):
        if not uncovered:
            found.append(tuple(sorted(order[p] for p in chosen)))
            if max_solutions is not None and len(found) >= max_solutions:
                raise _Halt
            return
        col = min(sorted(uncovered), key=lambda e: sum(e in rows[p] for p in live))
        for p in [p for p in live if col in rows[p]]:
            nodes[0] += 1
            if node_limit is not None and nodes[0] > node_limit:
                raise _Halt
            search(uncovered - rows[p], [r for r in live if not rows[r] & rows[p]],
                   chosen + [p])

    try:
        search(set(range(instance.n_elements)), list(range(len(order))), [])
    except _Halt:
        return found, nodes[0], True
    return found, nodes[0], False


@st.composite
def _runs(draw):
    n = draw(st.integers(1, 7))
    options = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=14))
    if draw(st.booleans()):  # a partition plus a few options: long forced tails
        blocks = {}
        for e, b in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
            blocks[b] = blocks.get(b, 0) | 1 << e
        options = draw(st.permutations([*blocks.values(), *options[:3]]))
    mode = draw(st.sampled_from(("all", "first", "count")))
    return (ExactCoverInstance(n, tuple(options)), mode,
            draw(st.none() | st.integers(0, 40)), draw(st.none() | st.integers(1, 4)),
            draw(st.none() | st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_solver_matches_set_based_algorithm_x(run):
    instance, mode, node_limit, max_solutions, seed = run
    try:
        cert = solve_exact_cover(instance, mode, node_limit=node_limit,
                                 max_solutions=max_solutions, seed=seed)
        budget_hit = False
    except BudgetExceededError as exc:
        cert, budget_hit = exc.certificate, True
    cap = 1 if mode == "first" and max_solutions is None else max_solutions
    found, nodes, halted = _algorithm_x(instance, cert.option_order, cap, node_limit)
    assert cert.nodes_visited == nodes
    assert cert.solution_count == len(found)
    assert cert.solutions == (() if mode == "count" else tuple(found))
    assert cert.completed == (not halted)
    assert budget_hit == (node_limit is not None and nodes > node_limit)


def test_pg32_budgets_and_caps_at_every_node_match_algorithm_x():
    # 112 of the 203 nodes lie on forced tails, settled in one step each:
    # put the node budget and the solution cap at every place in the tree
    instance = pg_line_spread_instance(4, F2)
    order = solve_exact_cover(instance, "count", seed=0).option_order
    runs = [(mode, {"node_limit": limit}, _algorithm_x(instance, order, None, limit))
            for limit in range(204) for mode in ("all", "count")]
    runs += [("all", {"max_solutions": cap}, _algorithm_x(instance, order, cap))
             for cap in range(1, 57)]
    for mode, kwargs, (found, nodes, halted) in runs:
        try:
            cert = solve_exact_cover(instance, mode, seed=0, **kwargs)
        except BudgetExceededError as exc:
            cert = exc.certificate
        assert (cert.nodes_visited, cert.solution_count, cert.completed) == \
            (nodes, len(found), not halted), kwargs
        assert cert.solutions == (() if mode == "count" else tuple(found))
        assert certificate_from_json(certificate_to_json(cert)) == cert


@pytest.mark.parametrize("q", [2, 4])
def test_partition_root_children_without_options_match_algorithm_x(q):
    # for even q any two ovoids of Q(4,q) meet, so every root child of the
    # partition search has no active option left and is settled in place
    q4 = build_q4(q)
    ovoids = solve_exact_cover(gq_ovoid_instance(q4), "all").solutions
    instance = exact_cover_instance(q4.n_points, ovoids)
    order = tuple(range(len(ovoids)))
    run = _Run(instance, order)
    assert all(run.active & run.conflict[p] == run.active for p in order)
    cert = solve_exact_cover(instance, "all")
    found, nodes, _ = _algorithm_x(instance, order)
    assert cert.nonexistence_certified and found == [] and cert.nodes_visited == nodes


def test_wide_columns_use_sixteen_bit_sizes():
    # every nonempty subset of 8 elements: element 0 lies in 128 options,
    # one past what an 8-bit size field with its covered tag can hold;
    # four more options on elements 8..12 give the 16-bit walk a try that
    # leaves an open column empty; three on 8..11 give it one that leaves
    # one column empty and the other with one option: a dead end, though no
    # size has a bit of mid set
    bell = tuple(range(1, 256))
    dead_end = tuple(mask_of(s) for s in ({8, 9}, {9, 12}, {8, 9, 12}, {10, 11}))
    no_tail = tuple(mask_of(s) for s in (range(10), {9, 10}, {11}))
    for n, options, count, nodes in ((8, bell, 4140, 8279),  # 4140 = Bell B_8
                                     (13, bell + dead_end, 4140, 8282),
                                     (12, bell + no_tail, 0, 1)):
        instance = ExactCoverInstance(n, options)
        order = tuple(range(len(options)))
        assert _Run(instance, order).nbytes == 2 * n
        cert = solve_exact_cover(instance, "all")
        assert (cert.solution_count, cert.nodes_visited) == (count, nodes)
        found, oracle_nodes, _ = _algorithm_x(instance, order)
        assert cert.solutions == tuple(found) and nodes == oracle_nodes


# ----------------------------------------------------------------------
# Grid ground truth (fully hand-checkable)
# ----------------------------------------------------------------------

def test_grid_spreads_ovoids_partition():
    grid = grid3x3()
    spreads = enumerate_gq_spreads(grid)
    assert spreads.solution_count == 2
    assert set(spreads.solutions) == {(0, 1, 2), (3, 4, 5)}  # rows; columns
    ovoids = enumerate_gq_ovoids(grid)
    assert ovoids.solution_count == 6  # 3x3 permutation matrices
    partition = partition_into_spreads(grid)
    assert partition.solution_count == 1
    assert partition.solutions == ((0, 1),)
    m = pairwise_intersection_matrix(spreads, "spread")
    assert m[0, 1] == 0  # rows and columns are disjoint spreads


def test_non_gq_structure_is_searched_without_warning():
    # PG(3,2) is not a GQ; its line spreads are still exact covers of its points
    lines = [tuple(point_index(p.basis[0], 4, 2) for p in subspace_points(L))
             for L in enumerate_subspaces(4, 2, F2)]
    pg = incidence_from_lines(15, lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = enumerate_gq_spreads(pg)
    assert cert.solution_count == enumerate_pg_line_spreads(4, F2).solution_count == 56


# ----------------------------------------------------------------------
# W(2) / Q4(2) against brute-force subset oracles
# ----------------------------------------------------------------------

def _brute_force_exact_covers(universe_size, option_sets, pick):
    hits = set()
    full = frozenset(range(universe_size))
    for combo in itertools.combinations(range(len(option_sets)), pick):
        union = set()
        total = 0
        for i in combo:
            union |= option_sets[i]
            total += len(option_sets[i])
        if total == universe_size and union == full:
            hits.add(combo)
    return hits


def test_w2_has_six_spreads_by_subset_oracle():
    w2 = build_w(2)
    option_sets = [set(pts) for pts in w2.line_points]
    oracle = _brute_force_exact_covers(15, option_sets, 5)
    assert len(oracle) == 6
    cert = enumerate_gq_spreads(w2)
    assert cert.solution_count == 6
    assert {tuple(sorted(s)) for s in cert.solutions} == oracle
    assert all(is_gq_spread(w2, s) for s in cert.solutions)


def test_q4_2_has_six_ovoids_by_subset_oracle():
    q4 = build_q4(2)
    option_sets = [set(ls) for ls in q4.point_lines]
    oracle = _brute_force_exact_covers(15, option_sets, 5)
    assert len(oracle) == 6
    cert = enumerate_gq_ovoids(q4)
    assert cert.solution_count == 6
    assert {tuple(sorted(s)) for s in cert.solutions} == oracle
    assert all(len(s) == 5 for s in cert.solutions)
    assert all(is_gq_ovoid(q4, s) for s in cert.solutions)


def test_w2_partition_nonexistence_and_matrix_agreement():
    w2 = build_w(2)
    part = partition_into_spreads(w2)
    assert part.nonexistence_certified
    m = pairwise_intersection_matrix(enumerate_gq_spreads(w2), "spread")
    off = m[~np.eye(len(m), dtype=bool)]
    assert (off >= 1).all()  # pairwise intersecting, so no partition


@pytest.mark.parametrize("q", [2, 3])
def test_intersection_matrix_matches_set_intersections(q):
    for cert, kind in ((enumerate_gq_ovoids(build_q4(q), seed=0), "ovoid"),
                       (enumerate_gq_spreads(build_w(q)), "spread")):
        m = pairwise_intersection_matrix(cert, kind)
        sols = [set(s) for s in cert.solutions]
        assert m.dtype == np.int64
        assert m.tolist() == [[len(a & b) for b in sols] for a in sols]
    empty = partition_into_ovoids(build_q4(q))
    assert pairwise_intersection_matrix(empty).shape == (0, 0)
    with pytest.raises(ValueError, match="^kind must be 'ovoid' or 'spread'$"):
        pairwise_intersection_matrix(empty, "line")


def test_q4_2_partition_nonexistence():
    assert partition_into_ovoids(build_q4(2)).nonexistence_certified


def test_q4_2_also_has_six_spreads():
    # self-dual at q = 2, so the spread count matches the ovoid count
    cert = enumerate_gq_spreads(build_q4(2))
    assert cert.solution_count == 6
    assert all(len(s) == 5 for s in cert.solutions)


# ----------------------------------------------------------------------
# PG line spreads
# ----------------------------------------------------------------------

def _naive_spread_count(v, spec):
    """Recursive cover counter: always extend at the lowest uncovered
    point, no link dancing, no column heuristics."""
    masks = [point_mask(L) for L in enumerate_subspaces(v, 2, spec)]
    n = q_number(v, spec.q)
    full = (1 << n) - 1
    by_point = [[m for m in masks if m >> p & 1] for p in range(n)]

    def count(covered):
        if covered == full:
            return 1
        p = next(i for i in range(n) if not covered >> i & 1)
        total = 0
        for m in by_point[p]:
            if not m & covered:
                total += count(covered | m)
        return total

    return count(0)


def test_pg32_spread_count_against_naive_backtracker():
    oracle = _naive_spread_count(4, F2)
    assert oracle == 56
    cert = enumerate_pg_line_spreads(4, F2)
    assert cert.solution_count == 56
    assert cert.completed


@pytest.mark.parametrize("spec,count", [(F2, 56), (F3, 8424)])
def test_every_pg3q_spread_has_no_holes(spec, count):
    cert = enumerate_pg_line_spreads(4, spec)
    assert cert.solution_count == count
    for sol in cert.solutions:
        assert spread_holes(pg_spread_blocks(4, spec, sol)) == frozenset()


def test_pg52_sampling_yields_nongeometric_spread():
    cert = enumerate_pg_line_spreads(6, F2, "first", max_solutions=10,
                                     seed=7, node_limit=10 ** 7)
    assert cert.solution_count == 10
    flags = [is_geometric_spread(pg_spread_blocks(6, F2, s)).ok
             for s in cert.solutions]
    assert not all(flags)


def test_pg_spread_policy_guards():
    with pytest.raises(BudgetExceededError):
        enumerate_pg_line_spreads(6, F3)
    with pytest.raises(BudgetExceededError):
        enumerate_pg_line_spreads(6, F2, "all")
    with pytest.raises(BudgetExceededError):
        enumerate_pg_line_spreads(6, F2, "first")  # needs max_solutions
    with pytest.raises(BudgetExceededError):
        enumerate_pg_line_spreads(8, F2, "first", max_solutions=1)


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = enumerate_gq_spreads(build_w(2))
    again = certificate_from_json(certificate_to_json(cert))
    assert again == cert


@pytest.mark.parametrize("key,value", [
    ("digest", 5), ("digest", "ab" * 31), ("digest", "G" * 64),
    ("mode", "bogus"), ("mode", None),
    ("solutions", [[-1, "x"]]), ("solutions", [[0, 1.0]]), ("solutions", "01"),
    ("nodes", -2), ("nodes", True),
    ("option_order", "ab"), ("option_order", [0, -1]),
    ("completed", "yes"), ("completed", 1),
    ("solution_count", 1.5), ("solution_count", -1),
    ("seed", "0"), ("seed", 0.5),
    ("option_order", [0, 0, 0]), ("option_order", list(range(1, 16))),
    ("solutions", [[99, 100]]), ("solutions", [[0, 0]]), ("solutions", [[15]]),
    ("mode", "nonexistence"), ("mode", "count"),
    ("solution_count", 5), ("solution_count", 7),
])
def test_certificate_fields_are_checked_where_they_enter(key, value):
    obj = certificate_to_json(enumerate_gq_spreads(build_w(2)))
    obj[key] = value
    with pytest.raises(PayloadError, match=f"^certificate {key} "):
        certificate_from_json(obj)


@pytest.mark.parametrize("edits,message", [
    ({"mode": "nonexistence", "solution_count": 0}, "^certificate mode 'nonexistence' stores "),
    ({"solutions": [], "solution_count": 0}, "^certificate mode must be 'nonexistence' "),
    ({"mode": "count", "solutions": [], "solution_count": 0},
     "^certificate mode must be 'nonexistence' "),
    ({"mode": "nonexistence", "solutions": [], "solution_count": 0, "completed": False},
     "^certificate mode must be 'nonexistence' "),
], ids=["nonexistence-listing-solutions", "all-completed-empty", "count-completed-empty",
        "nonexistence-not-completed"])
def test_a_certificate_that_contradicts_itself_is_refused(edits, message):
    obj = certificate_to_json(enumerate_gq_spreads(build_w(2)))
    with pytest.raises(PayloadError, match=message):
        certificate_from_json(dict(obj, **edits))
    counted = dict(obj, mode="count", solutions=[], completed=False)
    assert certificate_from_json(counted).solution_count == 6


@pytest.mark.parametrize("obj", [[], "cert", None])
def test_a_certificate_must_be_an_object(obj):
    with pytest.raises(PayloadError, match="^certificate must be a JSON object"):
        certificate_from_json(obj)


def test_a_certificate_missing_a_key_names_it():
    obj = certificate_to_json(enumerate_gq_spreads(build_w(2)))
    del obj["completed"]
    with pytest.raises(PayloadError, match="^certificate payload has no key 'completed'$"):
        certificate_from_json(obj)
    del obj["seed"]
    obj["completed"] = True
    assert certificate_from_json(obj).seed is None


@pytest.mark.parametrize("emitted", [(0, 0), (0,)])  # an overlap, a gap
def test_an_emitted_non_cover_is_refused(emitted, monkeypatch):
    def search(run, store, max_solutions, node_limit):
        return "completed", [emitted], 1, 1

    monkeypatch.setattr(_Run, "search", search)
    with pytest.raises(RuntimeError, match="^internal: emitted solution is not an exact cover$"):
        enumerate_gq_ovoids(build_q4(2))


def test_every_reported_solution_reverifies():
    # solve_exact_cover checks each solution as an exact cover;
    # spot-check the raw covers too
    w2 = build_w(2)
    cert = enumerate_gq_spreads(w2)
    masks = w2.line_masks
    for sol in cert.solutions:
        acc = 0
        for j in sol:
            assert not acc & masks[j]
            acc |= masks[j]
        assert acc == (1 << w2.n_points) - 1
