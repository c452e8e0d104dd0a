"""Certified exhaustive search: exact cover and the partition questions.

The solver is Knuth's Algorithm X on bitsets.  Each node carries the
mask of options still compatible with the partial cover and the column
sizes packed into one int, both updated incrementally and passed down
by value.  Column choice is minimum-remaining-options with ties broken
by lowest element id; rows are visited in the instance's option order.
Given the same option order the search tree, the discovery order of
solutions and the node count are all reproducible, which is what the
certificates record: a completed run with zero solutions is a certified
nonexistence whose exact tree a re-run can replay.

Each emitted solution is checked once, as an exact cover of the
instance whose digest the certificate carries.  For the GQ and PG(3,q)
searches the options are the incidence and point masks, so that check
is the defining predicate.

Randomized option orders take an explicit seed; there is no global
randomness.  Multi-worker runs split the root branching across
processes; the merged solution list and count are independent of the
worker count (node budgets then apply per root branch, see
solve_exact_cover).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import sys
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .designs import BlockSet, block_set
from .errors import BudgetExceededError, PayloadError, UnknownIdError
from .gf import FieldSpec
from .gq import IncidenceStructure, check_gq
from .projspace import (
    bit_ids,
    enumerate_subspaces,
    json_object,
    mask_of,
    point_mask,
    q_number,
)

MODES = ("first", "all", "count")


@dataclass(frozen=True)
class ExactCoverInstance:
    """Universe of n_elements ids plus bit-packed option sets."""

    n_elements: int
    options: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        limit = 1 << self.n_elements
        for i, mask in enumerate(self.options):
            if mask == 0:
                raise ValueError(f"option {i} is empty")
            if mask >= limit:
                raise UnknownIdError(f"option {i} uses element ids >= {self.n_elements}")
        if self.names is not None and len(self.names) != len(self.options):
            raise ValueError("names must match options one to one")


def exact_cover_instance(n_elements: int, option_sets, names=None) -> ExactCoverInstance:
    """Canonical instance from iterables of element ids."""
    return ExactCoverInstance(n_elements=n_elements,
                              options=tuple(mask_of(s) for s in option_sets),
                              names=tuple(names) if names is not None else None)


def instance_digest(instance: ExactCoverInstance) -> str:
    """Content hash of the canonical instance serialization."""
    payload = {
        "n_elements": instance.n_elements,
        "options": [list(bit_ids(m)) for m in instance.options],
        "names": list(instance.names) if instance.names is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SearchCertificate:
    """Reproducible record of one exact-cover run.

    ``solutions`` holds option-id tuples in discovery order; every
    emitted solution has been checked as an exact cover.  ``mode``
    is the requested mode, except that a completed run with zero
    solutions is recorded as "nonexistence".  ``completed`` means the
    tree was exhausted with neither the node budget nor the solution
    cap binding.
    """

    digest: str
    mode: str
    solutions: tuple[tuple[int, ...], ...]
    nodes_visited: int
    option_order: tuple[int, ...]
    completed: bool
    solution_count: int
    seed: int | None = None

    @property
    def nonexistence_certified(self) -> bool:
        return self.completed and self.solution_count == 0


# ----------------------------------------------------------------------
# Bitset Algorithm X core
# ----------------------------------------------------------------------

class _Stop(Exception):
    pass


class _Budget(Exception):
    pass


class _Run:
    """One run of Algorithm X on bitsets: node counting, budgets, solutions.

    Option bit p is the p-th option of the option order, so a column's
    candidates, scanned from the lowest bit, come in option order.  A
    node's state is the mask of still compatible options plus the column
    sizes packed into one int, W bits per element: an uncovered column
    holds its count of active options, below 2**(W-1), and a covered
    one exactly 2**(W-1).  Children get their state by value, so there
    is no undo pass.
    """

    def __init__(self, instance, option_order, store, max_solutions, node_limit):
        n = instance.n_elements
        elements = [tuple(bit_ids(instance.options[opt])) for opt in option_order]
        cols = [0] * n
        for p, es in enumerate(elements):
            for e in es:
                cols[e] |= 1 << p
        biggest, width = max(c.bit_count() for c in cols), 8
        while biggest >> (width - 1):
            width *= 2
        self.cols = cols
        self.conflict = [0] * len(elements)
        self.vec = [0] * len(elements)
        for p, es in enumerate(elements):
            for e in es:
                self.conflict[p] |= cols[e]
                self.vec[p] |= 1 << e * width
        self.tag = [v << width - 1 for v in self.vec]
        self.sizes = sum(c.bit_count() << e * width for e, c in enumerate(cols))
        self.done = sum(1 << (e + 1) * width - 1 for e in range(n))
        self.active = (1 << len(elements)) - 1
        self.nbytes = n * width // 8
        self.typecode = next(c for c in "BHILQ" if array(c).itemsize == width // 8)
        self.order = option_order
        self.store = store
        self.max_solutions = max_solutions
        self.node_limit = float("inf") if node_limit is None else node_limit
        self.nodes = 0
        self.count = 0
        self.solutions = []
        self.stack = []

    def column(self, sizes):
        """(element, size) of the uncovered column with fewest options,
        the lowest element id on ties."""
        fields = sizes.to_bytes(self.nbytes, "little")
        if self.typecode == "B":  # the usual case: one memchr per size tried
            least = 0
            while (col := fields.find(least)) < 0:
                least += 1
            return col, least
        fields = array(self.typecode, fields)
        if sys.byteorder == "big":
            fields.byteswap()
        least = min(fields)
        return fields.index(least), least

    def select(self, active, sizes, p):
        """Child state after option p joins the partial cover."""
        gone = active & self.conflict[p]
        if gone == active:  # no option left: uncovered columns drop to 0
            return 0, (sizes + self.tag[p]) & self.done
        sizes += self.tag[p]
        vec = self.vec
        rest = gone
        while rest:  # bit_ids inlined here and in search: its generator costs ~15 %
            low = rest & -rest
            sizes -= vec[low.bit_length() - 1]
            rest ^= low
        return active ^ gone, sizes

    def emit(self):
        self.count += 1
        if self.store:
            self.solutions.append(tuple(sorted(self.order[p] for p in self.stack)))
        if self.max_solutions is not None and self.count >= self.max_solutions:
            raise _Stop

    def search(self, active, sizes):
        if sizes == self.done:
            self.emit()
            return
        col, least = self.column(sizes)
        if not least:
            return
        rows = active & self.cols[col]
        while rows:
            low = rows & -rows
            rows ^= low
            p = low.bit_length() - 1
            self.nodes += 1
            if self.nodes > self.node_limit:
                raise _Budget
            self.stack.append(p)
            self.search(*self.select(active, sizes, p))
            self.stack.pop()


def _run_subtree(instance, option_order, store, max_solutions, node_limit,
                 forced=None):
    """Search the whole tree, or only the subtree under the root option
    at position ``forced``.

    Returns (solutions, count, nodes, completed, budget_hit); a forced
    root try counts as one node, matching the whole-tree count."""
    run = _Run(instance, option_order, store, max_solutions, node_limit)
    try:
        if forced is None:
            run.search(run.active, run.sizes)
        else:
            run.nodes = 1
            if run.nodes > run.node_limit:
                raise _Budget
            run.stack.append(forced)
            run.search(*run.select(run.active, run.sizes, forced))
        return run.solutions, run.count, run.nodes, True, False
    except _Stop:
        return run.solutions, run.count, run.nodes, False, False
    except _Budget:
        return run.solutions, run.count, run.nodes, False, True


# ----------------------------------------------------------------------
# Public solver
# ----------------------------------------------------------------------

def solve_exact_cover(instance: ExactCoverInstance, mode: str = "all", *,
                      node_limit: int | None = None,
                      max_solutions: int | None = None,
                      seed: int | None = None,
                      option_order=None,
                      workers: int = 1) -> SearchCertificate:
    """Run Algorithm X on the instance and certify the outcome.

    mode "first" stops after max_solutions (default 1) solutions; "all"
    enumerates everything (an optional max_solutions cap marks the
    certificate incomplete when it binds); "count" is "all" without
    storing the solutions.  A node is one option try; exceeding
    node_limit raises BudgetExceededError carrying the partial
    certificate.  With workers > 1 the root branching is split across
    processes and node_limit applies to each root branch separately;
    solution sets and counts do not depend on the worker count.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, not {workers!r}")
    if mode == "first" and max_solutions is None:
        max_solutions = 1
    if option_order is not None and seed is not None:
        raise ValueError("give either option_order or seed, not both")
    if option_order is None:
        option_order = list(range(len(instance.options)))
        if seed is not None:
            random.Random(seed).shuffle(option_order)
    option_order = tuple(option_order)
    if sorted(option_order) != list(range(len(instance.options))):
        raise ValueError("option_order must be a permutation of all option ids")
    store = mode != "count"
    digest = instance_digest(instance)

    def finish(solutions, count, nodes, completed, budget_hit):
        solutions = tuple(solutions)
        for sol in solutions:
            if not _verify_cover(instance, sol):
                raise RuntimeError("internal: emitted solution is not an exact cover")
        final_mode = "nonexistence" if (completed and count == 0) else mode
        cert = SearchCertificate(
            digest=digest, mode=final_mode, solutions=solutions,
            nodes_visited=nodes, option_order=option_order,
            completed=completed, solution_count=count, seed=seed)
        if budget_hit:
            raise BudgetExceededError(
                f"node budget {node_limit} exceeded", certificate=cert)
        return cert

    if instance.n_elements == 0:
        return finish([()], 1, 0, True, False)

    if workers <= 1:
        return finish(*_run_subtree(instance, option_order, store,
                                    max_solutions, node_limit))

    # Parallel: deterministic root split.  The tasks traverse exactly
    # the subtrees the sequential search would, in the same order.
    probe = _Run(instance, option_order, store, max_solutions, node_limit)
    col, least = probe.column(probe.sizes)
    if not least:
        return finish([], 0, 0, True, False)
    branch = bit_ids(probe.cols[col])
    args = [(instance, option_order, store, max_solutions, node_limit, forced)
            for forced in branch]
    with multiprocessing.Pool(processes=min(workers, len(args))) as pool:
        results = pool.starmap(_run_subtree, args)
    solutions, count, nodes, completed, budget_hit = [], 0, 0, True, False
    for sols, c, nd, comp, bud in results:
        solutions.extend(sols)
        count += c
        nodes += nd
        completed = completed and comp
        budget_hit = budget_hit or bud
    if max_solutions is not None and count >= max_solutions:
        # mirror the sequential stop-at-cap semantics
        solutions = solutions[:max_solutions]
        count = max_solutions
        completed = False
    return finish(solutions, count, nodes, completed, budget_hit)


def _verify_cover(instance: ExactCoverInstance, solution) -> bool:
    acc = 0
    for opt in solution:
        m = instance.options[opt]
        if acc & m:
            return False
        acc |= m
    return acc == (1 << instance.n_elements) - 1


# ----------------------------------------------------------------------
# Generalized quadrangle searches
# ----------------------------------------------------------------------

def gq_spread_instance(structure: IncidenceStructure) -> ExactCoverInstance:
    """Universe = points, options = lines (option id = line id)."""
    return ExactCoverInstance(
        n_elements=structure.n_points,
        options=structure.line_masks,
        names=tuple(f"line-{j}" for j in range(structure.n_lines)))


def gq_ovoid_instance(structure: IncidenceStructure) -> ExactCoverInstance:
    """Universe = lines, options = points (option id = point id)."""
    return ExactCoverInstance(
        n_elements=structure.n_lines,
        options=structure.point_masks,
        names=tuple(f"point-{i}" for i in range(structure.n_points)))


def _warn_if_not_gq(structure):
    verdict = check_gq(structure)
    if not verdict.axioms_ok:
        warnings.warn(f"structure is not a generalized quadrangle: {verdict.reason}",
                      stacklevel=3)


def enumerate_gq_spreads(structure: IncidenceStructure, mode: str = "all",
                         **kwargs) -> SearchCertificate:
    """All line sets covering every point exactly once."""
    _warn_if_not_gq(structure)
    return solve_exact_cover(gq_spread_instance(structure), mode, **kwargs)


def enumerate_gq_ovoids(structure: IncidenceStructure, mode: str = "all",
                        **kwargs) -> SearchCertificate:
    """All point sets meeting every line exactly once."""
    _warn_if_not_gq(structure)
    return solve_exact_cover(gq_ovoid_instance(structure), mode, **kwargs)


def partition_into_spreads(structure: IncidenceStructure, mode: str = "all",
                           **kwargs) -> SearchCertificate:
    """Second-level search: partition the full line set into spreads.

    Materializes every spread first (feasible at desk scale), then runs
    exact cover with universe = lines and options = spreads.  Option ids
    of the returned certificate index into the solution list of
    enumerate_gq_spreads(structure).
    """
    spreads = enumerate_gq_spreads(structure, "all", **_strip_cap(kwargs))
    return _partition_level(structure.n_lines, spreads.solutions, "spread",
                            mode, kwargs)


def partition_into_ovoids(structure: IncidenceStructure, mode: str = "all",
                          **kwargs) -> SearchCertificate:
    """Dual second-level search: partition the point set into ovoids."""
    ovoids = enumerate_gq_ovoids(structure, "all", **_strip_cap(kwargs))
    return _partition_level(structure.n_points, ovoids.solutions, "ovoid",
                            mode, kwargs)


def _partition_level(n_elements, first_level_solutions, label, mode, kwargs):
    instance = ExactCoverInstance(
        n_elements=n_elements,
        options=tuple(mask_of(sol) for sol in first_level_solutions),
        names=tuple(f"{label}-{i}" for i in range(len(first_level_solutions))))
    return solve_exact_cover(instance, mode, **kwargs)


def _strip_cap(kwargs):
    out = dict(kwargs)
    out.pop("max_solutions", None)
    return out


def pairwise_intersection_matrix(certificate: SearchCertificate,
                                 kind: str = "ovoid") -> np.ndarray:
    """M[i][j] = size of the intersection of solutions i and j.

    All off-diagonal entries >= 1 already rules out any partition, a
    cheaper certificate than the second-level search.
    """
    if kind not in ("ovoid", "spread"):
        raise ValueError("kind must be 'ovoid' or 'spread'")
    sols = certificate.solutions
    width = 1 + max((max(s) for s in sols if s), default=-1)
    a = np.zeros((len(sols), width), dtype=np.int64)
    for i, s in enumerate(sols):
        a[i, list(s)] = 1
    return a @ a.T


# ----------------------------------------------------------------------
# Line spreads of PG(v-1, q)
# ----------------------------------------------------------------------

_FULL_ENUMERATION = {(4, 2), (4, 3)}
_SAMPLING_ONLY = {(6, 2)}


def pg_line_spread_instance(v: int, spec: FieldSpec) -> ExactCoverInstance:
    lines = enumerate_subspaces(v, 2, spec)
    return ExactCoverInstance(
        n_elements=q_number(v, spec.q),
        options=tuple(point_mask(L) for L in lines),
        names=tuple(f"pg-line-{j}" for j in range(len(lines))))


def enumerate_pg_line_spreads(v: int, spec: FieldSpec, mode: str = "all",
                              **kwargs) -> SearchCertificate:
    """Search for line spreads of PG(v-1, q).

    Full enumeration is allowed only for (v, q) in {(4,2), (4,3)}; for
    (6, 2) a first-N sample (mode "first" with max_solutions) must be
    requested; anything larger is refused outright.  This provides
    samples and witnesses, not a classification.
    """
    key = (v, spec.q)
    if key not in _FULL_ENUMERATION:
        if key in _SAMPLING_ONLY:
            if mode != "first" or kwargs.get("max_solutions") is None:
                raise BudgetExceededError(
                    f"PG({v - 1},{spec.q}) allows only first-N sampling "
                    "(mode='first' with max_solutions)")
        else:
            raise BudgetExceededError(
                f"line-spread search of PG({v - 1},{spec.q}) is out of the "
                "desk-scale budget")
    return solve_exact_cover(pg_line_spread_instance(v, spec), mode, **kwargs)


def pg_spread_blocks(v: int, spec: FieldSpec, solution) -> BlockSet:
    """Convert a certificate solution (line indices) back to blocks."""
    lines = enumerate_subspaces(v, 2, spec)
    return block_set([lines[j] for j in solution], v=v, q=spec.q, k=2)


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------

def certificate_to_json(cert: SearchCertificate) -> dict:
    return {
        "schema_version": 1,
        "digest": cert.digest,
        "mode": cert.mode,
        "solutions": [list(s) for s in cert.solutions],
        "nodes": cert.nodes_visited,
        "option_order": list(cert.option_order),
        "completed": cert.completed,
        "solution_count": cert.solution_count,
        "seed": cert.seed,
    }


def certificate_from_json(obj: dict) -> SearchCertificate:
    obj = json_object(obj, "certificate", "digest", "mode", "solutions", "nodes",
                      "option_order", "completed", "solution_count")
    digest, solutions = obj["digest"], obj["solutions"]
    if not (isinstance(digest, str) and len(digest) == 64
            and set(digest) <= set("0123456789abcdef")):
        raise PayloadError("certificate digest must be 64 lowercase hex digits")
    modes = MODES + ("nonexistence",)
    if obj["mode"] not in modes:
        raise PayloadError(f"certificate mode must be one of {modes}")
    if not isinstance(solutions, list) or not all(map(_is_id_list, solutions)):
        raise PayloadError("certificate solutions must be lists of option ids >= 0")
    if not _is_id_list(obj["option_order"]):
        raise PayloadError("certificate option_order must be a list of option ids >= 0")
    for key in ("nodes", "solution_count"):
        if type(obj[key]) is not int or obj[key] < 0:
            raise PayloadError(f"certificate {key} must be an integer >= 0")
    if type(obj["completed"]) is not bool:
        raise PayloadError("certificate completed must be true or false")
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
        raise PayloadError("certificate seed must be an integer or null")
    return SearchCertificate(
        digest=digest, mode=obj["mode"],
        solutions=tuple(tuple(s) for s in solutions),
        nodes_visited=obj["nodes"],
        option_order=tuple(obj["option_order"]),
        completed=obj["completed"],
        solution_count=obj["solution_count"],
        seed=seed,
    )


def _is_id_list(ids) -> bool:
    return isinstance(ids, list) and all(type(i) is int and i >= 0 for i in ids)
