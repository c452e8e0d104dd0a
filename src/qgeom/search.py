"""Certified exhaustive search: exact cover and the partition questions.

The solver is Knuth's Algorithm X on bitsets, run as one loop over an
explicit stack of frames, so the depth of a tree is not bounded by the
recursion limit.  Each node holds the mask of options still compatible
with the partial cover and the column sizes packed into one int, both
updated incrementally.  Column choice is minimum-remaining-options with
ties broken by lowest element id; rows are visited in the instance's
option order.  A node is one option try.  Once every open column has
exactly one option left the rest of the branch is forced: its k tries
are counted as k nodes but settled in one step.  The tables a run needs
are built once per instance and option order; one walk over them keeps
its own state and records every cover, forced or not, at one place.
Given the same option order the search tree, the discovery order of
solutions and the node count are all reproducible, which is what the
certificates record: a completed run with zero solutions is a certified
nonexistence whose exact tree a re-run can replay.

Each emitted solution is checked once, as an exact cover of the
instance whose digest the certificate carries.  For the GQ and PG(3,q)
searches the options are the incidence and point masks, so that check
is the defining predicate.

Randomized option orders take an explicit seed; there is no global
randomness.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .designs import BlockSet, block_set
from .errors import BudgetExceededError, PayloadError, UnknownIdError
from .gf import FieldSpec
from .gq import IncidenceStructure
from .projspace import (
    SCHEMA_VERSION,
    bit_ids,
    disjoint_union,
    enumerate_subspaces,
    json_object,
    mask_of,
    point_mask,
    q_number,
    require_int,
)

if TYPE_CHECKING:  # numpy loads on the first call that needs it
    import numpy as np

MODES = ("first", "all", "count")


@dataclass(frozen=True)
class ExactCoverInstance:
    """Universe of n_elements ids plus bit-packed option sets."""

    n_elements: int
    options: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        require_int("n_elements", self.n_elements, 0)
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

class _Run:
    """The per-run tables of Algorithm X on bitsets; ``search`` walks one tree.

    Option bit p is the p-th option of the option order, so a column's
    candidates, scanned from the lowest bit, come in option order.  A
    node's state is the mask of still compatible options plus the column
    sizes packed into one int, W bits per element: an uncovered column
    holds its count of active options, below 2**(W-1), and a covered
    one exactly 2**(W-1).  The object holds only what the instance and
    the order fix: the column masks, each option's conflict mask and
    size vectors, the width and the root state.  ``search`` keeps one
    walk's frames, nodes and solutions in locals and walks the tree in
    one loop: each descent pushes the parent's (active, sizes, untried
    rows) frame, so there is no undo pass and no recursion, whatever the
    depth.

    A node is one option try.  When a try leaves every open column with
    exactly one active option (no size has a bit of ``mid`` set, and
    none is 0), the k options left partition the open elements: the walk
    would try them one by one, one node each, and end in one cover.  Such
    a forced tail is settled in one step, its k tries counted, so node
    counts, budgets and solution order are those of the plain walk.  A
    try that leaves no option and covers every column is the other kind
    of cover; both are recorded at one place, the bottom of the loop.
    """

    def __init__(self, instance, option_order):
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
        self.mid = sum((1 << width - 1) - 2 << e * width for e in range(n))  # bits 1..W-2
        self.active = (1 << len(elements)) - 1
        self.nbytes = n * width // 8
        self.typecode = next(c for c in "BHILQ" if array(c).itemsize == width // 8)
        self.order = option_order

    def column(self, sizes):
        """(element, size) of the uncovered column with fewest options,
        the lowest element id on ties; ``search`` inlines it for 8-bit
        sizes."""
        fields = array(self.typecode, sizes.to_bytes(self.nbytes, "little"))
        if sys.byteorder == "big":
            fields.byteswap()
        least = min(fields)
        return fields.index(least), least

    def search(self, store, max_solutions, node_limit):
        """Walk the whole tree depth first.  Returns (outcome, solutions,
        count, nodes): the outcome is "completed", "stopped" (the solution
        cap bound) or "budget" (the node limit bound), and solutions holds
        the covers' option ids, each sorted, if store is true."""
        cols, conflict, vec, tag, done = self.cols, self.conflict, self.vec, self.tag, self.done
        step = [t - v for t, v in zip(tag, vec)]  # option p is always among those it removes
        column, mid, nbytes, order = self.column, self.mid, self.nbytes, self.order
        narrow = self.typecode == "B"
        limit = float("inf") if node_limit is None else node_limit
        cap = float("inf") if max_solutions is None else max_solutions
        stack, frames, solutions, count, nodes = [], [], [], 0, 0
        active, sizes = self.active, self.sizes
        col, least = column(sizes)
        rows = active & cols[col] if least else 0
        while True:
            if not rows:
                if not frames:
                    return "completed", solutions, count, nodes
                active, sizes, rows = frames.pop()
                stack.pop()
                continue
            low = rows & -rows
            rows ^= low
            p = low.bit_length() - 1
            nodes += 1
            if nodes > limit:
                return "budget", solutions, count, nodes
            gone = active & conflict[p]
            left = active ^ gone
            if not left:  # no option left: a cover or a dead end
                if (sizes + tag[p]) & done != done:
                    continue
            else:
                child = sizes + step[p]
                rest = gone ^ low
                while rest:  # bit_ids inlined: its generator costs ~15 %
                    bit = rest & -rest
                    child -= vec[bit.bit_length() - 1]
                    rest ^= bit
                if narrow:  # 8-bit sizes, the usual case: one memchr per size tried
                    fields = child.to_bytes(nbytes, "little")
                    if 0 in fields:  # an open column with no option left
                        continue
                else:
                    col, least = column(child)
                    if not least:
                        continue
                if child & mid:  # some open column has two options or more: descend
                    if narrow:
                        least = 1
                        while (col := fields.find(least)) < 0:
                            least += 1
                    stack.append(p)
                    frames.append((active, sizes, rows))
                    active, sizes, rows = left, child, left & cols[col]
                    continue
                nodes += left.bit_count()  # a forced tail: its tries, settled here
                if nodes > limit:
                    return "budget", solutions, count, limit + 1
            count += 1  # a cover: p left no option, or p and its forced tail
            if store:
                solutions.append(tuple(sorted(order[i] for i in (*stack, p, *bit_ids(left)))))
            if count >= cap:
                return "stopped", solutions, count, nodes


# ----------------------------------------------------------------------
# Public solver
# ----------------------------------------------------------------------

def solve_exact_cover(instance: ExactCoverInstance, mode: str = "all", *,
                      node_limit: int | None = None,
                      max_solutions: int | None = None,
                      seed: int | None = None,
                      option_order=None) -> SearchCertificate:
    """Run Algorithm X on the instance and certify the outcome.

    mode "first" stops after max_solutions (default 1) solutions; "all"
    enumerates everything (an optional max_solutions cap marks the
    certificate incomplete when it binds); "count" is "all" without
    storing the solutions.  A node is one option try; exceeding
    node_limit raises BudgetExceededError carrying the partial
    certificate.  A max_solutions below 1, a node_limit below 0, or a
    budget, seed or option_order entry that is given but is not an int
    is a ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_arguments(node_limit, max_solutions, seed)
    if mode == "first" and max_solutions is None:
        max_solutions = 1
    if option_order is not None and seed is not None:
        raise ValueError("give either option_order or seed, not both")
    if option_order is None:
        option_order = list(range(len(instance.options)))
        if seed is not None:
            random.Random(seed).shuffle(option_order)
    option_order = tuple(option_order)
    for entry in option_order:
        require_int("option_order entry", entry)
    if sorted(option_order) != list(range(len(instance.options))):
        raise ValueError("option_order must be a permutation of all option ids")
    digest = instance_digest(instance)

    if instance.n_elements == 0:  # one solution, the empty cover, and no node
        outcome, found, count, nodes = "completed", [()] if mode != "count" else [], 1, 0
    else:
        outcome, found, count, nodes = _Run(instance, option_order).search(
            mode != "count", max_solutions, node_limit)  # its tables are freed here
    solutions = tuple(found)
    options, cover = instance.options, ((1 << instance.n_elements) - 1, 0)
    for sol in solutions:
        if disjoint_union([options[o] for o in sol]) != cover:
            raise RuntimeError("internal: emitted solution is not an exact cover")
    completed = outcome == "completed"
    cert = SearchCertificate(
        digest=digest,
        mode="nonexistence" if completed and count == 0 else mode,
        solutions=solutions, nodes_visited=nodes, option_order=option_order,
        completed=completed, solution_count=count, seed=seed)
    if outcome == "budget":
        raise BudgetExceededError(f"node budget {node_limit} exceeded", certificate=cert)
    return cert


def _check_arguments(node_limit, max_solutions, seed):
    for name, value, least in (("max_solutions", max_solutions, 1),
                               ("node_limit", node_limit, 0), ("seed", seed, None)):
        if value is not None:
            require_int(name, value, least)


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


def enumerate_gq_spreads(structure: IncidenceStructure, mode: str = "all",
                         **kwargs) -> SearchCertificate:
    """All line sets covering every point exactly once."""
    return solve_exact_cover(gq_spread_instance(structure), mode, **kwargs)


def enumerate_gq_ovoids(structure: IncidenceStructure, mode: str = "all",
                        **kwargs) -> SearchCertificate:
    """All point sets meeting every line exactly once."""
    return solve_exact_cover(gq_ovoid_instance(structure), mode, **kwargs)


def partition_into_spreads(structure: IncidenceStructure, mode: str = "all",
                           **kwargs) -> SearchCertificate:
    """Second-level search: partition the full line set into spreads.

    Materializes every spread first (feasible at desk scale), then runs
    exact cover with universe = lines and options = spreads.  Option ids
    of the returned certificate index into the solution list of
    enumerate_gq_spreads(structure).  node_limit applies to each level
    separately; a first-level abort raises BudgetExceededError without a
    certificate, since its partial certificate is of the spread search.
    """
    return _two_levels(enumerate_gq_spreads, structure, structure.n_lines, "spread",
                       mode, kwargs)


def partition_into_ovoids(structure: IncidenceStructure, mode: str = "all",
                          **kwargs) -> SearchCertificate:
    """Dual second-level search: partition the point set into ovoids,
    with the node budget of partition_into_spreads."""
    return _two_levels(enumerate_gq_ovoids, structure, structure.n_points, "ovoid",
                       mode, kwargs)


def _two_levels(enumerate_first, structure, n_elements, label, mode, kwargs):
    _check_arguments(kwargs.get("node_limit"), kwargs.get("max_solutions"), kwargs.get("seed"))
    try:
        first = enumerate_first(structure, "all",
                                **{k: v for k, v in kwargs.items() if k != "max_solutions"})
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"first level ({label} enumeration): {exc}") from exc
    instance = exact_cover_instance(
        n_elements, first.solutions,
        names=(f"{label}-{i}" for i in range(len(first.solutions))))
    return solve_exact_cover(instance, mode, **kwargs)


def pairwise_intersection_matrix(certificate: SearchCertificate,
                                 kind: str = "ovoid") -> np.ndarray:
    """M[i][j] = size of the intersection of solutions i and j.

    All off-diagonal entries >= 1 rules out any partition.  M is a dense
    n x n int64 matrix over the n solutions: the 38,304 ovoids of Q(4,8)
    would need about 11.7 GB.
    """
    if kind not in ("ovoid", "spread"):
        raise ValueError("kind must be 'ovoid' or 'spread'")
    import numpy as np
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
        "schema_version": SCHEMA_VERSION,
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
    n, mode, count = len(obj["option_order"]), obj["mode"], obj["solution_count"]
    if sorted(obj["option_order"]) != list(range(n)):
        raise PayloadError(f"certificate option_order must list each id below {n} once")
    if not all(len(set(s)) == len(s) and all(i < n for i in s) for s in solutions):
        raise PayloadError(f"certificate solutions must list distinct option ids below {n}")
    if (mode == "nonexistence") != (obj["completed"] and count == 0):
        raise PayloadError("certificate mode must be 'nonexistence' exactly when a completed "
                           "run found no solution")
    if mode in ("count", "nonexistence"):
        if solutions:
            raise PayloadError(f"certificate mode {mode!r} stores no solution, "
                               f"but {len(solutions)} are listed")
    elif len(solutions) != count:
        raise PayloadError(f"certificate solution_count {count} does not match the "
                           f"{len(solutions)} solutions listed")
    return SearchCertificate(
        digest=digest, mode=mode,
        solutions=tuple(tuple(s) for s in solutions),
        nodes_visited=obj["nodes"],
        option_order=tuple(obj["option_order"]),
        completed=obj["completed"],
        solution_count=count,
        seed=seed,
    )


def _is_id_list(ids) -> bool:
    return isinstance(ids, list) and all(type(i) is int and i >= 0 for i in ids)
