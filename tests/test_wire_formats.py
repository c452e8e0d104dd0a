"""Wire-format properties: every payload round-trips, and no mutation of
a valid payload gets past the CLI as a traceback or a silent misreading.

Generated counts stay at or below 10^3: a count in a payload is a number
of lists the decoder may allocate.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeom.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_NONEXISTENCE, EXIT_OK, main
from qgeom.designs import BlockSet, blockset_from_json, blockset_to_json, desarguesian_spread
from qgeom.errors import PayloadError
from qgeom.gf import field_new
from qgeom.gq import build_q4, build_w, incidence_from_lines, structure_from_json, structure_to_json
from qgeom.projspace import enumerate_subspaces
from qgeom.search import (
    MODES,
    SearchCertificate,
    certificate_from_json,
    certificate_to_json,
    enumerate_gq_ovoids,
)

COUNT = st.integers(0, 10 ** 3)
AMBIENTS = [(3, 2), (4, 2), (3, 3)]


def _wire(payload):
    """The payload after a trip through JSON text."""
    return json.loads(json.dumps(payload))


def _grassmannian(v, k, q):
    return enumerate_subspaces(v, k, field_new(q))


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

@st.composite
def _structures(draw):
    n = draw(st.integers(1, 8))
    drawn = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=10))
    # a one-point line per point keeps the point pencils distinct
    lines = list(dict.fromkeys(drawn + [frozenset({p}) for p in range(n)]))
    lines = draw(st.permutations(lines))
    v, q = draw(st.sampled_from(AMBIENTS))
    pool = [U for k in range(v + 1) for U in _grassmannian(v, k, q)]

    def labels(count):  # distinct labels, when the pool has enough of them
        if count > len(pool):
            return st.none()
        return st.none() | st.lists(st.sampled_from(pool), min_size=count, max_size=count,
                                    unique=True)
    return incidence_from_lines(n, lines, point_labels=draw(labels(n)),
                                line_labels=draw(labels(len(lines))))


@settings(max_examples=100, deadline=None)
@given(_structures())
def test_structure_payloads_round_trip(s):
    payload = _wire(structure_to_json(s))
    assert structure_from_json(payload) == s
    assert structure_to_json(structure_from_json(payload)) == payload


@st.composite
def _block_sets(draw):
    v, q = draw(st.sampled_from(AMBIENTS))
    k = draw(st.integers(0, v))
    blocks = draw(st.frozensets(st.sampled_from(_grassmannian(v, k, q)), max_size=8))
    return BlockSet(v=v, q=q, k=k, blocks=blocks)


@settings(max_examples=100, deadline=None)
@given(_block_sets())
def test_block_set_payloads_round_trip(blocks):
    payload = _wire(blockset_to_json(blocks))
    assert blockset_from_json(payload) == blocks
    assert blockset_to_json(blockset_from_json(payload)) == payload


@st.composite
def _certificates(draw):
    """Certificates that agree with themselves, as the solver writes them:
    each solution lists distinct ids of the option order, stored solutions
    match the count, and the mode is "nonexistence" exactly when a
    completed run found no solution."""
    order = tuple(draw(st.permutations(range(draw(st.integers(0, 6))))))
    mode = draw(st.sampled_from(MODES + ("nonexistence",)))
    completed = mode == "nonexistence" or draw(st.booleans())
    solutions, count = (), 0
    if mode == "count":
        count = draw(st.integers(int(completed), 10 ** 3))
    elif mode != "nonexistence":
        ids = st.lists(st.sampled_from(order), unique=True).map(tuple) if order else st.just(())
        solutions = tuple(draw(st.lists(ids, min_size=int(completed), max_size=4)))
        count = len(solutions)
    return SearchCertificate(
        digest=draw(st.text("0123456789abcdef", min_size=64, max_size=64)), mode=mode,
        solutions=solutions, nodes_visited=draw(COUNT), option_order=order,
        completed=completed, solution_count=count,
        seed=draw(st.none() | st.integers(-10 ** 3, 10 ** 3)))


@settings(max_examples=100, deadline=None)
@given(_certificates())
def test_certificate_payloads_round_trip(cert):
    payload = _wire(certificate_to_json(cert))
    assert certificate_from_json(payload) == cert
    assert certificate_to_json(certificate_from_json(payload)) == payload


# ----------------------------------------------------------------------
# Mutated payloads
# ----------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 3, 10 ** 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def _paths(node, prefix=()):
    """Every path from the root to a node of a JSON document."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutations(draw, payload):
    """A copy of payload with one node replaced, nudged, removed or, for a
    list, lengthened.  Half the draws aim at the top three levels, where
    the counts and the per-point and per-label lists sit."""
    doc = _wire(payload)
    paths = list(_paths(doc))[1:]
    if draw(st.booleans()):
        paths = [path for path in paths if len(path) <= 3]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    how = draw(st.sampled_from(["replace", "nudge", "remove", "repeat"]))
    if how == "remove":
        del parent[path[-1]]
    elif how == "nudge" and type(old) is int:
        parent[path[-1]] = old + draw(st.sampled_from([-1, 1]))
    elif how == "repeat" and isinstance(old, list) and old:
        old.append(old[-1])
    else:
        parent[path[-1]] = draw(_JSON_VALUES)
    return doc


def _run_on_stdin(argv, payload):
    """main(argv) with the payload on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _check_outcome(code, out, err, verdict):
    """Exit 1 is one error: line and nothing on stdout, or, for a verdict
    command, one verdict line and nothing on stderr."""
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_BUDGET, EXIT_NONEXISTENCE)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code != EXIT_ERROR:
        assert errors == []
    elif errors or not verdict:
        assert out == "" and err.splitlines() == errors and len(errors) == 1, err
    else:
        assert err == "" and len(out.splitlines()) == 1, out


_STRUCTURES = [structure_to_json(build_w(2)), structure_to_json(build_q4(2))]
_STRUCTURE_COMMANDS = [(("gq", "check", "-"), True), (("gq", "dual", "-"), False),
                       (("search", "ovoids", "-", "--limit", "1e4"), False)]


@pytest.mark.parametrize("argv,verdict", _STRUCTURE_COMMANDS)
@pytest.mark.parametrize("base", [0, 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_structures_end_in_one_error_line(base, argv, verdict, data):
    payload = data.draw(_mutations(_STRUCTURES[base]))
    _check_outcome(*_run_on_stdin(argv, payload), verdict)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_accepted_structure_payloads_keep_their_counts(data):
    payload = data.draw(_mutations(_STRUCTURES[1]))
    try:
        s = structure_from_json(payload)
    except ValueError:  # PayloadError, UnknownIdError, repeated lines or pencils
        return
    assert s.n_points == payload["points"] == len(payload["incidence"])
    assert s.n_lines == payload["lines"]
    for labels, count in ((s.point_labels, s.n_points), (s.line_labels, s.n_lines)):
        assert labels is None or len(labels) == count


_SPREAD = blockset_to_json(desarguesian_spread(4, 2, field_new(2)))
_BLOCK_COMMANDS = [(("design", "geometric", "-"), True), (("design", "dual", "-"), False),
                   (("design", "derive", "-", "--point", "0"), False),
                   (("design", "alpha", "-", "--point", "3"), True),
                   (("design", "check", "-", "--t", "1", "--v", "4", "--k", "2", "--l", "1",
                     "--q", "2"), True)]


@pytest.mark.parametrize("argv,verdict", _BLOCK_COMMANDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_block_sets_end_in_one_error_line(argv, verdict, data):
    payload = data.draw(_mutations(_SPREAD))
    _check_outcome(*_run_on_stdin(argv, payload), verdict)


_CERTIFICATE = certificate_to_json(enumerate_gq_ovoids(build_q4(2)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_certificates_decode_or_raise_payload_error(data):
    payload = data.draw(_mutations(_CERTIFICATE))
    try:
        cert = certificate_from_json(payload)
    except PayloadError:
        return
    decoded = _wire(certificate_to_json(cert))
    for doc in (decoded, payload):
        doc.pop("schema_version", None)
    assert decoded == dict(payload, seed=payload.get("seed"))


_ENCODED = [(structure_from_json, structure_to_json(build_w(2))),
            (blockset_from_json, _SPREAD), (certificate_from_json, _CERTIFICATE)]


@pytest.mark.parametrize("decode,payload", _ENCODED)
@pytest.mark.parametrize("version", [7, "x", True, 1.0])
def test_decoders_refuse_any_other_schema_version(decode, payload, version):
    with pytest.raises(PayloadError, match="schema_version must be 1, not"):
        decode(dict(_wire(payload), schema_version=version))


@pytest.mark.parametrize("decode,payload", _ENCODED)
def test_decoders_accept_schema_version_1_or_none(decode, payload):
    doc = _wire(payload)
    assert doc["schema_version"] == 1
    decoded = decode(doc)
    del doc["schema_version"]
    assert decode(doc) == decoded
