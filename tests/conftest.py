"""Shared fixtures."""

import pytest

from qgeom.designs import block_set, desarguesian_spread
from qgeom.gf import field_new
from qgeom.projspace import bit_ids, join, point_mask, subspaces_within
from qgeom.search import exact_cover_instance, solve_exact_cover


@pytest.fixture(scope="session")
def switched_spread():
    """A non-geometric line spread of PG(5,2) that is Desarguesian but for one solid.

    The 5 lines inside the join J of the last two blocks of the
    Desarguesian spread are replaced by the first other line spread of J
    (one of 56) that an unseeded exact-cover search returns.
    """
    spread = desarguesian_spread(6, 2, field_new(2)).sorted_blocks()
    J = join(spread[-2], spread[-1])
    jm = point_mask(J)
    position = {p: i for i, p in enumerate(bit_ids(jm))}
    lines = subspaces_within(J, 2)
    cert = solve_exact_cover(exact_cover_instance(
        len(position), [[position[p] for p in bit_ids(point_mask(L))] for L in lines]))
    assert cert.solution_count == 56
    inside = {B for B in spread if not point_mask(B) & ~jm}
    other = next(sol for sol in cert.solutions if {lines[o] for o in sol} != inside)
    return block_set([B for B in spread if B not in inside] + [lines[o] for o in other])
