"""The focal-point micro-model: a 5-space full of planes through one point.

Coning the Desarguesian line spread of PG(3,q) over a new point yields
q^2+1 planes in F_q^5 that pairwise meet exactly in the apex.  This tiny
configuration already exhibits the whole rich/poor solid geometry:

  (a) every point except the apex lies on exactly one plane, i.e. the
      quotient by the apex is a line spread of PG(3,q);
  (b) a solid is block-free ("poor") precisely when it misses the apex,
      and the counts are q^4 poor vs q^3+q^2+q+1 rich;
  (c) slicing the planes with any poor solid yields a line spread of it.
"""

from qgeom.designs import (
    DesignParams,
    beta_flat_focus,
    classify_solids,
    cone_over,
    derived_design,
    desarguesian_spread,
    is_design,
)
from qgeom.gf import field_new
from qgeom.projspace import contains, full_space, meet, point_mask

for q in (2, 3):
    print(f"== q = {q} ==")
    spec = field_new(q)
    blocks, apex = cone_over(desarguesian_spread(4, 2, spec))
    F = full_space(5, q)
    rep = beta_flat_focus(blocks, F)
    print(f"{rep.block_count} planes in F_q^5, common focal point found: "
          f"{rep.focal == apex}")
    assert rep.focal == apex

    der = derived_design(blocks, apex)
    ok = is_design(der, DesignParams(1, 4, 2, 1, q)).ok
    print(f"(a) quotient at the focal point is a line spread of PG(3,{q}): {ok}")
    assert ok

    cls = classify_solids(blocks, F)
    assert all(contains(S, apex) for S in cls.rich)
    assert all(not contains(S, apex) for S in cls.poor)
    print(f"(b) {len(cls.rich)} rich solids (all through the focal point), "
          f"{len(cls.poor)} poor ones (all missing it); "
          f"expected {q**3 + q**2 + q + 1} and {q**4}")
    assert len(cls.rich) == q**3 + q**2 + q + 1 and len(cls.poor) == q**4

    checked = 0
    for S in sorted(cls.poor):
        traces = {meet(B, S) for B in blocks.blocks}
        assert all(t.k == 2 for t in traces) and len(traces) == q * q + 1
        covered = 0
        for t in traces:
            pts = point_mask(t)
            assert not pts & covered
            covered |= pts
        assert covered == point_mask(S)
        checked += 1
    print(f"(c) the plane traces on each of the {checked} poor solids form "
          "a line spread of it")
    print()
print("all demonstrations passed")
