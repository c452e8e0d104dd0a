"""Subspace design parameters: verification, the lambda triangle,
admissibility, duals and derived designs.

The running example is 2-(7,3,1)_q, the parameter set whose realizability
is the big open question; its parameter triangle is fully computable even
though no instance is known.
"""

from qgeom.cli import render_lambda_triangle
from qgeom.designs import (
    DesignParams,
    admissible,
    block_set,
    derived_design,
    desarguesian_spread,
    dual_design,
    dual_params,
    is_design,
    lambda_s,
)
from qgeom.gf import field_new
from qgeom.projspace import dot_form, enumerate_subspaces, point_at

F2 = field_new(2)

print("== the lambda triangle of 2-(7,3,1)_q ==")
for q in (2, 3):
    print(render_lambda_triangle(DesignParams(2, 7, 3, 1, q)))
    print()
assert lambda_s(DesignParams(2, 7, 3, 1, 2), 0) == 381
assert lambda_s(DesignParams(2, 7, 3, 1, 3), 0) == 7651

print("== admissibility ==")
for params in (DesignParams(2, 7, 3, 1, 2), DesignParams(2, 6, 3, 1, 2),
               DesignParams(1, 6, 2, 1, 2)):
    rep = admissible(params)
    verdict = "admissible" if rep.ok else f"not admissible ({rep.first_fractional()})"
    print(f"  {params}: {verdict}")

print("\n== verification against claimed parameters ==")
spread = desarguesian_spread(4, 2, F2)
print(f"the Desarguesian line spread of PG(3,2) "
      f"{'is' if is_design(spread, DesignParams(1, 4, 2, 1, 2)).ok else 'is not'} "
      "a 1-(4,2,1)_2 design")
grassmannian = block_set(enumerate_subspaces(4, 2, F2))
print(f"all 35 lines form a 1-(4,2,7)_2 design: "
      f"{is_design(grassmannian, DesignParams(1, 4, 2, 7, 2)).ok}")
damaged = block_set(spread.sorted_blocks()[:-1])
rep = is_design(damaged, DesignParams(1, 4, 2, 1, 2))
print(f"dropping one spread line leaves {len(rep.witnesses)} uncovered points")

print("\n== dual and derived designs ==")
print(f"dual parameters of 2-(7,3,1)_2: {dual_params(DesignParams(2, 7, 3, 1, 2))}")
dual, dp = dual_design(spread, dot_form(4, 2), DesignParams(1, 4, 2, 1, 2))
print(f"the dual of the spread is a {dp} design: {is_design(dual, dp).ok}")
P = point_at(6, 4, 2)
der = derived_design(spread, P)
print(f"derived design of the spread at a point: {len(der)} block of "
      f"dimension {der.k} in F_2^{der.v}")
print("\nall demonstrations passed")
