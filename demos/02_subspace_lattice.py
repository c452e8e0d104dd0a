"""The subspace lattice of F_q^v: counting, meets and joins, duality,
quotients and line pencils.
"""

from qgeom.gf import field_new
from qgeom.projspace import (
    contains,
    dot_form,
    dualize,
    enumerate_subspaces,
    gaussian_binomial,
    join,
    line_pencil,
    meet,
    point_at,
    q_number,
    quotient,
    restrict_filter,
    subspace_points,
)

F2 = field_new(2)

print("== counting via Gaussian binomials ==")
print(f"3-subspaces of F_2^7:  {gaussian_binomial(7, 3, 2)}")
print(f"points of PG(3,2):     {q_number(4, 2)}")
print(f"lines of PG(3,2):      {gaussian_binomial(4, 2, 2)}")

lines = enumerate_subspaces(4, 2, F2)
assert len(lines) == 35
print(f"\nenumerated {len(lines)} lines; first three canonical bases:")
for L in lines[:3]:
    print("  ", L.basis)

print("\n== dimension formula on a random pair ==")
U, W = lines[3], lines[19]
print(f"dim U + dim W = {U.k + W.k} = "
      f"dim(U ^ W) + dim(U + W) = {meet(U, W).k} + {join(U, W).k}")
assert U.k + W.k == meet(U, W).k + join(U, W).k

print("\n== duality is an inclusion-reversing involution ==")
form = dot_form(4, 2)
L = lines[0]
print(f"line {L.basis} dualizes to {dualize(L, form).basis}")
assert dualize(dualize(L, form), form) == L
planes = enumerate_subspaces(4, 3, F2)
for E in planes[:5]:
    assert contains(E, L) == contains(dualize(L, form), dualize(E, form))
print("checked inclusion reversal against five planes")

print("\n== line pencils and filters ==")
E = planes[0]
P = subspace_points(E)[0]  # a point is its 1-subspace
pencil = line_pencil(P, E)
print(f"the pencil of lines through a point inside a plane has {len(pencil)} members")
through_p = restrict_filter(lines, P, enumerate_subspaces(4, 4, F2)[0])
print(f"lines of PG(3,2) through one point: {len(through_p)} (= [3]_2)")

print("\n== quotients ==")
P6 = point_at(0, 6, 2)
plane6 = next(E for E in enumerate_subspaces(6, 3, F2) if contains(E, P6))
print(f"a plane through P in F_2^6 quotients to a {quotient(plane6, P6).k}-subspace "
      f"of the 5-dimensional quotient frame")
print("\nall demonstrations passed")
