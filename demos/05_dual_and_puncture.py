"""Projective dual and geometric puncturing: from a 23-column code to a
length-optimal [3158, 6, 2368]_4 code and its shorter relatives.

The dual turns hyperplanes of multiplicity n-d-j*m into points of weight
j.  Because the input is q-divisible, the result is q^(k-3)-divisible and
its support contains q-1 pairwise disjoint lines; removing a line costs
exactly (q+1, q) in (length, distance) and removing a point costs (1, 1),
with every intermediate still meeting the Griesmer length bound.
"""

from griesmer import (
    code_c1,
    code_params,
    find_disjoint_lines,
    griesmer_bound,
    pg,
    projective_dual,
    puncture_flat,
    puncture_point,
)

import numpy as np  # after griesmer, which caps its BLAS threads first

c1 = code_c1(6, 4)
p = code_params(c1)
print(f"start: [{p.n},{p.k},{p.d}]_4 with multiplicity profile {p.lam}")

dual = projective_dual(c1, 4)
dp = code_params(dual)
print(f"\ndual: [{dp.n},{dp.k},{dp.d}]_4")
print(f"divisor {dp.divisor}, so divisible by 4^3 = 64: {dp.divisor % 64 == 0}")
print(f"length meets the Griesmer bound: {dp.n == griesmer_bound(4, 6, dp.d)}")

lines = find_disjoint_lines(dual, 3)
print(f"\nfound {len(lines)} pairwise disjoint support lines; the first one:")
for P in pg.point_digits(4, 5, pg.flat_indices(dual.field, lines[0].basis)).tolist():
    print("  ", P)

shorter = puncture_flat(dual, lines[0])
sp = code_params(shorter)
print(f"\nafter one line removal: [{sp.n},{sp.k},{sp.d}]_4 "
      f"(delta = {dp.n - sp.n}, {dp.d - sp.d})")
print(f"still optimal: {sp.n == griesmer_bound(4, 6, sp.d)}")

# the first point of multiplicity 1, read off the count vector
single = pg.point_digits(4, 5, np.flatnonzero(shorter.counts == 1)[0]).tolist()
shortest = puncture_point(shorter, single)
tp = code_params(shortest)
print(f"after one more point removal: [{tp.n},{tp.k},{tp.d}]_4")
print(f"still optimal: {tp.n == griesmer_bound(4, 6, tp.d)}")
