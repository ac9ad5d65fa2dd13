"""A linear code as a multiset of projective points.

The columns of a generator matrix, read as points of PG(k-1, q) with
multiplicities, determine everything: n is the total multiplicity, n - d
the largest hyperplane multiplicity, and the weight distribution follows
from the hyperplane spectrum.  A code is one count vector indexed by the
points of PG(k-1, q).  An independent oracle weighs all q^k
codewords by exact character sums and cross-checks the geometry.
"""

import numpy as np

from griesmer import (
    PointMultiset,
    code_params,
    field,
    generator_matrix,
    hyperplane_spectrum,
    multiset_from_matrix,
    oracle_weight_distribution,
    pg,
    theta,
)

F = field(2)

# the simplex code: every point of PG(2,2) once
M = PointMultiset(F, 2, np.ones(theta(2, 2), dtype=np.int64))
p = code_params(M)
print(f"simplex code of PG(2,2): [{p.n},{p.k},{p.d}]_2, divisor {p.divisor}")
print(f"spectrum (hyperplane multiplicity -> count): {hyperplane_spectrum(M)}")
print(f"constant weight: {p.divisor == p.d}")

# the oracle agrees: 1 zero word plus 7 words of weight 4
print(f"oracle weight distribution: {oracle_weight_distribution(M)}")

# generator matrix round trip
G = generator_matrix(M)
print(f"\ngenerator matrix ({G.shape[0]} x {G.shape[1]}):")
print(G)
print(f"round trip recovers the multiset: {multiset_from_matrix(G, 2) == M}")

# an irregular multiset over GF(3): weights still read off hyperplanes
print()
# the counts are filled from the points' indices, any representatives
F3 = field(3)
points = [(1, 0, 0), (2, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 0), (0, 2, 0)]
N = PointMultiset(F3, 2, np.bincount(pg.vector_indices(F3, points), minlength=theta(2, 3)))
support = np.flatnonzero(N.counts)
for P, m in zip(pg.point_digits(3, 2, support).tolist(), N.counts[support].tolist()):
    print(f"  point {P} with multiplicity {m}")
np_ = code_params(N)
dist = oracle_weight_distribution(N)
spec = hyperplane_spectrum(N)
print(f"irregular example: [{np_.n},{np_.k},{np_.d}]_3")
relation_holds = all(
    count == 2 * spec.get(np_.n - w, 0) for w, count in dist.items() if w
)
print(f"A_w = (q-1) * a_(n-w) for every positive weight: {relation_holds}")
