"""A linear code as a multiset of projective points.

The columns of a generator matrix, read as points of PG(k-1, q) with
multiplicities, determine everything: n is the total multiplicity, n - d
the largest hyperplane multiplicity, and the weight distribution follows
from the hyperplane spectrum.  An independent oracle weighs all q^k
codewords by exact character sums and cross-checks the geometry.
"""

from griesmer import (
    PointMultiset,
    code_params,
    enumerate_points,
    field,
    generator_matrix,
    hyperplane_spectrum,
    is_divisible,
    multiset_from_matrix,
    oracle_weight_distribution,
)

F = field(2)

# the simplex code: every point of PG(2,2) once
M = PointMultiset(F, 2, {P: 1 for P in enumerate_points(F, 2)})
p = code_params(M)
print(f"simplex code of PG(2,2): [{p.n},{p.k},{p.d}]_2, divisor {p.divisor}")
print(f"spectrum (hyperplane multiplicity -> count): {hyperplane_spectrum(M)}")
print(f"constant weight: {is_divisible(M, 4)}")

# the oracle agrees: 1 zero word plus 7 words of weight 4
print(f"oracle weight distribution: {oracle_weight_distribution(M)}")

# generator matrix round trip
G = generator_matrix(M)
print(f"\ngenerator matrix ({G.shape[0]} x {G.shape[1]}):")
print(G)
print(f"round trip recovers the multiset: {multiset_from_matrix(G, 2) == M}")

# an irregular multiset over GF(3): weights still read off hyperplanes
F3 = field(3)
pts = enumerate_points(F3, 2)
N = PointMultiset(F3, 2, {pts[0]: 2, pts[1]: 1, pts[4]: 1, pts[9]: 2})
np_ = code_params(N)
dist = oracle_weight_distribution(N)
spec = hyperplane_spectrum(N)
print(f"\nirregular example: [{np_.n},{np_.k},{np_.d}]_3")
relation_holds = all(
    count == 2 * spec.get(np_.n - w, 0) for w, count in dist.items() if w
)
print(f"A_w = (q-1) * a_(n-w) for every positive weight: {relation_holds}")
