"""The arc-and-lines constructions behind the divisible code families.

A normal rational curve supplies a (q+1)-arc in a hyperplane; joining its
points to a transversal line gives q lines whose union (minus the
transversal) carries a q-divisible code.  Adding one carefully placed
extra point Q with weight q raises the distance without raising the
maximal hyperplane multiplicity, and the count of maximal hyperplanes is
a pair of binomial coefficients, checked here by brute force.
"""

from math import comb

from griesmer import (
    code_c1,
    code_c2,
    code_params,
    hyperplane_spectrum,
    line_config,
    normal_rational_curve,
)

k, q = 6, 4

curve = normal_rational_curve(k, q)
print(f"normal rational curve in PG({k - 1},{q}), all in the hyperplane x5 = 0:")
for P in curve:
    print("  ", P)

cfg = line_config(k, q)
off = {P for line in cfg.lines for P in line} - set(cfg.l0)
print(f"\nthe {q} joining lines cover {len(off)} = q^2 points off the transversal")

# family 1: [q^2+2q-1, k, q^2-(k-4)q]_q
c1 = code_c1(k, q)
p1 = code_params(c1)
print(f"\ncode_c1({k},{q}): [{p1.n},{p1.k},{p1.d}]_{q}")
print(f"divisor {p1.divisor}, so q-divisible: {p1.divisor % q == 0}")
a = hyperplane_spectrum(c1)[(k - 2) * q - 1]
print(
    f"maximal hyperplanes: {a} = C({q},{k - 4}) + C({q},{k - 3}) = "
    f"{comb(q, k - 4)} + {comb(q, k - 3)}"
)

# family 2 needs one more line and two more weighted points
c2 = code_c2(6, 5)
p2 = code_params(c2)
print(f"\ncode_c2(6,5): [{p2.n},{p2.k},{p2.d}]_5")
b = hyperplane_spectrum(c2)[(6 - 1) * 5 - 2]
print(f"maximal hyperplanes: {b} = C(4,3) + 2*C(4,2) + C(4,1) = 4 + 12 + 4")
