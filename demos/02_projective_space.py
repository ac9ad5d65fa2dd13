"""Projective space PG(r, q): canonical points, their indices, incidence,
span, duality.

Points and hyperplane coefficient vectors share one normal form (leftmost
nonzero coordinate scaled to 1) and one numbering, so the duality map is
just a change of reading.
"""

from griesmer import enumerate_points, field, flat_points, incident, pg, span, theta

F = field(3)

# PG(2,3): the projective plane of order 3
pts = enumerate_points(F, 2)
print(f"PG(2,3) has {len(pts)} points (theta_2 = {theta(2, 3)}):")
print(pts[:6], "...")

# array code works on point indices: vector_indices reads any nonzero
# representative, point_digits gives back the canonical coordinates
idx = pg.vector_indices(F, [(2, 1, 0), (0, 0, 2)])
print(f"(2,1,0) and (0,0,2) are points {idx.tolist()}: {pg.point_digits(3, 2, idx).tolist()}")

# hyperplanes of the plane are lines; [1,0,2] is the line x0 + 2*x2 = 0
H = (1, 0, 2)
on_line = [P for P in pts if incident(F, P, H)]
print(f"\npoints on the line {H}: {on_line}")
print(f"that is theta_1 = {theta(1, 3)} of them")

# span of two points is the unique line through them
L = span(F, [on_line[0], on_line[1]])
print(f"\nspan of the first two recovers the same line: {flat_points(F, L) == sorted(on_line)}")

# duality: coefficients become coordinates, so the hyperplane H is the
# point H of the dual plane, under the same index, and incidence is symmetric
P = (1, 2, 0)
print(f"\nthe hyperplane {H} is the point {H} of the dual plane, index {pg.point_index(3, H)}")
print("incidence survives the swap:", incident(F, P, H) == incident(F, H, P))

# counting flats: a 4-flat of PG(5,4) carries (4^5-1)/3 = 341 points
print(f"\ntheta_4 over GF(4): {theta(4, 4)}")
