"""Exact orbit arithmetic for a projective automorphism and three lines.

Over the rationals everything here is certified: a point P on L1 whose
m-th image lies on L2 and n-th image on L3 exists exactly when one 3x3
determinant vanishes, that is when the shifted lines L2 . beta^m and
L3 . beta^n meet L1 at one point.  The search joins those exact points
on coprime integer rows, no epsilons.  Infinite hit families are
recognized by exact pattern fits, and the closure group of the matrix
is classified from its spectrum.
"""

from caustica.dml import (ProjectiveLine, ProjectiveMap, classify,
                          family_detect, fixed_point_check, recurrence_zeros,
                          triple_orbit_search)

# A unipotent block riding on eigenvalue 2: hits follow m = 2^n + n.
beta = ProjectiveMap([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
lines = (ProjectiveLine([0, 1, -1]), ProjectiveLine([1, 1, 0]),
         ProjectiveLine([1, 1, 1]))
hits = triple_orbit_search(beta, *lines, 25)
print("hits with |m|, |n| <= 25:")
for h in hits:
    print(f"  m = {h.m:2d}, n = {h.n}, P = {h.P}")
rep = family_detect(hits, beta)
print(f"detected family: {rep.pattern}")
print(f"closure group: {classify(beta).kind.value}")

# Reciprocal eigenvalues 2 and 1/2 with a repeated input line: the hits
# fill both diagonals, and the antidiagonal carries P = (1:1:2^m+2^-m).
beta2 = ProjectiveMap([[2, 0, 0], [0, "1/2", 0], [0, 0, 1]])
lines2 = (ProjectiveLine([1, -1, 0]), ProjectiveLine([1, 1, -1]),
          ProjectiveLine([1, 1, -1]))
hits2 = triple_orbit_search(beta2, *lines2, 8)
anti = [h for h in hits2 if h.m + h.n == 0]
print(f"\nreciprocal pair: {len(hits2)} hits, {len(anti)} on m + n = 0")
print(f"sample P at m = 3: {next(h.P for h in anti if h.m == 3)}")
print(f"family: {family_detect(hits2, beta2).pattern}")

# Classification across the spectrum zoo.
for rows in ([[2, 0, 0], [0, 3, 0], [0, 0, 1]],
             [[4, 0, 0], [0, 2, 0], [0, 0, 1]],
             [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
             [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
             [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
             [[0, 0, 2], [1, 0, 0], [0, 1, 0]],  # t^3 - 2: order 3
             [[0, 0, 1], [1, 0, 1], [0, 1, 0]]):  # t^3 - t - 1
    g = classify(ProjectiveMap(rows))
    print(f"{rows} -> {g.kind.value}")

# Fixed points on a line, exactly.
print(f"\nfixed points of the first map on y = z: "
      f"{fixed_point_check(beta, lines[0])}")

# Zeros of the associated linear recurrence come in arithmetic
# progressions plus finitely many strays.
T = ProjectiveMap([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
rz = recurrence_zeros(T, 20)
print(f"recurrence zeros up to 20: {rz.zeros}")
print(f"arithmetic progressions (start, step, length): {rz.progressions}")
