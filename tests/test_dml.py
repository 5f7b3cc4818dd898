"""Exact-rational orbit arithmetic for plane projective automorphisms."""

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caustica import dml
from caustica.dml import (ExponentialFamily, FiniteSet, GroupKind, LineFamily,
                          OrbitHit, ProjectiveLine, ProjectiveMap, classify,
                          det_condition, family_detect, fixed_point_check,
                          recurrence_zeros, triple_orbit_search,
                          _det3, _int_mat, _mat_mul, _rational_roots)

# beta with a unipotent block on eigenvalue 1 and a second eigenvalue 2;
# the three lines y-z, x+y, x+y+z produce the exponential hit family
# m = 2^n + n.
BETA_EXP = ProjectiveMap([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
L_EXP = (ProjectiveLine([0, 1, -1]),
         ProjectiveLine([1, 1, 0]),
         ProjectiveLine([1, 1, 1]))

# Diagonal with reciprocal eigenvalues; both input lines x+y-z coincide
# and the hits fill the antidiagonal m+n=0.
BETA_REC = ProjectiveMap([[2, 0, 0], [0, "1/2", 0], [0, 0, 1]])
L_REC = (ProjectiveLine([1, -1, 0]),
         ProjectiveLine([1, 1, -1]),
         ProjectiveLine([1, 1, -1]))


def true_power(M, k):
    """beta^k with exact entries (no projective rescaling), k >= 0, by
    k plain products: the reference for ProjectiveMap.power."""
    out = tuple(tuple(Fraction(int(i == j)) for j in range(3))
                for i in range(3))
    for _ in range(k):
        out = _mat_mul(out, M.matrix)
    return out


def apply_line(L, M, k):
    """Row vector L * M^k with exact entries."""
    row = [Fraction(x) for x in L.coeffs]
    P = true_power(M, k)
    return tuple(sum(row[i] * P[i][j] for i in range(3)) for j in range(3))


def test_map_validation_and_input_forms():
    M = ProjectiveMap([["1/2", 0, 0], [0, 1, 0], [0, 0, [3, 4]]])
    assert M.matrix[0][0] == Fraction(1, 2)
    assert M.matrix[2][2] == Fraction(3, 4)
    ProjectiveMap([[2.0, 0, 0], [0, 1, 0], [0, 0, 1]])  # integral float ok
    with pytest.raises(TypeError):
        ProjectiveMap([[0.5, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(TypeError):  # each part of a pair is exact too
        ProjectiveMap([[[1.5, 2], 0, 0], [0, 1, 0], [0, 0, 1]])
    for zero_den in ("1/0", [1, 0]):
        with pytest.raises(ValueError, match="zero denominator"):
            ProjectiveLine([zero_den, 0, 1])
    with pytest.raises(ValueError):
        ProjectiveMap([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        ProjectiveMap([[1, 1, 0], [1, 1, 0], [0, 0, 1]])  # singular
    with pytest.raises(ValueError):
        ProjectiveLine([0, 0, 0])


def test_records_are_immutable_values():
    # Equal inputs give equal, equally hashed maps and lines, whatever
    # form each entry is written in; no attribute can be assigned.
    M = ProjectiveMap([["1/2", 0, 0], [0, 1, 0], [0, 0, [3, 4]]])
    assert M == ProjectiveMap([[[1, 2], 0.0, 0], [0, "1", 0], [0, 0, "3/4"]])
    assert hash(M) == hash(ProjectiveMap(M.matrix))
    L = ProjectiveLine([1, 2, 3])
    assert L == ProjectiveLine(["1", 2.0, [3, 1]])
    assert hash(L) == hash(ProjectiveLine(L.coeffs))
    assert L != ProjectiveLine([2, 4, 6])  # equal as values, not up to scale
    assert repr(L) == ("ProjectiveLine(coeffs=(Fraction(1, 1), "
                       "Fraction(2, 1), Fraction(3, 1)))")
    gc = classify(BETA_EXP)
    rep = family_detect(triple_orbit_search(BETA_EXP, *L_EXP, 6), BETA_EXP)
    for record, name in ((M, "matrix"), (M, "scale"), (L, "coeffs"),
                         (gc, "kind"), (gc, "witness"), (rep, "pattern"),
                         (rep, "hits")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_power_strips_to_coprime_integers():
    M = ProjectiveMap([["1/2", 0, 0], [0, "1/2", 0], [0, 0, "3/2"]])
    assert M.power(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 3))
    assert M.power(0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_power_two_evaluation_orders_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        direct = BETA_EXP.power(a + b)
        split = _int_mat(_mat_mul(BETA_EXP.power(a), BETA_EXP.power(b)))
        assert direct == split


def test_power_equals_repeated_stripped_products():
    # Reference: |k| stripped products, one per step.
    rng = np.random.default_rng(3)
    maps = [BETA_EXP, BETA_REC]
    while len(maps) < 6:
        A = [[int(rng.integers(-3, 4)) for _ in range(3)] for _ in range(3)]
        if _det3(A) != 0:
            maps.append(ProjectiveMap(A))
    for M in maps:
        for k in range(-13, 14):
            out = tuple(tuple(Fraction(int(i == j)) for j in range(3))
                        for i in range(3))
            base = M.matrix if k >= 0 else dml._adjugate(M.matrix)
            for _ in range(abs(k)):
                out = _int_mat(_mat_mul(out, base))
            P = M.power(k)
            assert P == out
            assert all(type(x) is Fraction for r in P for x in r)


def test_power_matches_true_power_up_to_scale():
    for k in range(0, 8):
        P = BETA_EXP.power(k)
        T = true_power(BETA_EXP, k)
        # Proportional: cross-ratios of corresponding entries agree.
        pairs = [(P[i][j], T[i][j]) for i in range(3) for j in range(3)
                 if T[i][j] != 0]
        r = Fraction(pairs[0][0]) / pairs[0][1]
        assert r > 0
        assert all(Fraction(p) / t == r for p, t in pairs)
        assert all(P[i][j] == 0 for i in range(3) for j in range(3)
                   if T[i][j] == 0)


def test_negative_power_inverts():
    for k in (1, 3, 5):
        prod = _int_mat(_mat_mul(BETA_REC.power(k), BETA_REC.power(-k)))
        assert prod == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def leibniz_det(A):
    """det A as the signed sum over the six permutations."""
    total = 0
    for perm in itertools.permutations(range(3)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i, j in itertools.combinations(range(3), 2))
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def plain_product(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


kernel_entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
kernel_rows = st.lists(kernel_entries, min_size=3, max_size=3)


@st.composite
def kernel_matrices(draw):
    """Rational 3 x 3 matrices; half of them have a third row that is a
    combination of the first two, so singular ones are common."""
    r0, r1, r2 = draw(st.lists(kernel_rows, min_size=3, max_size=3))
    if draw(st.booleans()):
        s, t = draw(kernel_entries), draw(kernel_entries)
        r2 = [s * x + t * y for x, y in zip(r0, r1)]
    return (tuple(r0), tuple(r1), tuple(r2))


def assert_coprime_multiple(xs):
    ints = dml._coprime(xs)
    assert all(type(v) is int for v in ints)
    assert all(v == 0 for v, x in zip(ints, xs) if x == 0)
    nonzero = [(v, x) for v, x in zip(ints, xs) if x != 0]
    assert math.gcd(*ints) == (1 if nonzero else 0)
    if nonzero:
        scale = Fraction(nonzero[0][0]) / nonzero[0][1]
        assert scale > 0
        assert all(v == scale * x for v, x in nonzero)


@settings(max_examples=200, deadline=None)
@given(A=kernel_matrices())
def test_kernel_matches_independent_formulas(A):
    # References that share no code with the kernel: the Leibniz sum,
    # plain triple-loop products and the identity A adj(A) = det(A) I.
    d = _det3(A)
    assert d == leibniz_det(A)
    adj = dml._adjugate(A)
    scalar = tuple(tuple(d if i == j else 0 for j in range(3))
                   for i in range(3))
    assert _mat_mul(A, adj) == plain_product(A, adj) == scalar
    assert plain_product(adj, A) == scalar
    assert_coprime_multiple([x for r in A for x in r])
    for r in A:
        assert_coprime_multiple(r)


def test_det_condition_concurrent_at_origin():
    La, Lb, Lc = (ProjectiveLine(v) for v in ([1, 0, 0], [0, 1, 0], [1, 1, 0]))
    assert det_condition(BETA_EXP, La, Lb, Lc, 0, 0) == 0


def test_det_condition_exponential_zero_set():
    L1, L2, L3 = L_EXP
    assert det_condition(BETA_EXP, L1, L2, L3, 3, 1) == 0
    assert det_condition(BETA_EXP, L1, L2, L3, 6, 2) == 0
    assert det_condition(BETA_EXP, L1, L2, L3, 7, 2) != 0
    assert det_condition(BETA_EXP, L1, L2, L3, 3, 2) != 0
    # In range, the zero set is exactly m = 2^n + n.
    for m in range(-6, 7):
        for n in range(-6, 7):
            d = det_condition(BETA_EXP, L1, L2, L3, m, n)
            expect_zero = (n >= 0 and m == 2 ** n + n)
            assert (d == 0) == expect_zero


def test_search_exponential_family_exact():
    hits = triple_orbit_search(BETA_EXP, *L_EXP, 25)
    pairs = [(h.m, h.n) for h in hits]
    for mn in ((3, 1), (6, 2), (11, 3), (20, 4)):
        assert mn in pairs
    for h in hits:
        assert h.m == 2 ** h.n + h.n
        assert h.P == (h.m + 1, -1, -1)  # (-m-1 : 1 : 1) canonicalized
        # Zero residual on all three incidence conditions.
        L1, L2, L3 = L_EXP
        assert sum(Fraction(c) * p for c, p in zip(L1.coeffs, h.P)) == 0
        assert sum(c * p for c, p in zip(apply_line(L2, BETA_EXP, h.m), h.P)) == 0
        assert sum(c * p for c, p in zip(apply_line(L3, BETA_EXP, h.n), h.P)) == 0


def test_search_completeness_small_range():
    hits = triple_orbit_search(BETA_EXP, *L_EXP, 6)
    found = {(h.m, h.n) for h in hits}
    brute = {(m, n)
             for m in range(-6, 7) for n in range(-6, 7)
             if det_condition(BETA_EXP, *L_EXP, m, n) == 0}
    assert found == brute


def test_search_reciprocal_diagonals():
    hits = triple_orbit_search(BETA_REC, *L_REC, 8)
    anti = [h for h in hits if h.m == -h.n]
    assert sorted(h.m for h in anti) == list(range(-8, 9))
    for h in anti:
        x, y, z = h.P
        assert x == y != 0
        assert Fraction(z, x) == Fraction(2) ** h.m + Fraction(2) ** -h.m


def test_search_refuses_shared_orbit():
    L2 = ProjectiveLine([1, 1, 1])
    shifted = ProjectiveLine(apply_line(L2, BETA_EXP, 2))
    with pytest.raises(ValueError, match="orbit"):
        triple_orbit_search(BETA_EXP, L_EXP[0], L2, shifted, 5)


def shift_line(beta, L, k):
    """The line L . beta^k for k of either sign, by ProjectiveMap.power."""
    P = beta.power(k)
    return ProjectiveLine([sum(L.coeffs[a] * P[a][b] for a in range(3))
                           for b in range(3)])


def shared_orbit_message(beta, lines, N):
    """The distinct-orbit check stepped to |k| <= 2N: the first k in
    ascending order with L_i . beta^k = L_j, pairs in the order (1, 2),
    (1, 3), (2, 3), as triple_orbit_search words it; None if none."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        target = lines[j].canonical()
        for k in range(-2 * N, 2 * N + 1):
            if k != 0 and shift_line(beta, lines[i], k).canonical() == target:
                return (f"lines {i + 1} and {j + 1} share a beta-orbit "
                        f"(shift {k}, checked |k| <= {2 * N}); "
                        "distinct-orbit hypothesis violated")
    return None


def search_message(beta, lines, N):
    try:
        triple_orbit_search(beta, *lines, N)
    except ValueError as exc:
        return str(exc)
    return None


# beta = diag(2, 3, 1) moves every line below along an infinite orbit,
# and the three lines lie on distinct orbits.
BETA_SPARSE = ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
L_SPARSE = (ProjectiveLine([1, 2, -3]), ProjectiveLine([1, 1, -5]),
            ProjectiveLine([1, -1, 5]))


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
def test_search_refuses_shifts_up_to_twice_the_range(i, j, N):
    # Shifts beyond N are still found, from rows the cells read.
    for k in (N + 1, 2 * N, -(N + 1), -2 * N, 2 * N + 1, -(2 * N + 1)):
        lines = list(L_SPARSE)
        lines[j] = shift_line(BETA_SPARSE, lines[i], k)
        expected = None if abs(k) > 2 * N else (
            f"lines {i + 1} and {j + 1} share a beta-orbit (shift {k}, "
            f"checked |k| <= {2 * N}); distinct-orbit hypothesis violated")
        assert search_message(BETA_SPARSE, lines, N) == expected
        assert shared_orbit_message(BETA_SPARSE, lines, N) == expected


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_search_refuses_identical_lines_of_finite_order(N):
    # The swap of x and y has order 2 on (1, 2, 3): the row recurs inside
    # one line's range, so identical inputs share an orbit at k = -2N.
    swap = ProjectiveMap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    L = ProjectiveLine([1, 2, 3])
    lines = (ProjectiveLine([1, 0, 0]), L, L)
    expected = (f"lines 2 and 3 share a beta-orbit (shift {-2 * N}, "
                f"checked |k| <= {2 * N}); distinct-orbit hypothesis violated")
    assert search_message(swap, lines, N) == expected
    assert shared_orbit_message(swap, lines, N) == expected


def test_search_hits_are_python_ints():
    # A numpy integer in a hit would make the JSON artifact unwritable.
    cases = ((BETA_EXP, L_EXP, 25), (BETA_REC, L_REC, 8),
             (ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]]),
              (ProjectiveLine([1, 2, -3]), ProjectiveLine([1, 1, -5]),
               ProjectiveLine([1, -1, 5])), 40))
    for beta, lines, N in cases:
        hits = triple_orbit_search(beta, *lines, N)
        assert hits
        for h in hits:
            assert type(h.m) is int and type(h.n) is int
            assert type(h.P) is tuple
            assert all(type(x) is int for x in h.P)


def test_search_range_must_not_be_negative():
    with pytest.raises(ValueError, match="range"):
        triple_orbit_search(BETA_EXP, *L_EXP, -1)
    # N = 0 searches the one cell (0, 0): L2 = L3 = x + y - z meets
    # L1 = x - y at (1 : 1 : 2); no shift of the exponential family's
    # lines is concurrent at (0, 0), since 2^0 + 0 = 1.
    assert triple_orbit_search(BETA_REC, *L_REC, 0) == [
        OrbitHit(0, 0, (1, 1, 2))]
    assert triple_orbit_search(BETA_EXP, *L_EXP, 0) == []


small = st.integers(-3, 3)
rows3 = st.tuples(small, small, small)
maps = st.tuples(rows3, rows3, rows3).filter(lambda A: _det3(A) != 0)
lines3 = st.tuples(*(rows3.filter(any),) * 3)


def _search_or_none(beta, lines, N):
    try:
        return triple_orbit_search(beta, *lines, N)
    except ValueError:  # the lines share an orbit
        return None


def _det_zero_cells(beta, lines, N):
    """Cells where det_condition vanishes, on the power() route; the
    one cell where all three lines coincide has no point to report."""
    cells = {(m, n) for m in range(-N, N + 1) for n in range(-N, N + 1)
             if det_condition(beta, *lines, m, n) == 0}
    if len({L.canonical() for L in lines}) == 1:
        cells.discard((0, 0))
    return cells


@settings(max_examples=40, deadline=None)
@given(A=maps, rows=lines3, N=st.integers(1, 5))
def test_search_matches_det_condition(A, rows, N):
    beta = ProjectiveMap(A)
    lines = [ProjectiveLine(r) for r in rows]
    hits = _search_or_none(beta, lines, N)
    assume(hits is not None)
    assert {(h.m, h.n) for h in hits} == _det_zero_cells(beta, lines, N)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _point(v):
    """The coprime integer triple of a rational point, first nonzero
    entry positive."""
    den = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def power_route_hits(beta, lines, N):
    """Every hit (m, n, P) cell by cell on the power() route: the rows
    are L . beta^k by _vec_mat, a cell is a hit where _det3 vanishes,
    and P is r2 x r3, or L1 x r2 where the shifted rows are one line;
    the cell where all three rows are one line has no point."""
    r1 = lines[0].coeffs
    rows = [{k: dml._vec_mat(L.coeffs, beta.power(k))
             for k in range(-N, N + 1)} for L in lines[1:]]
    hits = []
    for m in range(-N, N + 1):
        for n in range(-N, N + 1):
            r2, r3 = rows[0][m], rows[1][n]
            if _det3((r1, r2, r3)) != 0:
                continue
            P = _cross(r2, r3)
            if not any(P):
                P = _cross(r1, r2)
            if any(P):
                hits.append(OrbitHit(m, n, _point(P)))
    return hits


# Which input lines are made equal: none, L1 = L2, L1 = L3, L2 = L3, or
# all three.
TIES = [(), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _tie(rows, tie):
    return [rows[tie[0]] if i in tie else r for i, r in enumerate(rows)]


@settings(max_examples=80, deadline=None)
@given(A=maps, rows=lines3, N=st.integers(0, 5), tie=st.sampled_from(TIES))
def test_search_matches_power_route_oracle(A, rows, N, tie):
    beta = ProjectiveMap(A)
    lines = [ProjectiveLine(r) for r in _tie(rows, tie)]
    hits = _search_or_none(beta, lines, N)
    assume(hits is not None)
    assert hits == power_route_hits(beta, lines, N)


@pytest.mark.parametrize("tie", TIES[1:])
@pytest.mark.parametrize("beta, rows", [
    (BETA_EXP, [[0, 1, -1], [1, 1, 0], [1, 1, 1]]),
    (BETA_REC, [[1, -1, 0], [1, 1, -1], [2, 0, 1]]),
    (ProjectiveMap([[1, 2, 0], [0, 1, 1], [1, 0, 3]]),
     [[1, 0, 0], [0, 1, -1], [1, -1, 2]])])
def test_search_with_equal_input_lines(beta, rows, tie):
    lines = [ProjectiveLine(r) for r in _tie(rows, tie)]
    hits = triple_orbit_search(beta, *lines, 4)
    assert hits == power_route_hits(beta, lines, 4)
    # A shifted row equal to L1 meets every other row on L1: with
    # L1 = L2 row m = 0 holds every other n, and with L1 = L3 column
    # n = 0 every other m.
    cells = {(h.m, h.n) for h in hits}
    if tie in ((0, 1), (0, 2)):
        zero = [(0, k) if tie == (0, 1) else (k, 0) for k in range(-4, 5)]
        assert set(zero) - {(0, 0)} <= cells


nonzero_q = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                      st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(A=maps, rows=lines3, N=st.integers(1, 5), s=nonzero_q,
       t=st.tuples(nonzero_q, nonzero_q, nonzero_q))
def test_search_invariant_under_rescaling(A, rows, N, s, t):
    hits = _search_or_none(ProjectiveMap(A),
                           [ProjectiveLine(r) for r in rows], N)
    assume(hits is not None)
    scaled = triple_orbit_search(
        ProjectiveMap([[s * x for x in r] for r in A]),
        *(ProjectiveLine([k * x for x in r]) for k, r in zip(t, rows)), N)
    assert scaled == hits


line_pairs = st.sampled_from([(0, 1), (0, 2), (1, 2)])


@settings(max_examples=80, deadline=None)
@given(A=maps, rows=lines3, N=st.integers(1, 4),
       plant=st.none() | st.tuples(line_pairs, st.integers(-9, 9)))
def test_shared_orbit_check_matches_the_2N_loop(A, rows, N, plant):
    # Random small maps include permutations and other maps of finite
    # order; a planted shift may lie inside 2N or beyond it.
    beta = ProjectiveMap(A)
    lines = [ProjectiveLine(r) for r in rows]
    if plant is not None:
        (i, j), k = plant
        lines[j] = shift_line(beta, lines[i], k)
    assert search_message(beta, lines, N) == \
        shared_orbit_message(beta, lines, N)


def test_classify_diagonal_cases():
    assert classify(ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]])).kind is GroupKind.GM2
    assert classify(ProjectiveMap([[4, 0, 0], [0, 2, 0], [0, 0, 1]])).kind is GroupKind.GM
    assert classify(BETA_EXP).kind is GroupKind.GAGM
    assert classify(ProjectiveMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]])).kind is GroupKind.GA
    assert classify(ProjectiveMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).kind is GroupKind.FINITE
    assert classify(ProjectiveMap([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])).kind is GroupKind.FINITE


def test_classify_quadratic_spectra():
    # Rotation by a quarter turn: cyclotomic, finite.
    assert classify(ProjectiveMap([[0, -1, 0], [1, 0, 0], [0, 0, 1]])).kind is GroupKind.FINITE
    # A real quadratic unit pair generates one torus.
    assert classify(ProjectiveMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]])).kind is GroupKind.GM
    # Generic quadratic ratios are independent.
    assert classify(ProjectiveMap([[1, 2, 0], [3, 4, 0], [0, 0, 1]])).kind is GroupKind.GM2
    # (t - 1)(t^2 - 2t + 2): the ratios (1 +- i)/1 have trace 2 and norm
    # 2, so tau = trace^2/norm - 2 = 0; their quotient i is torsion and
    # the group is one torus.
    g = classify(ProjectiveMap([[0, 0, 2], [1, 0, -4], [0, 1, 3]]))
    assert g.kind is GroupKind.GM
    assert (g.witness["ratio_trace"], g.witness["ratio_norm"]) == ("2", "2")


def companion(c2, c1, c0):
    """Companion matrix of t^3 + c2 t^2 + c1 t + c0."""
    return [[0, 0, -c0], [1, 0, -c1], [0, 1, -c2]]


def is_scalar(P):
    return all(P[i][j] == (P[0][0] if i == j else 0)
               for i in range(3) for j in range(3))


# t^3 - 2 and t^3 + 2 are Finite of order 3; t^3 - t - 1 (S3) and the
# cyclic t^3 + t^2 - 2t - 1 are Gm2.
@pytest.mark.parametrize("coeffs, finite", [
    ((0, 0, -2), True), ((0, 0, 2), True),
    ((0, -1, -1), False), ((1, -2, -1), False)],
    ids=["t3-2", "t3+2", "t3-t-1", "t3+t2-2t-1"])
def test_classify_companion_cubics(coeffs, finite):
    M = ProjectiveMap(companion(*coeffs))
    g = classify(M)
    assert g.kind is (GroupKind.FINITE if finite else GroupKind.GM2)
    assert g.witness == {"char_poly": [str(c) for c in coeffs],
                         "semisimple": True, "ratio_rank": 0 if finite else 2,
                         **({"order": 3} if finite else {})}
    assert [is_scalar(M.power(k)) for k in (1, 2, 3)] == [False, False, finite]


def has_constant_power(c2, c1, c0, mmax):
    """Whether t^m mod t^3 + c2 t^2 + c1 t + c0 is a constant for some
    1 <= m <= mmax, by multiplying the remainder (a0, a1, a2) by t."""
    a = (0, 1, 0)
    for _ in range(mmax):
        a = (-a[2] * c0, a[0] - a[2] * c1, a[1] - a[2] * c2)
        if a[1] == a[2] == 0:
            return True
    return False


small = st.integers(-6, 6)


# Every cubic here is monic with integer coefficients, so a rational root
# is an integer dividing c0; conjugating the companion matrix by a product
# of elementary integer matrices keeps the spectrum and the class.  The
# oracle reads only the drawn coefficients.
@settings(max_examples=200, deadline=None)
@given(c2=st.one_of(st.just(0), small), c1=st.one_of(st.just(0), small),
       c0=small.filter(bool),
       ops=st.lists(st.tuples(st.sampled_from(list(itertools.permutations(
           range(3), 2))), st.integers(-2, 2)), max_size=6))
def test_classify_irreducible_cubic_matches_power_remainders(c2, c1, c0, ops):
    assume(all(((r + c2) * r + c1) * r + c0
               for r in range(-abs(c0), abs(c0) + 1)))
    U = [[int(i == j) for j in range(3)] for i in range(3)]
    V = [row[:] for row in U]  # U^-1
    for (i, j), a in ops:  # U <- U (I + a e_ij), V <- (I - a e_ij) V
        for row in U:
            row[j] += a * row[i]
        V[i] = [x - a * y for x, y in zip(V[i], V[j])]
    M = _mat_mul(_mat_mul(U, companion(c2, c1, c0)), V)
    g = classify(ProjectiveMap(M))
    finite = has_constant_power(c2, c1, c0, 36)
    assert g.kind is (GroupKind.FINITE if finite else GroupKind.GM2)
    assert g.witness["ratio_rank"] == (0 if finite else 2)


# Five irreducible cubic maps of the benchmark's `exact` workload.
CUBIC_MAPS = [
    [[-2, -2, 3], [-2, -3, -2], [-2, 1, -2]],
    [[-1, -1, -1], [0, 1, -1], [-2, 1, -3]],
    [[1, 3, 1], [-1, 2, -1], [-1, -3, 0]],
    [[-2, 1, -1], [-1, -2, 2], [0, 2, 1]],
    [[0, 2, -3], [2, -1, 2], [2, 1, 1]],
]


@pytest.mark.parametrize("rows", CUBIC_MAPS, ids=range(len(CUBIC_MAPS)))
def test_classify_gm2_has_no_small_ratio_relation(rows):
    # Rank 2: no r1^a r2^b = 1 with 0 < max(|a|, |b|) <= 50, for the
    # ratios of the eigenvalues at 50 digits.  (a, b) and (-a, -b) agree,
    # so a > 0, or a = 0 < b.
    assert classify(ProjectiveMap(rows)).kind is GroupKind.GM2
    with mp.workdps(50):
        ev, _ = mp.eig(mp.matrix(rows))
        r1, r2 = ev[1] / ev[0], ev[2] / ev[0]
        p1 = {a: r1 ** a for a in range(51)}
        p2 = {b: r2 ** b for b in range(-50, 51)}
        closest = min(abs(p1[a] * p2[b] - 1) for a in range(51)
                      for b in range(-50, 51) if a or b > 0)
        assert closest > mp.mpf(10) ** -30


def test_classify_invariant_under_conjugation_and_scale():
    rng = np.random.default_rng(1)
    maps = [BETA_EXP,
            ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]]),
            ProjectiveMap([[4, 0, 0], [0, 2, 0], [0, 0, 1]]),
            ProjectiveMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            ProjectiveMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
            ProjectiveMap(companion(0, 0, -2)),
            ProjectiveMap(companion(0, -1, -1))]
    for M in maps:
        kind = classify(M).kind
        assert classify(ProjectiveMap([[3 * x for x in row] for row in M.matrix])).kind is kind
        for _ in range(4):
            while True:
                G = [[int(rng.integers(-4, 5)) for _ in range(3)] for _ in range(3)]
                det = (G[0][0] * (G[1][1] * G[2][2] - G[1][2] * G[2][1])
                       - G[0][1] * (G[1][0] * G[2][2] - G[1][2] * G[2][0])
                       + G[0][2] * (G[1][0] * G[2][1] - G[1][1] * G[2][0]))
                if det != 0:
                    break
            Gm = ProjectiveMap(G)
            conj = _int_mat(_mat_mul(_mat_mul(Gm.power(1), M.power(1)), Gm.power(-1)))
            assert classify(ProjectiveMap(conj)).kind is kind


def test_family_detect_exponential():
    hits = triple_orbit_search(BETA_EXP, *L_EXP, 25)
    rep = family_detect(hits, BETA_EXP)
    assert rep.pattern == ExponentialFamily(1, 2, 1, 0)
    assert len(rep.hits) >= 5


def test_family_detect_line():
    hits = triple_orbit_search(BETA_REC, *L_REC, 8)
    rep = family_detect(hits, BETA_REC)
    assert rep.pattern == LineFamily(1, 1, 0)
    for h in rep.hits:
        assert h.m + h.n == 0


def test_family_detect_finite_below_threshold():
    hits = [OrbitHit(1, 2, (1, 1, 1)), OrbitHit(5, 3, (1, 2, 1))]
    rep = family_detect(hits, BETA_EXP)
    assert rep.pattern == FiniteSet(2)


# The exhaustive family fits: every line through two hits and every
# exponential fit through three of the first 12, each with its support
# scanned over all hits, then the selection of family_detect.  The
# reference for the screened candidates.


def exhaustive_line_candidates(hits):
    cands = {}
    for h1, h2 in itertools.combinations(hits, 2):
        g = h2.n - h1.n
        h = h1.m - h2.m
        if g == 0 and h == 0:
            continue
        c = -(g * h1.m + h * h1.n)
        key = dml._primitive((g, h, c))
        if key not in cands:
            support = tuple(ht for ht in hits
                            if key[0] * ht.m + key[1] * ht.n + key[2] == 0)
            cands[key] = support
    return cands


def exhaustive_exponential_candidates(hits, bases):
    out = []
    for lam in bases:
        pw = dml._power_pairs(lam, {h.m for h in hits} | {h.n for h in hits})
        for swap in (False, True):
            pts = [(h.m, h.n) if swap else (h.n, h.m) for h in hits]
            seen = set()
            for trip in itertools.combinations(pts[:12], 3):
                (x0, y0), (x1, y1), (x2, y2) = trip
                if (x1 - x0) * (y2 - y0) == (x2 - x0) * (y1 - y0):
                    continue
                aug = [(pw[x][0], x * pw[x][1], pw[x][1], y * pw[x][1])
                       for x, y in trip]
                d = _det3(aug)
                if d == 0:
                    continue
                a, b, c = (_det3([[r[3] if k == col else r[k]
                                   for k in range(3)] for r in aug])
                           for col in range(3))
                if a == 0:
                    continue
                g = math.gcd(a, b, c, d) * (1 if d > 0 else -1)
                a, b, c, d = a // g, b // g, c // g, d // g
                if (a, b, c, d) in seen:
                    continue
                seen.add((a, b, c, d))
                support = tuple(
                    h for h, (x, y) in zip(hits, pts)
                    if a * pw[x][0] + (b * x + c - d * y) * pw[x][1] == 0)
                key = (lam, Fraction(a, d), Fraction(b, d), Fraction(c, d),
                       swap)
                out.append((key, support))
    return out


def exhaustive_family_detect(hits, beta):
    hits = sorted(hits, key=lambda h: (h.m, h.n))
    if len(hits) < 5:
        return dml.FamilyReport(FiniteSet(len(hits)), tuple(hits))
    best = None
    for key, support in exhaustive_line_candidates(hits).items():
        if len(support) < 5:
            continue
        g, h, c = key
        rank = (0, 0 if h >= 0 else 1, abs(g), abs(h), abs(c))
        cand = (-len(support), rank, LineFamily(g, h, c), support)
        if best is None or cand[:2] < best[:2]:
            best = cand
    for (lam, A, B, C, swap), support in exhaustive_exponential_candidates(
            hits, dml._spectrum_bases(beta)):
        if len(support) < 5:
            continue
        rank = (1, 0 if not swap else 1, abs(A), abs(B), abs(C))
        cand = (-len(support), rank,
                ExponentialFamily(A, lam, B, C), support)
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        return dml.FamilyReport(FiniteSet(len(hits)), tuple(hits))
    return dml.FamilyReport(best[2], best[3])


def assert_family_detect_is_exhaustive(hits, beta, prime,
                                       rows=dml._SCREEN_ROWS):
    """family_detect and both candidate generators, screened modulo
    prime in blocks of rows fits, against the exhaustive fits."""
    least = dml._FAMILY_HITS
    hits = sorted(hits, key=lambda h: (h.m, h.n))
    bases = dml._spectrum_bases(beta)
    lines = {k: s for k, s in exhaustive_line_candidates(hits).items()
             if len(s) >= least}
    fits = [(k, s) for k, s in exhaustive_exponential_candidates(hits, bases)
            if len(s) >= least]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dml, "_SCREEN_PRIME", prime)
        mp.setattr(dml, "_SCREEN_ROWS", rows)
        assert list(dml._line_candidates(hits, least).items()) == \
            list(lines.items())
        assert dml._exponential_candidates(hits, bases, least) == fits
        assert family_detect(hits, beta) == \
            exhaustive_family_detect(hits, beta)


DML_DATA = Path(__file__).parent / "data" / "dml"


# The screen as it is, modulo 3 (a third of the residuals vanish by
# chance), and one fit per block.
SCREENS = [(dml._SCREEN_PRIME, dml._SCREEN_ROWS), (3, dml._SCREEN_ROWS),
           (dml._SCREEN_PRIME, 1)]


@pytest.mark.parametrize("prime, rows", SCREENS)
@pytest.mark.parametrize("name", ["exponential", "antidiagonal", "sparse"])
def test_family_detect_matches_exhaustive_fits_on_criterion_9(name, prime,
                                                              rows):
    doc = json.loads((DML_DATA / f"{name}.input.json").read_text())
    beta = ProjectiveMap(doc["matrix"])
    hits = triple_orbit_search(
        beta, *(ProjectiveLine(L) for L in doc["lines"]), doc["range"])
    assert_family_detect_is_exhaustive(hits, beta, prime, rows)


# Spectra whose bases are integers or their inverses: 2, 1/2; 2, 4 and
# their inverses; and +-2, +-1/2 from the eigenvalues 2, -1, 1.
FAMILY_MAPS = [BETA_EXP, BETA_REC,
               ProjectiveMap([[2, 0, 0], [0, -1, 0], [0, 0, 1]])]


@st.composite
def planted_hits(draw):
    """A hit list with a planted exponential family (over a base from
    the map's spectrum, either orientation), a planted line and
    scattered cells, and the map."""
    beta = draw(st.sampled_from(FAMILY_MAPS))
    lam = draw(st.sampled_from(dml._spectrum_bases(beta)))
    A = draw(st.integers(-2, 2).filter(bool))
    B, C = draw(st.integers(-3, 3)), draw(st.integers(-6, 6))
    # lam^x is an integer for x >= 0 when lam is, for x <= 0 otherwise.
    sign = 1 if lam.denominator == 1 else -1
    xs = draw(st.sets(st.integers(0, 6), min_size=4, max_size=7))
    swap = draw(st.booleans())
    cells = set()
    for x in xs:
        y = A * lam ** (sign * x) + B * sign * x + C
        cells.add((int(y), sign * x) if not swap else (sign * x, int(y)))
    g, h = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    m0, n0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    ts = draw(st.sets(st.integers(-4, 4), max_size=7))
    cells |= {(m0 + t * h, n0 - t * g) for t in ts}
    cells |= draw(st.sets(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                          max_size=8))
    return [OrbitHit(m, n, (0, 0, 1)) for m, n in sorted(cells)], beta


@settings(max_examples=40, deadline=None)
@given(case=planted_hits(), prime=st.sampled_from([dml._SCREEN_PRIME, 3]))
def test_family_detect_matches_exhaustive_fits(case, prime):
    assert_family_detect_is_exhaustive(*case, prime)


def trial_divisors(n):
    """The positive divisors of n, by trial division up to sqrt(|n|)."""
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d))
        d += 1
    return sorted(out)


def fraction_rational_roots(c2, c1, c0):
    """_rational_roots with the polynomial evaluated in Fraction powers
    at every candidate p/q, p dividing a0 and q dividing a3: the
    rational root theorem as the reference for the integer bisection."""
    lcm = 1
    for c in (c2, c1, c0):
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    a3, a2, a1, a0 = lcm, int(c2 * lcm), int(c1 * lcm), int(c0 * lcm)
    roots = []
    if a0 == 0:
        roots.append(Fraction(0))
    else:
        for p in trial_divisors(a0):
            for q in trial_divisors(a3):
                for sgn in (1, -1):
                    r = Fraction(sgn * p, q)
                    if a3 * r ** 3 + a2 * r ** 2 + a1 * r + a0 == 0:
                        roots.append(r)
                        break
                else:
                    continue
                break
    if not roots:
        return [], None
    r = roots[0]
    p = c2 + r
    q = c1 + r * p
    disc = p * p - 4 * q
    num, den = disc.numerator, disc.denominator
    root_num = math.isqrt(abs(num)) if num >= 0 else -1
    root_den = math.isqrt(den)
    if num >= 0 and root_num * root_num == num and root_den * root_den == den:
        sq = Fraction(root_num, root_den)
        return sorted([r, (-p + sq) / 2, (-p - sq) / 2]), None
    return [r], (p, q)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(r=rationals, s=rationals, t=rationals, repeat=st.booleans(),
       quadratic=st.booleans())
def test_rational_roots_match_fraction_evaluation(r, s, t, repeat, quadratic):
    # (x - r)(x^2 + p x + q), with the rational roots s and t (r twice
    # when repeated), or with the coefficients p, q = s, t.  A zero
    # root makes a0 = 0; denominators up to 4 make a3 > 1.
    if repeat:
        s = r
    p, q = (s, t) if quadratic else (-(s + t), s * t)
    c2, c1, c0 = p - r, q - r * p, -r * q
    roots, quad = _rational_roots(c2, c1, c0)
    assert (roots, quad) == fraction_rational_roots(c2, c1, c0)
    assert r in roots
    for x in roots:
        assert x ** 3 + c2 * x ** 2 + c1 * x + c0 == 0
    if quad is not None:
        assert quadratic and roots == [r] and quad == (s, t)
    else:
        assert len(roots) == 3
        if not quadratic:
            assert sorted(roots) == sorted([r, s, t])


def prime_exponents(r):
    """Exponent vector of a nonzero rational over its primes, by trial
    division."""
    out = {}
    for v, sgn in ((abs(r.numerator), 1), (r.denominator, -1)):
        d = 2
        while d * d <= v:
            while v % d == 0:
                out[d] = out.get(d, 0) + sgn
                v //= d
            d += 1
        if v > 1:
            out[v] = out.get(v, 0) + sgn
    return out


def factored_ratio_rank(ratios):
    """Rank of the ratios' exponent matrix over their primes, by exact
    elimination: the reference for Euclid's algorithm on the exponents."""
    exps = [prime_exponents(r) for r in ratios]
    primes = sorted(set().union(*exps))
    if not primes:
        return 0
    rows = [[Fraction(e.get(p, 0)) for p in primes] for e in exps]
    return len(primes) - len(dml._null_space(rows))


# Bases of the drawn spectra: powers of 2 among them (2, 4, 8) make
# ratios that are powers of one another, so that Euclid's algorithm
# takes several steps and meets its pairs in either order.
atoms = st.sampled_from([Fraction(2), Fraction(3), Fraction(4), Fraction(8),
                         Fraction(3, 2), Fraction(5, 4)])
small_q = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                    st.integers(1, 3))


@st.composite
def rational_spectra(draw):
    """(matrix, eigenvalues): G (D + N) G^-1 for a unimodular G, with
    D = diag(eigenvalues) and N a Jordan entry above two equal ones.
    Each eigenvalue is +-s c^i d^j for a common scale s and atoms c, d,
    or a free rational, so the ratios have rank 0, 1 or 2."""
    c, d, s = draw(atoms), draw(atoms), draw(small_q)
    eig = [draw(st.sampled_from([1, -1])) * s * c ** draw(st.integers(-2, 2))
           * d ** draw(st.integers(-1, 1)) for _ in range(3)]
    if draw(st.booleans()):
        eig[2] = draw(small_q)
    jordan = draw(st.booleans())
    if jordan:
        eig[1] = eig[0]
    A = [[eig[0], int(jordan), 0], [0, eig[1], 0], [0, 0, eig[2]]]
    a, b, e, f, g, h = (draw(st.integers(-2, 2)) for _ in range(6))
    U = [[1, a, b], [0, 1, e], [0, 0, 1]]
    L = [[1, 0, 0], [f, 1, 0], [g, h, 1]]
    G = _mat_mul(U, L)  # det 1, so the adjugate is the inverse
    return _mat_mul(_mat_mul(G, A), dml._adjugate(G)), eig


@settings(max_examples=200, deadline=None)
@given(case=rational_spectra())
def test_classify_matches_factoring_oracles(case):
    A, eig = case
    beta = ProjectiveMap(A)
    witness = classify(beta).witness
    roots, quad = fraction_rational_roots(*dml._char_poly(beta.matrix))
    assert quad is None and roots == sorted(eig)
    assert witness["eigenvalues"] == [str(x) for x in roots]
    ratios = [roots[i] / roots[j] for i in range(3) for j in range(i + 1, 3)]
    assert witness["ratio_rank"] == factored_ratio_rank(ratios)


G_UNIMODULAR = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
G_INVERSE = [[1, -1, 1], [0, 1, -1], [0, 0, 1]]
J_LARGE = 6 ** 30


@pytest.mark.parametrize("A, kind, rank, semisimple, on_z0", [
    ([[2 ** 40, 0, 0], [0, 3 ** 25, 0], [0, 0, 1]], GroupKind.GM2, 2, True,
     {(1, 0, 0), (0, 1, 0)}),
    ([[10 ** 18 + 9, 0, 0], [0, 1, 0], [0, 0, 2]], GroupKind.GM2, 2, True,
     {(1, 0, 0), (0, 1, 0)}),
    ([[2 ** 40, 0, 0], [0, 4 ** 20, 0], [0, 0, 1]], GroupKind.GM, 1, True,
     {(1, 0, 0), (0, 1, 0)}),
    ([[J_LARGE, 1, 0], [0, J_LARGE, 0], [0, 0, 1]], GroupKind.GAGM, 1, False,
     {(1, 0, 0)}),
], ids=["diag-2^40-3^25-1", "diag-10^18+9-1-2", "diag-2^40-4^20-1",
        "jordan-6^30"])
def test_classify_large_entries_in_polynomial_time(A, kind, rank, semisimple,
                                                   on_z0):
    # Factoring the determinant by trial division takes time in the
    # square root of its size: more than 100 s for diag(2^40, 3^25, 1).
    # The conjugate has the same class; its fixed points on the moved
    # line L G^-1 are the images G P of those of A on L.
    def apply(M, P):
        return tuple(sum(M[i][k] * P[k] for k in range(3)) for i in range(3))
    assert _mat_mul(G_UNIMODULAR, G_INVERSE) == tuple(
        tuple(int(i == j) for j in range(3)) for i in range(3))
    line = (0, 0, 1)
    moved = tuple(sum(line[k] * G_INVERSE[k][j] for k in range(3))
                  for j in range(3))
    images = {dml._primitive(apply(G_UNIMODULAR, P)) for P in on_z0}
    conj = _mat_mul(_mat_mul(G_UNIMODULAR, A), G_INVERSE)
    for M, L, points in ((A, line, on_z0), (conj, moved, images)):
        t0 = time.perf_counter()
        beta = ProjectiveMap(M)
        g = classify(beta)
        pts = fixed_point_check(beta, ProjectiveLine(L))
        assert time.perf_counter() - t0 < 1.0
        assert g.kind is kind
        assert g.witness["ratio_rank"] == rank
        assert g.witness["semisimple"] is semisimple
        assert len(set(pts)) == len(points)
        for P in pts:
            assert sum(x * y for x, y in zip(L, P)) == 0
            assert not any(dml._cross(apply(M, P), P))
        if kind is not GroupKind.GM:
            # Isolated fixed points.  For GM the double eigenvalue 2^40
            # fixes L pointwise, and any basis of its eigenspace will do.
            assert set(pts) == points


def test_fixed_point_check_diagonal():
    M = ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
    assert fixed_point_check(M, ProjectiveLine([1, 1, 1])) == []
    pts = fixed_point_check(M, ProjectiveLine([1, 0, 0]))  # line x=0
    assert (0, 1, 0) in pts and (0, 0, 1) in pts and len(pts) == 2
    # diag(2, 2, 1) fixes the line z = 0 pointwise; x + y + z = 0 meets
    # it at (1 : -1 : 0) and misses the isolated fixed point (0 : 0 : 1).
    M = ProjectiveMap([[2, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert fixed_point_check(M, ProjectiveLine([1, 1, 1])) == [(1, -1, 0)]
    with pytest.raises(ValueError, match="beta is scalar"):
        fixed_point_check(ProjectiveMap([[3, 0, 0], [0, 3, 0], [0, 0, 3]]),
                          ProjectiveLine([1, 1, 1]))


def test_fixed_point_check_paper_instances():
    assert fixed_point_check(BETA_EXP, L_EXP[0]) == [(1, 0, 0)]
    assert fixed_point_check(BETA_REC, L_REC[0]) == [(0, 0, 1)]
    assert fixed_point_check(BETA_REC, L_REC[1]) == []
    with pytest.raises(ValueError):
        fixed_point_check(ProjectiveMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
                          ProjectiveLine([1, 1, 1]))


def test_recurrence_zeros_progression_modulus_two():
    T = ProjectiveMap([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # x <-> z swap
    rep = recurrence_zeros(T, 20)
    assert rep.zeros == tuple(range(0, 21, 2))
    assert rep.progressions == ((0, 2, 11),)


def test_recurrence_zeros_generic_no_progression():
    T = ProjectiveMap([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    rep = recurrence_zeros(T, 200)
    assert rep.progressions == ()
    assert 0 in rep.zeros  # u_0 = T^0[2][0] = 0 always


def test_recurrence_matches_direct_powers():
    rng = np.random.default_rng(2)
    for _ in range(5):
        while True:
            A = [[int(rng.integers(-3, 4)) for _ in range(3)] for _ in range(3)]
            try:
                T = ProjectiveMap(A)
                break
            except ValueError:
                continue
        rep = recurrence_zeros(T, 50)
        zeros = {m for m in range(51) if true_power(T, m)[2][0] == 0}
        assert set(rep.zeros) == zeros
