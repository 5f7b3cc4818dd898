"""Exact-rational orbit arithmetic for plane projective automorphisms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caustica import dml
from caustica.dml import (ExponentialFamily, FiniteSet, GroupKind, LineFamily,
                          OrbitHit, ProjectiveLine, ProjectiveMap, classify,
                          det_condition, family_detect, fixed_point_check,
                          recurrence_zeros, triple_orbit_search,
                          _det3, _mat_mul, _strip_mat)

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
    with pytest.raises(ValueError):
        ProjectiveMap([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        ProjectiveMap([[1, 1, 0], [1, 1, 0], [0, 0, 1]])  # singular
    with pytest.raises(ValueError):
        ProjectiveLine([0, 0, 0])


def test_power_strips_to_coprime_integers():
    M = ProjectiveMap([["1/2", 0, 0], [0, "1/2", 0], [0, 0, "3/2"]])
    assert M.power(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 3))
    assert M.power(0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_power_two_evaluation_orders_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        direct = BETA_EXP.power(a + b)
        split = _strip_mat(_mat_mul(BETA_EXP.power(a), BETA_EXP.power(b)))
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
                out = _strip_mat(_mat_mul(out, base))
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
        prod = _strip_mat(_mat_mul(BETA_REC.power(k), BETA_REC.power(-k)))
        assert prod == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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


def test_search_row_blocks_do_not_change_hits(monkeypatch):
    whole = [triple_orbit_search(BETA_EXP, *L_EXP, 25),
             triple_orbit_search(BETA_REC, *L_REC, 8)]
    monkeypatch.setattr(dml, "_SCREEN_ROWS", 4)
    assert [triple_orbit_search(BETA_EXP, *L_EXP, 25),
            triple_orbit_search(BETA_REC, *L_REC, 8)] == whole


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


@settings(max_examples=40, deadline=None)
@given(A=maps, rows=lines3, N=st.integers(1, 5))
def test_search_with_tiny_screen_prime(A, rows, N):
    # Modulo 3 about a third of the nonzero cells pass the screen, so
    # the exact re-check must reject them.
    beta = ProjectiveMap(A)
    lines = [ProjectiveLine(r) for r in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dml, "_SCREEN_PRIME", 3)
        hits = _search_or_none(beta, lines, N)
    assume(hits is not None)
    assert {(h.m, h.n) for h in hits} == _det_zero_cells(beta, lines, N)
    assert hits == triple_orbit_search(beta, *lines, N)


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


def test_classify_cubic_is_undetermined_with_disclaimer():
    g = classify(ProjectiveMap([[0, 0, 2], [1, 0, 0], [0, 1, 0]]))
    assert g.kind is GroupKind.UNDETERMINED
    assert "NOT rigorous" in str(g.witness)


def test_classify_invariant_under_conjugation_and_scale():
    rng = np.random.default_rng(1)
    maps = [BETA_EXP,
            ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]]),
            ProjectiveMap([[4, 0, 0], [0, 2, 0], [0, 0, 1]]),
            ProjectiveMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            ProjectiveMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]])]
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
            conj = _strip_mat(_mat_mul(_mat_mul(Gm.power(1), M.power(1)), Gm.power(-1)))
            assert classify(ProjectiveMap(conj)).kind is kind


def test_family_detect_exponential():
    hits = triple_orbit_search(BETA_EXP, *L_EXP, 25)
    rep = family_detect(hits, BETA_EXP, L_EXP)
    assert rep.pattern == ExponentialFamily(1, 2, 1, 0)
    assert len(rep.hits) >= 5


def test_family_detect_line():
    hits = triple_orbit_search(BETA_REC, *L_REC, 8)
    rep = family_detect(hits, BETA_REC, L_REC)
    assert rep.pattern == LineFamily(1, 1, 0)
    for h in rep.hits:
        assert h.m + h.n == 0


def test_family_detect_finite_below_threshold():
    hits = [OrbitHit(1, 2, (1, 1, 1)), OrbitHit(5, 3, (1, 2, 1))]
    rep = family_detect(hits, BETA_EXP, L_EXP)
    assert rep.pattern == FiniteSet(2)


def test_fixed_point_check_diagonal():
    M = ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
    assert fixed_point_check(M, ProjectiveLine([1, 1, 1])) == []
    pts = fixed_point_check(M, ProjectiveLine([1, 0, 0]))  # line x=0
    assert (0, 1, 0) in pts and (0, 0, 1) in pts and len(pts) == 2


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
