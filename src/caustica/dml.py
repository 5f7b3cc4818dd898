"""Orbits of plane projective automorphisms meeting three lines.

A projective automorphism beta of P^2 over Q acts on lines by
L -> L . beta (row vector times matrix).  Given lines L1, L2, L3, a
triple (P, m, n) with P in L1, beta^m(P) in L2, beta^n(P) in L3
exists exactly when

    det [ L1 ; L2 . beta^m ; L3 . beta^n ] = 0,

and is then unique when the shifted lines are pairwise distinct.  All
computations here are exact over the rationals: matrix powers strip
common factors (projectively harmless) so entry bit-size stays linear
in the exponent, hits are certified by zero residual, and the closure
group of the cyclic group generated by beta is classified from the
Jordan structure and the multiplicative relations of the eigenvalue
ratios (Euclid's algorithm on the exponents for rational ratios, norm
and trace arguments for quadratic ones, and two characteristic
coefficients for an irreducible cubic).  Nothing is factored: rational
eigenvalues are integer roots of a monic cubic, found by exact
bisection, so the spectrum costs time polynomial in the bit size.
Infinite families among the hits are detected by exact pattern fits:
lines in Z^2 and exponential families m = A lambda^n + B n + C with
lambda taken from the spectrum.

The exact kernel has one mechanism per computation.  One rescaling,
_coprime, turns rationals into coprime integers by one positive factor:
the canonical rows of lines, the integer matrices of beta and its
powers, and the integer cubic of the rational root test.  One dot and
one cross product build the rest: det A = A0 . (A1 x A2), the columns
of adj A are the cross products of pairs of rows, matrix products are
dots of rows with columns, and Cramer's numerators are adj(M) y.  Each
call derives the spectrum once, by _spectrum, and each eigenspace is
the exact null space of A - lambda I.

The orbit search runs on Python integers and the standard library.
beta and its adjugate are rescaled once to integer matrices, and each
line is stepped once, to its coprime integer rows L . beta^k with
|k| <= N.  The distinct-orbit check reads the same rows:
L_i . beta^k = L_j for some 0 < |k| <= 2N exactly when
L_i . beta^a = L_j . beta^b for some |a|, |b| <= N with a != b,
because the differences a - b are exactly the k with 0 < |k| <= 2N.
Cell (m, n) is a hit exactly when L1, L2 . beta^m and L3 . beta^n are
concurrent, that is when the two shifted lines meet L1 at one point, so
the cells are found by one exact join of those meeting points, in time
linear in N plus the number of hits.  The family fits hold lambda^x as
an integer pair and solve by Cramer's rule on integer rows; they are
screened modulo a prime with numpy, which only the fits import, and
only a fit that can cover enough hits to be reported is solved
exactly.
"""

import enum
import itertools
import math
from fractions import Fraction
from typing import NamedTuple


def _frac(x):
    """An exact rational from an int, an integral float, a string "p/q"
    or a pair [p, q] of integers, each part under the same rule.  A
    boolean or a non-integral float raises TypeError, a zero
    denominator ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        if x.is_integer():
            return Fraction(int(x))
        raise TypeError(f"float {x!r} is not exact; write \"p/q\" or [p, q]")
    if isinstance(x, (list, tuple)) and len(x) == 2:
        p, q = (_frac(v) for v in x)
        if p.denominator != 1 or q.denominator != 1:
            raise TypeError(f"[p, q] needs integers p and q: {x!r}")
        if q == 0:
            raise ValueError(f"zero denominator in {x!r}")
        return p / q
    raise TypeError(f"not an exact rational: {x!r}")


def _row(xs):
    """A row of exact rationals by _frac; a string is a value, not a row,
    and raises TypeError rather than being read one character at a time.
    """
    if isinstance(xs, str):
        raise TypeError(f"a row must be a list, not the string {xs!r}")
    return tuple(_frac(x) for x in xs)


def _primitive(v, multiple=0):
    """Divide an integer triple by its gcd, first nonzero entry > 0.

    A known small multiple of the gcd, if given, makes the gcd of long
    entries cheap: each step is then a remainder by a small number.
    """
    g = math.gcd(multiple, *v)
    if g == 0:
        raise ValueError("zero vector has no projective class")
    if (v[0] or v[1] or v[2]) < 0:
        g = -g
    return (v[0] // g, v[1] // g, v[2] // g)


def _coprime(xs):
    """The integers proportional to the rationals xs by one positive
    factor, with gcd 1; zeros stay zeros."""
    den = math.lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (den // x.denominator) for x in xs]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _canon(v):
    """Scale a rational triple to coprime integers, first nonzero > 0."""
    return _primitive(_coprime(v))


def _int_mat(A):
    """Rescale a matrix by one positive factor to coprime integers.

    A single scalar keeps the projective map; per-row scaling would
    change it.
    """
    flat = _coprime([x for r in A for x in r])
    return (flat[0:3], flat[3:6], flat[6:9])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _vec_mat(v, A):
    return tuple(_dot(v, c) for c in zip(*A))


def _mat_mul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(_dot(r, c) for c in cols) for r in A)


def _det3(A):
    return _dot(A[0], _cross(A[1], A[2]))


def _adjugate(A):
    """Exact inverse up to scale (det-free): row i of A dotted with
    column j of the adjugate is det(A) when i = j and 0 otherwise, so
    column j is the cross product of the other two rows, in cyclic
    order."""
    return tuple(zip(_cross(A[1], A[2]), _cross(A[2], A[0]),
                     _cross(A[0], A[1])))


class _Matrix(NamedTuple):
    matrix: tuple


class ProjectiveMap(_Matrix):
    """3x3 invertible matrix of exact rationals, up to scale."""

    __slots__ = ()  # no instance __dict__: no attribute can be set

    def __new__(cls, rows):
        m = tuple(_row(r) for r in rows)
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("need a 3x3 matrix")
        if _det3(m) == 0:
            raise ValueError("projective map must be invertible")
        return super().__new__(cls, m)

    def power(self, k):
        """beta^k up to scale, by square-and-multiply with gcd stripping
        after every product (entry bit-size linear in |k|).  Each
        stripped factor is a positive multiple of a power of the base,
        so the result is the unique coprime integer matrix that is a
        positive multiple of base^|k|, whatever the order of products.
        The products are of integer matrices; the entries are returned
        as Fractions."""
        base = _int_mat(self.matrix if k >= 0 else _adjugate(self.matrix))
        out = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        k = abs(k)
        while k:
            if k & 1:
                out = _int_mat(_mat_mul(out, base))
            k >>= 1
            if k:
                base = _int_mat(_mat_mul(base, base))
        return tuple(tuple(Fraction(x) for x in r) for r in out)


class _Coeffs(NamedTuple):
    coeffs: tuple


class ProjectiveLine(_Coeffs):
    """Coefficient triple of an exact rational linear form, up to scale."""

    __slots__ = ()

    def __new__(cls, coeffs):
        c = _row(coeffs)
        if len(c) != 3 or all(x == 0 for x in c):
            raise ValueError("line needs a nonzero coefficient triple")
        return super().__new__(cls, c)

    def canonical(self):
        return _canon(self.coeffs)


class GroupKind(enum.Enum):
    FINITE = "Finite"
    GA = "Ga"
    GM = "Gm"
    GAGM = "GaGm"
    GM2 = "Gm2"


class GroupClass(NamedTuple):
    kind: GroupKind
    witness: dict


class OrbitHit(NamedTuple):
    m: int
    n: int
    P: tuple


class LineFamily(NamedTuple):
    g: int
    h: int
    c: int


class ExponentialFamily(NamedTuple):
    A: Fraction
    lam: Fraction
    B: Fraction
    C: Fraction


class FiniteSet(NamedTuple):
    size: int


class FamilyReport(NamedTuple):
    pattern: object
    hits: tuple


# ---------------------------------------------------------------------------
# spectrum


def _char_poly(A):
    """Monic characteristic coefficients (c2, c1, c0) of
    t^3 + c2 t^2 + c1 t + c0."""
    tr = A[0][0] + A[1][1] + A[2][2]
    m2 = (A[1][1] * A[2][2] - A[1][2] * A[2][1]
          + A[0][0] * A[2][2] - A[0][2] * A[2][0]
          + A[0][0] * A[1][1] - A[0][1] * A[1][0])
    return -tr, m2, -_det3(A)


def _integer_root(b2, b1, b0):
    """One integer root of g(u) = u^3 + b2 u^2 + b1 u + b0, or None.

    Every real root lies within the Cauchy bound B = 1 + max |b_i|.
    With d = b2^2 - 3 b1 and s = isqrt(d), k1 = (-b2 - s - 1) // 3 and
    k2 = (-b2 + s) // 3 bracket the critical points (-b2 -+ sqrt(d)) / 3
    so that g is monotone on each of the integer runs -B..k1,
    k1 + 1..k2 and k2 + 1..B (one run -B..B when d <= 0).  Each run is
    bisected in exact integers for the first u where g meets zero or
    leaves the sign it has at the run's start, and that one candidate
    is tested: O(bit size) evaluations in all.
    """
    def g(u):
        return ((u + b2) * u + b1) * u + b0
    bound = 1 + max(abs(b2), abs(b1), abs(b0))
    d = b2 * b2 - 3 * b1
    s = math.isqrt(max(d, 0))
    ks = [(-b2 - s - 1) // 3, (-b2 + s) // 3] if d > 0 else []
    cuts = [-bound - 1, *ks, bound]  # the runs are cuts[i] + 1..cuts[i + 1]
    for lo, hi in zip(cuts, cuts[1:]):
        # An empty run tests its one start, harmlessly: any root will do.
        a, b = lo + 1, hi + 1
        sign = g(a)
        if sign == 0:
            return a
        while b - a > 1:  # g(a) has the sign; b = hi + 1 or g(b) does not
            mid = (a + b) // 2
            if g(mid) * sign > 0:
                a = mid
            else:
                b = mid
        if b <= hi and g(b) == 0:
            return b
    return None


def _rational_roots(c2, c1, c0):
    """Rational roots (with multiplicity) of t^3 + c2 t^2 + c1 t + c0,
    plus the residual quadratic (p, q) for t^2 + p t + q, or None.

    Any rational root serves to deflate: a cubic with two rational roots
    has three, and they are returned sorted."""
    a3, a2, a1, a0 = _coprime((1, c2, c1, c0))
    # With u = a3 t, a3^2 times the polynomial is the monic integer cubic
    # u^3 + a2 u^2 + a1 a3 u + a0 a3^2, whose rational roots are integers.
    u = _integer_root(a2, a1 * a3, a0 * a3 * a3)
    if u is None:
        return [], None
    r = Fraction(u, a3)
    # Deflate: t^3 + c2 t^2 + c1 t + c0 = (t - r)(t^2 + p t + q)
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


def _spectrum(A):
    """Rational eigenvalues of A, sorted with multiplicity, and the
    residual quadratic or None, as _rational_roots gives them."""
    return _rational_roots(*_char_poly(A))


def _eigenspace(A, lam):
    """Basis of the exact null space of A - lam I."""
    return _null_space([[x - lam if i == j else x for j, x in enumerate(r)]
                        for i, r in enumerate(A)])


def _ratio_rank(ratios):
    """Rank modulo torsion (+-1) of the multiplicative group generated by
    the ratios of three rational eigenvalues, which is at most 2.

    Each ratio other than +-1 is taken as x = max(|r|, 1/|r|) > 1.  Two
    such x are dependent exactly when both are powers of one c = u/v in
    lowest terms.  Then, as u^k / v^k is in lowest terms too, the larger
    is the smaller times a power of c, and its numerator and denominator
    are divisible by the smaller's: Euclid's algorithm runs on the
    exponents without knowing them, and a failed division proves the
    pair independent.  Each step divides the larger numerator by one
    above 1, so the loop ends.  The rank is 2 when some x is independent
    of the first, and otherwise 1, or 0 when no x is left.
    """
    xs = [max(abs(r), 1 / abs(r)) for r in ratios if abs(r) != 1]
    for b in xs[1:]:
        a = xs[0]
        while a != 1 and b != 1:
            if a < b:
                a, b = b, a
            if a.numerator % b.numerator or a.denominator % b.denominator:
                return 2
            a /= b
    return min(1, len(xs))


def classify(beta):
    """Closure-group class of the cyclic group generated by beta.

    Eigenvalues are computed exactly; the class follows from the Jordan
    structure (unipotent part -> Ga factor) and the rank of the
    multiplicative-relation lattice of the eigenvalue ratios (0, 1, 2
    -> torsion only / Gm / Gm^2).  Rational eigenvalues come from
    integer bisection of a monic cubic (_integer_root), and rational
    ratios are compared by Euclid's algorithm on their exponents
    (_ratio_rank), both without factoring; a conjugate quadratic pair
    through the exact norm and trace (modulus pins relations to the
    antidiagonal, where only a root-of-unity quotient survives).

    An irreducible cubic spectrum, p = t^3 + c2 t^2 + c1 t + c0 with no
    rational root, is Finite of order 3 when c2 = c1 = 0 and Gm2
    otherwise (J.-P. Serre, Linear Representations of Finite Groups,
    GTM 42, part III):
    - p is irreducible over Q, so its roots r1, r2, r3 are distinct:
      beta is semisimple, and the Galois group G (A3 or S3) of the
      splitting field K permutes the roots transitively.
    - The relations (a1, a2, a3) with r1^a1 r2^a2 r3^a3 = 1 and
      a1 + a2 + a3 = 0 are the relations among the ratios.  They form
      a G-stable sublattice of the sum-zero plane, and that plane is an
      irreducible Q-representation of both A3 and S3, so the ratio rank
      is 0 or 2, never 1.
    - Rank 0 means r1^m = r2^m = r3^m = a for some m >= 1, and a is
      fixed by G, so a is in Q: p divides t^m - a, and every ratio is a
      root of unity in K, whose degree is 3 or 6.
      - A cyclic cubic K is real, so its roots of unity are +-1, and
        r1 . {1, -1} holds no three distinct roots.
      - A K of degree 6 (S3) holds a root of unity of order w only if
        phi(w) divides 6, so w divides 4, 6, 14 or 18.  Q(zeta_7) and
        Q(zeta_9) are cyclic of degree 6, so not K, and Q(zeta_8) and
        Q(zeta_12) have degree 4: the roots of unity of K lie in mu_4
        or in mu_6.
      - mu_4: the roots are three of r1 . {1, i, -1, -i}, which sum to
        0, so the fourth value is s = -(r1 + r2 + r3) = c2 in Q, and
        p (t - s) = t^4 - s^4 = (t - s)(t + s)(t^2 + s^2).  Then -s is
        a rational root of p, a contradiction.
      - mu_6: every zeta in mu_6 has zeta^3 = +-1, so each cube ri^3 is
        b or -b, with b = r1^3.  Cubing commutes with G, which is
        transitive on the roots, so each value it takes has the same
        number of roots over it; three roots do not split 2 + 1, so
        r1^3 = r2^3 = r3^3 = b.  b is fixed by G, so b is in Q, p
        divides t^3 - b, and p = t^3 - b: c2 = c1 = 0.
    - Conversely, by Cayley-Hamilton M^3 = -(c2 M^2 + c1 M) - c0 I, so
      M^3 is scalar exactly when c2 M^2 + c1 M is.  p is the minimal
      polynomial, so I, M and M^2 are independent, and that holds
      exactly when c2 = c1 = 0.  M itself is not scalar, so the order
      is 3; of the orders m whose roots of unity K can hold, only 3
      occurs.
    The witness is exact: the coefficients, semisimple, the ratio rank
    and, when finite, the order.
    """
    A = beta.matrix
    c2, c1, c0 = _char_poly(A)
    roots, quad = _rational_roots(c2, c1, c0)

    if quad is None and roots:
        eig = roots
        semisimple = all(len(_eigenspace(A, lam)) == eig.count(lam)
                         for lam in set(eig))
        ratios = [eig[i] / eig[j] for i in range(3) for j in range(i + 1, 3)]
        rank = _ratio_rank(ratios)
        witness = {"eigenvalues": [str(x) for x in eig],
                   "semisimple": semisimple, "ratio_rank": rank}
        if rank == 0:
            kind = GroupKind.FINITE if semisimple else GroupKind.GA
        elif rank == 1:
            kind = GroupKind.GM if semisimple else GroupKind.GAGM
        else:
            kind = GroupKind.GM2
        return GroupClass(kind, witness)

    if quad is not None:
        lam0 = roots[0]
        p, q = quad  # conjugate pair of t^2 + p t + q, irrational
        rsum = -p / lam0
        rprod = q / (lam0 * lam0)
        witness = {"eigenvalues": [str(lam0), f"roots of t^2 + ({p}) t + ({q})"],
                   "semisimple": True,
                   "ratio_trace": str(rsum), "ratio_norm": str(rprod)}
        # Cyclotomic conjugate ratio pairs (orders 3, 4, 6).
        if (rsum, rprod) in ((Fraction(-1), Fraction(1)),
                             (Fraction(0), Fraction(1)),
                             (Fraction(1), Fraction(1))):
            return GroupClass(GroupKind.FINITE, witness)
        if rprod in (Fraction(1), Fraction(-1)) or rsum == 0:
            return GroupClass(GroupKind.GM, witness)
        tau = rsum * rsum / rprod - 2
        if tau in (Fraction(-1), Fraction(0), Fraction(1)):
            return GroupClass(GroupKind.GM, witness)
        return GroupClass(GroupKind.GM2, witness)

    # Irreducible cubic: Finite of order 3 exactly when p = t^3 + c0.
    finite = c2 == 0 and c1 == 0
    witness = {"char_poly": [str(c2), str(c1), str(c0)], "semisimple": True,
               "ratio_rank": 0 if finite else 2}
    if finite:
        witness["order"] = 3
        return GroupClass(GroupKind.FINITE, witness)
    return GroupClass(GroupKind.GM2, witness)


# ---------------------------------------------------------------------------
# orbit search


def det_condition(beta, L1, L2, L3, m, n):
    """Exact determinant of [L1; L2.beta^m; L3.beta^n]; zero exactly
    when the lines L1, beta^-m(L2), beta^-n(L3) are concurrent."""
    r1 = L1.coeffs
    r2 = _vec_mat(L2.coeffs, beta.power(m))
    r3 = _vec_mat(L3.coeffs, beta.power(n))
    return _det3((r1, r2, r3))


def _shift_rows(fwd, bwd, L, N):
    """Canonical rows L.beta^k for k = -N..N, in that order, stepped as
    coprime integer rows; fwd and bwd are integer matrices of beta and
    beta^-1.

    For a coprime row r and an integer matrix A, r.A.adj(A) = det(A) r,
    so the gcd of r.A divides det(A).
    """
    rows = {0: _canon(L.coeffs)}
    for sign, A in ((1, fwd), (-1, bwd)):
        d = _det3(A)
        c0, c1, c2 = zip(*A)
        r = rows[0]
        for k in range(1, N + 1):
            r = _primitive((_dot(r, c0), _dot(r, c1), _dot(r, c2)), d)
            rows[sign * k] = r
    return [rows[k] for k in range(-N, N + 1)]


def triple_orbit_search(beta, L1, L2, L3, N):
    """All exact hits (m, n, P) with |m|, |n| <= N: P in L1 with
    beta^m(P) in L2 and beta^n(P) in L3.

    Pairwise shifted coincidences L_i . beta^k = L_j for 0 < |k| <= 2N
    violate the distinct-orbit hypothesis and raise, naming the
    smallest such k; identical input lines (k = 0) are allowed, since
    the example families of interest live exactly there, and then hits
    with equal shifted rows are resolved against L1.  Output is sorted
    by (m, n).

    Each line is stepped once, to the rows L . beta^k with |k| <= N,
    and one table of rows per line serves the join below and the
    hypothesis check.  The check needs no further rows:
    L_i . beta^k = L_j for some 0 < |k| <= 2N exactly when
    L_i . beta^a = L_j . beta^b for some |a|, |b| <= N with a != b,
    since k = a - b one way and k splits into such a - b the other.
    Rows are canonical coprime integer triples, so equal lines are
    equal tuples.

    The shifted lines are coprime integer rows r2(m), r3(n).  Three
    distinct lines are dependent exactly when they are concurrent, and
    then they share the point r2(m) x L1 = r3(n) x L1; equal rows
    r2(m) = r3(n) meet L1 there too, and a row equal to L1 meets every
    other row on L1.  So each row is reduced once to its canonical point
    on L1 (None when it is L1), the line-3 points are keyed in a dict,
    and the hits are read off by one join with the line-2 points: equal
    points, a line-3 row equal to L1, or a line-2 row equal to L1 with
    P the line-3 point.  The cell where both rows are L1 has no point
    and is skipped.  Every P is certified by three zero dot products.
    A negative N raises ValueError; N = 0 searches the one cell (0, 0).
    """
    if N < 0:
        raise ValueError(f"range must be at least 0, got {N}")
    fwd = _int_mat(beta.matrix)
    bwd = _adjugate(fwd)
    shifts = [_shift_rows(fwd, bwd, L, N) for L in (L1, L2, L3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # a and b index the shifts -N..N.  The largest b whose row in
        # line j is line i's row at a gives the smallest k = a - b at a;
        # b = a only when L_i = L_j, and then shift -N (a = 0) meets the
        # smallest k of all.
        last = {r: b for b, r in enumerate(shifts[j])}
        ks = [a - last[r] for a, r in enumerate(shifts[i])
              if last.get(r, a) != a]
        if ks:
            raise ValueError(
                f"lines {i + 1} and {j + 1} share a beta-orbit "
                f"(shift {min(ks)}, checked |k| <= {2 * N}); "
                "distinct-orbit hypothesis violated")

    # Where each shifted row of lines 2 and 3 meets L1; None where it
    # is L1.
    row1 = shifts[0][N]
    meets = [[_primitive(_cross(row1, r)) if r != row1 else None
              for r in rows] for rows in shifts[1:]]
    ns = {}
    for n, P in enumerate(meets[1], -N):
        ns.setdefault(P, []).append(n)
    hits = []
    for m, P2 in enumerate(meets[0], -N):
        if P2 is None:  # L2.beta^m is L1: it meets every other row on L1
            cells = [(n, P) for n, P in enumerate(meets[1], -N)
                     if P is not None]
        else:  # L3.beta^n through P2, or L3.beta^n equal to L1
            cells = [(n, P2) for n in ns.get(P2, []) + ns.get(None, [])]
        for n, P in cells:
            assert _dot(row1, P) == 0
            assert _dot(shifts[1][m + N], P) == 0
            assert _dot(shifts[2][n + N], P) == 0
            hits.append(OrbitHit(m, n, P))
    hits.sort(key=lambda h: (h.m, h.n))
    return hits


def fixed_point_check(beta, L):
    """Exact fixed points of beta lying on L.

    Eigenvector points for rational eigenvalues; a two-dimensional
    eigenspace is a pointwise-fixed line and contributes its
    intersection with L.  A quadratic or cubic irrational spectrum has
    no exact eigenvectors at this tier and raises.
    """
    A = beta.matrix
    roots, quad = _spectrum(A)
    if quad is not None or not roots:
        raise ValueError("spectrum not rational; exact fixed points "
                         "unsupported")
    out = []
    for lam in sorted(set(roots)):
        basis = _eigenspace(A, lam)
        if len(basis) == 1:
            if _dot(L.coeffs, basis[0]) == 0:
                out.append(_canon(basis[0]))
        elif len(basis) == 2:
            v1, v2 = basis
            a1, a2 = _dot(L.coeffs, v1), _dot(L.coeffs, v2)
            if a1 == 0 and a2 == 0:
                out.append(_canon(v1))
                out.append(_canon(v2))
            else:
                # a2 v1 - a1 v2 is not zero: v1 and v2 are independent
                # and a1, a2 are not both zero.
                out.append(_canon(tuple(a2 * x - a1 * y
                                        for x, y in zip(v1, v2))))
        elif len(basis) == 3:
            raise ValueError("beta is scalar; every point is fixed")
    return list(dict.fromkeys(out))


def _null_space(M):
    """Basis of the exact null space of a rational matrix of any shape,
    by Gauss-Jordan elimination to reduced row echelon form."""
    M = [list(r) for r in M]
    rows, cols = len(M), len(M[0])
    pivots = []
    rank, col = 0, 0
    while rank < rows and col < cols:
        piv = next((i for i in range(rank, rows) if M[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][col]
        M[rank] = [x * inv for x in M[rank]]
        for i in range(rows):
            if i != rank and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        pivots.append(col)
        rank += 1
        col += 1
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * cols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][j]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# family detection


# A family is reported only when it covers at least this many hits.
_FAMILY_HITS = 5

# The modular screen of the exponential fits.  Residues are below 2^30,
# so a sum of four products of residues stays below 2^62 and one int64
# matrix product screens a block of fits without overflow.
_SCREEN_PRIME = 1073741789  # the largest prime below 2^30
_SCREEN_ROWS = 256  # fits screened at once: memory O(rows * hits)


def _spectrum_bases(beta):
    """Candidate exponential bases: rational eigenvalue ratios that are
    not roots of unity."""
    roots, quad = _spectrum(beta.matrix)
    if quad is not None or not roots:
        return []
    out = []
    for i in range(3):
        for j in range(3):
            if i != j:
                r = roots[i] / roots[j]
                if r not in (1, -1) and r not in out:
                    out.append(r)
    return out


def _line_candidates(hits, least):
    """Lines g m + h n + c = 0 through at least `least` of the hits, as
    {(g, h, c) primitive: support} in order of their first pair.

    The hits are distinct cells, so a line through s of them is met by
    exactly s (s - 1) / 2 pairs: the pair count of a key gives s, and
    only a key with s >= least has its support scanned.  The key of a
    pair is _primitive((g, h, c)); gcd(g, h) divides c, so it is the
    gcd of the triple.
    """
    pairs = {}
    for h1, h2 in itertools.combinations(hits, 2):
        g, h = h2.n - h1.n, h1.m - h2.m
        if g or h:  # equal cells span no line
            key = _primitive((g, h, -(g * h1.m + h * h1.n)))
            pairs[key] = pairs.get(key, 0) + 1
    return {key: tuple(ht for ht in hits
                       if key[0] * ht.m + key[1] * ht.n + key[2] == 0)
            for key, count in pairs.items()
            if 2 * count >= least * (least - 1)}


def _power_pairs(lam, xs):
    """lam^x as an integer pair (u, v), v > 0, for each x in xs."""
    p, q = lam.numerator, lam.denominator
    out = {}
    for x in xs:
        u, v = (p ** x, q ** x) if x >= 0 else (q ** -x, p ** -x)
        out[x] = (u, v) if v > 0 else (-u, -v)
    return out


def _collinear(p0, p1, p2):
    return ((p1[0] - p0[0]) * (p2[1] - p0[1])
            == (p2[0] - p0[0]) * (p1[1] - p0[1]))


def _cofactors_mod(r0, r1, r2, p):
    """w with w . x = det [x; r0; r1; r2] modulo p, for rows of four
    residue arrays, by the 2 x 2 minors of r1 and r2.  Each product is
    of two residues below p."""
    m = {(i, j): (r1[i] * r2[j] - r1[j] * r2[i]) % p
         for i, j in itertools.combinations(range(4), 2)}

    def det3(i, j, k):  # rows r0, r1, r2; columns i < j < k
        return (r0[i] * m[j, k] - r0[j] * m[i, k] + r0[k] * m[i, j]) % p
    return (det3(1, 2, 3), -det3(0, 2, 3) % p,
            det3(0, 1, 3), -det3(0, 1, 2) % p)


def _exponential_candidates(hits, bases, least):
    """Exact fits m = A lam^n + B n + C (and with m, n exchanged) that
    cover at least `least` hits, as ((lam, A, B, C, swap), support).

    With lam^x = u_x / v_x, the fit through three points solves the
    integer system M (A, B, C) = Y, with rows (u_x, x v_x, v_x) of M
    and entries y v_x of Y, by Cramer's rule: (a, b, c) = adj(M) Y and
    d = det M give (A, B, C) = (a, b, c) / d.  Collinear triples are
    skipped: a fit with A = 0 puts its three points on the line
    y = B x + C, so every fit of the others has A != 0.  A point is
    covered exactly when a u_x + (b x + c - d y) v_x = 0, which is the
    determinant of the 4 x 4 rows of the point and the triple.

    The triples are drawn only from the first min(12, len(hits)) hits,
    in the (m, n) order family_detect sorts them in; the support of each
    fit is then scanned over all hits.  So a family with fewer than
    three members among those 12 hits is never fitted.

    Every triple of every (lam, swap) is first screened modulo
    _SCREEN_PRIME in one int64 pass, _SCREEN_ROWS fits at a time
    (memory O(rows * hits)): the cofactors (a, b, c, -d) and the
    residual of every hit are taken modulo the prime, and a triple is
    fitted exactly only if its residual vanishes there at `least` hits
    or more.  An exact zero is zero modulo the prime, so the screen
    drops no fit that covers `least` hits.  Each (lam, A, B, C, swap)
    appears once, in order of its first fit: a triple inside the support
    of an earlier fit of its (lam, swap) is not solved, since three
    points with d != 0 fit only that one, and d = 0 fits nothing.
    """
    if not bases:
        return []
    p = _SCREEN_PRIME
    pairs = [(lam, swap) for lam in bases for swap in (False, True)]
    pws = {lam: _power_pairs(lam, {h.m for h in hits} | {h.n for h in hits})
           for lam in bases}
    pts = {swap: [(h.m, h.n) if swap else (h.n, h.m) for h in hits]
           for swap in (False, True)}
    trips = [t for t in itertools.combinations(range(min(12, len(hits))), 3)
             if not _collinear(*(pts[False][i] for i in t))]
    if not trips:
        return []
    import numpy as np

    # Column h of G[q] is the row (u_x, x v_x, v_x, y v_x) of hit h
    # under the q-th (lam, swap), modulo p; rows[k] holds the k-th point
    # of every triple.
    res = [{x: (u % p, v % p) for x, (u, v) in pws[lam].items()}
           for lam in bases]
    UV = np.array([[r[x] for x, _ in pts[swap]]
                   for r in res for swap in (False, True)], dtype=np.int64)
    XY = np.array([pts[swap] for _, swap in pairs], dtype=np.int64) % p
    U, V = UV[..., 0], UV[..., 1]
    G = np.stack([U, XY[..., 0] * V % p, V, XY[..., 1] * V % p], axis=1)
    rows = [G[:, :, list(col)].swapaxes(0, 1) for col in zip(*trips)]
    F = np.stack(_cofactors_mod(*rows, p), axis=-1)  # (a, b, c, -d)
    step = max(1, _SCREEN_ROWS // len(pairs))
    covered = np.concatenate(
        [((F[:, lo:lo + step] @ G) % p == 0).sum(axis=2)
         for lo in range(0, len(trips), step)], axis=1)

    out = []
    supports = [[] for _ in pairs]  # hit indices of each fit, per q
    for q, t in zip(*(ix.tolist() for ix in np.nonzero(covered >= least))):
        if any(s.issuperset(trips[t]) for s in supports[q]):
            continue
        lam, swap = pairs[q]
        pw, xy = pws[lam], pts[swap]
        fit = [xy[i] for i in trips[t]]
        M = [(pw[x][0], x * pw[x][1], pw[x][1]) for x, _ in fit]
        d = _det3(M)
        if d == 0:
            continue
        yv = [y * pw[x][1] for x, y in fit]
        a, b, c = (_dot(r, yv) for r in _adjugate(M))
        g = math.gcd(a, b, c, d) * (1 if d > 0 else -1)
        a, b, c, d = a // g, b // g, c // g, d // g
        idx = [i for i, (x, y) in enumerate(xy)
               if a * pw[x][0] + (b * x + c - d * y) * pw[x][1] == 0]
        supports[q].append(set(idx))
        support = tuple(hits[i] for i in idx)
        if len(support) >= least:
            key = (lam, Fraction(a, d), Fraction(b, d), Fraction(c, d),
                   swap)
            out.append((key, support))
    return out


def family_detect(hits, beta):
    """Pattern report for a hit list: the best-supported exact line in
    Z^2 or exponential family, or FiniteSet when nothing covers at
    least _FAMILY_HITS hits.  Ties prefer lines, then nonnegative line
    coefficients, then the first fit found, for deterministic output.
    The hits are distinct cells (m, n), as triple_orbit_search returns
    them.  Lines are fitted through every pair of hits; exponential
    families only through triples of the first 12 hits by (m, n), so
    one with fewer than three members there is not found."""
    hits = sorted(hits, key=lambda h: (h.m, h.n))
    if len(hits) < _FAMILY_HITS:
        return FamilyReport(FiniteSet(len(hits)), tuple(hits))
    # (-support_size, rank_key, pattern, support)
    cands = [(-len(s), (0, int(h < 0), abs(g), abs(h), abs(c)),
              LineFamily(g, h, c), s)
             for (g, h, c), s in _line_candidates(hits, _FAMILY_HITS).items()]
    cands += [(-len(s), (1, int(swap), abs(A), abs(B), abs(C)),
               ExponentialFamily(A, lam, B, C), s)
              for (lam, A, B, C, swap), s in _exponential_candidates(
                  hits, _spectrum_bases(beta), _FAMILY_HITS)]
    if not cands:
        return FamilyReport(FiniteSet(len(hits)), tuple(hits))
    # min keeps the first of equal keys.
    _, _, pattern, support = min(cands, key=lambda cand: cand[:2])
    return FamilyReport(pattern, support)


# ---------------------------------------------------------------------------
# recurrence zeros


class RecurrenceReport(NamedTuple):
    zeros: tuple
    progressions: tuple


def recurrence_zeros(T, N):
    """Zeros of u_m = (0,0,1) . T^m . (1,0,0)^t for 0 <= m <= N.

    u satisfies the order-3 linear recurrence with the characteristic
    coefficients of T (Cayley-Hamilton); the zero set is listed with
    its maximal arithmetic progressions of length >= 3 (a desk-scale
    version of the Skolem-Mahler-Lech structure).
    """
    A = T.matrix
    c2, c1, c0 = _char_poly(A)
    u = [Fraction(0), A[2][0], _mat_mul(A, A)[2][0]]
    for m in range(3, N + 1):
        u.append(-c2 * u[m - 1] - c1 * u[m - 2] - c0 * u[m - 3])
    zeros = tuple(m for m in range(N + 1) if u[m] == 0)
    zset = set(zeros)
    progs = []
    for d in range(1, max(1, N // 2) + 1):
        for z in zeros:
            if z - d in zset:
                continue
            length = 1
            while z + length * d in zset:
                length += 1
            if length >= 3:
                progs.append((z, d, length))
    # Drop progressions whose terms all lie inside another reported one.
    sets = [frozenset(z + i * d for i in range(l)) for z, d, l in progs]
    keep = [p for p, s in zip(progs, sets)
            if not any(s < t for t in sets)]
    return RecurrenceReport(zeros, tuple(sorted(keep)))
