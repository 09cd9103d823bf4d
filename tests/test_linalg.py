import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from padicgroup.linalg import (
    EchelonModP,
    RatLattice,
    bareiss,
    det,
    hnf,
    identity,
    integer_span_points,
    invert,
    rank,
    rank_mod,
    rref,
    solve_right,
)

F = Fraction


# ---------------------------------------------------------------------------
# reference: Gauss-Jordan on Fraction rows with the kernel's pivot rule

def _fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _eliminate(mat, ncols):
    """Gauss-Jordan in place on the first ncols columns, each column pivoting
    on the first remaining row nonzero there; returns the pivot columns and
    the signed product of the pivots before scaling."""
    pivots = []
    product = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            product = -product
        lead = mat[r][c]
        product *= lead
        inv = 1 / lead
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return pivots, product


def _reference_rref(rows, ncols):
    mat = _fractions(rows)
    pivots, _ = _eliminate(mat, ncols)
    return mat[: len(pivots)], pivots


def _reference_det(square):
    pivots, product = _eliminate(_fractions(square), len(square))
    return product if len(pivots) == len(square) else Fraction(0)


def _reference_invert(square):
    n = len(square)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_fractions(square))]
    if len(_eliminate(aug, n)[0]) < n:
        return None
    return [row[n:] for row in aug]


def _reference_solve_right(rows, rhs, ncols):
    n = len(rows)
    aug = [row + [Fraction(rhs[i])] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(_fractions(rows))]
    pivots, _ = _eliminate(aug, ncols)
    for row in aug[len(pivots):]:
        if row[ncols] != 0:
            return None, row[ncols + 1 :]
    t = [Fraction(0)] * ncols
    for row, c in zip(aug, pivots):
        t[c] = row[ncols]
    return t, None


@st.composite
def _rational_systems(draw):
    """(rows, rhs, ncols): up to 5 x 6 rational rows, often with zero rows,
    repeated or scaled rows and rational combinations of earlier rows, a
    right-hand side and a pivot width ncols <= the row length."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in range(1, m):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "repeat", "combine"]))
        if kind == "zero":
            rows[i] = [F(0)] * n
        elif kind == "repeat":
            src, scale = draw(st.integers(0, i - 1)), draw(st.sampled_from([1, -1, 2, F(1, 3)]))
            rows[i] = [scale * v for v in rows[src]]
        elif kind == "combine":
            coeffs = draw(st.lists(entry, min_size=i, max_size=i))
            rows[i] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs, draw(st.integers(1, n))


@settings(max_examples=500, deadline=None)
@given(_rational_systems())
def test_elimination_matches_the_fraction_reference(system):
    rows, rhs, ncols = system
    n = len(rows[0])
    assert rref(rows, ncols) == _reference_rref(rows, ncols)
    assert rref(rows, n) == _reference_rref(rows, n)
    assert rank(rows, ncols) == len(_reference_rref(rows, ncols)[1])
    assert solve_right(rows, rhs, n) == _reference_solve_right(rows, rhs, n)
    k = min(len(rows), n)
    square = [row[:k] for row in rows[:k]]
    assert det(square) == _reference_det(square)
    assert invert(square) == _reference_invert(square)


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    reduced, pivots = rref([list(map(F, r)) for r in rows], 3)
    assert pivots == [0, 1]
    assert reduced[0] == [1, 0, 1]
    assert reduced[1] == [0, 1, 1]
    assert rank([list(map(F, r)) for r in rows], 3) == 2
    assert rank([], 3) == 0
    assert rank([[F(0)] * 3], 3) == 0


def test_rank_mod():
    assert rank_mod([[1, 2], [3, 6]], 2, 5) == 1
    assert rank_mod([[1, 2], [3, 6]], 2, 7) == 1
    assert rank_mod([[2, 0], [0, 3]], 2, 3) == 1
    assert rank_mod([[2, 0], [0, 3]], 2, 5) == 2
    assert rank_mod([], 2, 5) == 0


def test_rank_mod_agrees_with_rational_rank_away_from_bad_primes():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)]
        r = rank([list(map(F, row)) for row in rows], 4)
        # a large prime cannot see spurious collapse
        assert rank_mod(rows, 4, 1_000_003) == r


def brute_kernel_mod(rows, ncols, p):
    return {c for c in itertools.product(range(p), repeat=ncols)
            if all(sum(a * b for a, b in zip(row, c)) % p == 0 for row in rows)}


def test_echelon_mod_p_kernel_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        ncols = rng.randint(1, 4)
        rows = [[rng.randrange(-6, 7) for _ in range(ncols)] for _ in range(rng.randint(0, 5))]
        echelon = EchelonModP(p, ncols)
        for row in rows:
            before = echelon.rank
            assert echelon.insert(row) == (echelon.rank == before + 1)
        kernel = echelon.kernel()
        brute = brute_kernel_mod(rows, ncols, p)
        assert len(kernel) == ncols - echelon.rank
        assert p ** len(kernel) == len(brute)
        spanned = {tuple(sum(t * v[j] for t, v in zip(coeffs, kernel)) % p for j in range(ncols))
                   for coeffs in itertools.product(range(p), repeat=len(kernel))}
        assert spanned == brute
        # rank over F_p is the codimension of the kernel
        assert rank_mod(rows, ncols, p) == ncols - len(kernel)


def test_solve_right_solution():
    rows = [[F(1), F(0), F(1)], [F(0), F(2), F(0)]]
    t, u = solve_right(rows, [F(3), F(4)], 3)
    assert u is None
    assert t == [3, 2, 0]  # free coordinate pinned to zero
    for i in range(2):
        assert sum(rows[i][j] * t[j] for j in range(3)) == [F(3), F(4)][i]


def test_solve_right_inconsistency_witness():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    rhs = [F(1), F(0)]
    t, u = solve_right(rows, rhs, 2)
    assert t is None
    assert sum(u[i] * rows[i][0] for i in range(2)) == 0
    assert sum(u[i] * rows[i][1] for i in range(2)) == 0
    assert sum(u[i] * rhs[i] for i in range(2)) != 0


def test_solve_right_witness_follows_the_pivot_rule():
    # the pivot of each column is the first remaining nonzero row, so row 2
    # pivots column 0 and row 1 pivots column 1; an in-order greedy
    # elimination would give u = [-2, 1, 0] instead
    rows = [[F(0), F(1)], [F(0), F(2)], [F(1), F(0)]]
    t, u = solve_right(rows, [F(1), F(1), F(0)], 2)
    assert t is None
    assert u == [1, F(-1, 2), 0]


def test_invert_and_det():
    m = [[F(2), F(1)], [F(1), F(1)]]
    inv = invert(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    assert det(m) == 1
    assert invert([[F(1), F(2)], [F(2), F(4)]]) is None
    assert det([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert det([[F(3)]]) == 3


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        a = [[F(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
        b = [[F(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert det(ab) == det(a) * det(b)


def test_hnf_frozen():
    h = hnf([[F(2), F(0)], [F(0), F(2)], [F(1), F(1)]])
    assert h == [[1, 1], [0, 2]]
    assert hnf([[F(6)], [F(10)]]) == [[2]]
    assert hnf([]) == []


def test_integer_span_points_oracle():
    # brute force: integer points of the rational row span, reduced to a basis
    assert integer_span_points([[F(1, 2), F(1, 2)]], 2) == [[1, 1]]
    assert integer_span_points([[F(1, 3)]], 1) == [[1]]
    pts = integer_span_points([[F(1, 2), F(0)], [F(0), F(1, 3)]], 2)
    assert hnf(pts) == [[1, 0], [0, 1]]
    assert integer_span_points([], 2) == []
    # span contains no integer point except multiples of (2, 3)
    pts = integer_span_points([[F(2, 3), F(1)]], 2)
    assert hnf(pts) == [[2, 3]]


@pytest.mark.parametrize("rows", [
    [[F(1, 2), F(3)], [F(0), F(5, 7)]],
    [[F(2), F(4), F(-1)], [F(1, 3), F(0), F(2)], [F(0), F(1), F(1)], [F(1), F(1), F(1)]],
    [[F(int(i == j), j + 2) for j in range(4)] for i in range(4)],
])
def test_integer_span_points_of_a_full_rank_span_is_the_standard_basis(rows):
    ncols = len(rows[0])
    assert integer_span_points(rows, ncols) == identity(ncols) == hnf(identity(ncols))


def test_reduced_lattice_has_the_least_denominator_and_the_hermite_rows():
    lat = RatLattice.reduced(12, [[6, 0], [0, 4], [12, 8]], 2)
    assert (lat.den, lat.rows) == (6, [[3, 0], [0, 2]])
    same = RatLattice.from_rows([[F(6, 12), 0], [0, F(4, 12)], [F(12, 12), F(8, 12)]], 2)
    assert (same.den, same.rows) == (lat.den, lat.rows)
    unreduced = RatLattice.reduced(12, [[6, 0], [0, 4], [3, 2]], 2)
    assert (unreduced.den, unreduced.rows) == (12, [[3, 2], [0, 4]])


def test_integer_span_points_against_box_enumeration():
    # every integer point of a box that lies in the span is in the returned
    # lattice, every basis row is an integer point of the span, and when the
    # basis fits in the box the box points generate exactly that lattice
    rng = random.Random(17)
    box = 3
    generated = 0
    for _ in range(60):
        ncols = rng.randint(1, 3)
        span = [[F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(ncols)]
                for _ in range(rng.randint(0, ncols))]
        r = rank(span, ncols)
        points = [list(x) for x in itertools.product(range(-box, box + 1), repeat=ncols)
                  if rank(span + [list(map(F, x))], ncols) == r]
        basis = integer_span_points(span, ncols)
        assert len(basis) == r
        for row in basis:
            assert all(isinstance(v, int) for v in row)
            assert rank(span + [list(map(F, row))], ncols) == r
        assert hnf(basis) == hnf(basis + points) == basis
        if all(abs(v) <= box for row in basis for v in row):
            assert hnf(points) == basis
            generated += 1
    assert generated > 40


def test_integer_span_points_is_already_a_hermite_basis():
    # the rows of hnf([K | I]) with a vanishing K part are returned as they
    # are, so they must be in Hermite form for spans of every rank up to 6
    rng = random.Random(23)
    ranks = set()
    for _ in range(400):
        ncols = rng.randint(1, 6)
        span = [[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(ncols)]
                for _ in range(rng.randint(0, 5))]
        basis = integer_span_points(span, ncols)
        assert hnf(basis) == basis, span
        assert len(basis) == rank(span, ncols)
        ranks.add((ncols, len(basis)))
    assert {(6, 0), (6, 5), (5, 5), (1, 1)} <= ranks


def _sympy_rows(mat):
    return [[Fraction(int(v.p), int(v.q)) for v in mat.row(i)] for i in range(mat.rows)]


def test_elimination_and_hnf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(23)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            rows[-1] = [2 * v for v in rows[0]]
        ref, ref_pivots = sympy.Matrix(rows).rref()
        reduced, pivots = rref(rows, n)
        assert pivots == list(ref_pivots)
        assert reduced == _sympy_rows(ref)[: len(pivots)]
        square = [row[:m] + [F(0)] * (m - len(row[:m])) for row in rows]
        ref_det = sympy.Matrix(square).det()
        assert det(square) == Fraction(int(ref_det.p), int(ref_det.q))
        inv = invert(square)
        if ref_det == 0:
            assert inv is None
        else:
            assert inv == _sympy_rows(sympy.Matrix(square).inv())
        ints = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if any(any(row) for row in ints):
            # sympy's column form of the column-reversed transpose, reversed
            # back, is the row form with pivots left to right
            ref_h = hermite_normal_form(sympy.Matrix([row[::-1] for row in ints]).T).T
            expected = [[int(v) for v in ref_h.row(i)][::-1] for i in range(ref_h.rows)][::-1]
            assert hnf(ints) == expected


def test_rat_lattice_membership():
    lat = RatLattice.from_rows([[F(1, 2), F(1, 2)], [F(0), F(1)]], 2)
    assert lat.dim == 2
    assert lat.contains([F(1, 2), F(1, 2)])
    assert lat.contains([F(1, 2), F(3, 2)])
    assert lat.contains([F(1), F(0)])
    assert not lat.contains([F(1, 4), F(1, 4)])
    assert not lat.contains([F(1, 2), F(0)])


def test_rat_lattice_add_row():
    lat = RatLattice.from_rows([[F(1), F(0)]], 2)
    grown = lat.add_row([F(1, 2), F(0)])
    assert grown.dim == 1
    assert grown.contains([F(1, 2), F(0)])
    assert not lat.contains([F(1, 2), F(0)])
    bigger = grown.add_row([F(0), F(1)])
    assert bigger.dim == 2


def test_rat_lattice_den_and_rows():
    lat = RatLattice.from_rows([[F(1, 6), F(0)], [F(0), F(1, 4)]], 2)
    assert lat.den == 12
    rows = lat.rational_rows()
    assert len(rows) == 2
    rebuilt = RatLattice.from_rows(rows, 2)
    for vec in ([F(1, 6), F(0)], [F(1, 6), F(1, 4)], [F(1), F(7, 4)]):
        assert rebuilt.contains(vec) == lat.contains(vec)


@given(st.lists(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=30),
                         min_size=3, max_size=3), min_size=1, max_size=4))
def test_rat_lattice_den_is_minimal(rows):
    lat = RatLattice.from_rows(rows, 3)
    assert lat.den == lcm(*(v.denominator for row in rows for v in row))
    assert gcd(lat.den, *(v for row in lat.rows for v in row)) == 1
    assert all(any(row) for row in lat.rows)  # the first r hnf rows keep their pivots


def _reference_contains(lat, vec):
    """The former membership test: back-substitution against the Hermite basis."""
    target = [F(v) * lat.den for v in vec]
    if any(v.denominator != 1 for v in target):
        return False
    target = [int(v) for v in target]
    for row in lat.rows:
        c = next(i for i, v in enumerate(row) if v)
        if target[c] % row[c] != 0:
            return False
        q = target[c] // row[c]
        if q:
            target = [a - q * b for a, b in zip(target, row)]
    return not any(target)


@st.composite
def _contains_cases(draw):
    """A lattice of 0-4 rational rows over 1-4 columns, denominators built
    from 2, 3 and 5, and a vector that is an integer combination of its
    rows, a half-step of one, a random vector (mostly outside the span), or
    one that den * v leaves non-integral."""
    ncols = draw(st.integers(1, 4))
    den = st.builds(lambda a, b, c: 2 ** a * 3 ** b * 5 ** c,
                    st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    entry = st.builds(F, st.integers(-9, 9), den)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    lat = RatLattice.from_rows(rows, ncols)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    vec = [sum((c * row[j] for c, row in zip(coeffs, rows)), F(0)) for j in range(ncols)]
    kind = draw(st.sampled_from(["combination", "half-step", "outside", "non-integral"]))
    if kind == "half-step":
        vec = [v / 2 for v in vec]
    elif kind == "outside":
        vec = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    elif kind == "non-integral":
        j = draw(st.integers(0, ncols - 1))
        vec[j] += F(1, 7 * lat.den)
    return lat, vec


@settings(max_examples=400, deadline=None)
@given(_contains_cases())
def test_contains_matches_the_back_substitution(case):
    lat, vec = case
    assert lat.contains(vec) == _reference_contains(lat, vec)


def _reference_adjoin(lat, coeffs, p):
    """The former purify round: the Fraction basis and (1/p)-combinations,
    cleared again by from_rows."""
    rows = lat.rational_rows()
    combos = [[sum((c * row[j] for c, row in zip(cs, rows)), F(0)) / p for j in range(lat.ncols)]
              for cs in coeffs]
    return RatLattice.from_rows(rows + combos, lat.ncols)


@st.composite
def _adjoin_cases(draw):
    """A lattice of 0-4 rational rows over 1-5 columns, with denominators
    holding powers of p, and coefficient vectors in 0..p-1, sometimes with
    a zero vector or a repeated one."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ncols = draw(st.integers(1, 5))
    den = st.builds(lambda e, u: p ** e * u, st.integers(0, 3), st.sampled_from([1, 2, 3, 5, 7]))
    entry = st.builds(F, st.integers(-12, 12), den)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    lat = RatLattice.from_rows(rows, ncols)
    vec = st.lists(st.integers(0, p - 1), min_size=lat.dim, max_size=lat.dim)
    coeffs = draw(st.lists(vec, min_size=1, max_size=3))
    extra = draw(st.sampled_from(["none", "zero", "repeat"]))
    if extra == "zero":
        coeffs.append([0] * lat.dim)
    elif extra == "repeat":
        coeffs.append(list(coeffs[0]))
    return lat, coeffs, p


@settings(max_examples=400, deadline=None)
@given(_adjoin_cases())
def test_adjoin_matches_the_fraction_rebuild(case):
    lat, coeffs, p = case
    grown, expected = lat.adjoin(coeffs, p), _reference_adjoin(lat, coeffs, p)
    assert (grown.den, grown.rows, grown.ncols) == (expected.den, expected.rows, expected.ncols)


def test_adjoin_halves_the_square_lattice():
    square = RatLattice.from_rows([[1, 0], [0, 1]], 2)
    grown = square.adjoin([[1, 1]], 2)
    assert (grown.den, grown.rows) == (2, [[1, 1], [0, 2]])
    # a zero combination changes nothing, and (1/2)(0, 1) = (1/4)(0, 2) fills
    # in (1/2)Z^2, whose least denominator is 2 again, not 4
    same = grown.adjoin([[0, 0]], 2)
    assert (same.den, same.rows) == (2, grown.rows)
    filled = grown.adjoin([[0, 1]], 2)
    assert (filled.den, filled.rows) == (2, [[1, 0], [0, 1]])


def _integer_matrices(rows, cols):
    """Small integer matrices; one in three has its last row a combination
    of the others, so rank-deficient ones are common."""
    entries = st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows)

    def dependent(mat, coeffs):
        last = [sum(c * row[j] for c, row in zip(coeffs, mat[:-1])) for j in range(cols)]
        return mat[:-1] + [last]

    combos = st.tuples(entries, st.lists(st.integers(-2, 2), min_size=rows, max_size=rows))
    return st.one_of(entries, entries, combos.map(lambda t: dependent(*t)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: _integer_matrices(k, k + 1)))
def test_bareiss_pivots_and_determinant_match_the_fraction_elimination(rows):
    k = len(rows)
    mat, pivots, block_det = bareiss(rows, k + 1)
    reference = _fractions(rows)
    assert pivots == _eliminate(reference, k + 1)[0]
    # d times the rational elimination, rows left without a pivot included
    d = mat[0][pivots[0]] if pivots else 1
    assert mat == [[d * v for v in row] for row in reference]
    square = [row[:k] for row in rows]
    assert bareiss(square, k)[2] == _reference_det(square)
    if len(pivots) == k:
        assert block_det == _reference_det([[row[c] for c in pivots] for row in rows])
    else:
        assert block_det == 0
