"""Exact linear algebra over Q, F_p and Z, one elimination kernel per ring.

Over Q, ``bareiss`` serves everything rational: a fraction-free
Gauss-Jordan on integer rows, pivoting each column on the first remaining
row nonzero there, while extra columns (a right-hand side, an identity
block) ride along.  It ends at d times the reduced echelon form, d its
last pivot, and yields the determinant of the pivot block.  ``rref``,
``rank``, ``solve_right``, ``invert`` and ``det`` clear rational input by
one common denominator (``_clear``, which ``RatLattice`` uses too) and
divide by d only where they return Fractions; ``integer_span_points``
reads the integer rows directly.  Over F_p, ``EchelonModP`` is the
incremental echelon form of the saturation kernel.  Over Z, ``hnf`` is
the one Hermite reduction.  ``RatLattice`` holds a lattice as integer
Hermite rows over its least denominator: ``contains`` compares Hermite
forms, and ``adjoin`` grows it by (1/p)-combinations of its basis without
leaving the integers.  Nothing here knows about the group.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list


def _clear(rows: list[Row]) -> tuple[int, list[list[int]]]:
    """(L, L * rows) for L the least common denominator of every entry."""
    den = lcm(1, *(v.denominator for row in rows for v in row))
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in rows]


def bareiss(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows on
    the first ``ncols`` columns; later columns ride along.

    Each column pivots on the first remaining row nonzero there; the pivot
    row then clears the column above and below it, and every update is
    divided by the previous pivot.  Each entry is a minor of the input
    (Sylvester's identity below the pivot rows, Cramer's rule above), so
    every division is exact.  Returns (mat, pivots, det): mat is d times
    what a rational Gauss-Jordan with the same pivot rule leaves, for d the
    last pivot (1 when there is none), so its first len(pivots) rows are d
    times the reduced echelon form; det is the determinant of the pivot
    columns on all rows, the signed last pivot when every row has one,
    else 0.
    """
    mat = [list(row) for row in rows]
    n = len(mat)
    pivots = []
    sign, prev = 1, 1
    r = 0
    for c in range(ncols):
        i0 = r  # past the last row once every row holds a pivot
        while i0 < n and mat[i0][c] == 0:
            i0 += 1
        if i0 == n:
            continue
        if i0 != r:
            mat[r], mat[i0] = mat[i0], mat[r]
            sign = -sign
        lead, top = mat[r][c], mat[r]
        for i in range(n):
            if i != r:
                f = mat[i][c]
                mat[i] = [(lead * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = lead
        pivots.append(c)
        r += 1
    return mat, pivots, sign * prev if r == n else 0


def _last_pivot(mat: list[list[int]], pivots: list[int]) -> int:
    """The factor d of bareiss's rows: every pivot row holds it at its pivot."""
    return mat[0][pivots[0]] if pivots else 1


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat, pivots, _ = bareiss(_clear(rows)[1], ncols)
    d = _last_pivot(mat, pivots)
    return [[Fraction(v, d) for v in row] for row in mat[: len(pivots)]], pivots


def rank(rows: list[Row], ncols: int) -> int:
    return len(bareiss(_clear(rows)[1], ncols)[1])


class EchelonModP:
    """Reduced row echelon form over the field with p elements, fed one row at a time.

    Each stored row has pivot entry 1 and is zero on every other pivot
    column, so a new row is reduced with one pass over the stored rows and
    the kernel reads straight off the free columns.
    """

    __slots__ = ("p", "ncols", "pivots")

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.pivots: dict[int, list[int]] = {}  # pivot column -> stored row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: list[int]) -> bool:
        """Add an integer row (first ncols entries); True iff the rank grew."""
        p = self.p
        vec = [v % p for v in row[: self.ncols]]
        for c, stored in self.pivots.items():
            f = vec[c]
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, stored)]
        lead = next((c for c, v in enumerate(vec) if v), None)
        if lead is None:
            return False
        inv = pow(vec[lead], -1, p)
        vec = [v * inv % p for v in vec]
        for c, stored in list(self.pivots.items()):
            f = stored[lead]
            if f:
                self.pivots[c] = [(a - f * b) % p for a, b in zip(stored, vec)]
        self.pivots[lead] = vec
        return True

    def kernel(self) -> list[list[int]]:
        """Basis of {c : sum_j row_j c_j = 0 mod p for every inserted row},
        one vector per free column, entries in 0..p-1."""
        out = []
        for free in range(self.ncols):
            if free in self.pivots:
                continue
            vec = [0] * self.ncols
            vec[free] = 1
            for c, stored in self.pivots.items():
                vec[c] = -stored[free] % self.p
            out.append(vec)
        return out


def rank_mod(rows: list[list[int]], ncols: int, p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    echelon = EchelonModP(p, ncols)
    for row in rows:
        echelon.insert(row)
    return echelon.rank


def solve_right(rows: list[Row], rhs: Row, ncols: int):
    """Solve ``rows @ t = rhs`` for t with free coordinates set to zero.

    Returns (t, None) on success.  On inconsistency returns (None, u) where
    u is a rational combination of the input rows witnessing it:
    sum u_i rows[i] = 0 while sum u_i rhs[i] != 0.  It is the identity part
    of the first row left without a pivot and with a nonzero right-hand
    side, over d, whose own coefficient d becomes 1.
    """
    n = len(rows)
    _, cleared = _clear([row + [rhs[i]] for i, row in enumerate(rows)])
    mat, pivots, _ = bareiss([row + [int(i == j) for j in range(n)]
                              for i, row in enumerate(cleared)], ncols)
    d = _last_pivot(mat, pivots)
    for row in mat[len(pivots):]:
        if row[ncols] != 0:
            return None, [Fraction(v, d) for v in row[ncols + 1 :]]
    t = [Fraction(0)] * ncols
    for row, c in zip(mat, pivots):
        t[c] = Fraction(row[ncols], d)
    return t, None


def invert(square: list[Row]) -> list[Row] | None:
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(square)
    den, cleared = _clear(square)
    mat, pivots, _ = bareiss([row + [int(i == j) for j in range(n)] for i, row in enumerate(cleared)], n)
    if len(pivots) < n:
        return None
    d = _last_pivot(mat, pivots)  # mat = d * [I | (den * square)^-1]
    return [[Fraction(v * den, d) for v in row[n:]] for row in mat]


def det(square: list[Row]) -> Fraction:
    den, cleared = _clear(square)
    return Fraction(bareiss(cleared, len(square))[2], den ** len(square))


# ---------------------------------------------------------------------------
# integer lattices

def hnf(rows: list[Row]) -> list[Row]:
    """Row-style Hermite form of the integer row lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot reduced into [0, pivot); zero
    rows are dropped.  The result is the canonical basis of the lattice.
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    mat = [[int(v) for v in row] for row in rows]
    if any(len(row) != ncols for row in mat):
        raise ValueError("ragged matrix")
    r = 0
    for c in range(ncols):
        # clear column c below row r with extended-gcd row operations
        while True:
            nz = [i for i in range(r, m) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, m):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-v for v in mat[r]]
            for i in range(r):  # reduce entries above the pivot
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
    return mat[:r]


def integer_span_points(span_rows: list[Row], ncols: int) -> list[Row]:
    """Hermite basis of (Z^ncols intersected with the rational row span).

    ``span_rows`` may be any generating set of the span.  The span is the
    common kernel of one integer vector per free column of its reduced
    echelon form; with those vectors as the columns of K, the integer
    points x (x @ K = 0) are the identity parts of the Hermite rows of
    [K | I] whose K part vanishes (Cohen, GTM 138, section 2.4.3).  K has
    full column rank q, so the first q Hermite pivots lie in its columns
    and those rows are already a Hermite basis.
    """
    mat, pivots, _ = bareiss(_clear(span_rows)[1], ncols)
    d = _last_pivot(mat, pivots)
    free = [c for c in range(ncols) if c not in pivots]
    complement = []  # columns of K: d e_f - sum_i mat[i][f] e_pivots[i]
    for f in free:
        vec = [0] * ncols
        vec[f] = d
        for row, c in zip(mat, pivots):
            vec[c] = -row[f]
        complement.append(vec)
    q = len(free)
    stacked = hnf([[vec[i] for vec in complement] + [int(i == j) for j in range(ncols)]
                   for i in range(ncols)])
    return [row[q:] for row in stacked if not any(row[:q])]


class RatLattice:
    """Finitely generated subgroup of Q^ncols as (1/den) * integer row lattice,
    canonical: ``rows`` is the Hermite basis and ``den`` the least denominator."""

    __slots__ = ("den", "rows", "ncols")

    def __init__(self, den: int, rows: list[Row], ncols: int):
        self.den = den
        self.rows = rows  # Hermite basis, full row rank
        self.ncols = ncols

    @classmethod
    def from_rows(cls, rational_rows: list[Row], ncols: int) -> "RatLattice":
        # den is minimal: the rows lie in the lattice, so any d clearing it clears them
        den, scaled = _clear(rational_rows)
        return cls(den, hnf(scaled), ncols)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def rational_rows(self) -> list[Row]:
        return [[Fraction(v, self.den) for v in row] for row in self.rows]

    def contains(self, vec: Row) -> bool:
        """Exact membership: den * vec is integral and adding it leaves the
        Hermite basis, which is canonical, unchanged.  The empty lattice
        holds only the zero vector, whose Hermite form is empty."""
        target = [Fraction(v) * self.den for v in vec]
        if any(v.denominator != 1 for v in target):
            return False
        return hnf(self.rows + [[int(v) for v in target]]) == self.rows

    def add_row(self, vec: Row) -> "RatLattice":
        return RatLattice.from_rows(self.rational_rows() + [vec], self.ncols)

    def adjoin(self, coeffs: list[list[int]], p: int) -> "RatLattice":
        """The lattice plus (1/p) sum_i c_i b_i for each c in coeffs, b_i the basis.

        Over den * p the basis is p * rows and each new vector sum_i c_i rows_i.
        The least denominator divides den * p, so dividing both by their gcd g
        keeps den least; as hnf(L) / g = hnf(L / g), from_rows of the same
        vectors returns the same pair.
        """
        scaled = hnf([[p * v for v in row] for row in self.rows] + [
            [sum(c * row[j] for c, row in zip(cs, self.rows)) for j in range(self.ncols)]
            for cs in coeffs])
        g = gcd(self.den * p, *(v for row in scaled for v in row))
        return RatLattice(self.den * p // g, [[v // g for v in row] for row in scaled], self.ncols)
