"""Exact linear algebra over Q, F_p, Z and Z_p.

One Gauss-Jordan routine, ``_eliminate``, serves ``rref``, ``rank``,
``solve_right``, ``invert`` and ``det``: it reduces Fraction rows in place,
pivoting each column on the first remaining row nonzero there, while extra
columns (a right-hand side, an identity block) ride along.  ``bareiss`` is
its fraction-free counterpart on integer rows, with the same pivot rule and
so the same pivot columns; it also yields the determinant of the pivot
block.  ``smith_exponent`` reads the largest power of p among the invariant
factors of an integer matrix from a Smith elimination mod a power of p.
``EchelonModP`` is the incremental F_p echelon form of the saturation
kernel, and ``hnf`` the one Hermite reduction over Z.  Nothing here knows
about the group.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .arith import int_valuation

Row = list


def _fractions(rows: list[Row]) -> list[Row]:
    return [[Fraction(v) for v in row] for row in rows]


def _eliminate(mat: list[Row], ncols: int) -> tuple[list[int], Fraction]:
    """Gauss-Jordan elimination in place on the first ``ncols`` columns.

    Returns the pivot columns (row i of the result has a 1 at pivots[i] and
    zeros elsewhere in pivot columns) and the signed product of the pivots
    before scaling, which is the determinant when the block is square and
    of full rank.
    """
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


def bareiss(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of integer rows on the first ``ncols`` columns.

    Pivots each column on the first remaining row nonzero there, as
    ``_eliminate`` does, so the pivot columns are those of ``rref``.  After a
    pivot step every entry below the pivot rows is the minor on the pivot
    rows and columns plus its own row and column (Sylvester's identity), so
    each division by the previous pivot is exact, skipped columns included.
    Returns the pivot columns and the determinant of the pivot columns on all
    rows: the signed last pivot when every row has one, else 0.
    """
    mat = [list(row) for row in rows]
    pivots = []
    sign, prev = 1, 1
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            sign = -sign
        lead, top = mat[r][c], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            mat[i] = [(lead * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = lead
        pivots.append(c)
        r += 1
    return pivots, sign * prev if r == len(mat) else 0


def smith_exponent(square: list[list[int]], p: int, v: int) -> int:
    """Largest exponent of p among the invariant factors of a nonsingular
    integer matrix whose determinant has p-adic valuation v.

    Over Z_p the exponents sum to v, so eliminating modulo p^(v+1) loses
    none of them.  Each step pivots on an entry of least valuation, which
    divides every remaining entry: its row clears the pivot column, and the
    pivot row and column drop out.  The pivot exponents are those of the
    Smith form and never decrease, so the last one is the largest.
    """
    q = p ** (v + 1)
    mat = [[a % q for a in row] for row in square]
    e = 0
    while mat:
        e, r, c = min((int_valuation(a, p), i, j)
                      for i, row in enumerate(mat) for j, a in enumerate(row) if a)
        top = mat.pop(r)
        unit = pow(top[c] // p ** e, -1, q)
        rest = []
        for row in mat:
            f = row[c] // p ** e * unit
            rest.append([(a - f * b) % q for j, (a, b) in enumerate(zip(row, top)) if j != c])
        mat = rest
    return e


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = _fractions(rows)
    pivots, _ = _eliminate(mat, ncols)
    return mat[: len(pivots)], pivots


def rank(rows: list[Row], ncols: int) -> int:
    return len(_eliminate(_fractions(rows), ncols)[0])


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
    sum u_i rows[i] = 0 while sum u_i rhs[i] != 0.
    """
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


def invert(square: list[Row]) -> list[Row] | None:
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(square)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_fractions(square))]
    pivots, _ = _eliminate(aug, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in aug]


def det(square: list[Row]) -> Fraction:
    n = len(square)
    pivots, product = _eliminate(_fractions(square), n)
    return product if len(pivots) == n else Fraction(0)


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
    [K | I] whose K part vanishes (Cohen, GTM 138, section 2.4.3).
    """
    basis, pivots = rref(span_rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    complement = []  # columns of K: e_f - sum_i basis[i][f] e_pivots[i], cleared
    for f in free:
        vec = [Fraction(int(c == f)) for c in range(ncols)]
        for row, c in zip(basis, pivots):
            vec[c] = -row[f]
        den = lcm(*(v.denominator for v in vec))
        complement.append([int(v * den) for v in vec])
    q = len(free)
    stacked = hnf([[vec[i] for vec in complement] + [int(i == j) for j in range(ncols)]
                   for i in range(ncols)])
    return hnf([row[q:] for row in stacked if not any(row[:q])])


class RatLattice:
    """Finitely generated subgroup of Q^ncols as (1/den) * integer row lattice."""

    __slots__ = ("den", "rows", "ncols")

    def __init__(self, den: int, rows: list[Row], ncols: int):
        self.den = den
        self.rows = rows  # Hermite basis, full row rank
        self.ncols = ncols

    @classmethod
    def from_rows(cls, rational_rows: list[Row], ncols: int) -> "RatLattice":
        # den is minimal: the rows lie in the lattice, so any d clearing it clears them
        den = lcm(1, *(Fraction(v).denominator for row in rational_rows for v in row))
        scaled = [[int(Fraction(v) * den) for v in row] for row in rational_rows]
        return cls(den, hnf(scaled), ncols)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def rational_rows(self) -> list[Row]:
        return [[Fraction(v, self.den) for v in row] for row in self.rows]

    def contains(self, vec: Row) -> bool:
        """Exact membership by back-substitution against the Hermite basis."""
        target = [Fraction(v) * self.den for v in vec]
        if any(v.denominator != 1 for v in target):
            return False
        target = [int(v) for v in target]
        for row in self.rows:
            c = next(i for i, v in enumerate(row) if v)
            if target[c] % row[c] != 0:
                return False
            q = target[c] // row[c]
            if q:
                target = [a - q * b for a, b in zip(target, row)]
        return not any(target)

    def add_row(self, vec: Row) -> "RatLattice":
        return RatLattice.from_rows(self.rational_rows() + [vec], self.ncols)
