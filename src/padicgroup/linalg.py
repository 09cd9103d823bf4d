"""Exact linear algebra over Q and Z.

Small dense routines on lists of lists: rational elimination for rank and
solving, integer Hermite reduction for lattice bookkeeping.  Everything is
exact; nothing here knows about the group.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: list[Row], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


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
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][ncols] != 0:
            return None, aug[i][ncols + 1 :]
    t = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        t[c] = aug[row_idx][ncols]
    return t, None


def invert(square: list[Row]) -> list[Row] | None:
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(square)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(square)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def det(square: list[Row]) -> Fraction:
    n = len(square)
    mat = [[Fraction(v) for v in row] for row in square]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        out *= mat[c][c]
        inv = Fraction(1) / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return sign * out


# ---------------------------------------------------------------------------
# integer lattices

def hnf(rows: list[Row]) -> list[Row]:
    """Row-style Hermite form of the integer row lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot reduced into [0, pivot); zero
    rows are dropped.  The result is the canonical basis of the lattice.
    """
    return _hnf_transform(rows, want_transform=False)[0]


def hnf_with_transform(rows: list[Row]) -> tuple[list[Row], list[Row]]:
    """Hermite form H plus a unimodular U with U @ rows = H ++ zero rows.

    Returns (H-with-zero-rows, U); callers needing the kernel read the U
    rows opposite the zero rows of H.
    """
    return _hnf_transform(rows, want_transform=True)


def _hnf_transform(rows, want_transform):
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    mat = [[int(v) for v in row] for row in rows]
    for row in mat:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(m)] for i in range(m)] if want_transform else None
    r = 0
    for c in range(ncols):
        # clear column c below row r with extended-gcd row operations
        while True:
            nz = [i for i in range(r, m) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            if u:
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, m):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if u:
                        u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-v for v in mat[r]]
                if u:
                    u[r] = [-v for v in u[r]]
            for i in range(r):  # reduce entries above the pivot
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if u:
                        u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
    if want_transform:
        return mat, u
    return [row for row in mat[:r] if any(row)], None


def left_kernel(rows: list[Row]) -> list[Row]:
    """Basis of {u integer row : u @ rows = 0}."""
    h, u = hnf_with_transform(rows)
    return hnf([u[i] for i in range(len(rows)) if not any(h[i])])


def integer_span_points(span_rows: list[Row], ncols: int) -> list[Row]:
    """Hermite basis of (Z^ncols intersected with the rational row span).

    ``span_rows`` may be any generating set of the span.
    """
    basis, pivots = rref(span_rows, ncols)
    d = len(basis)
    if d == 0:
        return []
    nonpivot = [c for c in range(ncols) if c not in pivots]
    if not nonpivot:
        return [[int(v) for v in row] for row in basis]
    # an integer point is determined by integer pivot coordinates c with
    # c . basis integral on every non-pivot column
    denom = lcm(*(v.denominator for row in basis for v in row)) if basis else 1
    m_cols = [[int(basis[i][c] * denom) for c in nonpivot] for i in range(d)]
    q = len(nonpivot)
    stacked = m_cols + [[denom * int(i == j) for j in range(q)] for i in range(q)]
    kern = left_kernel(stacked)
    coeff_rows = hnf([row[:d] for row in kern])
    out = []
    for coeffs in coeff_rows:
        vec = [sum(Fraction(coeffs[i]) * basis[i][c] for i in range(d)) for c in range(ncols)]
        assert all(v.denominator == 1 for v in vec)
        out.append([int(v) for v in vec])
    return hnf(out)


class RatLattice:
    """Finitely generated subgroup of Q^ncols as (1/den) * integer row lattice."""

    __slots__ = ("den", "rows", "ncols")

    def __init__(self, den: int, rows: list[Row], ncols: int):
        self.den = den
        self.rows = rows  # Hermite basis, full row rank
        self.ncols = ncols

    @classmethod
    def from_rows(cls, rational_rows: list[Row], ncols: int) -> "RatLattice":
        den = 1
        for row in rational_rows:
            for v in row:
                den = lcm(den, Fraction(v).denominator)
        scaled = [[int(Fraction(v) * den) for v in row] for row in rational_rows]
        return cls(den, hnf(scaled), ncols)._normalized()

    def _normalized(self) -> "RatLattice":
        g = self.den
        for row in self.rows:
            for v in row:
                g = gcd(g, v)
                if g == 1:
                    return self
        if g > 1:
            return RatLattice(self.den // g, [[v // g for v in row] for row in self.rows], self.ncols)
        return self

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
        den = self.den
        for v in vec:
            den = lcm(den, Fraction(v).denominator)
        scale = den // self.den
        rows = [[v * scale for v in row] for row in self.rows]
        rows.append([int(Fraction(v) * den) for v in vec])
        return RatLattice(den, hnf(rows), self.ncols)._normalized()
