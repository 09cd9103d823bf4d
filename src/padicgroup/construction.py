"""Per-prime construction data.

For each prime p the library fixes a finite-window description of an
infinite family of integer "condition vectors".  An element (x0, x) of
the ambient group passes the p-part of the membership criterion when
x0 + <v, x> is a p-adic integer for every condition vector v of p.

The family is built in three frozen, deterministic steps:

1. A level set over Z/p: all vectors in (Z/p)^width whose inner product
   with the reduced partition vector of p equals the target residue.
   The target dodges finitely many forbidden values (see build_context)
   so that the freeness argument downstream can always pick its pivot.
   The pivot of the context is the last coordinate where the reduced
   partition vector is nonzero: level-set points take base-p digits
   on the other coordinates and solve the constraint there.
2. A round-robin stream over the level set, consumed in blocks: block k
   takes the next k+1 stream items, lifted to {0..p-1} representatives.
   The stream cycles so every level-set element is eventually lifted.
3. A diagonal perturbation: vector j of block k gains p^(s+1) on
   coordinate j, with s minimal such that p^(s+1) > k(p-1).  Reductions
   mod p stay in the level set, while the k truncated differences form
   a strictly diagonally dominant matrix in the p-adic sense, hence are
   nonsingular.

window_residues computes the exact set of residues of the whole family
on a finite window mod p^m; that finiteness makes membership decidable.
layer_conditions decides an affine map on that set from a few of its
integer affine combinations, and first_failing_residue names the first
residue it fails on, both without enumerating the set.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .bookkeeping import FINGERPRINT, _heads, _rat_block, decode_seq, partition_vector
from .config import DEFAULT, Config, check_prime_cap
from .errors import CapacityExceededError, EnumerationRangeError
from .vectors import FinVec, Record

# entries kept by each of the context, block and conditions caches
CACHE_SIZE = 1 << 12


class PrimeContext(Record):
    """Frozen construction data of one prime.  The pivot, the target and
    the pivot slopes are computed on first read and kept in ``__dict__``,
    outside the fields, so reading them changes neither equality nor hash."""

    _fields = ("p", "vec", "width")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, p: int,
                 vec: FinVec,  # partition vector assigned to p: integral, support below width
                 width: int):  # vectors of the family live in (Z/p)^width
        super().__init__(p, vec, width)

    @cached_property
    def pivot(self) -> int:
        return self.vec.max_support  # the largest i with vec[i] % p != 0 (see build_context)

    @cached_property
    def target(self) -> int:
        """Required inner-product residue in 1..p-1 (see build_context)."""
        return _target(self.p, self.vec)

    @cached_property
    def slopes(self) -> tuple[int, dict[int, int]]:
        """(b_0, {j: b_j != 0}), shared read-only: a layer point with free
        digits x has the pivot entry (b_0 + sum b_j x_j) mod p, b_0 = target /
        vec[pivot] and b_j = -vec[j] / vec[pivot] mod p, the same on every
        window that holds the pivot."""
        p = self.p
        inv = pow(self.vec[self.pivot], -1, p)
        slopes = {j: -v * inv % p for j, v in self.vec.items() if j < self.pivot}  # no v vanishes mod p
        return self.target * inv % p, slopes

    @property
    def relevant(self) -> range:
        """Indices the target must dodge: all of 1..p-2 (see build_context)."""
        return range(1, self.p - 1)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "x": self.vec.to_json(),
            "l": self.width,
            "relevant": list(self.relevant),
            "a": self.target,
            "fingerprint": FINGERPRINT,
        }


def _target(p: int, vec: FinVec) -> int:
    """The least t in 1..p-1 that no sequence of at most max_support entries
    coded below p-2 takes as its value: the target (see build_context)."""
    if p == 2:
        return 1  # no index in 1..p-2
    neg = [-vec[j] % p for j in range(1, vec.max_support + 1)]
    rats = itertools.islice((q for h in itertools.count(1) for q in _rat_block(h)), _heads(p - 2))
    res = [q.numerator * pow(q.denominator, -1, p) % p for q in rats]  # in the height order
    first = {}  # u -> the least head x with res[x] * neg[0] = u
    for x, v in enumerate(res):
        first.setdefault(v * neg[0] % p, x)
    tails = []  # (n, V) of each tail r with n = n(r) > 0 heads and at most s - 1 entries
    r = 0
    # every r >= 1 codes a nonempty tail, so at s = 1 only the empty one counts
    while (n := _heads(p - 2 + r) - r) > 0 and (r == 0 or len(neg) > 1):
        seq = decode_seq(r)
        if len(seq) < len(neg):
            tails.append((n, sum(res[x] * a for x, a in zip(seq, neg[1:])) % p))
        r += 1
    return next(t for t in range(1, p) if all(first.get((t - v) % p, n) >= n for n, v in tails))


@lru_cache(maxsize=CACHE_SIZE)
def build_context(p: int, config: Config = DEFAULT) -> PrimeContext:
    """Deterministic context of a prime: window width, pivot and (on first read) target.

    The width exceeds both p and the support of the partition vector.
    An enumeration index i is relevant when i < p-1 and p divides no
    denominator of the i-th rational vector.  The target residue is the
    smallest nonzero residue distinct from every inner product
    <-reduced(i-th vector), reduced partition vector> over relevant i.
    At most p-2 indices are relevant, so a legal target always exists.
    Primes above config.prime_cap are refused before any work.

    The pivot is vec.max_support: each entry v of the vector of p = p_n has
    0 < |v| < p.  The vector has rank i <= pair(i, j) = n < p.  Its code c,
    the least of rank i, is at most 2i: changing a final entry 1 (the
    integer 0) to 0 maps the zero codes of 2..c into the i - 1 nonzero codes
    below c, so at most i of 1..c are zero.  An entry x of the sequence
    coded by c - 1 has x(x+3)/2 <= c - 2, so x < 2 sqrt(i) and the integer
    it codes has |v| <= (x+2)/2 < sqrt(i) + 1 <= p.

    The target reduces to integer steps, without enumerating a vector:

    * Every i < p-1 is relevant.  unpair0(z - 1) = (x, rest) has x, rest
      < z, so each component code of index i is below i - 1.  Each height h
      holds h itself, so a rational of 0-based code c has height at most
      c + 1, and every component denominator is below p.
    * Only the first s = max_support components meet the partition vector,
      so index i forbids the value of the first s entries of the sequence
      coded by i - 1.  That prefix t is itself coded below p - 2: dropping
      a nonempty tail lowers a code, since pair0 grows in its second
      argument and a nonempty tail codes to at least 1.  Conversely every
      sequence t of at most s entries coded below p - 2 is such a prefix
      (of itself).  Its value is the inner product of the vector coded by t
      with its trailing zeros dropped, whose index is smaller and hence
      relevant; a non-canonical index decodes to the zero vector and
      forbids 0, which is never a target.  So the nonzero forbidden
      residues are exactly the nonzero values of those sequences t.
    * _target tests candidates against those t.  Besides the empty one (worth
      0), each is a head x and a tail of code r with at most s - 1 entries.
      With y = x + r, pair0(x, r) = y(y+3)/2 - r, so x::r is coded below p - 2
      (pair0(x, r) <= p - 4) exactly when x < n(r) = _heads(p - 2 + r) - r.
      _heads grows by at most 1 a step, so n(r) never grows, and n(r) > 0
      needs r(r+1)/2 <= p - 4: fewer than sqrt(2p) tails.  Each entry x is
      below sqrt(2p), its height at most x + 1 < p, so one inverse gives its
      residue res[x].  x::r is worth res[x] neg[0] + V(r), with neg[i] =
      -vec[i+1] mod p and V(r) the tail's value on positions 2, 3, ...; so t
      is forbidden exactly when, for some tail, the least head x with
      res[x] neg[0] = t - V(r) is below n(r) (neg[0] = 0 needs no special
      case).  T candidates take O(T sqrt(2p)) lookups.
    """
    check_prime_cap(p, config)
    vec = partition_vector(p, scan_cap=config.scan_cap)
    return PrimeContext(p, vec, 1 + max(p, vec.max_support))


# ---------------------------------------------------------------------------
# the level set

def level_count(ctx: PrimeContext) -> int:
    """Exact size of the level set (a big integer for large p)."""
    return ctx.p ** (ctx.width - 1)


def level_contains(ctx: PrimeContext, v: FinVec) -> bool:
    """Whether a residue vector lies in the level set."""
    for i, value in v.items():
        if i > ctx.width:
            raise ValueError(f"support reaches {i}, window is 1..{ctx.width}")
        if not isinstance(value, int) or not 0 < value < ctx.p:
            raise ValueError("level vectors carry residues in 0..p-1")
    total = sum(value * ctx.vec[i] for i, value in v.items())
    return total % ctx.p == ctx.target


def _digit_entries(idx: int, p: int, pivot: int, w: int) -> dict:
    # base-p digits of idx on the free coordinates in [1, w], smallest varying
    # fastest: digit t sits on coordinate t + 1 below the pivot (0: none in the
    # window) and t + 2 from it on; digits past the last nonzero one add no entry
    entries = {}
    c = 0
    while idx:
        c += 1 if c + 1 != pivot else 2
        if c > w:
            break
        idx, digit = divmod(idx, p)
        if digit:
            entries[c] = digit
    return entries


def _hyperplane_points(ctx: PrimeContext, w: int, indices):
    """Level-set truncations to the window [1, w] at the given digit indices.

    Free coordinates take the base-p digits of the index (the smallest free
    coordinate varying fastest); digits that fall past w are dropped.  When
    the pivot lies in the window it is solved from the inner-product
    constraint; otherwise every coordinate is free.  The pivot entry is b_0 +
    sum b_j x_j mod p in the free digits x below it (ctx.slopes), so each
    point is the truncation of the full-width point of the same index, and
    only a window holding the pivot reads the target.
    """
    p = ctx.p
    pivot = ctx.pivot if ctx.pivot <= w else 0
    b0, slopes = ctx.slopes if pivot else (0, {})
    for idx in indices:
        entries = _digit_entries(idx, p, pivot, w)
        if pivot:
            solved = (b0 + sum(v * slopes.get(c, 0) for c, v in entries.items())) % p
            if solved:
                entries[pivot] = solved
        yield FinVec(entries)


def level_at(ctx: PrimeContext, n: int) -> FinVec:
    """The n-th level-set element, 1-based: the hyperplane point with digit
    index n-1 on the whole width."""
    count = level_count(ctx)
    if not 1 <= n <= count:
        raise EnumerationRangeError(f"level index {n} outside 1..{count}")
    return next(_hyperplane_points(ctx, ctx.width, (n - 1,)))


# ---------------------------------------------------------------------------
# blocks of lifted, perturbed vectors

class ConditionBlock(Record):
    """k+1 integer vectors on a window whose reductions mod p lie in the
    level set truncated to it."""

    _fields = __slots__ = ("k", "s", "vectors")

    def __init__(self, k: int,
                 s: int,                        # perturbation exponent: p^(s+1) > k(p-1), s minimal
                 vectors: tuple[FinVec, ...]):  # vector 0 unperturbed; vector j carries +p^(s+1) e_j
        super().__init__(k, s, vectors)


def perturbation_exponent(p: int, k: int) -> int:
    s = 0
    while p ** (s + 1) <= k * (p - 1):
        s += 1
    return s


@lru_cache(maxsize=CACHE_SIZE)
def condition_block(ctx: PrimeContext, k: int, w: int | None = None) -> ConditionBlock:
    """Block k of the family: stream items (k-1)(k+2)/2+1 .. k(k+3)/2,
    truncated to the window [1, w] (by default, one that holds the block).

    Stream item n lifts the level-set element 1 + ((n-1) mod level_count)
    to its {0..p-1} representative, so the stream is a round robin over
    the whole level set.  A window below the pivot never reads the target.
    """
    if k < 1:
        raise EnumerationRangeError("block index must be >= 1")
    if w is None:
        w = max(k, ctx.width)
    s = perturbation_exponent(ctx.p, k)
    start = (k - 1) * (k + 2) // 2
    indices = range(start, start + k + 1)
    # level_count >= 2^(width-1), a number of about width bits: the big power
    # is needed only when the last index may reach it
    if (start + k).bit_length() >= ctx.width - 1:
        count = level_count(ctx)
        indices = [i % count for i in indices]
    lifts = list(_hyperplane_points(ctx, w, indices))
    step = ctx.p ** (s + 1)
    vectors = [lifts[0]]
    vectors += [lifts[j] + FinVec.single(j, step) if j <= w else lifts[j] for j in range(1, k + 1)]
    return ConditionBlock(k=k, s=s, vectors=tuple(vectors))


def visible_block_limit(p: int, m: int) -> int:
    """Largest k whose perturbation survives mod p^m (0 when none does)."""
    if m <= 1:
        return 0
    return (p ** (m - 1) - 1) // (p - 1)


# ---------------------------------------------------------------------------
# exact residue sets on finite windows

def _layer_shape(ctx: PrimeContext, w: int, m: int, config: Config) -> tuple[int, int, int]:
    """(w2, free, kmax) of the residues mod p^m on window [1, w]: the clipped
    window, the number of free coordinates of its hyperplane layer (which
    therefore holds p^free points) and the last visible block.  Refuses a
    residue set larger than the configured cap before any of it is built."""
    p = ctx.p
    w2 = min(w, ctx.width)
    free = w2 - (ctx.pivot <= w2)
    kmax = visible_block_limit(p, m)
    required = p ** free + kmax * (kmax + 3) // 2
    if required > config.residue_cap:
        raise CapacityExceededError(
            f"residue set on window {w} mod {p}^{m} needs {required} entries",
            required=required, cap=config.residue_cap)
    return w2, free, kmax


def _box_conditions(p: int, b0: int, slopes: dict[int, int], coords, piv: int) -> list:
    """Conditions deciding f on the layer points with digits x_j in {0..p-1}
    on coords and pivot entry (b0 + sum b_j x_j) mod p (piv = 0: none): the
    corner, the unit steps, then p e_piv, which with them spans the hull,
    unless the entry is Z-affine: no b_j on coords is nonzero, or one is and
    (b_j, b0) is (1, 0) or (p-1, p-1); any other slope wraps past p.
    """
    conditions = [(1, 0, 0, piv, b0)] + [(1, j, 1, piv, (b0 + slopes.get(j, 0)) % p) for j in coords]
    moving = [slopes[j] for j in coords if j in slopes]
    if len(moving) > 1 or moving and (moving[0], b0) not in {(1, 0), (p - 1, p - 1)}:
        conditions.append((0, 0, 0, piv, p))
    return conditions


def layer_conditions(ctx: PrimeContext, w: int, m: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Congruences (c0, j, cj, piv, cp) that decide a Z-affine map on the
    residues mod p^m on window [1, w].  For a row [y_0, ..., y_w] and f(r) =
    y_0 + <r, y>, a condition's value is c0 y_0 + cj y_j + cp y_piv (index 0:
    no term).  f vanishes mod any N on every residue iff on their integer
    affine hull, iff every value does.  In order:

    * _box_conditions of the whole layer: the points q_0, q_1, q_p, ...,
      q_{p^(free-1)} at those digit indices (c0 = 1, q = {j: cj, piv: cp}),
      then p e_piv unless the pivot entry is affine;
    * p^(s(j)+1) e_j for j <= min(w, kmax) (c0 = 0): vector j of a visible
      block k is a layer point plus p^(s(k)+1) e_j, and s never decreases
      in k, so block k = j binds.

    At most w + 2 + min(w, kmax) tuples, which membership and saturation
    cache per (p, w, m, config); no residue is enumerated, so no cap applies.
    """
    p = ctx.p
    w2 = min(w, ctx.width)
    piv = ctx.pivot if ctx.pivot <= w2 else 0
    b0, slopes = ctx.slopes if piv else (0, {})
    conditions = _box_conditions(p, b0, slopes, [j for j in range(1, w2 + 1) if j != piv], piv)
    conditions += [(0, j, p ** (perturbation_exponent(p, j) + 1), 0, 0)
                   for j in range(1, min(w, visible_block_limit(p, m)) + 1)]
    return tuple(conditions)


def first_failing_residue(p: int, w: int, condition: tuple[int, int, int, int, int], y0: int,
                          y: dict[int, int], n: int, config: Config = DEFAULT) -> FinVec:
    """The first residue r in iter_window_residues order (window [1, w], mod
    p^m) with y0 + <r, y> != 0 mod n = p^e, for a sparse integer row whose
    first failing condition of layer_conditions(ctx, w, m) is condition,
    named from it with nothing enumerated (an empty window needs no context):

    * block j: every layer point passes and s(k) never decreases, so vector
      j of block j, truncated to w, fails first;
    * a point, when p y_piv = 0 mod n (always at m = 1): the point of digit
      index sum d_t p^t has f = f(q_0) + sum d_t (f(q_{p^t}) - f(q_0)) mod n;
    * else each digit, from the one a failing step bounds, is the least whose
      box (lower digits free) fails; digits moving neither f nor the pivot
      entry stay 0.  A corner or step with pivot entry (c + d b_t) mod p is
      affine in d up to its first wrap, ceil((p - c) / b_t), or, if it wraps
      at d = 1, up to its first non-wrap, floor(c / (p - b_t)) + 1; with p
      y_piv != 0 mod n, the least failing digit is 0, 1 or one of those.
    """
    at = y.get
    c0, j, cj, piv, cp = condition
    if not c0 and j:
        return condition_block(build_context(p, config), j, w).vectors[j]
    if not p * at(piv, 0) % n:
        return FinVec({i: v for i, v in ((j, cj), (piv, cp)) if i and v})
    ctx = build_context(p, config)
    entry, slopes = ctx.slopes
    free = sorted(i for i in {*y, *slopes} if i <= (j if c0 else ctx.width) and i != piv)
    digits = {}
    while free:
        t = free.pop()
        b, yt = slopes.get(t, 0), at(t, 0)
        starts = [entry] + [(entry + slopes.get(i, 0)) % p for i in free] if b else []
        candidates = {0, 1, *((p - c + b - 1) // b for c in starts), *(c // (p - b) + 1 for c in starts)}
        d = next(d for d in sorted(candidates) if d < p and any(
            (c0 * (y0 + d * yt) + cj * at(j, 0) + cp * at(piv, 0)) % n
            for c0, j, cj, piv, cp in _box_conditions(p, (entry + d * b) % p, slopes, free, piv)))
        digits[t], y0, entry = d, y0 + d * yt, (entry + d * b) % p
    return FinVec({**digits, piv: entry})


def iter_window_residues(ctx: PrimeContext, w: int, m: int,
                         config: Config = DEFAULT):
    """Exact residues mod p^m of the whole family on window [1, w].

    Yields each residue vector once, deterministically.  Two layers:

    * level-set truncations: the lifts use {0..p-1} representatives, so
      every family vector whose perturbation vanishes mod p^m (or which
      is unperturbed) reduces to a level-set truncation.  Beyond the
      construction width all lift coordinates are zero, so the window is
      clipped to min(w, width) and zero-padded; on the clipped window the
      truncations form either all of {0..p-1}^w' (when the pivot leaves
      the window) or the affine solution set of the inner-product
      constraint.
    * visible blocks: perturbations p^(s+1) with s+1 < m survive; the
      exponent is nondecreasing in k, so visible blocks form a finite
      initial range enumerated explicitly.  Of block k only the vectors
      j = 1..min(k, w) are read, truncated to the window: vector 0 is a
      lift and a vector j > w loses its perturbation to truncation, so
      both are layer points already yielded.  Vector j carries
      lift_j[j] + p^(s+1) >= p, so it is never a layer point, and every
      entry is at most p - 1 + p^(m-1) < p^m, so none needs reducing.
    """
    if m < 1:
        raise EnumerationRangeError("modulus exponent must be >= 1")
    if w < 0:
        raise EnumerationRangeError("window must be >= 0")
    if w == 0:
        yield FinVec.zero()
        return
    w2, free, kmax = _layer_shape(ctx, w, m, config)
    # digit decoding is injective, so the hyperplane layer needs no dedup
    yield from _hyperplane_points(ctx, w2, range(ctx.p ** free))
    seen = set()  # at most kmax(kmax+3)/2 entries
    for k in range(1, kmax + 1):
        vectors = condition_block(ctx, k, w).vectors
        for j in range(1, min(k, w) + 1):
            vec = vectors[j]
            if vec not in seen:
                seen.add(vec)
                yield vec


def window_residues(ctx: PrimeContext, w: int, m: int,
                    config: Config = DEFAULT) -> frozenset:
    return frozenset(iter_window_residues(ctx, w, m, config))
