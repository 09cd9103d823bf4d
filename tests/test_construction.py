import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from padicgroup import bookkeeping, construction, group
from padicgroup.arith import primes_up_to, reduce_mod
from padicgroup.bookkeeping import FINGERPRINT, enum_qvec, enum_rat, partition_vector, unpair0
from padicgroup.config import DEFAULT
from padicgroup.construction import (
    ConditionBlock,
    PrimeContext,
    _target,
    build_context,
    condition_block,
    iter_window_residues,
    layer_conditions,
    level_at,
    level_contains,
    level_count,
    perturbation_exponent,
    visible_block_limit,
    window_residues,
)
from padicgroup.errors import (
    CapacityExceededError,
    EnumerationRangeError,
    NotPrimeError,
)
from padicgroup.linalg import det, hnf
from padicgroup.vectors import FinVec, Record


class FixedTarget(PrimeContext):
    """A context with a given target in place of the built one.  Equality
    needs the same class, so it never equals a built context nor shares its
    condition_block cache entries."""

    _fields = PrimeContext._fields + ("target",)
    __slots__ = ("target",)  # a field, in place of the inherited cached property

    def __init__(self, p: int, vec: FinVec, width: int, target: int):
        Record.__init__(self, p, vec, width, target)


def test_context_frozen_small_primes():
    c = build_context(2)
    assert (c.p, c.width, c.target, c.pivot) == (2, 3, 1, 1)
    assert c.vec == FinVec({1: -1})
    assert c.to_json()["relevant"] == []

    c = build_context(3)
    assert (c.width, c.target, c.pivot) == (4, 1, 1)
    assert c.vec == FinVec({1: -1})
    assert c.to_json()["relevant"] == [1]

    c = build_context(5)
    assert c.vec == FinVec({1: -1, 2: -1})
    assert (c.width, c.target, c.pivot) == (6, 1, 2)
    assert c.to_json()["relevant"] == [1, 2, 3]

    c = build_context(7)
    assert (c.width, c.target, c.pivot) == (8, 1, 1)
    assert c.to_json()["relevant"] == [1, 2, 3, 4, 5]


def test_context_keeps_only_underived_fields():
    ctx = build_context.__wrapped__(5, DEFAULT)
    assert PrimeContext._fields == ("p", "vec", "width")
    # the record hash and equality, over those three fields, the same
    # before and after the pivot, the target and the slopes are computed
    built = PrimeContext(5, FinVec({1: -1, 2: -1}), 6)
    assert hash(ctx) == hash((5, ctx.vec, 6)) and ctx == built
    assert ctx.pivot == 2 and ctx.target == 1 and ctx.slopes == (4, {1: 4})
    assert hash(ctx) == hash((5, ctx.vec, 6)) and ctx == built
    # a context of another class is distinct even with the same target
    assert ctx != FixedTarget(5, ctx.vec, 6, 1)


def test_context_targets_dodge_relevant_functionals():
    # for 17 and 31 the residue 1 is taken by a relevant functional value
    assert build_context(17).target == 2
    assert build_context(31).target == 3


def test_context_rejects_composites():
    with pytest.raises(NotPrimeError):
        build_context(4)


def test_context_json_contract():
    data = build_context(2).to_json()
    assert set(data) == {"p", "x", "l", "relevant", "a", "fingerprint"}
    assert data["p"] == 2 and data["l"] == 3 and data["a"] == 1


def reference_context_json(p: int) -> dict:
    """The former build_context loop: relevance from each enumerated vector's
    own denominator lcm, each forbidden residue through reduce_mod."""
    vec = partition_vector(p)
    width = 1 + max(p, vec.max_support)
    relevant = [i for i in range(1, p - 1) if enum_qvec(i).denominator_lcm() % p != 0]
    if all(int(vec[i]) % p == 0 for i in range(1, width + 1)):
        target = 0
    else:
        forbidden = {reduce_mod(-enum_qvec(i).inner(vec), p, 1) for i in relevant}
        target = next(t for t in range(1, p) if t not in forbidden)
    return {"p": p, "x": vec.to_json(), "l": width, "relevant": relevant, "a": target,
            "fingerprint": FINGERPRINT}


def test_context_matches_reference_loop():
    for p in primes_up_to(500):
        assert build_context(p).to_json() == reference_context_json(p), p


def least_outside(p: int, forbidden: set[int]) -> int:
    return next(t for t in range(1, p) if t not in forbidden)


@pytest.mark.parametrize("p", primes_up_to(500) + [1009, 3037, 10007])
def test_forbidden_residues_match_rational_inner_products(p):
    # the target is the least nonzero residue outside the inner-product set
    vec = partition_vector(p)
    oracle = {reduce_mod(-enum_qvec(i).inner(vec), p) for i in range(1, p - 1)}
    assert _target(p, vec) == least_outside(p, oracle)


def decode_loop_forbidden(p: int, vec: FinVec) -> set[int]:
    """Brute-force oracle of the forbidden residues: decode every code i-1 <
    p-2 and sum its first max_support components against vec."""
    coeffs = [vec[j] % p for j in range(1, vec.max_support + 1)]
    res = [reduce_mod(enum_rat(c + 1), p) for c in range(isqrt(2 * p) + 2)]
    forbidden = set()
    for code in range(p - 2):
        total, rest = 0, code
        for a in coeffs:
            if not rest:
                break
            x, rest = unpair0(rest - 1)
            total += res[x] * a
        forbidden.add(-total % p)
    return forbidden


def test_target_matches_the_decode_loop():
    for p in primes_up_to(3000) + [100003]:
        vec = partition_vector(p)
        assert _target(p, vec) == least_outside(p, decode_loop_forbidden(p, vec)), p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(primes_up_to(5000)),
       st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=5),
       st.integers(-10**6, 10**6).filter(bool))
def test_target_matches_the_decode_loop_on_deep_supports(p, head, last):
    # partition vectors of primes below 10^4 have support at most 4, so only
    # synthetic vectors reach tails of four or five entries
    vec = FinVec(enumerate(head + [last], start=1))
    assert vec.max_support == len(head) + 1
    assert _target(p, vec) == least_outside(p, decode_loop_forbidden(p, vec))


@pytest.mark.parametrize("p, support, target", [
    (999287, 1, 35), (999029, 2, 44), (999023, 3, 8), (999007, 4, 34), (999067, 5, 104)])
def test_targets_near_a_million_are_frozen(p, support, target):
    # one prime per support, pinned to the targets of the former O(p) walk
    vec = partition_vector(p)
    assert vec.max_support == support
    assert _target(p, vec) == target


def test_contexts_below_3000_match_their_golden_digest():
    # one sha256 over the canonical JSON lines of every context, frozen
    digest = hashlib.sha256()
    for p in primes_up_to(3000):
        line = json.dumps(build_context(p).to_json(), sort_keys=True, separators=(",", ":"))
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "63e312654ee2bec54c3ca0ac714dc512c83f0485b4e0b242216fed52c56ffd93"


def test_every_index_below_p_minus_1_is_relevant():
    # the definition: i < p-1 and p divides no denominator of enum_qvec(i)
    dens = [None] + [enum_qvec(i).denominator_lcm() for i in range(1, 3099)]
    for p in primes_up_to(3100):
        relevant = build_context(p).relevant
        assert list(relevant) == list(range(1, p - 1)), p
        assert all(dens[i] % p for i in relevant), p


def test_cold_large_context_enumerates_no_rational_vector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rational vector was enumerated")

    monkeypatch.setattr(bookkeeping, "enum_qvec", refuse)
    ctx = build_context.__wrapped__(100003, DEFAULT)  # uncached: the context is large
    assert ctx.target == 21


def test_cold_large_context_retains_under_a_megabyte():
    # the context keeps the partition vector, no tuple of about p entries
    build_context.cache_clear()
    tracemalloc.start()
    try:
        ctx = build_context(100003)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.target == 21
    assert retained < 1_000_000


def test_context_refuses_primes_past_the_cap(monkeypatch):
    small = DEFAULT.replace(prime_cap=100)
    with pytest.raises(CapacityExceededError) as info:
        build_context(1009, small)
    assert (info.value.required, info.value.cap) == (1009, 100)
    assert build_context(101, DEFAULT.replace(prime_cap=101)).p == 101

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the cap check")

    monkeypatch.setattr(construction, "partition_vector", refuse)
    with pytest.raises(CapacityExceededError):
        build_context(1000, small)


@pytest.mark.parametrize("p", primes_up_to(50))
def test_context_pivot_is_last_nonzero_reduced_coordinate(p):
    ctx = build_context(p)
    last = next((i for i in range(ctx.width, 0, -1) if ctx.vec[i] % p != 0), None)
    assert ctx.pivot == last
    assert level_count(ctx) == p ** (ctx.width - (last is not None))


def test_level_set_p2_order():
    c = build_context(2)
    assert level_count(c) == 4
    expected = [
        FinVec({1: 1}),
        FinVec({1: 1, 2: 1}),
        FinVec({1: 1, 3: 1}),
        FinVec({1: 1, 2: 1, 3: 1}),
    ]
    assert [level_at(c, n) for n in range(1, 5)] == expected
    with pytest.raises(EnumerationRangeError):
        level_at(c, 0)
    with pytest.raises(EnumerationRangeError):
        level_at(c, 5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_set_matches_exhaustive_filter(p):
    # oracle: filter the full residue cube by the inner-product constraint
    c = build_context(p)
    cube = []
    for combo in itertools.product(range(p), repeat=c.width):
        total = sum(v * (c.vec[i] % p) for i, v in enumerate(combo, start=1))
        if total % p == c.target:
            cube.append(FinVec({i + 1: v for i, v in enumerate(combo) if v}))
    enumerated = [level_at(c, n) for n in range(1, level_count(c) + 1)]
    assert len(enumerated) == len(cube) == level_count(c)
    assert set(enumerated) == set(cube)
    for v in enumerated:
        assert level_contains(c, v)


def test_level_contains_validates_input():
    c = build_context(3)
    with pytest.raises(ValueError):
        level_contains(c, FinVec({c.width + 1: 1}))
    with pytest.raises(ValueError):
        level_contains(c, FinVec({1: 3}))
    with pytest.raises(ValueError):
        level_contains(c, FinVec({1: Fraction(1, 2)}))
    assert not level_contains(c, FinVec({2: 1}))


def test_perturbation_exponent_minimality():
    for p in (2, 3, 5):
        for k in range(1, 21):
            s = perturbation_exponent(p, k)
            assert p ** (s + 1) > k * (p - 1)
            assert s == 0 or p ** s <= k * (p - 1)


def test_block_stream_indexing():
    # stream item n lifts level element 1 + (n-1) mod count; block k holds
    # items (k-1)(k+2)/2+1 .. k(k+3)/2
    c = build_context(2)
    count = level_count(c)
    for k in range(1, 8):
        block = condition_block(c, k)
        assert isinstance(block, ConditionBlock)
        assert len(block.vectors) == k + 1
        start = (k - 1) * (k + 2) // 2
        step = 2 ** (block.s + 1)
        assert block.vectors[0] == level_at(c, 1 + start % count)
        for j in range(1, k + 1):
            lift = level_at(c, 1 + (start + j) % count)
            assert block.vectors[j] == lift + FinVec.single(j, step)


def expected_block(ctx, k, count):
    start = (k - 1) * (k + 2) // 2
    lifts = [level_at(ctx, 1 + (start + j) % count) for j in range(k + 1)]
    step = ctx.p ** (perturbation_exponent(ctx.p, k) + 1)
    return (lifts[0],) + tuple(lifts[j] + FinVec.single(j, step) for j in range(1, k + 1))


def test_early_blocks_need_no_level_count(monkeypatch):
    # level_count(9043) has about 36,000 digits; indices below 2^(width-1)
    # are below it, so the first blocks never compute it
    ctx = build_context(9043)
    count = level_count(ctx)
    expected = {k: expected_block(ctx, k, count) for k in range(1, 11)}

    def refuse(ctx):
        raise AssertionError("level_count computed")

    monkeypatch.setattr(construction, "level_count", refuse)
    for k in range(1, 11):
        assert condition_block.__wrapped__(ctx, k).vectors == expected[k], k


@pytest.mark.parametrize("p", [2, 3])
def test_block_stream_wraps_around_the_level_set(p):
    # p = 2 has width 3 and 4 level elements, p = 3 width 4 and 27
    ctx = build_context(p)
    count = level_count(ctx)
    assert (ctx.width, count) == {2: (3, 4), 3: (4, 27)}[p]
    wrapped = 0
    for k in range(1, 13):
        wrapped += (k - 1) * (k + 2) // 2 + k >= count
        assert condition_block(ctx, k).vectors == expected_block(ctx, k, count), k
    assert wrapped >= 5


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_reductions_stay_in_level_set(p):
    c = build_context(p)
    for k in range(1, 7):
        for v in condition_block(c, k).vectors:
            assert level_contains(c, v.reduce(p))


def test_block_difference_determinants_frozen():
    def diff_det(p, k):
        c = build_context(p)
        b = condition_block(c, k)
        rows = [
            [Fraction((b.vectors[j] - b.vectors[0])[i]) for i in range(1, k + 1)]
            for j in range(1, k + 1)
        ]
        return det(rows)

    assert [diff_det(2, k) for k in range(1, 5)] == [2, 16, 68, 4160]
    assert [diff_det(3, k) for k in range(1, 7)] == [3, 72, 720, 8910, 14859936, 386889048]
    assert [diff_det(5, k) for k in range(1, 7)] == [6, 600, 15000, 390000, 9750000, 234375000]


def test_visible_block_limit():
    assert visible_block_limit(2, 1) == 0
    assert visible_block_limit(2, 2) == 1
    assert visible_block_limit(2, 3) == 3
    assert visible_block_limit(3, 2) == 1
    assert visible_block_limit(3, 3) == 4
    # definition: k visible iff its perturbation exponent satisfies s+1 < m
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            kmax = visible_block_limit(p, m)
            if kmax:
                assert perturbation_exponent(p, kmax) + 1 < m
            assert perturbation_exponent(p, kmax + 1) + 1 >= m


@pytest.mark.parametrize("p", primes_up_to(13))
def test_visible_block_vectors_are_in_window_perturbations(p):
    # iter_window_residues reads block vectors unreduced and unfiltered:
    # each vector j >= 1 of a visible block leaves the layer at j (entry >= p)
    # and every entry is already a residue mod p^m
    c = build_context(p)
    for m in (1, 2, 3):
        for k in range(1, visible_block_limit(p, m) + 1):
            vectors = condition_block(c, k).vectors
            for j in range(1, k + 1):
                assert vectors[j][j] >= p
                assert all(0 <= v < p ** m for _, v in vectors[j].items())


def brute_residues(p: int, w: int, m: int) -> frozenset:
    """Reduce explicitly generated family vectors until the set stabilizes.

    Blocks past the visible limit contribute level truncations; one full
    stream cycle through the level set after that limit makes the union
    exhaustive, so generating well past it is a sound oracle.
    """
    c = build_context(p)
    count = level_count(c)
    kmax = visible_block_limit(p, m)
    k = kmax
    consumed = 0
    while consumed < count:
        k += 1
        consumed += k + 1
    out = set()
    modulus = p ** m
    for kk in range(1, k + 1):
        for v in condition_block(c, kk).vectors:
            out.add(FinVec({i: val % modulus for i, val in v.items()
                            if i <= w and val % modulus}))
    return frozenset(out)


@pytest.mark.parametrize(
    "p,w,m",
    [(2, 1, 1), (2, 2, 1), (2, 3, 2), (2, 5, 2), (2, 4, 3), (2, 6, 3),
     (3, 1, 1), (3, 2, 2), (3, 4, 2), (3, 6, 2), (3, 5, 3)],
)
def test_window_residues_match_bruteforce(p, w, m):
    assert window_residues(build_context(p), w, m) == brute_residues(p, w, m)


def set_based_residues(p: int, w: int, m: int) -> list:
    """The residue stream deduplicated with one set over everything yielded.

    The hyperplane layer is read off the level-set enumeration truncated to
    the clipped window, followed by the visible blocks reduced mod p^m.
    """
    c = build_context(p)
    w2 = min(w, c.width)
    pivot = max((i for i in range(1, c.width + 1) if c.vec[i] % p), default=None)
    hyper_count = p ** (w2 - 1) if pivot is not None and pivot <= w2 else p ** w2
    stream = [level_at(c, n).truncate(w2) for n in range(1, hyper_count + 1)]
    modulus = p ** m
    for k in range(1, visible_block_limit(p, m) + 1):
        for v in condition_block(c, k).vectors:
            stream.append(FinVec({i: val % modulus for i, val in v.truncate(w).items()}))
    seen, out = set(), []
    for vec in stream:
        if vec not in seen:
            seen.add(vec)
            out.append(vec)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_window_residue_order_matches_set_based_reference(p):
    for w in range(1, 6):
        for m in (1, 2, 3):
            assert list(iter_window_residues(build_context(p), w, m)) == set_based_residues(p, w, m)


def test_window_residues_frozen_p2():
    got = window_residues(build_context(2), 5, 2)
    expected = {
        FinVec({1: 1}),
        FinVec({1: 1, 2: 1}),
        FinVec({1: 1, 3: 1}),
        FinVec({1: 1, 2: 1, 3: 1}),
        FinVec({1: 3, 2: 1}),
    }
    assert got == frozenset(expected)


def test_window_residues_edge_cases():
    c = build_context(2)
    assert window_residues(c, 0, 3) == frozenset({FinVec.zero()})
    with pytest.raises(EnumerationRangeError):
        list(iter_window_residues(c, 1, 0))
    with pytest.raises(EnumerationRangeError):
        list(iter_window_residues(c, -1, 1))


def test_window_residues_capacity():
    small = DEFAULT.replace(residue_cap=100)
    with pytest.raises(CapacityExceededError) as info:
        list(iter_window_residues(build_context(5), 6, 3, small))
    assert info.value.required == 5 ** 5 + 6 * 9 // 2
    assert info.value.cap == 100


def condition_point(j, cj, piv, cp) -> FinVec:
    """The vector {j: cj, piv: cp} of a layer condition (index 0: no entry)."""
    return FinVec({i: v for i, v in ((j, cj), (piv, cp)) if i and v})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_layer_conditions_start_with_the_frozen_points_at_digit_powers(p):
    # the conditions with c0 = 1 are the residues at digit indices 0, 1, p,
    # p^2, ... of the mod-p scan: w + 1 points on a full layer, w on a hyperplane
    ctx = build_context(p)
    for w in range(0, 4):
        scan = list(iter_window_residues(ctx, w, 1))
        free = w - (ctx.pivot <= w)
        assert len(scan) == p ** free
        points = [condition_point(*rest) for c0, *rest in layer_conditions(ctx, w, 1) if c0]
        assert points == [scan[0]] + [scan[p ** j] for j in range(free)]


def lattice_of(vectors, w: int) -> list:
    """Hermite basis of the integer span of sparse vectors on [1, w],
    reduced a chunk at a time."""
    basis = []
    for start in range(0, len(vectors), 64):
        chunk = [[v[i] for i in range(1, w + 1)] for v in vectors[start:start + 64]]
        basis = hnf(basis + chunk)
    return basis


def condition_lattice(ctx, w: int, m: int) -> list:
    """Hermite basis of the differences the conditions stand for: each point
    minus the first one, and each vector with c0 = 0."""
    conditions = layer_conditions(ctx, w, m)
    q0 = condition_point(*conditions[0][1:])
    return lattice_of([condition_point(*rest) - q0 if c0 else condition_point(*rest)
                       for c0, *rest in conditions], w)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_layer_conditions_span_the_integer_affine_hull_of_the_residues(p):
    # f vanishes on a set iff on its integer affine hull, so the conditions
    # must span exactly the differences of the residues from the first one
    ctx = build_context(p)
    for w in range(1, 5 if p < 7 else 4):
        for m in (1, 2, 3):
            residues = list(iter_window_residues(ctx, w, m))
            assert layer_conditions(ctx, w, m)[0][0] == 1
            hull = lattice_of([r - residues[0] for r in residues], w)
            assert condition_lattice(ctx, w, m) == hull, (p, w, m)


def synthetic_cases():
    """(p, b_0, slopes) over the pivot's free coordinates: every case with
    up to two free coordinates at p <= 7 and three at p <= 3, and a seeded
    sample at p = 11, 13 that includes both affine pairs."""
    rng = random.Random(13)
    for p in (2, 3, 5, 7):
        for free in range(4 if p <= 3 else 3):
            for b0, *slopes in itertools.product(range(p), repeat=free + 1):
                yield p, b0, slopes
    for p in (11, 13):
        for free in (1, 2, 3):
            for b0, b in ((0, 1), (p - 1, p - 1)):
                yield p, b0, [0] * (free - 1) + [b]
            for _ in range(30):
                yield p, rng.randrange(p), [rng.randrange(p) for _ in range(free)]


def test_affine_pivot_rule_matches_the_hull_of_synthetic_layers():
    # a context whose pivot sits right after `free` coordinates, with
    # vec[pivot] = 1, vec[j] = -b_j and target b_0, so its layer is
    # {(x, (b_0 + sum b_j x_j) mod p)}; its hull is computed from every point
    seen = set()
    for p, b0, slopes in synthetic_cases():
        free = len(slopes)
        piv = free + 1
        vec = FinVec({j: -b % p for j, b in enumerate(slopes, start=1)} | {piv: 1})
        ctx = FixedTarget(p, vec, piv, b0)
        layer = [FinVec({j: x for j, x in enumerate(xs, start=1)}
                        | {piv: (b0 + sum(b * x for b, x in zip(slopes, xs))) % p})
                 for xs in itertools.product(range(p), repeat=free)]
        hull = lattice_of([q - layer[0] for q in layer], piv)
        affine = (0, 0, 0, piv, p) not in layer_conditions(ctx, piv, 1)
        nonzero = [b for b in slopes if b]
        assert affine == (not nonzero or (len(nonzero) == 1 and (nonzero[0], b0) in {(1, 0), (p - 1, p - 1)}))
        assert affine == (len(hull) < piv), (p, b0, slopes)
        assert condition_lattice(ctx, piv, 1) == hull, (p, b0, slopes)
        seen.add((p, affine, free))
    assert {(2, True, 3), (13, True, 3), (13, False, 3), (5, True, 2), (7, False, 2)} <= seen


def test_caches_are_bounded():
    assert build_context.cache_info().maxsize == 1 << 12
    assert condition_block.cache_info().maxsize == 1 << 12
    assert group._conditions.cache_info().maxsize == 1 << 12


def test_blocks_on_a_window_are_truncated_full_blocks():
    # windows up to 6 hold the pivot at some primes and miss it at others
    kinds = set()
    for p in primes_up_to(3000):
        ctx = build_context(p)
        for k in range(1, 6):
            full = condition_block.__wrapped__(ctx, k)
            for w in range(1, 7):
                block = condition_block.__wrapped__(ctx, k, w)
                assert (block.k, block.s) == (full.k, full.s)
                assert block.vectors == tuple(v.truncate(w) for v in full.vectors), (p, k, w)
                kinds.add(ctx.pivot <= w)
    assert kinds == {True, False}


def test_rebuilt_context_hits_the_block_cache():
    # a context rebuilt after eviction equals the old one, so its blocks stay cached
    block = condition_block(build_context(3037), 2)
    build_context.cache_clear()
    assert condition_block(build_context(3037), 2) is block


def test_contexts_are_cached():
    assert build_context(2) is build_context(2)
    assert isinstance(build_context(2), PrimeContext)


def test_hyperplane_points_match_the_free_coordinate_digit_expansion():
    # reference: the digits of the index over the explicit list of free
    # coordinates, all of them written out, zero digits included
    def reference(ctx, w, idx):
        pivot = ctx.pivot if ctx.pivot <= w else 0
        entries = {}
        for c in (c for c in range(1, w + 1) if c != pivot):
            idx, digit = divmod(idx, ctx.p)
            if digit:
                entries[c] = digit
        if pivot:
            partial = sum(v * ctx.vec[c] for c, v in entries.items())
            solved = (ctx.target - partial) * pow(ctx.vec[pivot], -1, ctx.p) % ctx.p
            if solved:
                entries[pivot] = solved
        return FinVec(entries)

    for p in primes_up_to(50):
        ctx = build_context(p)
        # every window keeps at least two free coordinates, so each index < p^2 fits
        windows = {3, ctx.width, max(3, ctx.pivot + 1)}
        for w in sorted(windows):
            points = list(construction._hyperplane_points(ctx, w, range(p * p)))
            assert points == [reference(ctx, w, idx) for idx in range(p * p)], (p, w)
