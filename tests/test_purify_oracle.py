"""Kernel saturation in purify against the projective-candidate scan, and
the cached closure of a full-rank span against the kernel rounds.

The scan below is the algorithm purify used before it computed one F_p
kernel per round: every projective (1/p)-combination of the current basis
gets its own membership test, and the first member found is adjoined.
The rounds below are what purify ran at every prime before a span of all
of Q^n took the cached Z^n + sum of S_p, S_p = G meet Z[1/p]^n, instead.
All reach the unique fixpoint G meet L[1/p] at each prime, and the Hermite
basis of that lattice is canonical, so the bases must be equal.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from padicgroup.arith import prime_factors, primes_up_to
from padicgroup.bookkeeping import partition_vector
from padicgroup import group, linalg
from padicgroup.config import DEFAULT
from padicgroup.construction import build_context
from padicgroup.errors import CapacityExceededError
from padicgroup.group import PurifyResult, element_row, is_member, purify, row_element, saturation_kernel
from padicgroup.linalg import RatLattice, identity, integer_span_points
from padicgroup.vectors import GroupElement, element

F = Fraction


def _projective_tuples(p: int, d: int):
    """Coefficient tuples in {0..p-1}^d with first nonzero entry equal to 1."""
    for lead in range(d):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=d - lead - 1):
            yield prefix + tail


def scan_purify(gens, bound=None, config=DEFAULT):
    """Pure closure by one membership test per projective candidate.

    Needs a generator with nonzero vector part, as the inputs below have.
    """
    k = max(g.x.max_support for g in gens)
    ncols = k + 1
    gen_rows = [element_row(g, k) for g in gens]
    lat = RatLattice.from_rows(gen_rows + integer_span_points(gen_rows, ncols), ncols)
    if bound is not None:
        primes = prime_factors(bound)
    else:
        primes = sorted(set(primes_up_to(config.purify_prime_cap)) | set(prime_factors(lat.den)))
    for p in primes:
        enlarged = True
        while enlarged:
            enlarged = False
            rows = lat.rational_rows()
            for coeffs in _projective_tuples(p, lat.dim):
                vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) / p for j in range(ncols)]
                if is_member(row_element(vec), config):
                    lat = lat.add_row(vec)
                    enlarged = True
                    break
    return tuple(row_element(row) for row in lat.rational_rows())


def witness_element(p: int) -> GroupElement:
    """z_p = (-a/p, v/p): a member whose only denominator is p."""
    return GroupElement(F(-build_context(p).target, p), partition_vector(p).scale(F(1, p)))


@st.composite
def generator_sets(draw):
    """d-1 window coordinates, a prime cap <= 7, and up to d generators,
    each an integer point plus c*z_p for a prime p within the cap."""
    d = draw(st.sampled_from([2, 3]))
    k = d - 1
    cap = draw(st.sampled_from([2, 3, 5, 7]))
    fit = [p for p in primes_up_to(cap) if partition_vector(p).max_support <= k]
    gens = []
    for _ in range(draw(st.integers(1, d))):
        x0 = draw(st.integers(-4, 4))
        x = {i: draw(st.integers(-3, 3)) for i in range(1, k + 1)}
        g = element(x0, x)
        if fit:
            p = draw(st.sampled_from(fit))
            g = g + witness_element(p).scale(draw(st.integers(0, p - 1)))
        gens.append(g)
    if all(g.x.is_zero for g in gens):
        gens.append(element(0, {k: 1}))
    return gens, DEFAULT.replace(purify_prime_cap=cap)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_kernel_purify_matches_scan(case):
    gens, config = case
    assert purify(gens, config=config).basis == scan_purify(gens, config=config)


BOUNDED = [
    ([element(-1, {1: -1})], 42),
    ([element(-1, {1: -1})], 4),
    ([element(0, {1: 2})], 2),
    ([element(2, {}), element(0, {1: 2})], 6),
    ([element(F(-1, 2), {1: F(-1, 2)}), element(1, {2: 3})], 2 * 3 * 5 * 7),
    ([element(F(-2, 5), {1: F(-2, 5), 2: F(-2, 5)}), element(0, {1: 1, 2: 5})], 25),
]


@pytest.mark.parametrize("gens,bound", BOUNDED)
def test_bounded_kernel_purify_matches_scan(gens, bound):
    result = purify(gens, bound=bound)
    assert result.status == "complete"
    assert result.basis == scan_purify(gens, bound=bound)


def rounds_purify(gens, bound=None, config=DEFAULT) -> dict:
    """The JSON of purify by kernel rounds at every prime from L, the
    generators and the integer points of their span, or the refusal's
    (detail, required, cap).  Needs a generator with nonzero vector part."""
    k = max(g.x.max_support for g in gens)
    gen_rows = [element_row(g, k) for g in gens]
    lat = RatLattice.from_rows(gen_rows + integer_span_points(gen_rows, k + 1), k + 1)
    if bound is not None:
        primes, status = prime_factors(bound), "complete"
    else:
        primes = sorted(set(primes_up_to(config.purify_prime_cap)) | set(prime_factors(lat.den)))
        status = "possibly-incomplete"
    for p in primes:
        for _ in range(config.purify_round_cap):
            kernel = saturation_kernel(lat, p, config)
            if not kernel:
                break
            lat = lat.adjoin(kernel, p)
        else:
            return {"refused": (f"saturation at prime {p} did not stabilize",
                                config.purify_round_cap + 1, config.purify_round_cap)}
    return PurifyResult(tuple(row_element(row, lat.den) for row in lat.rows), status, tuple(primes), bound).to_json()


def purify_json(gens, bound=None, config=DEFAULT) -> dict:
    try:
        return purify(gens, bound, config).to_json()
    except CapacityExceededError as exc:
        return {"refused": (str(exc), exc.required, exc.cap)}


@st.composite
def full_rank_sets(draw):
    """n = 2..4 generators spanning Q^n, each an integer point plus c*z_p for
    a prime p <= 31 whose class vector fits the window, with a bound, a prime
    cap in 5..32 and a round cap (1 and 2 refuse some S_p, and some L)."""
    n = draw(st.integers(2, 4))
    k = n - 1
    fit = [p for p in primes_up_to(31) if partition_vector(p).max_support <= k]
    gens = []
    for _ in range(draw(st.integers(n, n + 1))):
        x = {i: draw(st.integers(-3, 3)) for i in range(1, k + 1)}
        p = draw(st.sampled_from(fit))
        gens.append(element(draw(st.integers(-4, 4)), x) + witness_element(p).scale(draw(st.integers(0, p - 1))))
    if RatLattice.from_rows([element_row(g, k) for g in gens], n).dim < n:
        gens += [element(1, {})] + [element(0, {i: 1}) for i in range(1, n)]
    config = DEFAULT.replace(purify_prime_cap=draw(st.integers(5, 32)),
                             purify_round_cap=draw(st.sampled_from([1, 2, 64])))
    return gens, draw(st.sampled_from([None, 2, 6, 30])), config


@settings(max_examples=150, deadline=None)
@given(full_rank_sets())
def test_full_rank_purify_from_cached_pieces_matches_the_rounds(case):
    gens, bound, config = case
    assert purify_json(gens, bound, config) == rounds_purify(gens, bound, config)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cached_pieces_are_saturated_group_lattices_holding_the_integer_points(n):
    for p in primes_up_to(31):
        piece = group._unit_saturation(p, n, DEFAULT)
        assert set(prime_factors(piece.den)) <= {p}
        assert saturation_kernel(piece, p) == []
        assert all(is_member(row_element(row, piece.den)) for row in piece.rows)
        units = [[piece.den * v for v in e] for e in identity(n)]
        summed = RatLattice.reduced(piece.den, piece.rows + units, n)
        assert (summed.den, summed.rows) == (piece.den, piece.rows)
        if partition_vector(p).max_support < n:  # z_p lies in the piece
            assert piece.den % p == 0


def unit_gens(n: int) -> list[GroupElement]:
    return [element(1, {})] + [element(0, {i: 1}) for i in range(1, n)]


@st.composite
def member_sets_on_one_prime_set(draw):
    """n = 2..4, a prime cap and a bound (None, or the product of the primes
    up to the cap), and two full-rank member sets whose denominators have
    primes only within the cap, so both probe the same primes: Z^n's basis,
    and integer points plus c*z_p with their span completed by Z^n."""
    n = draw(st.integers(2, 4))
    cap = draw(st.sampled_from([5, 7, 11, 13]))
    fit = [p for p in primes_up_to(cap) if partition_vector(p).max_support < n]
    gens = []
    for _ in range(draw(st.integers(1, n + 1))):
        g = element(draw(st.integers(-4, 4)), {i: draw(st.integers(-3, 3)) for i in range(1, n)})
        for p in draw(st.lists(st.sampled_from(fit), max_size=2)):
            g = g + witness_element(p).scale(draw(st.integers(1, p - 1)))
        gens.append(g)
    bound = draw(st.sampled_from([None, math.prod(primes_up_to(cap))]))
    return n, fit, [unit_gens(n), gens + unit_gens(n)], bound, DEFAULT.replace(purify_prime_cap=cap)


@settings(max_examples=60, deadline=None)
@given(member_sets_on_one_prime_set())
def test_full_rank_purify_depends_on_the_probed_primes_only(case):
    # G meet L[1/P] = Z^n + sum of S_p once P holds the primes of L's
    # denominator, whatever the generators: the closure of Z^n and each z_p
    n, fit, sets, bound, config = case
    oracle = rounds_purify(unit_gens(n) + [witness_element(p) for p in fit], bound, config)
    assert [purify_json(gens, bound, config) for gens in sets] == [oracle] * len(sets)
    with mock.patch.object(linalg, "hnf", side_effect=AssertionError("a warm closure runs no Hermite reduction")):
        assert [purify_json(gens, bound, config) for gens in sets] == [oracle] * len(sets)


def test_unit_closure_is_none_exactly_when_a_piece_passes_the_round_cap():
    outcomes = set()
    for n, round_cap, cap in itertools.product([2, 3, 4], [1, 2, 3], [5, 13, 31]):
        config = DEFAULT.replace(purify_prime_cap=cap, purify_round_cap=round_cap)
        primes = tuple(primes_up_to(cap))
        refused = any(group._unit_saturation(p, n, config) is None for p in primes)
        assert (group._unit_closure(primes, n, config) is None) == refused
        fit = [p for p in primes if partition_vector(p).max_support < n]
        gens = unit_gens(n) + [witness_element(p) for p in fit]
        result = purify_json(gens, config=config)
        assert result == rounds_purify(gens, config=config)
        outcomes.add((refused, "refused" in result))
    assert outcomes == {(False, False), (True, False), (True, True)}
