"""Kernel saturation in purify against the projective-candidate scan.

The scan below is the algorithm purify used before it computed one F_p
kernel per round: every projective (1/p)-combination of the current basis
gets its own membership test, and the first member found is adjoined.
Both reach the unique fixpoint G meet L[1/p] at each prime, and the
Hermite basis of that lattice is canonical, so the bases must be equal.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicgroup.arith import prime_factors, primes_up_to
from padicgroup.bookkeeping import partition_vector
from padicgroup.config import DEFAULT
from padicgroup.construction import build_context
from padicgroup.group import element_row, is_member, purify, row_element
from padicgroup.linalg import RatLattice, integer_span_points
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
