"""Randomized algebraic properties; the cheap pure functions only."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padicgroup.arith import reduce_mod, valuation
from padicgroup.bookkeeping import pair, pair0, unpair, unpair0
from padicgroup.group import is_member
from padicgroup.vectors import FinVec, element

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60,
)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
def test_pair_round_trip(i, j):
    assert unpair(pair(i, j)) == (i, j)


@given(st.integers(min_value=0, max_value=10**12))
def test_pair0_round_trip(z):
    x, y = unpair0(z)
    assert pair0(x, y) == z


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
def test_valuation_additive(a, b, p):
    if a and b:
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)
    if a + b:
        assert valuation(a + b, p) >= min(valuation(a, p), valuation(b, p))


@given(rationals, rationals, st.sampled_from([3, 5]), st.integers(min_value=1, max_value=3))
def test_reduce_mod_is_a_ring_map(a, b, p, m):
    if a.denominator % p and b.denominator % p:
        modulus = p ** m
        ra, rb = reduce_mod(a, p, m), reduce_mod(b, p, m)
        assert reduce_mod(a + b, p, m) == (ra + rb) % modulus
        assert reduce_mod(a * b, p, m) == (ra * rb) % modulus


small_entries = st.dictionaries(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-20, max_value=20),
    max_size=4,
)


@settings(max_examples=40)
@given(small_entries, small_entries, st.integers(min_value=-20, max_value=20))
def test_integer_elements_form_a_subgroup(xs, ys, x0):
    a = element(x0, xs)
    b = element(-x0, ys)
    assert is_member(a)
    assert is_member(a + b)
    assert is_member(a.scale(-2))


@given(small_entries)
def test_finvec_double_negation(xs):
    v = FinVec(xs)
    assert -(-v) == v
    assert (v - v).is_zero
