import functools
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from padicgroup.arith import prime_factors, valuation
from padicgroup.bookkeeping import FINGERPRINT
from padicgroup.construction import build_context, iter_window_residues
from padicgroup import construction, group as group_module
from padicgroup.config import DEFAULT
from padicgroup.errors import CapacityExceededError, NotInGroupError
from padicgroup.group import (
    MembershipVerdict,
    PurifyResult,
    element_row,
    in_integer_axis,
    is_member,
    membership,
    purify,
    row_element,
    saturation_kernel,
    spans_disjoint,
)
from padicgroup.linalg import EchelonModP, RatLattice
from padicgroup.vectors import FinVec, GroupElement, element
from test_purify_oracle import BOUNDED, generator_sets

F = Fraction


MEMBERS = [
    element(5, {}),
    element(0, {}),
    element(-7, {1: 3, 5: -2}),
    element(F(-1, 2), {1: F(-1, 2)}),
    element(F(1, 2), {1: F(-1, 2)}),
    element(F(-5, 6), {1: F(-5, 6)}),
]

NON_MEMBERS = [
    element(F(1, 2), {}),
    element(0, {1: F(1, 2)}),
    element(F(1, 3), {2: 1}),
    element(F(1, 5), {1: F(1, 5)}),
]


def test_membership_frozen_table():
    for e in MEMBERS:
        verdict = membership(e)
        assert verdict.member, e
        assert bool(verdict)
        assert verdict.failing_prime is None
    for e in NON_MEMBERS:
        verdict = membership(e)
        assert not verdict.member, e
        assert verdict.failing_prime is not None
        assert verdict.reason


def test_membership_failure_details():
    verdict = membership(element(F(1, 2), {}))
    assert verdict.failing_prime == 2
    assert "axis elements must be integers" in verdict.reason
    verdict = membership(element(0, {1: F(1, 2)}))
    assert verdict.failing_prime == 2
    assert verdict.failing_residue is not None


def element_modulus(e: GroupElement, p: int) -> int:
    """The modulus exponent m = max(1, -min v_p(x)) of a membership check."""
    return max(1, -min([0] + [valuation(v, p) for _, v in e.x.items()]))


def reference_membership(e: GroupElement, config=DEFAULT) -> MembershipVerdict:
    """The former membership loop: one Fraction value and one valuation per
    residue, with m = max(1, -min v_p(x)).  Kept as an oracle for the layer
    conditions."""
    primes = prime_factors(e.denominator_lcm())
    for p in primes:
        ctx = build_context(p, config)
        for r in iter_window_residues(ctx, e.x.max_support, element_modulus(e, p), config):
            value = e.x0 + r.inner(e.x)
            if valuation(value, p) < 0:
                if e.x.is_zero:
                    reason = f"leading coordinate {e.x0} is not {p}-integral; axis elements must be integers"
                else:
                    reason = f"x0 + <r, x> = {value} is not {p}-integral"
                return MembershipVerdict(False, p, r, reason, tuple(primes))
    return MembershipVerdict(True, checked_primes=tuple(primes))


def scan_residues(p: int, w: int, m: int, config=DEFAULT):
    """The residues the former integer scan read: the spanning points at
    digit indices 0, 1, p, ..., p^(free-1) at m = 1 (capped like the whole
    layer), every residue mod p^m otherwise."""
    if w == 0:
        return [FinVec.zero()]
    ctx = build_context(p, config)
    if m > 1:
        return iter_window_residues(ctx, w, m, config)
    w2, free, _ = construction._layer_shape(ctx, w, 1, config)
    return construction._hyperplane_points(ctx, w2, [0] + [p ** j for j in range(free)])


def scan_membership(e: GroupElement, config=DEFAULT) -> MembershipVerdict:
    """The former membership path: one integer value per scanned residue,
    with m = max(1, v_p(den) - lowest v_p of an x numerator).  Kept as an
    oracle for the layer conditions."""
    den = e.denominator_lcm()
    primes = prime_factors(den)
    w = e.x.max_support
    row = [int(v * den) for v in element_row(e, w)]
    for p in primes:
        scale = p ** valuation(den, p)
        lowest = min((valuation(v, p) for v in row[1:] if v), default=valuation(den, p))
        for r in scan_residues(p, w, max(1, valuation(den, p) - lowest), config):
            num = row[0] + sum(v * row[i] for i, v in r.items())
            if num % scale:
                if e.x.is_zero:
                    reason = f"leading coordinate {e.x0} is not {p}-integral; axis elements must be integers"
                else:
                    reason = f"x0 + <r, x> = {Fraction(num, den)} is not {p}-integral"
                return MembershipVerdict(False, p, r, reason, tuple(primes))
    return MembershipVerdict(True, checked_primes=tuple(primes))


SMALL_PRIMES = [2, 3, 5, 7]


@st.composite
def windowed_elements(draw):
    """Elements on windows 0-3 whose entries have denominators p^a q^b with
    p != q in {2, 3, 5, 7} and a, b <= 3, so the scan modulus stays below
    p^4.  Half of those with a window are integer points plus a multiple of
    the member (-1/p)(1, e1), p in {2, 3, 7}, so members are drawn as well."""
    w = draw(st.integers(0, 3))
    if w and draw(st.booleans()):
        p = draw(st.sampled_from([2, 3, 7]))
        point = element(draw(st.integers(-3, 3)), {i: draw(st.integers(-3, 3)) for i in range(1, w + 1)})
        return point + element(F(-1, p), {1: F(-1, p)}).scale(draw(st.integers(1, p - 1)))

    def rational():
        p, q = draw(st.permutations(SMALL_PRIMES))[:2]
        den = p ** draw(st.integers(0, 3)) * q ** draw(st.integers(0, 3))
        return F(draw(st.integers(-2 * den, 2 * den)), den)

    return element(rational(), {i: rational() for i in range(1, w + 1)})


@settings(max_examples=300, deadline=None)
@given(windowed_elements())
@example(element(F(1, 4), {1: F(3, 4)}))  # fails only on a perturbed residue mod 4
@example(element(F(1, 9), {1: F(4, 9)}))
def test_membership_matches_fraction_reference(e):
    assert membership(e).to_json() == reference_membership(e).to_json()


@pytest.mark.parametrize("den", [4, 8, 9, 25, 27])
def test_membership_matches_fraction_reference_on_a_grid(den):
    # every (a/den, (b/den) e1): a few of them fail only on a perturbed block
    # residue, which the scan reaches only with the full modulus
    for a in range(den):
        for b in range(den):
            e = element(F(a, den), {1: F(b, den)})
            assert membership(e).to_json() == reference_membership(e).to_json(), e


SPANNING_GRID = [(2, 3), (3, 3), (5, 3), (7, 3), (13, 2)]  # (p, largest window)


def test_spanning_grid_covers_both_layer_kinds():
    # below the pivot the mod-p layer is all of F_p^w, from it on a hyperplane
    kinds = {build_context(p).pivot > w for p, wmax in SPANNING_GRID for w in range(1, wmax + 1)}
    assert kinds == {True, False}


@pytest.mark.parametrize("p, wmax", SPANNING_GRID)
def test_membership_at_modulus_one_matches_reference_on_a_grid(p, wmax):
    # every (a/p, (b_1/p, ..., b_w/p)): modulus exponent 1, decided from the
    # layer's spanning points alone
    for w in range(wmax + 1):
        for a, *bs in itertools.product(range(p), repeat=w + 1):
            e = element(F(a, p), {i: F(b, p) for i, b in enumerate(bs, start=1)})
            assert membership(e).to_json() == reference_membership(e).to_json(), e


@pytest.mark.parametrize("p, e, wmax", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 1), (5, 2, 2)])
def test_membership_at_modulus_one_with_a_higher_power_matches_reference(p, e, wmax):
    # den = p^e while every x numerator is divisible by p^(e-1), so m is still 1
    den = p ** e
    for w in range(wmax + 1):
        for a, *bs in itertools.product(range(1, den, p), *[range(p)] * w):
            x = element(F(a, den), {i: F(b, p) for i, b in enumerate(bs, start=1)})
            assert valuation(x.denominator_lcm(), p) == e
            assert membership(x).to_json() == reference_membership(x).to_json(), x


def refuse_residue_enumeration(monkeypatch):
    """Make any residue enumeration fail: every one sizes its set with
    construction._layer_shape first."""
    def refuse(ctx, w, m, config):
        raise AssertionError(f"residues enumerated at p = {ctx.p}, window {w}, m = {m}")

    monkeypatch.setattr(construction, "_layer_shape", refuse)


def test_membership_at_modulus_one_opens_no_residue_scan(monkeypatch):
    # the witness z_p at p = 3037 plus the integer point e2: a member on
    # window 2, whose layer is a hyperplane of 3037 points
    p = 3037
    ctx = build_context(p)
    z = GroupElement(F(-ctx.target, p), ctx.vec.scale(F(1, p)) + FinVec.single(2, 1))
    assert z.x.max_support == 2 and ctx.pivot <= 2
    expected = reference_membership(z).to_json()
    refuse_residue_enumeration(monkeypatch)
    assert membership(z).to_json() == expected
    assert expected["member"]


def test_membership_of_a_member_ignores_the_residue_cap():
    # a member on window 3 at p = 7: its mod-7 layer holds 49 points, more
    # than the cap, but no residue is enumerated
    small = DEFAULT.replace(residue_cap=48)
    z = element(F(-1, 7), {1: F(-1, 7), 2: 1, 3: 1})
    with pytest.raises(CapacityExceededError):
        list(iter_window_residues(build_context(7, small), 3, 1, small))
    assert membership(z, small).to_json() == membership(z).to_json()
    assert membership(z, small).member


def test_membership_of_a_non_member_at_modulus_two_answers_under_the_residue_cap():
    # a non-member on window 3 at p = 7 with m = 2 (x_2 = 1/49): its scan
    # holds 49 layer points plus 2 block vectors, past the cap of 48, but
    # its failing residue is named from the layer conditions
    small = DEFAULT.replace(residue_cap=48)
    z = element(F(-1, 49), {1: F(-1, 7), 2: F(1, 49), 3: 1})
    with pytest.raises(CapacityExceededError) as scan:
        list(iter_window_residues(build_context(7, small), 3, 2, small))
    assert (scan.value.required, scan.value.cap) == (51, 48)
    assert not membership(z, small).member
    assert membership(z, small).to_json() == reference_membership(z).to_json()


def test_membership_at_modulus_two_opens_no_residue_scan(monkeypatch):
    # at p = 29 the pivot is coordinate 2 and its entry is constant on the
    # layer, so x_2 = 1/29^2 is free up to the constant: a member with m = 2
    # on window 4, whose scan holds 29^3 layer points and one block vector
    p = 29
    ctx = build_context(p)
    assert ctx.pivot == 2 and ctx.slopes[1] == {}
    b0 = ctx.slopes[0]
    z = element(F(-b0, p * p), {2: F(1, p * p), 4: 3})
    expected = reference_membership(z).to_json()
    refuse_residue_enumeration(monkeypatch)
    assert membership(z).to_json() == expected
    assert expected["member"]


def test_membership_needs_the_pivot_step_where_the_pivot_is_not_affine():
    # at p = 73 the pivot is 3, with the one slope b_2 = p - 1 but b_0 = 71:
    # not affine, so the layer points alone accept this element and only
    # the condition p e_piv refuses it (at p <= 13 the blocks imply it)
    p = 73
    ctx = build_context(p)
    assert (ctx.pivot, ctx.slopes) == (3, (71, {2: 72}))
    z = element(F(-71, p * p), {2: F(1, p * p), 3: F(1, p * p)})
    row = [-71, 0, 1, 1]
    failing = [c0 for c0, j, cj, piv, cp in construction.layer_conditions(ctx, 3, 2)
               if (c0 * row[0] + cj * row[j] + cp * row[piv]) % (p * p)]
    assert failing == [0]
    assert not membership(z).member
    assert membership(z).to_json() == scan_membership(z).to_json() == reference_membership(z).to_json()


def first_failing_condition_point(z: GroupElement, p: int) -> FinVec:
    """The layer point of z's first failing condition at p: the answer of the
    shortcut that skips the digit descent."""
    den = z.denominator_lcm()
    row = [int(v * den) for v in element_row(z, z.x.max_support)]
    m = element_modulus(z, p)
    for c0, j, cj, piv, cp in construction.layer_conditions(build_context(p), z.x.max_support, m):
        if (c0 * row[0] + cj * row[j] + cp * row[piv]) % p ** valuation(den, p):
            return FinVec({i: v for i, v in ((j, cj), (piv, cp)) if i and v})


def test_membership_names_a_failure_inside_the_layer():
    # p = 11, m = 2, pivot 2: q_0 and the step on coordinate 1 pass, and the
    # step on coordinate 3 (digit index 11) fails first; but p y_piv != 0
    # mod 121, and the first failing residue has digit index 10
    z = element(F(112, 121), {1: F(1, 121), 2: F(1, 121), 3: F(1, 11)})
    assert first_failing_condition_point(z, 11) == FinVec({2: 9, 3: 1})
    verdict = membership(z)
    assert verdict.failing_residue == FinVec({1: 10, 2: 10})
    assert verdict.to_json() == scan_membership(z).to_json() == reference_membership(z).to_json()


def passing_step_rows(seed: int, count: int):
    """Elements at p <= 41 with the pivot in window w <= 4 whose cleared row
    passes q_0 and every unit step but has p y_piv != 0 mod p^e: y_0 = -b_0
    y_piv and y_j = -(y_0 + ((b_0 + b_j) mod p) y_piv) mod p^e.  Such a row
    fails, if at all, only where the pivot entry wraps, inside the layer."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice([5, 11, 13, 19, 23, 37, 41])
        ctx = build_context(p)
        b0, slopes = ctx.slopes
        w, e = rng.randint(ctx.pivot, 4 if p <= 23 else 3), rng.randint(2, 3)
        n = p ** e
        y_piv = rng.randrange(1, p) * p ** rng.randint(0, e - 2)
        y0 = -b0 * y_piv
        y = {j: -(y0 + (b0 + slopes.get(j, 0)) % p * y_piv) % n for j in range(1, w + 1) if j != ctx.pivot}
        out.append((p, element(F(y0, n), {**{j: F(v, n) for j, v in y.items()}, ctx.pivot: F(y_piv, n)})))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_membership_inside_the_layer_matches_both_oracles(seed):
    # the shortcut that reports the first failing condition's point is wrong
    # on many of these rows
    big = DEFAULT.replace(residue_cap=10 ** 7)
    shortcut_wrong = 0
    for p, z in passing_step_rows(seed, 60):
        expected = membership(z).to_json()
        assert expected == scan_membership(z, big).to_json(), z
        assert expected == reference_membership(z, big).to_json(), z
        if not expected["member"]:
            shortcut_wrong += first_failing_condition_point(z, p) != membership(z).failing_residue
    assert shortcut_wrong >= 5


def descent_by_digit_scan(z: GroupElement, p: int) -> FinVec:
    """The layer point of least digit index whose value fails at p, found a
    digit at a time from the top of the window, each digit the least d in
    0, 1, ..., p - 1 whose box (lower digits free) fails by the layer lemma
    (construction._box_conditions).  An oracle for the wrap candidates of
    first_failing_residue on layers of about p^2 points."""
    ctx = build_context(p)
    den = z.denominator_lcm()
    n = p ** valuation(den, p)
    y = {i: int(v * den) for i, v in z.x.items()}
    y0, piv = int(z.x0 * den), ctx.pivot
    entry, slopes = ctx.slopes
    free = [j for j in range(1, z.x.max_support + 1) if j != piv]
    digits = {}
    while free:
        t = free.pop()
        b = slopes.get(t, 0)
        d = next(d for d in range(p) if any(
            (c0 * (y0 + d * y.get(t, 0)) + cj * y.get(j, 0) + cp * y.get(q, 0)) % n
            for c0, j, cj, q, cp in construction._box_conditions(p, (entry + d * b) % p, slopes, free, piv)))
        digits[t] = d
        y0, entry = y0 + d * y.get(t, 0), (entry + d * b) % p
    return FinVec({**digits, piv: entry})


def test_membership_digit_descent_at_a_large_prime():
    # p = 999,931, m = 2: the least digit 83,299 is a wrap candidate, and the
    # scan would hold about p^2 layer points, past the residue cap.  The rows
    # after it pass q_0 and the unit steps, or fail a step by a multiple of p.
    p = 999931
    n = p * p
    z = element(F(840243392253, n), {1: F(1916232, n), 2: F(159686, n), 3: F(159686, n)})
    assert membership(z).to_json()["failing_residue"] == {"1": "83299", "3": "999921"}
    with pytest.raises(CapacityExceededError):
        scan_membership(z)
    assert membership(z).failing_residue == descent_by_digit_scan(z, p)
    ctx = build_context(p)
    b0, slopes = ctx.slopes
    rng = random.Random(1)
    seen = set()
    for _ in range(6):
        y_piv = rng.randrange(1, p)
        y0 = -b0 * y_piv
        y = [-(y0 + (b0 + slopes[j]) % p * y_piv) + p * rng.choice([0, rng.randrange(p)]) for j in (1, 2)]
        z = element(F(y0, n), {1: F(y[0], n), 2: F(y[1], n), ctx.pivot: F(y_piv, n)})
        verdict = membership(z)
        assert not verdict.member and verdict.failing_residue == descent_by_digit_scan(z, p), z
        seen.add(verdict.failing_residue[1])
    assert seen == {1, 83299}


@functools.lru_cache(maxsize=None)
def saturated_basis(p: int, w: int) -> tuple:
    """Basis of the group's elements with p-power denominators on window
    [1, w]: Z^(w+1) saturated at p."""
    units = [element(1, {})] + [element(0, {i: 1}) for i in range(1, w + 1)]
    return purify(units, bound=p).basis


def layer_cases(seed: int, count: int):
    """Elements on real contexts with p <= 13, w <= 5, v_p(den) <= 3 and
    modulus exponent m <= 3, with at most 2,401 layer points: integer
    combinations of the saturated basis (members), half of them moved by
    a/p^c on one coordinate."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        w = rng.randint(0, 5)
        if p ** (w - 1) > 2401:
            continue
        e = GroupElement.zero()
        for b in saturated_basis(p, w):
            e = e + b.scale(rng.randint(-p, p))
        if rng.random() < 0.5:
            shift = F(rng.randint(1, p ** 3), p ** rng.randint(1, 3))
            if w == 0 or rng.random() < 0.2:
                e = e + element(shift, {})
            else:
                e = e + element(0, {rng.randint(1, w): shift})
        if valuation(e.denominator_lcm(), p) <= 3 and element_modulus(e, p) <= 3:
            out.append((p, e))
    return out


def test_layer_cases_reach_members_and_non_members_at_every_modulus():
    kinds = set()
    for p, e in layer_cases(5, 400):
        kinds.add((element_modulus(e, p), membership(e).member))
    assert kinds == {(m, verdict) for m in (1, 2, 3) for verdict in (True, False)}


@pytest.mark.parametrize("seed", range(6))
def test_membership_matches_both_oracles_on_real_contexts(seed):
    for p, e in layer_cases(seed, 150):
        expected = membership(e).to_json()
        assert expected == scan_membership(e).to_json(), e
        assert expected == reference_membership(e).to_json(), e


def test_membership_of_gapped_supports_matches_both_oracles():
    # the layer cases at p <= 5 with their last coordinate moved to index 40,
    # past every construction width there, and an integer entry at 25
    cases = [(p, e) for p, e in layer_cases(300, 300) if p <= 5 and not e.x.is_zero]
    assert len(cases) > 100
    for p, e in cases:
        last = e.x.max_support
        z = GroupElement(e.x0, FinVec({**{40 if i == last else i: v for i, v in e.x.items()}, 25: 1}))
        expected = membership(z).to_json()
        assert expected == scan_membership(z).to_json(), z
        assert expected == reference_membership(z).to_json(), z


def test_membership_work_follows_the_support_not_the_largest_index():
    # one entry at index 10^6: a dense cleared row alone would take megabytes
    z = element(0, {10 ** 6: F(1, 2)})
    build_context(2)
    tracemalloc.start()
    try:
        verdict = membership(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert verdict.to_json() == reference_membership(z).to_json()


@pytest.mark.parametrize("seed", range(4))
def test_saturation_kernel_matches_the_scan_on_real_contexts(seed):
    # lattices of one to three members each, at every modulus exponent
    rng = random.Random(100 + seed)
    cases = [(p, e) for p, e in layer_cases(200 + seed, 120) if is_member(e)]
    for _ in range(40):
        p, first = rng.choice(cases)
        group = [e for q, e in cases if q == p]
        gens = [first] + rng.sample(group, min(len(group), rng.randint(0, 2)))
        k = max(g.x.max_support for g in gens)
        lat = RatLattice.from_rows([element_row(g, k) for g in gens], k + 1)
        assert saturation_kernel(lat, p) == reference_saturation_kernel(lat, p), (lat.rows, p)


def test_axis_element_builds_no_context():
    # the window is empty, so the only residue is zero and no context is read
    misses = build_context.cache_info().misses
    assert membership(element(F(1, 100003), {})).to_json() == {
        "member": False,
        "failing_prime": 100003,
        "failing_residue": {},
        "reason": "leading coordinate 1/100003 is not 100003-integral; axis elements must be integers",
        "checked_primes": [100003],
        "fingerprint": FINGERPRINT,
    }
    assert build_context.cache_info().misses == misses


def test_a_warm_membership_looks_up_each_denominator_prime_once():
    # one conditions cache hit per denominator prime, and no context lookup
    z = {p: GroupElement(F(-build_context(p).target, p), build_context(p).vec.scale(F(1, p))) for p in (2, 3, 5, 7)}
    for e in (element(F(-5, 6), {1: F(-5, 6)}), z[2] + z[5], z[2] + z[3] + z[5] + z[7].scale(3)):
        verdict = membership(e)
        assert verdict.member and len(verdict.checked_primes) >= 2
        contexts, conditions = build_context.cache_info(), group_module._conditions.cache_info()
        assert membership(e) == verdict
        assert build_context.cache_info() == contexts
        after = group_module._conditions.cache_info()
        assert (after.hits - conditions.hits, after.misses) == (len(verdict.checked_primes), conditions.misses)


def test_membership_checks_only_denominator_primes():
    verdict = membership(element(F(-5, 6), {1: F(-5, 6)}))
    assert list(verdict.checked_primes) == [2, 3]
    assert list(membership(element(7, {})).checked_primes) == []


def test_membership_verdict_json():
    data = membership(element(1, {})).to_json()
    assert set(data) == {
        "member", "failing_prime", "failing_residue", "reason",
        "checked_primes", "fingerprint",
    }
    assert data["fingerprint"] == FINGERPRINT


def test_integer_points_always_belong():
    rng = random.Random(3)
    for _ in range(50):
        entries = {i: rng.randrange(-9, 10) for i in rng.sample(range(1, 8), 3)}
        assert is_member(element(rng.randrange(-9, 10), entries))


def test_membership_closed_under_addition():
    for a in MEMBERS:
        for b in MEMBERS:
            assert is_member(a + b)
            assert is_member(a - b)
        assert is_member(a.scale(3))
        assert is_member(-a)


def test_in_integer_axis():
    assert in_integer_axis(element(5, {}))
    assert in_integer_axis(element(0, {}))
    assert not in_integer_axis(element(F(1, 2), {}))
    assert not in_integer_axis(element(1, {1: 1}))


def test_element_row_round_trip():
    e = element(F(1, 2), {1: 3, 3: F(-1, 4)})
    row = element_row(e, 3)
    assert row == [F(1, 2), 3, 0, F(-1, 4)]
    assert row_element(row) == e
    assert element_row(e, 5) == row + [0, 0]
    with pytest.raises(ValueError):
        element_row(e, 2)


def test_spans_disjoint():
    e1 = element(0, {1: 1})
    e2 = element(0, {2: 1})
    assert spans_disjoint([e1], [e2])
    assert not spans_disjoint([e1], [e1.scale(2)])
    assert not spans_disjoint([e1, e2], [e1 + e2])
    assert spans_disjoint([], [e1])
    assert spans_disjoint([element(1, {1: 1})], [element(1, {1: -1})])


def test_purify_axis_generator():
    result = purify([element(2, {})])
    assert list(result.basis) == [element(1, {})]
    assert result.status == "complete"
    assert result.bound is None


def test_purify_single_vector_generator():
    result = purify([element(0, {1: 2})])
    assert list(result.basis) == [element(0, {1: 1})]
    assert result.status == "possibly-incomplete"
    bounded = purify([element(0, {1: 2})], bound=2)
    assert list(bounded.basis) == [element(0, {1: 1})]
    assert bounded.status == "complete"
    assert bounded.bound == 2


def test_purify_divisible_direction():
    # the class of -e1 divides repeatedly at primes 2, 3, 7 (residue target 1)
    # but not at 17 or 31 where the target differs
    result = purify([element(-1, {1: -1})])
    assert list(result.basis) == [element(F(1, 42), {1: F(1, 42)})]
    assert result.status == "possibly-incomplete"
    assert is_member(result.basis[0])
    assert not is_member(element(F(1, 42 * 17), {1: F(1, 42 * 17)}))


def test_purify_axis_meeting_span():
    # a span meeting the axis inherits divisibility from the quotient at
    # every class prime of e1, so denominators grow to 2*3*7*17*31
    result = purify([element(2, {}), element(0, {1: 2})])
    assert result.status == "possibly-incomplete"
    assert list(result.basis) == [
        element(F(1, 22134), {1: F(6469, 22134)}),
        element(0, {1: 1}),
    ]
    for b in result.basis:
        assert is_member(b)
    assert 22134 == 2 * 3 * 7 * 17 * 31


def test_purify_empty_and_gate():
    result = purify([])
    assert list(result.basis) == [] and result.status == "complete"
    with pytest.raises(NotInGroupError):
        purify([element(F(1, 2), {})])


@pytest.mark.parametrize("gens", [[], [element(0, {})], [element(0, {1: 2})]])
def test_purify_rejects_bound_zero(gens):
    with pytest.raises(ValueError, match="bound"):
        purify(gens, bound=0)


@pytest.mark.parametrize("bound, detail", [
    (2305843009213693951, "factor 2305843009213693951 exceeds the prime cap"),  # 2^61 - 1
    (1000003, "prime 1000003 exceeds the prime cap"),
    (2 * 1000003, "prime 1000003 exceeds the prime cap"),
])
def test_purify_refuses_a_bound_factor_past_the_prime_cap_before_saturating(bound, detail, monkeypatch):
    rounds = []
    monkeypatch.setattr(group_module, "saturation_kernel", lambda *args: rounds.append(args))
    with pytest.raises(CapacityExceededError, match=detail) as info:
        purify([element(-1, {1: -1})], bound=bound)
    assert (info.value.required, info.value.cap) == (int(detail.split()[1]), DEFAULT.prime_cap)
    assert rounds == []


def test_saturation_kernel():
    # (1/p)(-1, -e1) is a member exactly at the class primes 2, 3, 7 of -e1
    lat = RatLattice.from_rows([element_row(element(-1, {1: -1}), 1)], 2)
    assert saturation_kernel(lat, 2) == [[1]]
    assert saturation_kernel(lat, 7) == [[1]]
    assert saturation_kernel(lat, 5) == []
    closure = purify([element(-1, {1: -1})])
    closed = RatLattice.from_rows([element_row(b, 1) for b in closure.basis], 2)
    assert all(saturation_kernel(closed, p) == [] for p in (2, 3, 5, 7, 11, 13))
    # Z^2 saturates at 2 along the witness direction (-1/2, -1/2) only
    square = RatLattice.from_rows([[1, 0], [0, 1]], 2)
    assert saturation_kernel(square, 2) == [[1, 1]]
    assert saturation_kernel(RatLattice.from_rows([], 3), 2) == []


def modulus_exponent(lat: RatLattice, p: int) -> int:
    """m = max(1, 1 + v_p(den) - lowest v_p of an x numerator) of a saturation scan."""
    e = valuation(lat.den, p)
    return max(1, 1 + e - min((valuation(v, p) for row in lat.rows for v in row[1:] if v), default=e))


def reference_saturation_kernel(lat: RatLattice, p: int, config=DEFAULT) -> list[list[int]]:
    """The former saturation loop over every residue mod p^m, without its
    early stop.  Kept as an oracle for the spanning points at m = 1."""
    scale = p ** valuation(lat.den, p)
    echelon = EchelonModP(p, lat.dim)
    residues = iter_window_residues(build_context(p, config), lat.ncols - 1, modulus_exponent(lat, p), config)
    for r in residues:
        nums = [row[0] + sum(v * row[i] for i, v in r.items()) for row in lat.rows]
        if any(num % scale for num in nums):
            raise NotInGroupError(f"a lattice row is not a group element at {p}")
        echelon.insert([num // scale for num in nums])
    return echelon.kernel()


def purify_rounds(gens, bound=None, config=DEFAULT) -> list[tuple[RatLattice, int]]:
    """(lattice, prime) of every saturation round that purify runs."""
    rounds = []

    def recording(lat, p, config=DEFAULT):
        rounds.append((lat, p))
        return saturation_kernel(lat, p, config)

    group_module._unit_closure.cache_clear()  # a full-rank span runs its rounds on a cache miss only
    group_module._unit_saturation.cache_clear()
    with mock.patch.object(group_module, "saturation_kernel", recording):
        purify(gens, bound, config)
    return rounds


def assert_kernels_match(rounds, config=DEFAULT):
    for lat, p in rounds:
        assert saturation_kernel(lat, p, config) == reference_saturation_kernel(lat, p, config), (lat.rows, p)


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_saturation_kernel_matches_full_scan_on_purify_rounds(case):
    gens, config = case
    assert_kernels_match(purify_rounds(gens, config=config), config)


def test_saturation_kernel_matches_full_scan_on_bounded_rounds():
    rounds = [r for gens, bound in BOUNDED for r in purify_rounds(gens, bound)]
    assert {modulus_exponent(lat, p) == 1 for lat, p in rounds} == {True, False}
    assert_kernels_match(rounds)


@pytest.mark.parametrize("rows, p", [
    ([[F(1, 2), 0]], 2),                          # m = 1: the axis part is not 2-integral
    ([[0, 1], [F(1, 3), F(-1, 3)]], 3),           # m = 2: (1/3)(1, -e1) fails at 3
])
def test_saturation_kernel_rejects_a_non_member_row(rows, p):
    lat = RatLattice.from_rows(rows, 2)
    assert (modulus_exponent(lat, p) == 1) == (p == 2)
    with pytest.raises(NotInGroupError):
        reference_saturation_kernel(lat, p)
    with pytest.raises(NotInGroupError):
        saturation_kernel(lat, p)


def test_saturation_kernel_at_modulus_one_opens_no_residue_scan(monkeypatch):
    # Z^3 at p = 3037 on window 2: the mod-p layer is a hyperplane of 3037 points
    p = 3037
    assert build_context(p).pivot <= 2
    lat = RatLattice.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert modulus_exponent(lat, p) == 1
    expected = reference_saturation_kernel(lat, p)
    refuse_residue_enumeration(monkeypatch)
    assert saturation_kernel(lat, p) == expected
    assert expected


def test_purify_dim4_default_cap_completes():
    # four generators spanning Q^4, each an integer point plus a witness
    # multiple c*z_p; the default cap probes every prime up to 31
    gens = [
        element(F(-1, 2), {1: F(-1, 2), 2: 1, 3: -2}),
        element(F(4, 3), {1: F(1, 3), 2: -1}),
        element(F(-8, 5), {1: F(-3, 5), 2: F(-8, 5), 3: 1}),
        element(F(4, 7), {1: F(-3, 7), 3: 2}),
    ]
    result = purify(gens)
    assert result.probed == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    basis_rows = [element_row(b, 3) for b in result.basis]
    lattice = RatLattice.from_rows(basis_rows, 4)
    assert lattice.dim == 4
    assert all(lattice.contains(element_row(g, 3)) for g in gens)
    assert all(is_member(b) for b in result.basis)
    assert all(saturation_kernel(lattice, p) == [] for p in result.probed)


def test_purify_idempotent():
    first = purify([element(-1, {1: -1})])
    again = purify(first.basis)
    assert again.basis == first.basis


def test_purify_result_json():
    data = purify([element(0, {1: 2})], bound=2).to_json()
    assert set(data) == {"basis", "status", "probed", "bound", "fingerprint"}
    assert data["bound"] == 2
    assert data["probed"] == [2]
    assert isinstance(PurifyResult(**{
        "basis": [], "status": "complete", "probed": (), "bound": None,
    }), PurifyResult)
