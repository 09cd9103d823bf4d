import json

import pytest

from padicgroup import checks, linalg
from padicgroup.bookkeeping import FINGERPRINT
from padicgroup.checks import (
    CHECKS,
    CheckReport,
    check_axis_purity,
    check_block_props,
    check_divisibility,
    check_integer_inclusion,
    check_level_props,
    check_purification_disjoint,
    run_check,
)
from padicgroup.config import DEFAULT
from padicgroup.construction import build_context, level_at, level_count
from padicgroup.vectors import element
from test_construction import FixedTarget


def test_registry_names():
    assert set(CHECKS) == {
        "m-props", "phi-props", "int-inclusion", "L-purity",
        "div-infinitude", "purification-disjoint",
    }


def test_level_props_scan_counts():
    report = check_level_props(3, kmax=3)
    assert report.passed
    # k vectors suffice for a rank-k window, with or without a translate
    assert report.details["scans"] == {"1": 1, "2": 2, "3": 4}
    assert report.details["translate_scans"] == {"1,1": 1, "2,1": 2, "3,1": 4}


def per_row_spanning_scan(ctx, k, shift, cap):
    """The former scan: one level_at call, with its level_count, per row."""
    echelon = linalg.EchelonModP(ctx.p, k)
    for n in range(1, min(level_count(ctx), cap) + 1):
        v = level_at(ctx, n)
        if shift is not None:
            v = v + shift
        echelon.insert([int(v[i] % ctx.p) for i in range(1, k + 1)])
        if echelon.rank == k:
            return n
    return None


@pytest.mark.parametrize("p, cap", [(3, DEFAULT.residue_cap), (5, DEFAULT.residue_cap),
                                    (7, DEFAULT.residue_cap), (7, 10)])
def test_level_props_report_matches_the_per_row_scan(p, cap, monkeypatch):
    # same rows in the same order, so the same bytes; cap 10 stops the k = 4 scan
    config = DEFAULT.replace(residue_cap=cap)
    report = json.dumps(check_level_props(p, config=config).to_json())
    monkeypatch.setattr(checks, "_spanning_scan", per_row_spanning_scan)
    assert json.dumps(check_level_props(p, config=config).to_json()) == report


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_props_small_primes(p):
    assert check_level_props(p, kmax=3).passed


def test_block_props():
    report = check_block_props(2, kmax=3, samples=5)
    assert report.passed
    assert report.details["dets"] == {"1": "2", "2": "16", "3": "68"}
    assert check_block_props(3, kmax=4, samples=5).passed


def test_block_props_reports_a_forbidden_target(monkeypatch):
    # at p = 19 the residue 9 is forbidden: <-lambda_i, vec> = 9 mod 19 for a
    # relevant index i whose inner product is not an integer
    built = build_context(19)
    ctx = FixedTarget(built.p, built.vec, built.width, 9)
    monkeypatch.setattr(checks, "build_context", lambda p, config=DEFAULT: ctx)
    report = check_block_props(19, kmax=1, samples=1)
    assert not report.passed
    counterexample = report.details["counterexample"]
    assert counterexample["target"] == 9 and 9 in counterexample["forbidden"]


def test_integer_inclusion():
    report = check_integer_inclusion(samples=20)
    assert report.passed
    assert report.details["samples"] == 20
    assert report.details["explicit_checks"] > 0


def test_axis_purity():
    report = check_axis_purity(samples=20)
    assert report.passed
    assert report.details["fractional_rejected"] == 20


def test_divisibility_default_target():
    report = check_divisibility()
    assert report.passed
    assert report.details["primes"] == [397, 463, 563]
    assert report.details["element"] == {"x0": "1", "x": {"1": "2"}}


def test_divisibility_custom_target():
    report = check_divisibility(target=element(-1, {1: -1}), n=2)
    assert report.passed
    assert report.details["primes"] == [2, 3]


def test_purification_disjoint():
    report = check_purification_disjoint(pairs=2)
    assert report.passed
    assert report.details["pairs"] == 2
    assert len(report.details["bounds"]) == 2


def test_run_check_dispatch():
    report = run_check("m-props", p=2, kmax=2)
    assert isinstance(report, CheckReport)
    data = report.to_json()
    assert set(data) == {"name", "passed", "details", "fingerprint"}
    assert data["fingerprint"] == FINGERPRINT
    with pytest.raises(ValueError):
        run_check("no-such-check")
    with pytest.raises(ValueError):
        run_check("m-props", bogus=1)


def test_run_check_lets_internal_type_errors_through(monkeypatch):
    def broken(p, config=None):
        raise TypeError("raised inside the check")

    monkeypatch.setitem(CHECKS, "m-props", broken)
    with pytest.raises(TypeError, match="raised inside the check"):
        run_check("m-props", p=2)
    with pytest.raises(ValueError, match="bad parameters"):
        run_check("m-props", kmax=2)


def test_checks_are_deterministic():
    a = check_axis_purity(samples=15, seed=4).to_json()
    b = check_axis_purity(samples=15, seed=4).to_json()
    assert a == b
