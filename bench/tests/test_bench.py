"""Self-test of the benchmark, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/tests

Checks the pinned known-answer tables against the library, that every
metric named in BENCHMARK.json is printed with its unit, that one seed gives
one output digest, that another seed gives other inputs, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from padicgroup import (  # noqa: E402
    GroupElement,
    divisibility_witness,
    enum_qvec,
    partition_members,
    qvec_index,
    verify_witness,
)
from padicgroup.vectors import FinVec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = "0.05"


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", TINY]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def line(proc: subprocess.CompletedProcess, prefix: str) -> str:
    return next(s for s in proc.stdout.splitlines() if s.startswith(prefix))


def test_witness_table_is_verified():
    for p, (a, v) in inputs.WITNESS_TABLE.items():
        e = GroupElement(Fraction(0), FinVec(dict(enumerate(v, start=1))))
        wit = divisibility_witness(e, p)
        assert wit.z == GroupElement(Fraction(-a, p), e.x.scale(Fraction(1, p)))
        assert verify_witness(e, wit)


def test_functionals_and_class_primes_are_pinned_correctly():
    for k, table in inputs.FUNCTIONALS.items():
        for idx, lam in table:
            vec = enum_qvec(idx)
            assert vec.max_support == k and qvec_index(vec) == idx
            assert [str(vec[i]) for i in range(1, k + 1)] == list(lam)
    for v, primes in inputs.CLASS_PRIMES:
        vec = FinVec(dict(enumerate(v, start=1)))
        assert tuple(partition_members(vec, len(primes))) == primes


def test_cli_commands_are_the_acceptance_transcript():
    path = ROOT / "tests" / "test_acceptance.py"
    if not path.exists():
        pytest.skip("acceptance tests not present")
    sys.path.insert(0, str(path.parent))
    from test_acceptance import REGRESSION_COMMANDS
    assert [argv for argv, _ in inputs.CLI_COMMANDS] == REGRESSION_COMMANDS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = bench(workload, 1, 0)
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^{re.escape(name)}: \S+ {re.escape(unit)}$", proc.stdout, re.M)
    assert "error_rate: 0 ratio" in proc.stdout
    assert "latency_tail_ms is p" in proc.stdout


def test_per_layer_metrics_printed_with_units():
    proc = bench("certify", 1, 1)
    res = result(proc)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^{re.escape(name)}: \S+ {re.escape(unit)}$", proc.stdout, re.M)
    assert res["metrics"]["certificates.bad_primes"]["value"] > 0
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_same_seed_same_digest():
    first, second = bench("member", 7, 0), bench("member", 7, 0)
    assert result(first)["correct"] and result(second)["correct"]
    assert line(first, "output sha256") == line(second, "output sha256")
    assert len(line(first, "output sha256").split()) == 3  # one digest for all passes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_different_inputs(workload):
    assert inputs.make_inputs(workload, 1) == inputs.make_inputs(workload, 1)
    assert inputs.make_inputs(workload, 1) != inputs.make_inputs(workload, 2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("member", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
