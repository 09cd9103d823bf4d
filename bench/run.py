"""Layered benchmark of padicgroup: one workload, one seed, one run.

    python3 bench/run.py --workload {member,purify,certify,cli} --seed N \
        --seconds S --trace {0,1} [--scale F]

The run repeats passes until S seconds have gone by (at least three, or one
untraced and one traced with --trace 1).  A pass is one fresh worker process
that loads the seeded inputs, runs every op with one caller in a closed loop
and checks every output, so memo caches start cold as they do for a CLI
call.  All passes of a run use the same inputs and must give the same output
digest.  With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1, the per-layer metrics of the traced passes.  --scale shrinks
the batches, for the self-test only.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import BATCH, CLI_COMMANDS, make_inputs
from tracing import summarize
from worker import ROOT, child_env

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 50.0)


class BenchError(Exception):
    """The run cannot produce a result; it exits non-zero without one."""


def run_pass(workload: str, inputs_path: Path, spans: Path | None) -> dict:
    """One worker process; set-up is spawn until READY."""
    cmd = [sys.executable, str(WORKER), "pass", workload, str(inputs_path)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    # unbuffered, so readline takes only the READY line and communicate the rest
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    text = (ready + out).decode(errors="replace")
    if ready != b"READY\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{text[-2000:]}")
    result = json.loads(text.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    q = next((q for q in TAIL_LADDER if len(ordered) * (1 - q / 100) >= 10), TAIL_LADDER[-1])
    value = ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]
    return q, value, sum(1 for v in ordered if v > value)


def op_keys(workload: str, inputs: list[dict]) -> list:
    """What identifies the work of each op across passes.

    In-process ops share memo caches with the ops before them, so op i is
    the same work only at position i.  A cli op is a process of its own, so
    every run of one command line is the same work.
    """
    if workload == "cli":
        return [json.dumps(item["argv"]) for item in inputs]
    return list(range(len(inputs)))


def p90(samples: list[float]) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    ordered = sorted(samples)
    i = 0.9 * (len(ordered) - 1)
    lo = int(i)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (i - lo)


def per_op_time(passes: list[dict], keys: list) -> list[float]:
    """Per-op 90th percentile over every run of the same work in the passes.

    Every pass repeats the same ops from the same cold start.  The shared
    machine switches between a slow and a fast speed state, and the share of
    fast time differs from run to run; the fastest run and the median both
    follow that share.  The slow state shows in every run, and the 90th
    percentile follows it.
    """
    runs = {}
    for p in passes:
        for key, t in zip(keys, p["latencies"]):
            runs.setdefault(key, []).append(t)
    return [p90(runs[key]) for key in keys]


def end_to_end(passes: list[dict], keys: list) -> tuple[dict, list[str]]:
    per_op = per_op_time(passes, keys)
    q, tail_s, beyond = tail(per_op)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "ops/s"),
        "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    notes = [
        f"latency_tail_ms is p{q:g}: {beyond} of {len(per_op)} ops beyond it "
        f"(per-op p90 of {len(passes)} passes)",
        f"error_rate: {failed / attempted:.6g} ratio ({failed} failed of {attempted})",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def wall_ms(argv: list[str], reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def cli_probe() -> dict:
    """Interpreter start, package import and in-process command time."""
    interp = wall_ms([sys.executable, "-c", "pass"], 7)
    imported = wall_ms([sys.executable, "-c", "import padicgroup.cli"], 7)
    command = []
    for argv, code in CLI_COMMANDS:
        proc = subprocess.run([sys.executable, str(WORKER), "cli", "--probe", "--", *argv],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != code:
            raise BenchError(f"probe {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        command.append(json.loads(proc.stderr.splitlines()[-1])["command_s"])
    return {"cli.interpreter_ms": interp, "cli.import_ms": imported - interp,
            "cli.command_ms": statistics.median(command) * 1e3}


def per_layer(traced: list[list[Path]], untraced: list[dict], traced_res: list[dict],
              keys: list, probe: dict) -> dict:
    """Per-layer metrics: the lower median over the traced passes."""
    rows = []
    for files in traced:
        s = summarize(files)
        t, c, n = s["self_s"], s["calls"], s["counters"]
        tests = n["purify.member_tests"]
        rows.append({
            "arith.valuation.calls": (c["arith.valuation"], "count"),
            "arith.valuation.self_s": (t["arith.valuation"], "s"),
            "arith.primes.self_s": (t["arith.primes"], "s"),
            "bookkeeping.enum_qvec.calls": (c["bookkeeping.enum_qvec"], "count"),
            "bookkeeping.enum_qvec.self_s": (t["bookkeeping.enum_qvec"], "s"),
            "bookkeeping.qvec_index.self_s": (t["bookkeeping.qvec_index"], "s"),
            "bookkeeping.intvec.self_s": (t["bookkeeping.intvec"], "s"),
            "construction.build_context.calls": (c["construction.build_context"], "count"),
            "construction.build_context.misses": (n["build_context.misses"], "count"),
            "construction.build_context.self_s": (t["construction.build_context"], "s"),
            "construction.condition_block.calls": (c["construction.condition_block"], "count"),
            "construction.condition_block.self_s": (t["construction.condition_block"], "s"),
            "construction.residues.calls": (n["residues.calls"], "count"),
            "construction.residues.yielded": (n["residues.yielded"], "count"),
            "construction.residues.self_s": (t["construction.residues"], "s"),
            "linalg.elim.calls": (c["linalg.elim"], "count"),
            "linalg.elim.self_s": (t["linalg.elim"], "s"),
            "linalg.hnf.calls": (c["linalg.hnf"], "count"),
            "linalg.hnf.self_s": (t["linalg.hnf"], "s"),
            "linalg.lattice_contains.calls": (c["linalg.lattice_contains"], "count"),
            "linalg.lattice_contains.self_s": (t["linalg.lattice_contains"], "s"),
            "group.membership.calls": (c["group.membership"], "count"),
            "group.membership.self_s": (t["group.membership"], "s"),
            "group.membership.member_ratio": (
                n["membership.members"] / max(1, c["group.membership"]), "ratio"),
            "group.purify.calls": (c["group.purify"], "count"),
            "group.purify.self_s": (t["group.purify"], "s"),
            "group.purify.candidates": (n["purify.candidates"], "count"),
            "group.purify.member_tests": (tests, "count"),
            "group.purify.enlargements": (n["purify.enlargements"], "count"),
            "group.purify.useful_ratio": (n["purify.enlargements"] / max(1, tests), "ratio"),
            "certificates.certify_free.self_s": (t["certificates.certify_free"], "s"),
            "certificates.verify_certificate.self_s": (t["certificates.verify_certificate"], "s"),
            "certificates.witness.self_s": (t["certificates.witness"], "s"),
            "certificates.bad_primes": (n["certificates.bad_primes"], "count"),
        })
    metrics = {name: {"value": statistics.median_low(r[name][0] for r in rows), "unit": unit}
               for name, (_, unit) in rows[0].items()}
    for name, value in probe.items():
        metrics[name] = {"value": value, "unit": "ms"}
    ratio = sum(per_op_time(traced_res, keys)) / sum(per_op_time(untraced, keys))
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    if not (ROOT / "src" / "padicgroup" / "__init__.py").is_file():
        print(f"bench: no padicgroup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed, args.scale)
    payload = json.dumps(inputs, sort_keys=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    inputs_path = OUT / f"{tag}.inputs.json"
    inputs_path.write_text(payload, encoding="utf-8")
    spans_dir = OUT / f"{tag}.spans"
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()

    untraced, traced, traced_files = [], [], []
    start = time.perf_counter()
    try:
        while True:
            done = time.perf_counter() - start >= args.seconds
            if args.trace:
                if done and untraced and traced:
                    break
                if len(untraced) <= len(traced):
                    untraced.append(run_pass(args.workload, inputs_path, None))
                    continue
                spans = spans_dir / f"pass{len(traced)}"  # file stem, or prefix for cli
                traced.append(run_pass(args.workload, inputs_path, spans))
                traced_files.append(sorted(spans_dir.glob(f"{spans.name}.spans"))
                                    + sorted(spans_dir.glob(f"{spans.name}-op*.spans")))
            else:
                if done and len(untraced) >= MIN_PASSES:
                    break
                untraced.append(run_pass(args.workload, inputs_path, None))
        probe = cli_probe() if args.trace else None
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    digests = {p["digest"] for p in passes}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    batch = len(inputs)
    print(f"workload: {args.workload}  seed: {args.seed}  passes: {len(passes)} of {batch} ops, "
          "each a fresh process with one caller in a closed loop")
    print(f"inputs sha256: {hashlib.sha256(payload.encode()).hexdigest()}")
    print(f"output sha256: {' '.join(sorted(digests))}")
    for p in passes:
        for msg in p["failures"]:
            print(f"FAILED: {msg}")
    if len(digests) != 1:
        print("FAILED: passes over the same inputs gave different outputs")
    keys = op_keys(args.workload, inputs)
    if args.trace:
        metrics = per_layer(traced_files, untraced, traced, keys, probe)
    else:
        metrics, notes = end_to_end(untraced, keys)
        for line in notes:
            print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
