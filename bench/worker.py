"""One pass of a workload in a fresh process, or one traced CLI command.

    python bench/worker.py pass WORKLOAD INPUTS.json [--spans STEM]
    python bench/worker.py cli (--spans FILE | --probe) -- ARGV...

``pass`` loads the inputs (this is the set-up the parent times), prints
READY, runs every op in order with one caller, and prints one JSON line:
per-op latencies, failures, the sha256 digest of the outputs and ru_maxrss.
Outputs are checked after the last op, so checks are neither timed nor
traced.  A traced pass writes its spans to STEM.spans, or, for cli, each
command's to STEM-op<i>.spans.  ``cli`` runs padicgroup.cli.main in this
process, either traced (spans written to FILE) or timed for the probe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_package():
    """Import padicgroup from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import padicgroup
    if Path(padicgroup.__file__).resolve().parent != SRC / "padicgroup":
        raise SystemExit(f"padicgroup imported from {padicgroup.__file__}, not {SRC}")
    return padicgroup


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# ops: load(pg, item) -> (run, check); run() -> (output json, raw result);
# check(raw) -> None or a failure message

def load_member(pg, item):
    e = pg.vectors.GroupElement.from_json(item["element"])
    expect = item["expect"]

    def run():
        verdict = pg.group.membership(e)
        return verdict.to_json(), verdict

    def check(verdict):
        got = {"member": verdict.member, "failing_prime": verdict.failing_prime}
        return None if got == expect else f"membership {got} != known {expect}"

    return run, check


def load_purify(pg, item):
    gens = [pg.vectors.GroupElement.from_json(g) for g in item["gens"]]
    config = pg.config.Config(purify_prime_cap=item["cap"])

    def run():
        result = pg.group.purify(gens, config=config)
        return result.to_json(), result

    def check(result):
        k = max(e.x.max_support for e in gens + list(result.basis))
        rows = [pg.group.element_row(e, k) for e in result.basis]
        lattice = pg.linalg.RatLattice.from_rows(rows, k + 1)
        if not all(lattice.contains(pg.group.element_row(g, k)) for g in gens):
            return "purify basis misses a generator"
        if pg.linalg.rank(rows, k + 1) != item["rank"] or lattice.dim != item["rank"]:
            return f"purify basis rank differs from the generators' rank {item['rank']}"
        return None

    return run, check


def load_certify(pg, item):
    certs = pg.certificates
    if item["op"] == "witness":
        e = pg.vectors.GroupElement.from_json(item["element"])

        def run():
            wit = certs.divisibility_witness(e, item["p"])
            outcome = certs.verify_witness(e, wit)
            return {"witness": wit.to_json(), "verify": outcome.to_json()}, (wit, outcome)

        def check(raw):
            wit, outcome = raw
            if not outcome.ok:
                return f"witness at {item['p']} rejected: {outcome.reason}"
            if (wit.p, wit.d, wit.z.x.to_json()) != (item["p"], 1, item["expect_z_x"]):
                return f"witness at {item['p']} is not (-a/p, v/p)"
            return None

        return run, check

    gens = [pg.vectors.GroupElement.from_json(g) for g in item["gens"]]

    def run():
        cert = certs.certify_free(gens)
        outcome = certs.verify_certificate(gens, cert)
        return {"certificate": cert.to_json(), "verify": outcome.to_json()}, (cert, outcome)

    def check(raw):
        cert, outcome = raw
        if not outcome.ok:
            return f"certificate for index {item['index']} rejected: {outcome.reason}"
        if (cert.k, cert.index, cert.lam.to_json()) != (item["k"], item["index"], item["lambda"]):
            return f"certificate functional is not enum_qvec({item['index']})"
        return None

    return run, check


def load_cli(pg, item, spans_prefix=None, op_id=0):
    """One `python -m padicgroup` process; traced ones run `worker.py cli`."""
    argv = item["argv"]
    env = child_env()
    if spans_prefix is None:
        cmd = [sys.executable, "-m", "padicgroup", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__)), "cli",
               "--spans", f"{spans_prefix}-op{op_id}.spans", "--", *argv]

    def run():
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout}, proc

    def check(proc):
        if proc.returncode != item["exit"]:
            return f"{argv}: exit {proc.returncode}, expected {item['exit']}: {proc.stderr[-300:]}"
        if proc.stderr:
            return f"{argv}: wrote to stderr: {proc.stderr[-300:]}"
        try:
            docs = [json.loads(line) for line in proc.stdout.splitlines()]
        except json.JSONDecodeError:
            return f"{argv}: stdout is not JSON lines"
        if not docs or "fingerprint" not in docs[0]:
            return f"{argv}: first JSON document has no fingerprint"
        head = docs[0]
        if argv[0] == "member" and head["member"] != (item["exit"] == 0):
            return f"{argv}: verdict disagrees with the exit code"
        if argv[0] == "witness" and proc.returncode == 0:
            e = pg.vectors.GroupElement.from_json(json.loads(argv[1]))
            for w in head.get("witnesses", [head]):
                wit = pg.certificates.DivisibilityWitness.from_json(w)
                if not pg.certificates.verify_witness(e, wit):
                    return f"{argv}: witness at {wit.p} rejected"
        if argv[0] == "certify" and proc.returncode == 0:
            gens = [pg.vectors.GroupElement.from_json(g) for g in json.loads(argv[1])]
            cert = pg.certificates.FreenessCertificate.from_json(head)
            if not pg.certificates.verify_certificate(gens, cert):
                return f"{argv}: certificate rejected"
        return None

    return run, check


LOADERS = {"member": load_member, "purify": load_purify,
           "certify": load_certify, "cli": load_cli}


def run_pass(workload: str, inputs_path: str, spans: str | None) -> dict:
    pg = import_package()
    with open(inputs_path, encoding="utf-8") as fh:
        items = json.load(fh)
    tracer = None
    if workload == "cli":
        ops = [load_cli(pg, item, spans, i) for i, item in enumerate(items)]
    else:
        ops = [LOADERS[workload](pg, item) for item in items]
        if spans is not None:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(pg)
    print("READY", flush=True)

    latencies, outputs, raws, failures = [], [], [], []
    for i, (run, _) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, raw = run()
        except Exception as exc:  # a failed op is counted, not fatal
            out, raw = {"error": type(exc).__name__, "detail": str(exc)}, exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        raws.append(raw)
    if tracer is not None:
        tracer.dump(f"{spans}.spans")

    for (_, check), raw in zip(ops, raws):
        if isinstance(raw, Exception):
            failures.append(f"{type(raw).__name__}: {raw}")
            continue
        msg = check(raw)
        if msg is not None:
            failures.append(msg)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(canonical(out).encode() + b"\n")
    return {
        "latencies": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest.hexdigest(),
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def run_cli(argv: list[str], spans: str | None) -> int:
    """padicgroup.cli.main(argv) in this process, traced or timed.

    The probe prints the command's in-process time to stderr as JSON.
    """
    pg = import_package()
    import padicgroup.cli
    tracer = None
    if spans is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(pg)
        tracer.op = 0
    t0 = time.perf_counter()
    try:
        code = pg.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code
    elapsed = time.perf_counter() - t0
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spans)
    else:
        print(canonical({"command_s": elapsed}), file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p_pass = sub.add_parser("pass")
    p_pass.add_argument("workload", choices=sorted(LOADERS))
    p_pass.add_argument("inputs")
    p_pass.add_argument("--spans")
    p_cli = sub.add_parser("cli")
    group = p_cli.add_mutually_exclusive_group(required=True)
    group.add_argument("--spans")
    group.add_argument("--probe", action="store_true")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(argv, args.spans)
    print(canonical(run_pass(args.workload, args.inputs, args.spans)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
