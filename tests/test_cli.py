import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

from padicgroup.bookkeeping import FINGERPRINT
from padicgroup.certificates import certify_free
from padicgroup.cli import main
from padicgroup.vectors import element

E_MINUS = '{"x0": "-1", "x": {"1": "-1"}}'
# a valid certificate of the generator (1, 2e1) with its good_params replaced
CERT_BAD_GOOD_PARAMS = json.dumps({
    **certify_free([element(1, {1: 2})]).to_json(),
    "good_params": {"k": 99, "index": -5, "denominator_primes": "junk"},
})
# the same certificate with lambda = 1/(10^50 + 1), past the rational height cap
CERT_HUGE_LAMBDA = json.dumps({
    **certify_free([element(1, {1: 2})]).to_json(),
    "lambda": {"1": f"1/{10 ** 50 + 1}"},
    "good_params": {"k": 1, "index": 22, "denominator_primes": [10 ** 50 + 1]},
})
# a witness at the prime 2^61 - 1, far past the default prime cap
WIT_PAST_CAP = json.dumps({
    "p": 2 ** 61 - 1, "a_int": 1, "d": 1, "z": {"x0": "0", "x": {}},
    "bezout": [1, 0], "fingerprint": FINGERPRINT,
})


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as ex:
            code = ex.code or 0
    return code, buf.getvalue()


EXIT_CASES = [
    (("ctx", "7"), 0),
    (("ctx", "6"), 2),
    (("ctx", "-3"), 2),
    (("member", '{"x0": "5", "x": {}}'), 0),
    (("member", '{"x0": "1/2", "x": {}}'), 1),
    (("member", '{"x0": "5"'), 2),
    (("member", '{"x0": "5"}'), 2),
    (("witness", E_MINUS, "--prime", "2"), 0),
    (("witness", E_MINUS), 0),
    (("witness", E_MINUS, "--prime", "5"), 1),
    # a non-prime is a usage error before any division by it: 1 divides every d
    (("witness", E_MINUS, "--prime", "0"), 2),
    (("witness", E_MINUS, "--prime", "1"), 2),
    (("witness", '{"x0": "5", "x": {}}'), 1),
    (("witness", '{"x0": "1/2", "x": {}}'), 1),
    (("certify", '[{"x0": "1", "x": {"1": "2"}}]'), 0),
    (("certify", '[{"x0": "1", "x": {}}]'), 1),
    (("certify", '{"x0": "1", "x": {}}'), 2),
    (("verify-cert", '[{"x0": "1", "x": {"1": "2"}}]', CERT_BAD_GOOD_PARAMS), 2),
    (("verify-cert", '[{"x0": "1", "x": {"1": "2"}}]', CERT_HUGE_LAMBDA), 3),
    (("purify", '[{"x0": "2", "x": {}}]'), 0),
    (("purify", '[{"x0": "0", "x": {"1": "2"}}]', "--bound", "2"), 0),
    (("purify", '[{"x0": "0", "x": {"1": "2"}}]', "--bound", "0"), 2),
    (("purify", "[]", "--bound", "0"), 2),
    (("enum", "rat", "--from", "1", "--to", "8"), 0),
    (("enum", "rat", "--from", "5", "--to", "3"), 2),
    (("enum", "partition", "--from", "1", "--to", "5"), 0),
    (("check", "div-infinitude", "--n", "2"), 0),
    (("check", "no-such-suite"), 2),
    (("check", "m-props", "--p", "3", "--pairs", "2"), 2),
    (("--residue-cap", "1", "member", '{"x0": "-1/4", "x": {"1": "-1/4"}}'), 1),
    (("--prime-cap", "100", "ctx", "1009"), 3),
    # a denominator with a prime factor past the cap is refused before any condition
    (("--prime-cap", "100", "member", '{"x0": "1/100003", "x": {}}'), 3),
    (("--prime-cap", "100", "witness", '{"x0":"1","x":{"1":"2"}}', "--prime", "10000019"), 3),
    (("verify-witness", '{"x0":"1","x":{"1":"2"}}', WIT_PAST_CAP), 3),
    (("witness", '{"x0": "0", "x": {"1": "1000000"}}'), 3),
    (("witness", '{"x0": "0", "x": {"1": "170"}}'), 3),
    (("enum", "partition", "--from", "100000000", "--to", "100000000"), 3),
    # lambda of height past the rational height cap, and a class index near the scan cap
    (("certify", '[{"x0": "1", "x": {"1": "1000003"}}]'), 3),
    (("certify", '[{"x0": "1", "x": {"1": "100000000000000000000"}}]'), 3),
    (("witness", '{"x0": "0", "x": {"1": "700"}}'), 3),
    # a class vector at position 64, whose code has about 2^63 bits
    (("witness", '{"x0": "0", "x": {"64": "1"}}'), 3),
    (("enum", "rat", "--from", "1000000000000", "--to", "1000000000000"), 3),
    (("enum", "lambda", "--from", str(10 ** 40), "--to", str(10 ** 40)), 3),
    (("member", '{"x0": "0", "x": {"1": "1/2", "01": "1"}}'), 2),
    (("member", '{"x0": "0", "x": {"\u0663": "1"}}'), 2),
    (("--version",), 0),
]


@pytest.mark.parametrize("argv,expected", EXIT_CASES, ids=lambda v: " ".join(v)[:40] if isinstance(v, tuple) else str(v))
def test_exit_codes(argv, expected):
    code, out = run(*argv)
    assert code == expected, out


def test_every_line_is_json_with_fingerprint():
    for argv, _ in EXIT_CASES:
        if argv == ("--version",):
            continue
        _, out = run(*argv)
        lines = out.strip().splitlines()
        assert json.loads(lines[0]).get("fingerprint") == FINGERPRINT, argv
        for line in lines[1:]:
            json.loads(line)  # data rows: valid JSON, no banner


def test_ctx_output_frozen():
    code, out = run("ctx", "7")
    assert code == 0
    assert out == (
        '{"a": 1, "fingerprint": "v1:353ca906f3bca6fa", "l": 8, "p": 7, '
        '"relevant": [1, 2, 3, 4, 5], "x": {"1": "-1"}}\n'
    )


def test_member_failure_payload():
    code, out = run("member", '{"x0": "1/2", "x": {}}')
    assert code == 1
    data = json.loads(out)
    assert data["member"] is False
    assert data["failing_prime"] == 2
    assert "axis elements must be integers" in data["reason"]


def test_member_failure_at_the_third_denominator_prime_is_pinned():
    # den = 750: 2 and 3 pass, 5 fails with e = 3 and m = 3
    code, out = run("member", '{"x0": "-7/6", "x": {"1": "5/6", "2": "1/125", "3": "1/25"}}')
    assert code == 1
    data = json.loads(out)
    assert (data["checked_primes"], data["failing_prime"], data["failing_residue"]) == ([2, 3, 5], 5, {"2": "4"})
    assert hashlib.sha256(out.encode()).hexdigest() == "ae2f37ac8ee0811829a406928cb2bed622ba3f8d0c51b1b03ce5cf28882247fd"


def test_full_rank_purify_with_a_denominator_prime_past_the_prime_cap_is_pinned():
    # 37 > purify_prime_cap = 32 is probed because it divides the generators' denominator
    code, out = run("purify", '[{"x0": "-3/37", "x": {"1": "-1/37", "2": "-1/37"}}, '
                              '{"x0": "0", "x": {"1": "1"}}, {"x0": "0", "x": {"2": "1"}}]')
    assert code == 0
    assert json.loads(out)["probed"][-2:] == [31, 37]
    assert hashlib.sha256(out.encode()).hexdigest() == "dd9bff7fb27ee03779fe143641eb64e2e14ff4469cd78ecc4efe279b3128461e"


def test_witness_multi_prime_default():
    code, out = run("witness", E_MINUS)
    assert code == 0
    data = json.loads(out)
    assert data["primes"] == [2, 3, 7]
    assert [w["p"] for w in data["witnesses"]] == [2, 3, 7]


def test_witness_round_trip_through_cli():
    _, wit = run("witness", E_MINUS, "--prime", "2")
    code, out = run("verify-witness", E_MINUS, wit.strip())
    assert code == 0 and json.loads(out)["ok"] is True
    bent = json.loads(wit)
    bent["bezout"] = [1, 1]
    code, out = run("verify-witness", E_MINUS, json.dumps(bent))
    assert code == 1
    assert "a*d + b*p" in json.loads(out)["reason"]


def test_certificate_round_trip_through_cli():
    gens = '[{"x0": "0", "x": {"1": "2"}}]'
    _, cert = run("certify", gens)
    code, out = run("verify-cert", gens, cert.strip())
    assert code == 0 and json.loads(out)["ok"] is True
    bad = json.loads(cert)
    bad["D"] = 7
    code, out = run("verify-cert", gens, json.dumps(bad))
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("argv", [
    ("verify-cert", "[]", "5"),
    ("verify-cert", "[]", "[]"),
    ("verify-witness", E_MINUS, "7"),
    ("verify-witness", E_MINUS, '{"p": 7.9}'),
])
def test_malformed_artifacts_are_usage_errors(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(*argv)
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "usage"
    assert err.getvalue() == ""


@pytest.mark.parametrize("field,value", [("p", 7.9), ("d", "1"), ("a_int", True)])
def test_malformed_witness_fields_exit_2(field, value):
    _, wit = run("witness", E_MINUS, "--prime", "2")
    bent = json.loads(wit)
    bent[field] = value
    code, out = run("verify-witness", E_MINUS, json.dumps(bent))
    assert code == 2, out
    assert json.loads(out)["error"] == "usage"


def test_malformed_certificate_exits_2_without_traceback():
    gens = '[{"x0": "0", "x": {"1": "2"}}]'
    _, cert = run("certify", gens)
    bent = json.loads(cert)
    bent["D"] = "12"
    proc = subprocess.run(
        [sys.executable, "-m", "padicgroup", "verify-cert", gens, json.dumps(bent)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "usage"
    assert len(proc.stdout.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_certify_axis_overlap_payload():
    code, out = run("certify", '[{"x0": "1", "x": {}}]')
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "not-applicable"
    assert data["axis_witness"] == {"x0": "1", "x": {}}


def test_enum_rational_prefix():
    code, out = run("enum", "rat", "--from", "1", "--to", "8")
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header == {"enum": "rat", "fingerprint": FINGERPRINT, "from": 1, "to": 8}
    values = [json.loads(line)["value"] for line in lines[1:]]
    assert values == ["-1", "0", "1", "-2", "-1/2", "1/2", "2", "-3"]


@pytest.mark.parametrize("kind,stop,digest", [
    ("rat", 3000, "9d98009f45da78b3be1a3db8123bcc4dd7a1ae0c2afc737c4eb8406f76e48c02"),
    ("lambda", 500, "2439a140eff3a64dc01d1858da137d595e0522fe9f365886169c9ebdc14d0f7d"),
    ("intvec", 3000, "3809b54ac223678d480f0bf587c49e9210d9c3af89118c0a15ea010f3e9f2232"),
])
def test_enum_output_is_pinned(kind, stop, digest):
    code, out = run("enum", kind, "--from", "1", "--to", str(stop))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enum_refusal_follows_the_header():
    code, out = run("enum", "rat", "--from", "100000000", "--to", "100000001")
    assert code == 0 and json.loads(out.splitlines()[1])["value"] == "145/9069"
    code, out = run("enum", "rat", "--from", "1000000000000", "--to", "1000000000000")
    header, refusal = map(json.loads, out.splitlines())
    assert code == 3 and header["enum"] == "rat"
    assert (refusal["error"], refusal["required"], refusal["cap"]) == ("capacity-exceeded", 100_001, 100_000)


def test_enum_partition_prefix():
    _, out = run("enum", "partition", "--from", "1", "--to", "5")
    rows = [json.loads(line)["value"] for line in out.strip().splitlines()[1:]]
    assert rows == [
        {"p": 2, "vector": {"1": "-1"}},
        {"p": 3, "vector": {"1": "-1"}},
        {"p": 5, "vector": {"1": "-1", "2": "-1"}},
        {"p": 7, "vector": {"1": "-1"}},
        {"p": 11, "vector": {"1": "-1", "2": "-1"}},
    ]


def test_malformed_json_reports_position():
    code, out = run("member", '{"x0": "5"')
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "malformed-json"
    assert "line 1 column 11" in data["detail"]


@pytest.mark.parametrize("p", ["9", "1", "0"])
def test_ctx_of_a_non_prime_is_a_usage_error(p):
    # the bytes, not just the exit code: one prime test, one message
    assert run("ctx", p) == (
        2, '{"detail": "%s is not prime", "error": "usage", "fingerprint": "v1:353ca906f3bca6fa"}\n' % p)


def test_capacity_error_payload():
    code, out = run("--prime-cap", "100", "ctx", "1009")
    assert code == 3
    data = json.loads(out)
    assert data["error"] == "capacity-exceeded"
    assert data["required"] == 1009 and data["cap"] == 100


def test_member_refuses_a_denominator_past_the_prime_cap_quickly():
    # 10^50 + 1 has a prime factor past the default cap: trial division
    # stops at the cap, then refuses the cofactor
    start = time.perf_counter()
    code, out = run("member", '{"x0": "0", "x": {"1": "1/%d"}}' % (10 ** 50 + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and len(out.splitlines()) == 1
    data = json.loads(out)
    assert (data["error"], data["cap"]) == ("capacity-exceeded", 10 ** 6)
    assert data["required"] > 10 ** 6 and (10 ** 50 + 1) % data["required"] == 0


def test_certificate_lambda_past_the_height_cap_gets_the_certify_refusal():
    code, out = run("verify-cert", '[{"x0": "1", "x": {"1": "2"}}]', CERT_HUGE_LAMBDA)
    assert (code, json.loads(out)) == (3, {
        "error": "capacity-exceeded", "detail": "rational height passed the cap of 100000",
        "required": 10 ** 50 + 1, "cap": 100000, "fingerprint": FINGERPRINT})
    assert run("certify", f'[{{"x0": "1", "x": {{"1": "{10 ** 50 + 1}"}}}}]') == (code, out)


def test_witness_at_a_wide_position_is_refused_quickly():
    # the class code passes the scan cap within a few of the 64 positions
    start = time.perf_counter()
    code, out = run("witness", '{"x0": "0", "x": {"64": "1"}}')
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(out)) == (3, {
        "error": "capacity-exceeded", "detail": "integer-vector scan passed the cap of 1000000 codes",
        "required": 1_000_001, "cap": 1_000_000, "fingerprint": FINGERPRINT})


def test_certificate_past_the_digit_limit_exits_3():
    # lambda = (8, -1, -2) has index 9,815, bad primes up to 9,816 and a D of 8,374 digits
    gens = '[{"x0":"8","x":{"1":"1"}},{"x0":"-1","x":{"2":"1"}},{"x0":"-2","x":{"3":"1"}}]'
    code, out = run("certify", gens)
    assert code == 3 and len(out.splitlines()) == 1
    data = json.loads(out)
    assert data["error"] == "capacity-exceeded"
    assert (data["required"], data["cap"]) == (8374, sys.get_int_max_str_digits())


def test_element_argument_accepts_files(tmp_path):
    path = tmp_path / "element.json"
    path.write_text('{"x0": "5", "x": {}}')
    code, out = run("member", str(path))
    assert code == 0 and json.loads(out)["member"] is True


def test_outputs_deterministic_in_process():
    for argv, _ in EXIT_CASES:
        assert run(*argv) == run(*argv)


def test_version_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "padicgroup", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data == {"fingerprint": FINGERPRINT, "version": "0.1.0"}


def test_no_arguments_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "padicgroup"], capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_closed_stdout_exits_141_without_a_traceback():
    # the output is far larger than a pipe buffer, so closing the pipe after
    # one line is sure to break a later write
    with subprocess.Popen(
        [sys.executable, "-m", "padicgroup", "enum", "rat", "--from", "1", "--to", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert json.loads(proc.stdout.readline())["enum"] == "rat"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


def test_config_file_with_a_bool_cap_exits_2(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"residue_cap": True}))
    code, out = run("--config", str(path), "member", '{"x0": "5", "x": {}}')
    assert code == 2, out
    assert json.loads(out)["detail"] == "residue_cap must be a positive integer"
