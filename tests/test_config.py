import json

import pytest

from padicgroup.bookkeeping import FINGERPRINT
from padicgroup.config import DEFAULT, Config, load_config
from padicgroup.errors import FingerprintMismatchError


def test_defaults():
    assert DEFAULT.fingerprint == FINGERPRINT
    assert DEFAULT.witness_prime_count == 3
    assert DEFAULT.prime_cap == 1_000_000


def test_replace_and_validation():
    small = DEFAULT.replace(prime_cap=100)
    assert small.prime_cap == 100 and small.residue_cap == DEFAULT.residue_cap
    with pytest.raises(ValueError):
        DEFAULT.replace(prime_cap=0)
    with pytest.raises(ValueError):
        DEFAULT.replace(scan_cap="lots")


def test_fingerprint_pinned():
    with pytest.raises(FingerprintMismatchError):
        Config(fingerprint="v1:0000000000000000")


def test_json_round_trip():
    data = DEFAULT.to_json()
    assert Config.from_json(data) == DEFAULT
    with pytest.raises(ValueError):
        Config.from_json({**data, "mystery": 1})


def test_load_config(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"prime_cap": 500}))
    conf = load_config(str(path))
    assert conf.prime_cap == 500
    conf = load_config(str(path), prime_cap=700, residue_cap=None)
    assert conf.prime_cap == 700
    assert conf.residue_cap == DEFAULT.residue_cap
    assert load_config(None) == DEFAULT
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_config(str(path))



def test_bool_cap_is_rejected():
    # JSON true is a Python bool, which isinstance() would accept as the int 1
    with pytest.raises(ValueError, match="residue_cap"):
        Config.from_json({"residue_cap": True})
