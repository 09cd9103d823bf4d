"""Which modules a fresh process loads: the core at import, certificates and
checks only for the commands that use them, dataclasses never; and no module
imports a name it never uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicgroup
from test_acceptance import REGRESSION_COMMANDS

ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
DEFERRED = {"padicgroup.certificates", "padicgroup.checks"}


def fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cli_imports(*argv: str, codes=(0,)) -> set[str]:
    """Modules a `python -m padicgroup` process imports after the site hooks
    ran, from -X importtime, which lists a module once its imports are done."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "padicgroup", *argv],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode in codes, proc.stderr
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return set(names[names.index("site") + 1:])


def test_import_loads_only_the_core():
    # modules the interpreter loaded before the import (site hooks) do not count
    out = fresh("import json, sys; before = set(sys.modules); import padicgroup; "
                "print(json.dumps(sorted(set(sys.modules) - before)))")
    added = set(json.loads(out))
    assert not added & (DEFERRED | {"padicgroup.cli", "hashlib", "dataclasses"})
    core = {"arith", "errors", "vectors", "bookkeeping", "config", "construction", "linalg", "group"}
    assert {f"padicgroup.{m}" for m in core} <= added


def test_import_does_no_work():
    # every memo cache starts empty and the prime sieve at its seed limit
    out = fresh("import json, sys, padicgroup\n"
                "caches = {f'{name}.{key}': value.cache_info().currsize for name, mod in list(sys.modules.items())\n"
                "          if name.startswith('padicgroup.') for key, value in vars(mod).items() if hasattr(value, 'cache_info')}\n"
                "print(json.dumps([caches, padicgroup.arith._SIEVE_LIMIT]))")
    caches, sieve_limit = json.loads(out)
    assert {"padicgroup.construction.build_context", "padicgroup.construction.condition_block",
            "padicgroup.group._conditions", "padicgroup.bookkeeping.enum_rat"} <= set(caches)
    assert {name: size for name, size in caches.items() if size} == {}
    assert sieve_limit == 14


@pytest.mark.parametrize("argv", [
    ["ctx", "7"],
    ["member", '{"x0": "5", "x": {}}'],
    ["purify", '[{"x0": "0", "x": {"1": "2"}}]'],
    ["enum", "rat", "--from", "1", "--to", "4"],
    ["--version"],
])
def test_core_commands_load_neither_certificates_nor_checks(argv):
    loaded = cli_imports(*argv)
    assert "padicgroup.group" in loaded
    assert not loaded & DEFERRED


@pytest.mark.parametrize("argv", [
    ["witness", '{"x0": "-1", "x": {"1": "-1"}}', "--prime", "2"],
    ["certify", '[{"x0": "1", "x": {"1": "1"}}]'],
])
def test_certificate_commands_skip_checks(argv):
    loaded = cli_imports(*argv)
    assert "padicgroup.certificates" in loaded
    assert "padicgroup.checks" not in loaded


@pytest.mark.parametrize("argv", REGRESSION_COMMANDS, ids=" ".join)
def test_no_command_loads_dataclasses(argv):
    loaded = cli_imports(*argv, codes=(0, 1))
    assert "padicgroup.cli" in loaded
    assert "dataclasses" not in loaded


def test_every_exported_name_resolves():
    out = fresh("import padicgroup\n"
                "missing = [n for n in padicgroup.__all__ if getattr(padicgroup, n, None) is None]\n"
                "ns = {}\n"
                "exec('from padicgroup import *', ns)\n"
                "print(missing, sorted(set(padicgroup.__all__) - set(ns)))")
    assert out == "[] []\n"


def test_lazy_names_resolve_to_the_module_attributes():
    from padicgroup import certificates, checks

    assert padicgroup.certificates is certificates
    assert padicgroup.verify_witness is certificates.verify_witness
    assert padicgroup.CHECKS is checks.CHECKS
    assert padicgroup.run_check is checks.run_check


def test_dir_lists_the_lazy_names():
    names = dir(padicgroup)
    assert set(padicgroup.__all__) <= set(names)
    assert {"certificates", "checks"} <= set(names)
    assert names == sorted(names)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        padicgroup.no_such_name
    assert not hasattr(padicgroup, "__wrapped__")


MODULES = sorted(p for p in Path(padicgroup.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_all_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
