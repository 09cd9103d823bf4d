"""Per-layer spans recorded around calls into padicgroup, from outside the package.

install() replaces each traced public function in every padicgroup module
namespace that holds a reference to it (e.g. group.membership, group.is_member
and certificates.is_member), so internal calls are traced too.  Each call is a
span (layer, start, end, parent span, op id); iter_window_residues is traced
per next() call.  Spans are kept in flat arrays and written to a file when the
traced run ends; summarize() turns span files into the per-layer metrics.

A layer's self time is the sum over its spans of duration minus the duration
of their direct child spans.  A layer's call count counts the spans whose
parent belongs to another layer, so rank -> rref is one linalg.elim call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# layer -> (module, attribute) pairs of the functions timed as that layer
LAYERS = {
    "arith.valuation": [("arith", "valuation")],
    "arith.primes": [("arith", n) for n in ("is_prime", "prime_factors", "primes_up_to",
                                            "nth_prime", "prime_index")],
    "bookkeeping.enum_qvec": [("bookkeeping", "enum_qvec")],
    "bookkeeping.qvec_index": [("bookkeeping", "qvec_index")],
    "bookkeeping.intvec": [("bookkeeping", n) for n in ("intvec_at", "intvec_index",
                                                        "partition_vector", "partition_members")],
    "construction.build_context": [("construction", "build_context")],
    "construction.condition_block": [("construction", "condition_block")],
    "construction.residues": [("construction", "iter_window_residues")],
    "linalg.elim": [("linalg", n) for n in ("rref", "rank", "rank_mod", "solve_right",
                                            "invert", "det")],
    "linalg.hnf": [("linalg", "hnf"), ("linalg", "integer_span_points"),
                   ("linalg", "RatLattice.from_rows"), ("linalg", "RatLattice.add_row")],
    "linalg.lattice_contains": [("linalg", "RatLattice.contains")],
    "group.membership": [("group", "membership"), ("group", "is_member")],
    "group.purify": [("group", "purify")],
    "certificates.certify_free": [("certificates", "certify_free")],
    "certificates.verify_certificate": [("certificates", "verify_certificate")],
    "certificates.witness": [("certificates", "divisibility_witness"),
                             ("certificates", "verify_witness")],
    "cli.command": [("cli", "main")],
}
NAMES = list(LAYERS)
_ID = {name: i for i, name in enumerate(NAMES)}
_RESIDUES = _ID["construction.residues"]
_MEMBERSHIP = _ID["group.membership"]
_PURIFY = _ID["group.purify"]

# span columns in file order, with their array type codes
COLUMNS = (("layer", "H"), ("parent", "i"), ("op_id", "i"), ("start", "d"), ("end", "d"))
COUNTERS = ("residues.calls", "residues.yielded", "membership.members",
            "purify.candidates", "purify.member_tests", "purify.enlargements",
            "certificates.bad_primes", "build_context.misses")


class Tracer:
    """Span store for one process; op is the id stamped on new spans."""

    def __init__(self):
        for name, code in COLUMNS:
            setattr(self, name, array(code))
        self.stack: list[int] = []
        self.op = -1
        self.purify_depth = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._misses = None

    def begin(self, layer: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def outer(self, layer: int) -> bool:
        """Whether a span of this layer opened now would be a layer entry."""
        return not self.stack or self.layer[self.stack[-1]] != layer

    def install(self, package) -> None:
        """Patch every traced function of the imported package in place."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == package.__name__ or name.startswith(package.__name__ + ".")}
        build = mods[f"{package.__name__}.construction"].build_context
        self._misses = (build, build.cache_info().misses)
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                owner = mods.get(f"{package.__name__}.{modname}")
                if owner is None:  # padicgroup.cli is imported only by CLI runs
                    continue
                if "." in attr:
                    self._patch_method(layer, owner, attr)
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(layer, orig)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)

    def _patch_method(self, layer: str, owner, attr: str) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self._wrap(layer, raw.__func__)))
        else:
            setattr(cls, meth, self._wrap(layer, raw))

    def _wrap(self, layer: str, fn):
        lid = _ID[layer]
        if lid == _RESIDUES:
            return self._wrap_residues(fn)
        counters = self.counters
        enlarges = fn.__name__ == "add_row"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.outer(lid)
            if self.purify_depth and outer:
                if layer == "linalg.lattice_contains":
                    counters["purify.candidates"] += 1
                elif lid == _MEMBERSHIP:
                    counters["purify.member_tests"] += 1
                elif enlarges:
                    counters["purify.enlargements"] += 1
            if lid == _PURIFY:
                self.purify_depth += 1
            idx = self.begin(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
                if lid == _PURIFY:
                    self.purify_depth -= 1
            if lid == _MEMBERSHIP and outer and result:
                counters["membership.members"] += 1
            elif layer == "certificates.certify_free":
                counters["certificates.bad_primes"] += len(result.bad)
            return result

        return traced

    def _wrap_residues(self, fn):
        tracer = self

        class Residues:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.begin(_RESIDUES)
                try:
                    value = next(self.it)
                finally:
                    tracer.finish(idx)
                tracer.counters["residues.yielded"] += 1
                return value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counters["residues.calls"] += 1
            return Residues(fn(*args, **kwargs))

        return traced

    def dump(self, path) -> None:
        """Write the header line (layer names, counters) and the span columns."""
        if self._misses is not None:
            build, before = self._misses
            self.counters["build_context.misses"] = build.cache_info().misses - before
        header = {"names": NAMES, "spans": len(self.layer), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _ in COLUMNS:
                getattr(self, name).tofile(fh)


def read_spans(path):
    """Inverse of Tracer.dump: (header, layer, parent, op, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for _, code in COLUMNS:
            col = array(code)
            col.fromfile(fh, n)
            cols.append(col)
    return (header, *cols)


def summarize(paths) -> dict:
    """Per-layer totals over span files: self_s, calls and the counters."""
    self_s = dict.fromkeys(NAMES, 0.0)
    calls = dict.fromkeys(NAMES, 0)
    counters = dict.fromkeys(COUNTERS, 0)
    for path in paths:
        header, layer, parent, _, start, end = read_spans(path)
        for key, value in header["counters"].items():
            counters[key] += value
        child = [0.0] * len(layer)
        for i, par in enumerate(parent):
            if par >= 0:
                child[par] += end[i] - start[i]
        for i, lid in enumerate(layer):
            name = NAMES[lid]
            self_s[name] += end[i] - start[i] - child[i]
            par = parent[i]
            if par < 0 or layer[par] != lid:
                calls[name] += 1
    return {"self_s": self_s, "calls": calls, "counters": counters}
