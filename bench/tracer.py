"""Layer tracer for the benchmark's traced run.

The layers are the modules of `floercone`, with `linalg` split into its
GF(2) half and its Laurent half.  `Tracer.install` wraps every public
function and method of each layer.  A method's wrapper replaces it on its
class; a function's wrapper is bound wherever the original is bound in a
`floercone` module: in the module that defines it and in every module
that took it with `from ... import`.  The one exception is
`floercone.linalg`'s own namespace, so that a call from one half of linalg
into a function of the other (the Laurent division packs its operands
with `vector_mask`) stays in the caller's layer.  The library
itself holds no tracing code; `uninstall` puts every original back, and
untraced runs never call `install`.

A wrapper opens a span only when the call crosses from one layer into
another; a call inside the current layer only records that the function
was reached.  Spans are kept in memory as parallel arrays (layer,
function, start, end, parent), and summarized and written when the run
ends.  A few functions also carry a work counter, updated on
every call whether or not it crosses a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "cli",
    "io_format",
    "model",
    "subquotient",
    "cone",
    "twisted",
    "detect",
    "linalg.f2",
    "linalg.laurent",
)
ROOT = "op"
LINALG = "floercone.linalg"

_MODULE_LAYER = {
    "floercone.cli": "cli",
    "floercone.io_format": "io_format",
    "floercone.model": "model",
    "floercone.subquotient": "subquotient",
    "floercone.cone": "cone",
    "floercone.twisted": "twisted",
    "floercone.detect": "detect",
}

# Dunder methods that do layer work when called from another layer:
# dataclass validation on construction and the arithmetic operators.
_DUNDERS = ("__init__", "__post_init__", "__add__", "__mul__", "__matmul__")

def floercone_modules() -> dict:
    """The loaded `floercone` modules, by name."""
    return {name: mod for name, mod in sys.modules.items()
            if name.split(".")[0] == "floercone" and mod is not None}


def linalg_layer(qualname: str) -> str:
    head = qualname.split(".")[0]
    if head.startswith(("Laurent", "laurent")) or head in (
            "rank_fraction_field", "smith_invariants_laurent"):
        return "linalg.laurent"
    return "linalg.f2"


def layer_of(module: str, qualname: str) -> str | None:
    if module == LINALG:
        return linalg_layer(qualname)
    return _MODULE_LAYER.get(module)


class Tracer:
    def __init__(self):
        self.layer_names = (ROOT,) + LAYERS
        self._layer_id = {name: k for k, name in enumerate(self.layer_names)}
        self.func_names: list[str] = []
        self._func_ids: dict[str, int] = {}
        self.s_layer = array("b")
        self.s_func = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.cur = -1
        self.layer = -1
        self.counts: dict[str, float] = {}
        self.reached: set[str] = set()
        self._patches: list[tuple] = []
        self.installed = False
        self._validate = None
        self._validate_hits = self._validate_misses = 0

    # -- spans ---------------------------------------------------------

    def _open(self, layer: int, func: int) -> int:
        idx = len(self.s_start)
        self.s_layer.append(layer)
        self.s_func.append(func)
        self.s_parent.append(self.cur)
        self.s_end.append(0.0)
        self.s_start.append(time.perf_counter())
        return idx

    def span(self, layer: str, name: str):
        """Context manager opening a span by hand (the benchmark's op root)."""
        return _Span(self, self._layer_id[layer], self._func_id(name))

    def _func_id(self, name: str) -> int:
        fid = self._func_ids.get(name)
        if fid is None:
            fid = self._func_ids[name] = len(self.func_names)
            self.func_names.append(name)
        return fid

    def _wrap(self, fn, full: str, layer: str, observe=None):
        lid = self._layer_id[layer]
        fid = self._func_id(full)
        tracer = self
        perf = time.perf_counter
        reached = self.reached.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached(full)
            if observe is None and tracer.layer == lid:
                return fn(*args, **kwargs)
            if tracer.layer == lid:
                result = fn(*args, **kwargs)
            else:
                parent, prev = tracer.cur, tracer.layer
                idx = tracer._open(lid, fid)
                tracer.cur, tracer.layer = idx, lid
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.s_end[idx] = perf()
                    tracer.cur, tracer.layer = parent, prev
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def targets(self):
        """(owner, attribute, original, full name, layer) for every traced callable."""
        out = []
        for mod_name, mod in sorted(floercone_modules().items()):
            for name, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    for attr, raw in sorted(vars(obj).items()):
                        if attr.startswith("_") and attr not in _DUNDERS:
                            continue
                        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if not inspect.isfunction(func):
                            continue
                        full = f"{mod_name}.{name}.{attr}"
                        layer = layer_of(mod_name, f"{name}.{attr}")
                        if layer is not None:
                            out.append((obj, attr, raw, full, layer))
                elif name.startswith("_"):
                    continue
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    full = f"{mod_name}.{name}"
                    layer = layer_of(mod_name, name)
                    if layer is not None:
                        out.append((mod, name, obj, full, layer))
        return out

    def install(self) -> None:
        """Wrap every traced callable of the loaded `floercone` modules."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = floercone_modules()
        self._validate = modules["floercone.model"].validate
        self._validate_base = self._validate.cache_info()
        for owner, attr, raw, full, layer in self.targets():
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            func = raw.__func__ if kind else raw
            wrapped = self._wrap(func, full, layer, OBSERVERS.get(full))
            if not inspect.ismodule(owner):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                continue
            # the defining module and every module that imported the
            # original by name, except linalg's own namespace
            for mod_name, other in modules.items():
                if mod_name == LINALG:
                    continue
                for name, value in list(vars(other).items()):
                    if value is raw:
                        self._patches.append((other, name, raw))
                        setattr(other, name, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self.installed = False
        now = self._validate.cache_info()
        self._validate_hits += now.hits - self._validate_base.hits
        self._validate_misses += now.misses - self._validate_base.misses

    def validate_hit_ratio(self) -> float:
        """Hit share of model.validate's cache while installed."""
        calls = self._validate_hits + self._validate_misses
        return self._validate_hits / calls if calls else 0.0

    # -- summaries -----------------------------------------------------

    def summary(self) -> dict:
        """Per layer: span count, busy time (union of its spans) and self time."""
        return layer_summary(self.layer_names, self.s_layer, self.s_start,
                             self.s_end, self.s_parent)

    def write(self, stem: Path) -> None:
        """Spans as five native-order arrays in <stem>.bin, described by <stem>.json."""
        arrays = {"layer": self.s_layer, "function": self.s_func, "start": self.s_start,
                  "end": self.s_end, "parent": self.s_parent}
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in arrays.values():
                arr.tofile(fh)
        meta = {"count": len(self.s_start), "layers": self.layer_names,
                "functions": self.func_names,
                "arrays": [[name, arr.typecode] for name, arr in arrays.items()]}
        stem.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")


class _Span:
    def __init__(self, tracer: Tracer, layer: int, func: int):
        self.t, self.layer, self.func = tracer, layer, func

    def __enter__(self):
        t = self.t
        self.saved = (t.cur, t.layer)
        self.idx = t._open(self.layer, self.func)
        t.cur, t.layer = self.idx, self.layer
        return self

    def __exit__(self, *exc):
        t = self.t
        t.s_end[self.idx] = time.perf_counter()
        t.cur, t.layer = self.saved
        return False


def layer_summary(layer_names, s_layer, s_start, s_end, s_parent) -> dict:
    """Span count, busy and self seconds per layer.

    Spans must be listed in start order, each after its parent.  A span's
    self time is its duration minus the part of it that its children
    cover; a layer's busy time is the union of its spans, so a span nested
    inside another span of the same layer adds nothing to it.
    """
    n = len(s_start)
    covered = [0.0] * n
    reach = [0.0] * n  # latest end among the children seen so far
    anc = [0] * n      # bitmask of layers on the path above each span
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in layer_names}
    for k in range(n):
        p = s_parent[k]
        lid = s_layer[k]
        start, end = s_start[k], s_end[k]
        if p >= 0:
            lo = max(start, reach[p], s_start[p])
            hi = min(end, s_end[p])
            if hi > lo:
                covered[p] += hi - lo
            if end > reach[p]:
                reach[p] = end
            anc[k] = anc[p] | (1 << s_layer[p])
        else:
            anc[k] = 0
        rec = out[layer_names[lid]]
        rec["calls"] += 1
        if not anc[k] >> lid & 1:
            rec["busy_s"] += end - start
    for k in range(n):
        out[layer_names[s_layer[k]]]["self_s"] += (s_end[k] - s_start[k]) - covered[k]
    return out


# ---------------------------------------------------------------------------
# Work counters, keyed by the traced function's full name


def _plus_build(counts, args, kwargs, result):
    n = kwargs.get("n", args[2] if len(args) > 2 else None)
    counts["subquotient.plus_builds"] = counts.get("subquotient.plus_builds", 0) + 1
    counts["subquotient.plus_basis"] = counts.get("subquotient.plus_basis", 0) + result[0].dim
    counts["subquotient.max_truncation"] = max(counts.get("subquotient.max_truncation", 0), n)


def _f2_matrix(counts, args, kwargs, result):
    m = args[0]
    counts["linalg.f2.cols"] = counts.get("linalg.f2.cols", 0) + m.cols
    counts["linalg.f2.nnz"] = counts.get("linalg.f2.nnz", 0) + len(m.entries)


def _f2_vector(counts, args, kwargs, result):
    counts["linalg.f2.cols"] = counts.get("linalg.f2.cols", 0) + 1
    counts["linalg.f2.nnz"] = counts.get("linalg.f2.nnz", 0) + args[1].bit_count()


def _laurent_matrix(counts, args, kwargs, result):
    m = args[0]
    counts["linalg.laurent.dim"] = counts.get("linalg.laurent.dim", 0) + max(m.rows, m.cols)
    counts["linalg.laurent.nnz"] = counts.get("linalg.laurent.nnz", 0) + len(m.entries)


def _derive_flip(counts, args, kwargs, result):
    counts["model.derive_flip.calls"] = counts.get("model.derive_flip.calls", 0) + 1


def _parse(counts, args, kwargs, result):
    counts["io_format.bytes"] = counts.get("io_format.bytes", 0) + len(args[0].encode("utf-8"))


OBSERVERS = {
    "floercone.subquotient.build_plus_truncated": _plus_build,
    "floercone.linalg.rank_f2": _f2_matrix,
    "floercone.linalg.kernel_basis_f2": _f2_matrix,
    "floercone.linalg.F2Span.add": _f2_vector,
    "floercone.linalg.rank_fraction_field": _laurent_matrix,
    "floercone.linalg.smith_invariants_laurent": _laurent_matrix,
    "floercone.model.derive_flip": _derive_flip,
    "floercone.io_format.parse": _parse,
}

WORK_COUNTS = (
    "subquotient.plus_builds",
    "subquotient.plus_basis",
    "subquotient.max_truncation",
    "linalg.f2.cols",
    "linalg.f2.nnz",
    "linalg.laurent.dim",
    "linalg.laurent.nnz",
    "model.derive_flip.calls",
    "io_format.bytes",
)
