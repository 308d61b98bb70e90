"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each named function with a wrapper at every
module of the package that binds it (``vndim.hs_subspace`` and
``cocycles.hs_subspace`` are the same function bound twice), so calls made
through any import path are seen.  Spans are kept in memory and written out
only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

import numpy as np

# The layers are the package's modules; these are their public functions
# that the benchmark times.
FUNCTIONS = {
    "cli": ("load_config", "run_scenario", "emit_report"),
    "algebra": ("build_algebra", "gns_structure"),
    "wedderburn": ("blockify", "commutant_basis", "minimal_central_projections"),
    "groups": ("regular_rep_algebra", "symmetric_group", "schreier_graph",
               "counterexample_report"),
    "cocycles": ("delta_report", "compute_H0", "compute_H1"),
    "vndim": ("central_decomposition", "hs_subspace", "invariance_residual",
              "numerical_span", "vn_dimension_report", "subspace_distance"),
    "derivations": ("inner_spec", "derivation_well_defined",
                    "construct_dual_operator", "fisher_report"),
    "cutoff": ("convergence_sweep",),
}
MODULES = tuple(FUNCTIONS)
NAMES = tuple(f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _residual_rows(args, kwargs) -> int:
    """Rows the invariance certificate projects: 2 * D * r."""
    basis = _arg(args, kwargs, 0, "basis")
    gns = _arg(args, kwargs, 1, "gns")
    return 2 * gns.dim * basis.shape[0]


def _svd_cells(args, kwargs) -> int:
    """Entries of the matrix whose SVD numerical_span takes: rows x cols."""
    shape = np.shape(_arg(args, kwargs, 0, "vectors"))
    if len(shape) <= 1:
        return int(shape[0]) if shape else 0
    return int(np.prod(shape))


# Exact work counts computed from argument shapes.
WORK_COUNTS = {
    "vndim.invariance_residual": ("rows", _residual_rows),
    "vndim.numerical_span": ("svd_cells", _svd_cells),
}


class Tracer:
    """Records one span per call of each function in FUNCTIONS.

    A span is [name, start, end, parent index, operation id, raised, work].
    ``rss_rise`` attributes each rise of the process's peak RSS to the
    module of the innermost span open when it was observed.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.rss_rise_kb: dict[str, int] = defaultdict(int)
        self._rss = 0
        self._patched: list[tuple[object, str, object]] = []

    def _rss_mark(self) -> None:
        now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if now > self._rss:
            owner = (self.spans[self.stack[-1]][0].split(".")[0]
                     if self.stack else "outside")
            self.rss_rise_kb[owner] += now - self._rss
            self._rss = now

    def _wrap(self, name: str, fn):
        count = WORK_COUNTS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._rss_mark()
            work = count(args, kwargs) if count else None
            span = [name, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1,
                    tracer.op_id, False, work]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._rss_mark()
                tracer.stack.pop()

        return traced

    def install(self) -> "Tracer":
        """Wrap every binding of every function in FUNCTIONS."""
        self._rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "freedim"
                                         or key.startswith("freedim."))]
        for mod_name, fns in FUNCTIONS.items():
            home = importlib.import_module(f"freedim.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def bindings(self) -> list[str]:
        """Every module attribute the tracer replaced, as 'module.attr'."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched)

    def summary(self) -> dict:
        """Per-function self seconds, calls and work; per-module failures."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"self_s": 0.0, "calls": 0, "failed": 0, "work": 0}
               for name in NAMES}
        for k, (name, start, end, _, _, raised, work) in enumerate(self.spans):
            row = out[name]
            row["self_s"] += (end - start) - child[k]
            row["calls"] += 1
            row["failed"] += raised
            row["work"] += work or 0
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op, raised, work in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op, "raised": raised,
                    "work": work}) + "\n")
