"""Spans around lphom's layer boundaries, hooked in from outside the package.

The hooks replace the module attributes that the consuming modules look up
at call time (``lphom.harness.run_micro``, ``lphom.micro.build_micro_grid``,
``scipy.sparse.linalg.splu`` and so on), so the library itself is not
edited. Spans are kept in memory as (name, start, end, parent, thread) plus
a few facts read off the wrapped call's arguments and result, and are
turned into per-layer metrics once the traced call has returned.

A hook whose target no longer exists is recorded in ``Tracer.missing``;
every metric that depends on it is then left out rather than reported as
zero.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

# layers that own factorizations: splu and SuperLU.solve spans are named
# after the innermost enclosing span of one of these, on the calling thread
LAYERS = ("cell_problem", "micro", "macro")


class _LUProxy:
    """SuperLU stand-in whose solve() is recorded as a span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span(self._tracer.layer_of_caller() + ".lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.installed: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root_id = None

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1]["id"] if stack else self.root_id
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "thread": threading.get_ident(),
               "attrs": attrs}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        if parent is None:
            self.root_id = rec["id"]
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def layer_of_caller(self) -> str:
        for rec in reversed(self._stack()):
            layer = rec["name"].split(".", 1)[0]
            if layer in LAYERS:
                return layer
        return "other"

    # ------------------------------------------------------------ hooks

    def wrap(self, module, attr: str, name: str, facts=None):
        """Replace module.attr by a wrapper that records span `name`.

        facts(span_attrs, result) may add values read off the result; it
        runs after the span has closed, so its cost is not counted in the
        span's duration.
        """
        target = getattr(module, attr, None)
        if target is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = target(*args, **kwargs)
            if facts is not None:
                facts(rec["attrs"], result)
            return result

        setattr(module, attr, wrapper)
        self.installed.add(name)

    def wrap_splu(self, spla):
        target = getattr(spla, "splu", None)
        if target is None:
            self.missing.append(f"{spla.__name__}.splu")
            return

        def splu(A, *args, **kwargs):
            with self.span(self.layer_of_caller() + ".factor",
                           n=int(A.shape[0])) as rec:
                lu = target(A, *args, **kwargs)
            rec["attrs"]["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)
            return _LUProxy(lu, self)

        spla.splu = splu
        self.installed.update(f"{layer}.{kind}" for layer in LAYERS
                              for kind in ("factor", "lu_solve"))


# ---------------------------------------------------------------- facts

def _cell_facts(attrs, sol):
    attrs["iterations"] = int(sum(int(i) for i in sol.iterations))
    attrs["residual"] = float(max(sol.residuals))


def _grid_facts(attrs, grid):
    attrs["fluid_cells"] = int(grid.mask.sum())
    attrs["faces"] = int(len(grid.faces.length))


def _micro_run_facts(attrs, run):
    attrs["eps"] = float(run.config.eps)
    attrs["fields_bytes"] = int(sum(f.nbytes for f in run.fields or ()))


def _partition_facts(attrs, part):
    attrs["lattice_cells"] = int(sum(len(s.xi_all) for s in part.subdomains))


def install_lphom_hooks(tracer: Tracer):
    """Hook every layer boundary the benchmark reports on."""
    import scipy.sparse.linalg as spla
    from lphom import cell_problem, cli, harness, micro

    tracer.wrap(harness, "tensor_field", "cell_problem.tensor_field")
    tracer.wrap(harness, "assemble_macro", "macro.assemble")
    tracer.wrap(harness, "run_macro", "macro.run")
    tracer.wrap(harness, "run_micro", "micro.run", _micro_run_facts)
    tracer.wrap(micro, "build_micro_grid", "micro.grid", _grid_facts)
    tracer.wrap(micro, "build_partition", "geometry.partition",
                _partition_facts)
    tracer.wrap(cell_problem, "solve_cell", "cell_problem.solve", _cell_facts)
    tracer.wrap(cell_problem, "build_cell_geometry", "cell_problem.geometry")
    tracer.wrap(cli, "build_partition", "geometry.partition", _partition_facts)
    tracer.wrap(cli, "lattice_pwc_field", "unfolding.pwc_field")
    tracer.wrap(cli, "check_integration_identity", "unfolding.integration")
    tracer.wrap(cli, "check_boundary_identity", "unfolding.boundary")
    tracer.wrap_splu(spla)


# -------------------------------------------------------------- metrics

def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans.

    A metric whose source span was never hooked is left out; one whose
    layer simply did not run in this workload reads 0.
    """
    by_name: dict = {}
    for rec in tracer.spans:
        by_name.setdefault(rec["name"], []).append(rec)

    def recs(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(r["end"] - r["start"] for r in recs(name))

    def total(name, key):
        return sum(r["attrs"].get(key, 0) for r in recs(name))

    micro_runs = recs("micro.run")
    finest = min(micro_runs, key=lambda r: r["attrs"].get("eps", 1.0),
                 default=None)
    cells = recs("cell_problem.solve")
    root = None if tracer.root_id is None else tracer.spans[tracer.root_id]
    children = [(r["start"], r["end"]) for r in tracer.spans
                if root is not None and r["parent"] == root["id"]]

    table = {
        # name: (source spans, value, unit)
        "cell_problem.tensor_field_s": (
            ["cell_problem.tensor_field"],
            lambda: busy("cell_problem.tensor_field"), "s"),
        "cell_problem.solve_s": (
            ["cell_problem.solve", "cell_problem.geometry"],
            lambda: busy("cell_problem.solve")
            - busy("cell_problem.geometry"), "s"),
        "cell_problem.geometry_s": (
            ["cell_problem.geometry"],
            lambda: busy("cell_problem.geometry"), "s"),
        "cell_problem.solves": (
            ["cell_problem.solve"], lambda: len(cells), "count"),
        "cell_problem.iterations": (
            ["cell_problem.solve"],
            lambda: total("cell_problem.solve", "iterations"), "count"),
        "cell_problem.residual_max": (
            ["cell_problem.solve"],
            lambda: max((r["attrs"]["residual"] for r in cells), default=0.0),
            "1"),
        "micro.run_s": (["micro.run"], lambda: busy("micro.run"), "s"),
        "micro.finest_run_s": (
            ["micro.run"],
            lambda: finest["end"] - finest["start"] if finest else 0.0, "s"),
        "micro.lu_solve_s": (
            ["micro.lu_solve"], lambda: busy("micro.lu_solve"), "s"),
        "micro.factor_s": (
            ["micro.factor"], lambda: busy("micro.factor"), "s"),
        "micro.grid_s": (["micro.grid"], lambda: busy("micro.grid"), "s"),
        "micro.fill_nnz": (
            ["micro.factor"], lambda: total("micro.factor", "fill_nnz"),
            "count"),
        "micro.unknowns": (
            ["micro.factor"], lambda: total("micro.factor", "n"), "count"),
        "micro.fields_mb": (
            ["micro.run"],
            lambda: total("micro.run", "fields_bytes") / 1e6, "MB"),
        "micro.steps": (
            ["micro.lu_solve"], lambda: len(recs("micro.lu_solve")), "count"),
        "micro.fluid_cells": (
            ["micro.grid"], lambda: total("micro.grid", "fluid_cells"),
            "count"),
        "micro.faces": (
            ["micro.grid"], lambda: total("micro.grid", "faces"), "count"),
        "macro.assemble_s": (
            ["macro.assemble"], lambda: busy("macro.assemble"), "s"),
        "macro.run_s": (["macro.run"], lambda: busy("macro.run"), "s"),
        "macro.steps": (
            ["macro.lu_solve"], lambda: len(recs("macro.lu_solve")), "count"),
        "macro.fill_nnz": (
            ["macro.factor"], lambda: total("macro.factor", "fill_nnz"),
            "count"),
        "harness.self_s": (
            [],
            lambda: (root["end"] - root["start"] - _union_length(children)
                     if root else 0.0), "s"),
        "geometry.partition_s": (
            ["geometry.partition"], lambda: busy("geometry.partition"), "s"),
        "geometry.lattice_cells": (
            ["geometry.partition"],
            lambda: total("geometry.partition", "lattice_cells"), "count"),
        "unfolding.pwc_field_s": (
            ["unfolding.pwc_field"], lambda: busy("unfolding.pwc_field"),
            "s"),
        "unfolding.integration_s": (
            ["unfolding.integration"], lambda: busy("unfolding.integration"),
            "s"),
        "unfolding.boundary_s": (
            ["unfolding.boundary"], lambda: busy("unfolding.boundary"), "s"),
    }
    out = {}
    for name, (sources, value, unit) in table.items():
        if all(s in tracer.installed for s in sources):
            out[name] = {"value": value(), "unit": unit}
    return out
