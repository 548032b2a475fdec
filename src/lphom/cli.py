"""Command line entry point.

Subcommands
  geom          partition/lattice summary for a scenario
  check-unfold  unfolding identity suite, one CSV row per check and epsilon
  cell          effective tensors at requested macro points
  micro         one microscopic solve (series + final field CSV)
  macro         one homogenized solve (series + final field CSV)
  converge      epsilon-sweep convergence study

Configuration is a flat key=value text file plus flag overrides; flags win.
Exit codes: 0 success, 1 criterion failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

# the solver modules (cell_problem, harness, macro, micro) load scipy's
# sparse solvers, so each command imports them itself: geom and
# check-unfold run on numpy alone
from .geometry import build_partition
from .imex import OBSERVABLES, step_of
from .scenarios import SCENARIO_NAMES, CoefficientSuite, get_scenario
from .unfolding import (
    GammaQuadrature,
    check_boundary_identity,
    check_integration_identity,
    lattice_pwc_field,
)

if TYPE_CHECKING:
    from .cell_problem import EffectiveTensorField

COEFF_KEYS = ("mu1", "mu2", "mu3", "kappa1", "kappa2", "kappa3",
              "alpha", "beta", "dl", "df", "db")


class UsageError(argparse.ArgumentTypeError):
    """Bad invocation or configuration; maps to exit code 2.

    An ArgumentTypeError, so that argparse reports one raised by a type=
    converter as an error on its flag; main reports the others.
    """


def _number(text: str) -> float:
    """Parse a decimal or a fraction like 1/8."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"not a number: {text!r}") from None


def _eps_list(text: str) -> tuple:
    vals = tuple(_number(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise UsageError("empty epsilon list")
    return vals


@dataclass(frozen=True)
class _Key:
    """A configuration key: its parser, its flag if it has one, and the
    StudyConfig, MicroConfig and MacroConfig field it sets."""

    parse: Callable[[str], object]
    flag: Optional[str] = None
    field: Optional[str] = None
    help: Optional[str] = None


# every configuration key; the ones the CSV provenance headers name come
# in the headers' order. A key's flag stores under the key's name. The
# coefficient keys have no flag and set the suite, not a config field
_KEYS = {
    "scenario": _Key(str, "--scenario",
                     help=f"one of: {', '.join(SCENARIO_NAMES)}"),
    "a": _Key(_number, "--a",
              help="inclusion radius (0 disables perforation)"),
    "outdir": _Key(str, "--outdir", help="output directory"),
    "epsilon_list": _Key(_eps_list, "--eps", "eps_list"),
    "r": _Key(_number, "--r", "r"),
    "cells_per_eps": _Key(int, "--cells-per-eps", "cells_per_eps"),
    "H": _Key(_number, "--H", "H"),
    "T": _Key(_number, "--T", "T"),
    "dt_rule": _Key(str, "--dt-rule", "dt_rule"),
    "nGamma": _Key(int, "--n-gamma", "n_gamma"),
    "Nc": _Key(int, "--Nc", "N_c"),
    **{k: _Key(_number) for k in COEFF_KEYS},
}


def load_config_file(path: str) -> dict:
    """Strict flat key=value parser; unknown keys are rejected."""
    vals: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(valid keys: {', '.join(sorted(_KEYS))})")
        try:
            vals[key] = _KEYS[key].parse(val)
        except ValueError:      # from int: _number raises a UsageError
            raise UsageError(
                f"{path}:{lineno}: {key} must be an integer") from None
    return vals


def _given(vals: dict, config_cls) -> dict:
    """The config_cls fields that the keys the user gave set, by field
    name; config_cls holds the defaults of the keys left out."""
    names = {f.name for f in fields(config_cls)}
    return {k.field: vals[key] for key, k in _KEYS.items()
            if k.field in names and key in vals}


def _fmt(v: float) -> str:
    return f"{v:.12e}"


def _write_lines(path: str, lines: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_path(vals: dict, name: str) -> str:
    outdir = vals.get("outdir", ".")
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _provenance(vals: dict, keys: Sequence[str]) -> list:
    lines = []
    for k in keys:
        if k in vals:
            v = vals[k]
            if isinstance(v, tuple):
                v = ",".join(repr(float(e)) for e in v)
            lines.append(f"# {k}={v}")
    return lines


def _build_suite(vals: dict) -> CoefficientSuite:
    overrides = {k: vals[k] for k in COEFF_KEYS if k in vals}
    return replace(CoefficientSuite(), **overrides)


def _scenario_from(vals: dict):
    name = vals.get("scenario")
    if not name:
        raise UsageError(
            f"a scenario is required (one of: {', '.join(SCENARIO_NAMES)})")
    try:
        return get_scenario(name, a=vals.get("a", 0.25), suite=_build_suite(vals))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _single_eps(vals: dict, default: float) -> float:
    eps = vals.get("epsilon_list")
    if eps is None:
        return default
    if len(eps) != 1:
        raise UsageError("this subcommand takes a single epsilon")
    return eps[0]


# ---------------------------------------------------------------- geom

def _cmd_geom(vals: dict, args) -> int:
    sc = _scenario_from(vals)
    eps_list = vals.get("epsilon_list", (1 / 16,))
    r = vals.get("r", 0.5)
    lines = _provenance(vals, ("scenario", "a", "r"))
    lines.append("epsilon,subdomain,k1,k2,anchor1,anchor2,shift1,shift2,"
                 "detD,cells_interior,cells_all")
    for eps in eps_list:
        part = build_partition(((0.0, 0.0), (1.0, 1.0)), eps, r, sc.transform)
        for s, interior in zip(part.subdomains, np.diff(part.hat_start)):
            row = [_fmt(eps), str(s.n), str(s.k[0]), str(s.k[1]),
                   _fmt(s.anchor[0]), _fmt(s.anchor[1]),
                   _fmt(s.shift[0]), _fmt(s.shift[1]), _fmt(part.detD[s.n]),
                   str(interior), str(len(s.xi_all))]
            lines.append(",".join(row))
    path = _out_path(vals, "geom.csv")
    _write_lines(path, lines)
    print(f"wrote {path}")
    return 0


# -------------------------------------------------------- check-unfold

def _pwc_identity(part):
    """A field constant on each lattice cell is integrated exactly."""
    # one draw per Xi_hat row
    draws = np.random.default_rng(7).uniform(-1.0, 1.0, size=len(part.hat_n))
    return check_integration_identity(lattice_pwc_field(part, draws), part, 4)


def _sin_sin(X: np.ndarray) -> np.ndarray:
    """The smooth field of the integration checks."""
    return np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])


def _unfold_tasks(part, quad: GammaQuadrature) -> list:
    """The independent checks of one partition, each returning (lhs, rhs,
    gap): piecewise constant, smooth at m_y = 4 and 8, boundary."""
    return [
        lambda: _pwc_identity(part),
        lambda: check_integration_identity(_sin_sin, part, 4),
        lambda: check_integration_identity(_sin_sin, part, 8),
        lambda: check_boundary_identity(lambda X: 1.0 + X[:, 0], part, quad),
    ]


def _cmd_check_unfold(vals: dict, args) -> int:
    # imported here, like the solver modules, so that no other command
    # loads it
    from concurrent.futures import ThreadPoolExecutor

    sc = _scenario_from(vals)
    eps_list = vals.get("epsilon_list", (1 / 8, 1 / 16, 1 / 32))
    r = vals.get("r", 0.5)
    # the boundary quadrature does not depend on eps; building it first
    # rejects a bad nGamma before any partition is built, and building
    # every partition rejects a bad eps before any check starts
    quad = GammaQuadrature(sc.cell, vals.get("nGamma", 16))
    parts = [build_partition(((0.0, 0.0), (1.0, 1.0)), eps, r, sc.transform)
             for eps in eps_list]
    # the checks only read the partitions, so they share one pool, finest
    # eps (the longest checks) first; results are read in row order. Only
    # some Unix platforms have os.sched_getaffinity
    affinity = getattr(os, "sched_getaffinity", None)
    workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    with ThreadPoolExecutor(workers) as pool:
        futures = [None] * len(parts)
        for k in sorted(range(len(parts)), key=lambda k: eps_list[k]):
            futures[k] = [pool.submit(task) for task in
                          _unfold_tasks(parts[k], quad)]
        try:
            results = [[f.result() for f in fs] for fs in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    lines = _provenance(vals, ("scenario", "a", "r", "nGamma"))
    lines.append("check_name,epsilon,lhs,rhs,gap,pass")
    all_ok = True
    for eps, (pwc, smooth4, smooth8, bnd) in zip(eps_list, results):
        # the smooth field's quadrature gap is O((eps/m_y)^2), so the
        # coarse run calibrates the constant and bounds the fine one
        for name, (lhs, rhs, gap), ok in (
                ("integration_pwc", pwc, pwc[2] <= 1e-12),
                ("integration_smooth", smooth8,
                 smooth8[2] <= 1.1 * smooth4[2] / 4),
                ("boundary_identity", bnd, bnd[2] <= 1e-10)):
            all_ok &= ok
            lines.append(",".join([name, _fmt(eps), _fmt(lhs), _fmt(rhs),
                                   _fmt(gap), "true" if ok else "false"]))
    path = _out_path(vals, "check_unfold.csv")
    _write_lines(path, lines)
    print(f"wrote {path}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------- cell

def _parse_points(text: str) -> np.ndarray:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"point {chunk!r} is not x1,x2")
        pts.append([_number(parts[0]), _number(parts[1])])
    if not pts:
        raise UsageError("no points given")
    return np.array(pts)


def _tensor_csv_lines(vals: dict, fld: EffectiveTensorField) -> list:
    lines = _provenance(vals, ("scenario", "a", "Nc", *COEFF_KEYS))
    lines.append("x1,x2,A11,A12,A21,A22,theta,residual,Nc")
    for i in range(len(fld.points)):
        A = fld.tensors[i]
        row = [fld.points[i, 0], fld.points[i, 1], A[0, 0], A[0, 1],
               A[1, 0], A[1, 1], fld.theta[i], fld.residual[i]]
        lines.append(",".join(_fmt(v) for v in row) + f",{fld.N_c}")
    for i, err in enumerate(fld.errors):
        if err is not None:
            lines.append(f"# fail[point={i}]: {err}")
    return lines


def _cmd_cell(vals: dict, args) -> int:
    from .cell_problem import tensor_field

    sc = _scenario_from(vals)
    if args.points is not None:
        pts = _parse_points(args.points)
    else:
        g = (np.arange(8) + 0.5) / 8.0
        X, Y = np.meshgrid(g, g, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
    fld = tensor_field(pts, sc.suite.A, sc.transform, sc.cell,
                       N_c=vals.get("Nc", 128))
    path = _out_path(vals, "cell_tensors.csv")
    _write_lines(path, _tensor_csv_lines(vals, fld))
    print(f"wrote {path}")
    return 0 if fld.ok() else 1


def _read_tensor_csv(path: str) -> EffectiveTensorField:
    from .cell_problem import EffectiveTensorField

    pts, tens, theta, resid, nc = [], [], [], [], None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read tensor file: {exc}") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("x1"):
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise UsageError(f"bad tensor row: {line!r}")
        v = [float(p) for p in parts[:8]]
        pts.append(v[0:2])
        tens.append([[v[2], v[3]], [v[4], v[5]]])
        theta.append(v[6])
        resid.append(v[7])
        if nc is not None and int(parts[8]) != nc:
            raise UsageError(f"tensor file {path} mixes N_c {nc} and "
                             f"{parts[8].strip()}")
        nc = int(parts[8])
    if not pts:
        raise UsageError(f"tensor file {path} has no data rows")
    return EffectiveTensorField(points=np.array(pts), tensors=np.array(tens),
                                theta=np.array(theta), residual=np.array(resid),
                                N_c=nc, errors=[None] * len(pts))


# -------------------------------------------------------- micro / macro

def _write_run(vals: dict, command: str, prov: Sequence[str], run,
               points: np.ndarray, l_final: np.ndarray) -> int:
    """Write a micro or macro run's series CSV, and its final ligand field
    at points as the field CSV; exit 1 on a criterion failure."""
    obs = run.observables
    series = [",".join(OBSERVABLES)] + [
        ",".join(_fmt(float(obs[c][i])) for c in OBSERVABLES)
        for i in range(len(obs["t"]))]
    field = ["x1,x2,l"] + [",".join(_fmt(v) for v in (x1, x2, l))
                           for (x1, x2), l in zip(points, l_final)]
    for kind, rows in (("series", series), ("field", field)):
        path = _out_path(vals, f"{command}_{kind}.csv")
        _write_lines(path, _provenance(vals, prov) + rows)
        print(f"wrote {path}")
    for msg in run.failures:
        print(f"criterion failure: {msg}", file=sys.stderr)
    return 0 if run.ok() else 1


def _cmd_micro(vals: dict, args) -> int:
    from .micro import MicroConfig, run_micro

    sc = _scenario_from(vals)
    eps = _single_eps(vals, 1 / 16)
    cfg = MicroConfig(sc, eps, dt=step_of(vals.get("dt_rule", "h")),
                      **_given(vals, MicroConfig))
    run = run_micro(cfg)
    grid = run.model
    ii, jj = np.nonzero(grid.mask)
    centers = np.column_stack(((ii + 0.5) * grid.h, (jj + 0.5) * grid.h))
    # the headers state the run's eps: the flag's or the default
    return _write_run({**vals, "epsilon_list": (eps,)}, "micro",
                      ("scenario", "a", "epsilon_list", "r", "cells_per_eps",
                       "T", "dt_rule", *COEFF_KEYS),
                      run, centers, run.final_state.l[ii, jj])


def _cmd_macro(vals: dict, args) -> int:
    from .cell_problem import check_cell_grid, tensor_field
    from .macro import MacroConfig, assemble_macro, macro_nodes, run_macro

    sc = _scenario_from(vals)
    fld = _read_tensor_csv(args.tensors) if args.tensors else None
    # H has no default in MacroConfig
    cfg = MacroConfig(sc, dt=step_of(vals.get("dt_rule", "h")),
                      **{"H": 1 / 32, **_given(vals, MacroConfig)})
    # a coarse Nc is rejected even when a tensor file brings the field
    N_c = vals.get("Nc", 64)
    check_cell_grid(N_c)
    if fld is None:
        fld = tensor_field(macro_nodes(cfg), sc.suite.A, sc.transform,
                           sc.cell, N_c=N_c)
    run = run_macro(assemble_macro(cfg, fld))
    # the headers state the field's N_c: the flag's, the default or the
    # tensor file's
    return _write_run({**vals, "Nc": fld.N_c}, "macro",
                      ("scenario", "a", "H", "T", "dt_rule", "nGamma", "Nc",
                       *COEFF_KEYS),
                      run, macro_nodes(cfg), run.final_state.l.ravel())


# ------------------------------------------------------------ converge

def _cmd_converge(vals: dict, args) -> int:
    from .harness import StudyConfig, convergence_study, write_convergence_csv

    sc = _scenario_from(vals)
    report = convergence_study(StudyConfig(sc, **_given(vals, StudyConfig)))
    path = _out_path(vals, "convergence.csv")
    write_convergence_csv(report, path)
    print(f"wrote {path}")
    for row in report.rows:
        state = "ok" if row.passed else f"FAIL ({row.error})"
        print(f"epsilon={row.epsilon:g}: E={row.E:.6e} "
              f"energy_gap={row.energy_gap:.6e} lts_gap={row.lts_gap:.6e} "
              f"{state}")
    print(f"verdict: {'pass' if report.passed else 'fail'} "
          f"(monotone={report.monotone})")
    return 0 if report.passed else 1


# ------------------------------------------------------------- parser

# the subcommands: help, handler and flags in declaration order after the
# common ones. A configuration key is named by its key, a plain flag,
# which sets no key, by its option string
_COMMON = ("--config", "scenario", "a", "outdir")
_COMMANDS = {
    "geom": ("partition and lattice summary", _cmd_geom,
             ("epsilon_list", "r")),
    "check-unfold": ("unfolding identity suite", _cmd_check_unfold,
                     ("epsilon_list", "r", "nGamma")),
    "cell": ("effective tensors at macro points", _cmd_cell,
             ("--points", "Nc")),
    "micro": ("one microscopic solve", _cmd_micro,
              ("epsilon_list", "r", "cells_per_eps", "T", "dt_rule")),
    "macro": ("one homogenized solve", _cmd_macro,
              ("H", "T", "dt_rule", "nGamma", "Nc", "--tensors")),
    "converge": ("epsilon-sweep convergence study", _cmd_converge,
                 ("epsilon_list", "r", "cells_per_eps", "Nc", "H", "nGamma",
                  "T", "dt_rule")),
}
_PLAIN_FLAGS = {
    "--config": {"help": "flat key=value configuration file"},
    "--points": {"help": "semicolon-separated x1,x2 pairs"},
    "--tensors": {"help": "precomputed tensor CSV (cell output)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lphom",
        description="locally periodic homogenization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in _COMMON + flags:
            if flag in _KEYS:
                k = _KEYS[flag]
                p.add_argument(k.flag, dest=flag, type=k.parse, help=k.help)
            else:
                p.add_argument(flag, **_PLAIN_FLAGS[flag])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        vals = load_config_file(args.config) if args.config else {}
        for key in _KEYS:
            if getattr(args, key, None) is not None:
                vals[key] = getattr(args, key)
        return _COMMANDS[args.command][1](vals, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
