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
from dataclasses import replace
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

# the solver modules (cell_problem, harness, macro, micro) load scipy's
# sparse solvers, so each command imports them itself: geom and
# check-unfold run on numpy alone
from .geometry import build_partition
from .imex import OBSERVABLES
from .scenarios import SCENARIO_NAMES, CoefficientSuite, get_scenario
from .unfolding import (
    GammaQuadrature,
    check_boundary_identity,
    check_integration_identity,
    grid_function_from_callable,
    lattice_pwc_field,
)

if TYPE_CHECKING:
    from .cell_problem import EffectiveTensorField

COEFF_KEYS = ("mu1", "mu2", "mu3", "kappa1", "kappa2", "kappa3",
              "alpha", "beta", "dl", "df", "db")
FLOAT_KEYS = ("r", "H", "T", "a") + COEFF_KEYS
INT_KEYS = ("cells_per_eps", "Nc", "nGamma")
STR_KEYS = ("scenario", "dt_rule", "outdir")
CONFIG_KEYS = frozenset(("epsilon_list",) + FLOAT_KEYS + INT_KEYS + STR_KEYS)


class UsageError(argparse.ArgumentTypeError):
    """Bad invocation or configuration; maps to exit code 2.

    An ArgumentTypeError, so that argparse reports one raised by a type=
    converter as an error on its flag; main reports the others.
    """


def _number(text: str) -> float:
    """Parse a decimal or a fraction like 1/8."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a number: {text!r}") from None


def _eps_list(text: str) -> tuple:
    vals = tuple(_number(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise UsageError("empty epsilon list")
    return vals


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
        if key not in CONFIG_KEYS:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(valid keys: {', '.join(sorted(CONFIG_KEYS))})")
        if key == "epsilon_list":
            vals[key] = _eps_list(val)
        elif key in FLOAT_KEYS:
            vals[key] = _number(val)
        elif key in INT_KEYS:
            try:
                vals[key] = int(val)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: {key} must be an integer") from None
        else:
            vals[key] = val
    return vals


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
        for s in part.subdomains:
            row = [_fmt(eps), str(s.n), str(s.k[0]), str(s.k[1]),
                   _fmt(s.anchor[0]), _fmt(s.anchor[1]),
                   _fmt(s.shift[0]), _fmt(s.shift[1]), _fmt(s.detD),
                   str(len(s.xi_hat)), str(len(s.xi_all))]
            lines.append(",".join(row))
    path = _out_path(vals, "geom.csv")
    _write_lines(path, lines)
    print(f"wrote {path}")
    return 0


# -------------------------------------------------------- check-unfold

def _pwc_identity(part):
    """A field constant on each lattice cell is integrated exactly."""
    lo, hi = np.zeros(2), np.ones(2)
    keys = [(s.n, tuple(xi)) for s in part.subdomains for xi in s.xi_hat.tolist()]
    draws = np.random.default_rng(7).uniform(-1.0, 1.0, size=len(keys))
    table = dict(zip(keys, draws.tolist()))
    h_pwc = 1.0 / max(64, 8 * int(round(1.0 / part.eps)))
    phi_pwc = lattice_pwc_field(part, table, lo, hi, h_pwc)
    return check_integration_identity(phi_pwc, part, 4, eval_mode="exact")


def _unfold_tasks(part, quad: GammaQuadrature, smooth) -> list:
    """The independent checks of one partition, each returning (lhs, rhs,
    gap): piecewise constant, smooth at m_y = 4 and 8, boundary."""
    return [
        lambda: _pwc_identity(part),
        lambda: check_integration_identity(smooth, part, 4, eval_mode="exact"),
        lambda: check_integration_identity(smooth, part, 8, eval_mode="exact"),
        lambda: check_boundary_identity(lambda X: 1.0 + X[:, 0], part, quad),
    ]


def _cmd_check_unfold(vals: dict, args) -> int:
    # imported here, like the solver modules, so that no other command
    # loads it
    from concurrent.futures import ThreadPoolExecutor

    sc = _scenario_from(vals)
    eps_list = vals.get("epsilon_list", (1 / 8, 1 / 16, 1 / 32))
    r = vals.get("r", 0.5)
    lo, hi = np.zeros(2), np.ones(2)
    # the boundary quadrature does not depend on eps; building it first
    # rejects a bad nGamma before any partition is built, and building
    # every partition rejects a bad eps before any check starts
    quad = GammaQuadrature(sc.cell, vals.get("nGamma", 16))
    parts = [build_partition((lo, hi), eps, r, sc.transform)
             for eps in eps_list]
    smooth = grid_function_from_callable(
        lambda X: np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1]),
        lo, hi, 1 / 128, keep_exact=True)
    # the checks only read the partitions, so they share one pool, finest
    # eps (the longest checks) first; results are read in row order
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        futures = [None] * len(parts)
        for k in sorted(range(len(parts)), key=lambda k: eps_list[k]):
            futures[k] = [pool.submit(task) for task in
                          _unfold_tasks(parts[k], quad, smooth)]
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
    lines = _provenance(vals, ("scenario", "a", "Nc"))
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

    pts, tens, theta, resid, nc = [], [], [], [], 0
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
        nc = int(parts[8])
    if not pts:
        raise UsageError(f"tensor file {path} has no data rows")
    m = len(pts)
    return EffectiveTensorField(points=np.array(pts), tensors=np.array(tens),
                                theta=np.array(theta), residual=np.array(resid),
                                N_c=nc, errors=[None] * m)


# -------------------------------------------------------- micro / macro

def _series_lines(vals: dict, prov_keys, observables: dict) -> list:
    lines = _provenance(vals, prov_keys)
    lines.append(",".join(OBSERVABLES))
    n = len(observables["t"])
    for i in range(n):
        lines.append(",".join(_fmt(float(observables[c][i]))
                              for c in OBSERVABLES))
    return lines


def _dt_from(vals: dict, args) -> Optional[float]:
    # --dt wins; otherwise a numeric dt_rule key; "h" means solver default
    if getattr(args, "dt", None) is not None:
        return args.dt
    rule = vals.get("dt_rule", "h")
    if rule == "h":
        return None
    try:
        dt = float(rule)
    except ValueError:
        raise UsageError(f"dt_rule must be 'h' or a number, got {rule!r}") \
            from None
    return dt


def _cmd_micro(vals: dict, args) -> int:
    from .micro import MicroConfig, run_micro

    sc = _scenario_from(vals)
    eps = _single_eps(vals, 1 / 16)
    cfg = MicroConfig(sc, eps, r=vals.get("r", 0.5),
                      cells_per_eps=vals.get("cells_per_eps", 15),
                      T=vals.get("T", 0.5), dt=_dt_from(vals, args))
    run = run_micro(cfg, n_samples=20)

    prov = ("scenario", "a", "r", "cells_per_eps", "T", "dt_rule")
    series = _out_path(vals, "micro_series.csv")
    _write_lines(series, _series_lines(vals, prov, run.observables))
    grid = run.model
    ii, jj = np.nonzero(grid.mask)
    lines = _provenance(vals, prov)
    lines.append("x1,x2,l")
    lf = run.final_state.l
    for i, j in zip(ii, jj):
        lines.append(",".join(_fmt(v) for v in
                              ((i + 0.5) * grid.h, (j + 0.5) * grid.h,
                               lf[i, j])))
    fieldp = _out_path(vals, "micro_field.csv")
    _write_lines(fieldp, lines)
    print(f"wrote {series}\nwrote {fieldp}")
    if not run.ok():
        for msg in run.failures:
            print(f"criterion failure: {msg}", file=sys.stderr)
        return 1
    return 0


def _cmd_macro(vals: dict, args) -> int:
    from .macro import MacroConfig, macro_nodes, run_macro

    sc = _scenario_from(vals)
    tensors = _read_tensor_csv(args.tensors) if args.tensors else None
    cfg = MacroConfig(sc, H=vals.get("H", 1 / 32), T=vals.get("T", 0.5),
                      dt=_dt_from(vals, args), n_gamma=vals.get("nGamma", 16),
                      tensors=tensors, N_c=vals.get("Nc", 64))
    run = run_macro(cfg, n_samples=20)

    prov = ("scenario", "a", "H", "T", "dt_rule", "nGamma", "Nc")
    series = _out_path(vals, "macro_series.csv")
    _write_lines(series, _series_lines(vals, prov, run.observables))
    nodes = macro_nodes(cfg)
    lines = _provenance(vals, prov)
    lines.append("x1,x2,l")
    lf = run.final_state.l.ravel()
    for p in range(len(nodes)):
        lines.append(",".join(_fmt(v) for v in
                              (nodes[p, 0], nodes[p, 1], lf[p])))
    fieldp = _out_path(vals, "macro_field.csv")
    _write_lines(fieldp, lines)
    print(f"wrote {series}\nwrote {fieldp}")
    if not run.ok():
        for msg in run.failures:
            print(f"criterion failure: {msg}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------ converge

def _cmd_converge(vals: dict, args) -> int:
    from .harness import StudyConfig, convergence_study, write_convergence_csv

    sc = _scenario_from(vals)
    study = StudyConfig(
        scenario=sc,
        eps_list=vals.get("epsilon_list", (1 / 8, 1 / 16, 1 / 32)),
        r=vals.get("r", 0.5),
        cells_per_eps=vals.get("cells_per_eps", 15),
        N_c=vals.get("Nc", 128),
        H=vals.get("H", 1 / 32),
        n_gamma=vals.get("nGamma", 16),
        T=vals.get("T", 0.5),
        dt_rule=vals.get("dt_rule", "h"),
    )
    report = convergence_study(study)
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

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--scenario", dest="scenario",
                   help=f"one of: {', '.join(SCENARIO_NAMES)}")
    p.add_argument("--a", dest="a", type=_number,
                   help="inclusion radius (0 disables perforation)")
    p.add_argument("--outdir", dest="outdir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lphom",
        description="locally periodic homogenization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geom", help="partition and lattice summary")
    _add_common(p)
    p.add_argument("--eps", dest="epsilon_list", type=_eps_list)
    p.add_argument("--r", dest="r", type=_number)

    p = sub.add_parser("check-unfold", help="unfolding identity suite")
    _add_common(p)
    p.add_argument("--eps", dest="epsilon_list", type=_eps_list)
    p.add_argument("--r", dest="r", type=_number)
    p.add_argument("--n-gamma", dest="nGamma", type=int)

    p = sub.add_parser("cell", help="effective tensors at macro points")
    _add_common(p)
    p.add_argument("--points", help="semicolon-separated x1,x2 pairs")
    p.add_argument("--Nc", dest="Nc", type=int)

    p = sub.add_parser("micro", help="one microscopic solve")
    _add_common(p)
    p.add_argument("--eps", dest="epsilon_list", type=_eps_list)
    p.add_argument("--r", dest="r", type=_number)
    p.add_argument("--cells-per-eps", dest="cells_per_eps", type=int)
    p.add_argument("--T", dest="T", type=_number)
    p.add_argument("--dt", dest="dt", type=_number)

    p = sub.add_parser("macro", help="one homogenized solve")
    _add_common(p)
    p.add_argument("--H", dest="H", type=_number)
    p.add_argument("--T", dest="T", type=_number)
    p.add_argument("--dt", dest="dt", type=_number)
    p.add_argument("--n-gamma", dest="nGamma", type=int)
    p.add_argument("--Nc", dest="Nc", type=int)
    p.add_argument("--tensors", help="precomputed tensor CSV (cell output)")

    p = sub.add_parser("converge", help="epsilon-sweep convergence study")
    _add_common(p)
    p.add_argument("--eps", dest="epsilon_list", type=_eps_list)
    p.add_argument("--r", dest="r", type=_number)
    p.add_argument("--cells-per-eps", dest="cells_per_eps", type=int)
    p.add_argument("--Nc", dest="Nc", type=int)
    p.add_argument("--H", dest="H", type=_number)
    p.add_argument("--n-gamma", dest="nGamma", type=int)
    p.add_argument("--T", dest="T", type=_number)
    p.add_argument("--dt-rule", dest="dt_rule")

    return parser


_HANDLERS = {
    "geom": _cmd_geom,
    "check-unfold": _cmd_check_unfold,
    "cell": _cmd_cell,
    "micro": _cmd_micro,
    "macro": _cmd_macro,
    "converge": _cmd_converge,
}

_MERGE_KEYS = ("scenario", "a", "outdir", "epsilon_list", "r", "nGamma",
               "cells_per_eps", "Nc", "H", "T", "dt_rule")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        vals: dict = {}
        if args.config:
            vals.update(load_config_file(args.config))
        for key in _MERGE_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                vals[key] = flag
        return _HANDLERS[args.command](vals, args)
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
