"""Convergence study driver: micro runs across epsilon against one macro run.

The study solves the homogenized problem once (with the effective tensor
field computed once on the macro nodes) and the resolved microscopic problem
for every epsilon in the list, then reports per-epsilon comparison metrics:

  E            relative space-time L2 distance between the micro ligand and
               the macro ligand sampled at the micro fluid-cell centers
  energy_*     time integral of the Dirichlet energy observable of each run
  energy_gap   absolute difference of the two energy integrals
  lts_gap      relative mismatch of the bound-receptor surface pairing
               against the test function 1 + x1 at the final time

The verdict is monotonicity: E must decrease strictly along the epsilon
list (which the config requires to be strictly decreasing itself).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .cell_problem import tensor_field
from .macro import MacroConfig, MacroRun, assemble_macro, macro_nodes, run_macro
from .micro import MicroConfig, MicroRun, run_micro
from .scenarios import Scenario

__all__ = [
    "StudyConfig",
    "EpsilonResult",
    "ConvergenceReport",
    "convergence_study",
    "write_convergence_csv",
]


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one convergence study.

    dt_rule is either "h" (each solver steps with its own mesh width, the
    macro run with the finest micro width so its time error does not set
    the floor of E) or a decimal literal used verbatim by every run.
    """

    scenario: Scenario
    eps_list: Tuple[float, ...] = (1 / 8, 1 / 16, 1 / 32)
    r: float = 0.5
    cells_per_eps: int = 15
    N_c: int = 128
    H: float = 1 / 32
    n_gamma: int = 16
    T: float = 0.5
    dt_rule: str = "h"
    n_samples: int = 20
    outdir: Optional[str] = None

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        object.__setattr__(self, "eps_list", eps)
        if not eps:
            raise ValueError("epsilon list must not be empty")
        if any(not 0.0 < e < 1.0 for e in eps):
            raise ValueError("every epsilon must lie in (0, 1)")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon list must be strictly decreasing")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.dt_rule != "h":
            try:
                dt = float(self.dt_rule)
            except ValueError:
                raise ValueError(
                    f"dt_rule must be 'h' or a positive number, got "
                    f"{self.dt_rule!r}") from None
            if dt <= 0.0:
                raise ValueError("a numeric dt_rule must be positive")
        # the sub-configs own the remaining range checks; building them here
        # rejects a bad study before any solve starts
        for e in eps:
            MicroConfig(self.scenario, e, r=self.r,
                        cells_per_eps=self.cells_per_eps, T=self.T,
                        dt=self.micro_dt(e))
        MacroConfig(self.scenario, H=self.H, T=self.T, dt=self.macro_dt(),
                    n_gamma=self.n_gamma, N_c=self.N_c)

    def micro_dt(self, eps: float) -> float:
        if self.dt_rule == "h":
            return eps / self.cells_per_eps
        return float(self.dt_rule)

    def macro_dt(self) -> float:
        if self.dt_rule == "h":
            return min(self.micro_dt(e) for e in self.eps_list)
        return float(self.dt_rule)


@dataclass
class EpsilonResult:
    """Comparison metrics for one epsilon, or an explicit failure record."""

    epsilon: float
    E: float = math.nan
    energy_micro: float = math.nan
    energy_macro: float = math.nan
    energy_gap: float = math.nan
    lts_gap: float = math.nan
    passed: bool = False
    error: Optional[str] = None


@dataclass
class ConvergenceReport:
    study: StudyConfig
    rows: List[EpsilonResult]
    monotone: bool
    total_drop: float           # E(first) / E(last), nan if any row failed
    passed: bool
    macro_run: Optional[MacroRun] = None
    micro_runs: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return self.passed


def _sample_bilinear(values: np.ndarray, H: float, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a cell-centered field at arbitrary points.

    Outside the center lattice the fractional coordinate is clamped, a
    constant extension consistent with the zero-flux walls.
    """
    n = values.shape[0]
    u = pts / H - 0.5
    i0 = np.clip(np.floor(u[:, 0]).astype(int), 0, max(n - 2, 0))
    j0 = np.clip(np.floor(u[:, 1]).astype(int), 0, max(n - 2, 0))
    if n == 1:
        return np.full(len(pts), values[0, 0])
    fx = np.clip(u[:, 0] - i0, 0.0, 1.0)
    fy = np.clip(u[:, 1] - j0, 0.0, 1.0)
    f00 = values[i0, j0]
    f10 = values[i0 + 1, j0]
    f01 = values[i0, j0 + 1]
    f11 = values[i0 + 1, j0 + 1]
    return ((1 - fx) * (1 - fy) * f00 + fx * (1 - fy) * f10
            + (1 - fx) * fy * f01 + fx * fy * f11)


def _time_integral(vals, ts) -> float:
    vals = np.asarray(vals, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if len(ts) < 2:
        return float(vals[0]) if len(ts) else 0.0
    return float(np.trapezoid(vals, ts))


def _receptor_pairing_micro(run: MicroRun) -> float:
    # eps * sum over boundary faces of r_b * face length * (1 + x1)
    faces = run.grid.faces
    if len(faces.length) == 0:
        return 0.0
    phi = 1.0 + faces.midpoint[:, 0]
    return run.config.eps * float(np.sum(
        run.final_state.r_b * faces.length * phi))


def _receptor_pairing_macro(run: MacroRun) -> float:
    # per node: H^2 * (1 + x1) * (quadrature-weighted r_b) / cell measure
    op = run.operator
    if op.gamma_w.shape[1] == 0:
        return 0.0
    phi = 1.0 + op.nodes[:, 0]
    per_node = np.sum(op.gamma_w * run.final_state.r_b, axis=1) / op.cell_measure
    return float(op.H ** 2 * np.sum(phi * per_node))


def _compare(mic: MicroRun, mac: MacroRun) -> EpsilonResult:
    ts = mic.observables["t"]
    if not np.allclose(ts, mac.observables["t"], atol=1e-12):
        raise RuntimeError("micro and macro sample times diverged")

    grid = mic.grid
    ii, jj = np.nonzero(grid.mask)
    pts = np.column_stack(((ii + 0.5) * grid.h, (jj + 0.5) * grid.h))
    h2 = grid.h ** 2
    H = mac.config.H

    num, den = [], []
    for lm_field, le_field in zip(mac.fields, mic.fields):
        lm = _sample_bilinear(lm_field, H, pts)
        le = le_field[grid.mask]
        num.append(float(np.sum((le - lm) ** 2)) * h2)
        den.append(float(np.sum(lm ** 2)) * h2)
    den_int = _time_integral(den, ts)
    if den_int <= 0.0:
        raise RuntimeError("macro ligand vanishes, E is undefined")
    E = math.sqrt(_time_integral(num, ts) / den_int)

    e_mic = _time_integral(mic.observables["energy"], ts)
    e_mac = _time_integral(mac.observables["energy"], ts)

    p_mic = _receptor_pairing_micro(mic)
    p_mac = _receptor_pairing_macro(mac)
    lts_gap = abs(p_mic - p_mac) / max(abs(p_mac), 1e-30)

    notes = []
    if not mic.ok():
        notes.append("micro: " + "; ".join(mic.failures))
    if not mac.ok():
        notes.append("macro: " + "; ".join(mac.failures))
    return EpsilonResult(epsilon=mic.config.eps, E=E,
                         energy_micro=e_mic, energy_macro=e_mac,
                         energy_gap=abs(e_mic - e_mac), lts_gap=lts_gap,
                         passed=not notes,
                         error="; ".join(notes) if notes else None)


def convergence_study(study: StudyConfig, max_workers: int = 3) -> ConvergenceReport:
    """Run the full study. Sub-run failures become per-epsilon records.

    The macro job (tensor field, assembly, run) and the micro runs share one
    thread pool, since the micro runs do not need the tensors; the micro
    runs are submitted finest epsilon first, the longest first.
    """
    sc = study.scenario

    def macro_job() -> MacroRun:
        mac_cfg = MacroConfig(sc, H=study.H, T=study.T, dt=study.macro_dt(),
                              n_gamma=study.n_gamma, N_c=study.N_c)
        mac_cfg.tensors = tensor_field(macro_nodes(mac_cfg), sc.suite.A,
                                       sc.transform, sc.cell, N_c=study.N_c)
        op = assemble_macro(mac_cfg)
        return run_macro(mac_cfg, op=op, n_samples=study.n_samples,
                         keep_fields=True)

    def micro_job(eps: float) -> MicroRun:
        cfg = MicroConfig(sc, eps, r=study.r,
                          cells_per_eps=study.cells_per_eps, T=study.T,
                          dt=study.micro_dt(eps))
        return run_micro(cfg, n_samples=study.n_samples, keep_fields=True)

    mac_run: Optional[MacroRun] = None
    macro_error: Optional[str] = None
    micro_runs: dict = {}
    rows = []
    workers = max(1, min(max_workers, len(study.eps_list) + 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        macro_future = pool.submit(macro_job)
        micro_futures = {eps: pool.submit(micro_job, eps)
                         for eps in sorted(study.eps_list)}
        try:
            mac_run = macro_future.result()
        except Exception as exc:                    # noqa: BLE001
            macro_error = f"macro run failed: {exc}"
            for fut in micro_futures.values():
                fut.cancel()
        for eps in study.eps_list:
            if macro_error is not None:
                rows.append(EpsilonResult(epsilon=eps, error=macro_error))
                continue
            try:
                mic = micro_futures[eps].result()
                micro_runs[eps] = mic
                rows.append(_compare(mic, mac_run))
            except Exception as exc:                # noqa: BLE001
                rows.append(EpsilonResult(epsilon=eps,
                                          error=f"micro run failed: {exc}"))

    all_passed = all(r.passed for r in rows)
    Es = [r.E for r in rows]
    monotone = all_passed and all(b < a for a, b in zip(Es, Es[1:]))
    total_drop = Es[0] / Es[-1] if all_passed and Es[-1] > 0 else math.nan
    return ConvergenceReport(study=study, rows=rows, monotone=monotone,
                             total_drop=total_drop,
                             passed=all_passed and monotone,
                             macro_run=mac_run, micro_runs=micro_runs)


def convergence_csv_lines(report: ConvergenceReport) -> List[str]:
    """Render the report as CSV lines with a commented provenance header."""
    st = report.study
    lines = [
        f"# scenario={st.scenario.name}",
        f"# r={st.r!r}",
        f"# cells_per_eps={st.cells_per_eps}",
        f"# Nc={st.N_c}",
        f"# H={st.H!r}",
        f"# nGamma={st.n_gamma}",
        f"# T={st.T!r}",
        f"# dt_rule={st.dt_rule}",
        f"# n_samples={st.n_samples}",
        "epsilon,E,energy_micro,energy_macro,energy_gap,lts_gap,pass",
    ]
    for row in report.rows:
        vals = (row.epsilon, row.E, row.energy_micro, row.energy_macro,
                row.energy_gap, row.lts_gap)
        lines.append(",".join(f"{v:.12e}" for v in vals)
                     + ("," + ("true" if row.passed else "false")))
    for row in report.rows:
        if row.error is not None:
            lines.append(f"# fail[epsilon={row.epsilon!r}]: {row.error}")
    lines.append(f"# verdict={'pass' if report.passed else 'fail'}")
    return lines


def write_convergence_csv(report: ConvergenceReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(convergence_csv_lines(report)) + "\n")
