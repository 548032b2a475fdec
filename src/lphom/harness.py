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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .cell_problem import check_cell_grid, tensor_field
from .imex import N_SAMPLES, Run, check_budget, step_of
from .macro import MacroConfig, assemble_macro, macro_nodes, run_macro
from .micro import MicroConfig, run_micro
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

    dt_rule, parsed by imex.step_of, is either "h" (each micro run steps
    with its grid width, the macro run with the finest micro width so its
    time error does not set the floor of E) or a decimal literal used
    verbatim by every run.
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

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        object.__setattr__(self, "eps_list", eps)
        if not eps:
            raise ValueError("epsilon list must not be empty")
        if any(not 0.0 < e < 1.0 for e in eps):
            raise ValueError("every epsilon must lie in (0, 1)")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon list must be strictly decreasing")
        dt = step_of(self.dt_rule)
        # the run configs own the remaining range checks; building them here
        # rejects a bad study before any solve starts
        for e in eps:
            self.micro_config(e)
        self.macro_config()
        check_cell_grid(self.N_c)
        # the explicit budget of imex.schedule, on the largest step of any
        # run: under "h" the coarsest micro width
        if self.T > 0.0:
            check_budget(self.scenario.suite,
                         dt if dt is not None else self.micro_config(eps[0]).h)

    def micro_config(self, eps: float) -> MicroConfig:
        return MicroConfig(self.scenario, eps, r=self.r,
                           cells_per_eps=self.cells_per_eps, T=self.T,
                           dt=step_of(self.dt_rule))

    def macro_config(self) -> MacroConfig:
        dt = step_of(self.dt_rule)
        if dt is None:
            dt = self.micro_config(self.eps_list[-1]).h
        return MacroConfig(self.scenario, H=self.H, T=self.T, dt=dt,
                           n_gamma=self.n_gamma)


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
    passed: bool
    macro_run: Optional[Run] = None
    micro_runs: dict = field(default_factory=dict)


def _bilinear_plan(n: int, H: float, pts: np.ndarray):
    """Corners and weights of bilinear interpolation at pts, for an n x n
    cell-centered field of spacing H: (flat index of the lower corner,
    (w00, w10, w01, w11)), or None when n == 1 and the one value is the
    field everywhere.

    Outside the center lattice the fractional coordinate is clamped, a
    constant extension consistent with the zero-flux walls.
    """
    if n == 1:
        return None
    u = pts / H - 0.5
    i0 = np.clip(np.floor(u[:, 0]).astype(int), 0, n - 2)
    j0 = np.clip(np.floor(u[:, 1]).astype(int), 0, n - 2)
    fx = np.clip(u[:, 0] - i0, 0.0, 1.0)
    fy = np.clip(u[:, 1] - j0, 0.0, 1.0)
    return i0 * n + j0, ((1 - fx) * (1 - fy), fx * (1 - fy),
                         (1 - fx) * fy, fx * fy)


def _sample_bilinear(values: np.ndarray, plan, n_pts: int) -> np.ndarray:
    """The (n, n) cell-centered field values at the points of a
    _bilinear_plan."""
    if plan is None:
        return np.full(n_pts, values[0, 0])
    k, (w00, w10, w01, w11) = plan
    n, v = values.shape[0], values.ravel()
    return (w00 * v[k] + w10 * v[k + n]
            + w01 * v[k + 1] + w11 * v[k + n + 1])


def _time_integral(vals, ts) -> float:
    vals = np.asarray(vals, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if len(ts) < 2:
        return float(vals[0]) if len(ts) else 0.0
    return float(np.trapezoid(vals, ts))


def _receptor_pairing_micro(run: Run) -> float:
    # eps * sum over boundary faces of r_b * face length * (1 + x1)
    faces = run.model.faces
    if len(faces.length) == 0:
        return 0.0
    phi = 1.0 + faces.midpoint[:, 0]
    return run.config.eps * float(np.sum(
        run.final_state.r_b * faces.length * phi))


def _receptor_pairing_macro(run: Run) -> float:
    # per node: H^2 * (1 + x1) * (quadrature-weighted r_b) / cell measure
    op = run.model
    if op.gamma_w.shape[1] == 0:
        return 0.0
    phi = 1.0 + op.nodes[:, 0]
    per_node = np.sum(op.gamma_w * run.final_state.r_b, axis=1) / op.cell_measure
    return float(op.H ** 2 * np.sum(phi * per_node))


def _compare(mic: Run, mac: Run) -> EpsilonResult:
    ts = mic.observables["t"]
    if not np.allclose(ts, mac.observables["t"], rtol=0.0, atol=1e-12):
        raise RuntimeError("micro and macro sample times diverged")

    # the micro fields hold the fluid cells in row-major order, as nonzero
    # lists them
    grid = mic.model
    ii, jj = np.nonzero(grid.mask)
    pts = np.column_stack(((ii + 0.5) * grid.h, (jj + 0.5) * grid.h))
    h2 = grid.h ** 2
    plan = _bilinear_plan(mac.model.n, mac.config.H, pts)

    num, den = [], []
    for lm_field, le in zip(mac.fields, mic.fields):
        lm = _sample_bilinear(lm_field, plan, len(pts))
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


def convergence_study(study: StudyConfig, max_workers: int = 2) -> ConvergenceReport:
    """Run the full study. Sub-run failures become per-epsilon records.

    With max_workers >= 2 the runs go in two lanes. Lane A, a worker
    thread, runs the finest micro run, the longest. Lane B, the calling
    thread, waits until that run's grid build and factorization have
    returned or raised, then runs the coarser micro runs one at a time,
    finest first, and then the macro job (tensor field, assembly, run):
    its largest set-up comes before any job has left heap behind under
    the finest factor. So nothing else runs during the finest set-up, whose
    factorization is the study's largest, and at most two runs are in
    progress at once: a third would raise the memory peak and slow the
    finest run's SuperLU solves, which share the process with it. A failed
    macro job stops the finest run at its next step, as no row can be
    compared without the macro run. max_workers=1 runs the macro job, so
    that its failure ends the study first, and then the micro runs finest
    first, on the calling thread. The rows do not depend on the schedule.
    """
    sc = study.scenario
    finest, *coarser = reversed(study.eps_list)

    def macro_job() -> Run:
        cfg = study.macro_config()
        fld = tensor_field(macro_nodes(cfg), sc.suite.A, sc.transform,
                           sc.cell, N_c=study.N_c)
        return run_macro(assemble_macro(cfg, fld), keep_fields=True)

    def micro_job(eps: float, set_up: Optional[threading.Event] = None,
                  stop: Optional[threading.Event] = None) -> Run:
        return run_micro(study.micro_config(eps), keep_fields=True,
                         set_up=set_up, stop=stop)

    def attempt(job, *args) -> tuple:
        # (run, None), or (None, the error message)
        try:
            return job(*args), None
        except Exception as exc:                    # noqa: BLE001
            return None, str(exc)

    if max_workers <= 1:
        # after a failed macro job no row can be compared, so the micro
        # runs are skipped
        mac_run, macro_error = attempt(macro_job)
        outcomes = {} if macro_error is not None else {
            eps: attempt(micro_job, eps) for eps in (finest, *coarser)}
    else:
        set_up, stop = threading.Event(), threading.Event()

        def lane_a() -> tuple:
            try:
                return attempt(micro_job, finest, set_up, stop)
            finally:                # a run that failed before its set-up
                set_up.set()

        with ThreadPoolExecutor(max_workers=1) as pool:
            finest_future = pool.submit(lane_a)
            set_up.wait()
            # lane B
            outcomes = {eps: attempt(micro_job, eps) for eps in coarser}
            mac_run, macro_error = attempt(macro_job)
            if macro_error is not None:
                stop.set()
            outcomes[finest] = finest_future.result()

    micro_runs: dict = {}
    rows = []
    for eps in study.eps_list:
        if macro_error is not None:
            rows.append(EpsilonResult(epsilon=eps,
                                      error=f"macro run failed: {macro_error}"))
            continue
        mic, error = outcomes[eps]
        if error is None:
            micro_runs[eps] = mic
            try:
                rows.append(_compare(mic, mac_run))
                continue
            except Exception as exc:                # noqa: BLE001
                error = str(exc)
        rows.append(EpsilonResult(epsilon=eps,
                                  error=f"micro run failed: {error}"))

    all_passed = all(r.passed for r in rows)
    Es = [r.E for r in rows]
    monotone = all_passed and all(b < a for a, b in zip(Es, Es[1:]))
    return ConvergenceReport(study=study, rows=rows, monotone=monotone,
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
        f"# n_samples={N_SAMPLES}",
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
