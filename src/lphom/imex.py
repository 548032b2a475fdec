"""One IMEX time-stepping driver for the micro and macro models.

Both integrate ligand diffusion by backward Euler, factorized once per run,
with explicit reactions and receptor exchange from the step-start state.
A model supplies what differs: config (the run's T, dt and suite), width
(mesh width, the default step), sigma (largest surface density, for the
L-infinity barrier), factor(dt), step(st, lu, dt) -> (next State, ligand
added per unit time), initial_state(), observe(st) -> (fluid ligand values,
energy, rf_mass, rb_mass) and mass(st).
The driver owns the explicit-budget check, the sampling windows, the
positivity and barrier checks and the mass ledger, checked on every step.
numpy only: each model factorizes through its own module.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

LEDGER_TOL = 1e-10      # relative mass-ledger residual allowed per step
N_SAMPLES = 20          # sampling windows of every run
OBSERVABLES = ("t", "l2_norm", "min_l", "max_l", "energy", "rf_mass",
               "rb_mass")


@dataclass
class State:
    t: float
    l: np.ndarray            # ligand on the model's grid
    r_f: np.ndarray          # free receptors per surface point
    r_b: np.ndarray          # bound receptors per surface point


@dataclass
class Run:
    """Trajectory observables and the final state of one solve."""

    config: Any                 # the model's config
    model: Any                  # MicroGrid or MacroOperator
    observables: dict           # one array per name in OBSERVABLES
    final_state: State
    barrier_M: float
    barrier_B: float
    ledger_max: float = 0.0     # largest relative mass-ledger residual
    failures: list = field(default_factory=list)
    fields: Optional[list] = None       # fluid ligand values at sample
                                        # times, as observe returns them

    def ok(self) -> bool:
        return not self.failures


def receptors(s, l_trace, st: State, dt: float):
    """Exchange rate and the explicit receptor update at the ligand trace."""
    exchange = s.beta * st.r_b - s.alpha * l_trace * st.r_f
    r_f = st.r_f + dt * (s.p(st.r_b) - s.alpha * l_trace * st.r_f
                         + s.beta * st.r_b - s.df * st.r_f)
    r_b = st.r_b + dt * (s.alpha * l_trace * st.r_f
                         - s.beta * st.r_b - s.db * st.r_b)
    return exchange, r_f, r_b


def advance(st: State, dt: float, l_new, r_f, r_b) -> State:
    """The state after one step; a non-finite field aborts the run."""
    for name, arr in (("ligand", l_new), ("free receptors", r_f),
                      ("bound receptors", r_b)):
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"{name} field became non-finite at "
                               f"t={st.t + dt:.6g}")
    return State(t=st.t + dt, l=l_new.reshape(st.l.shape), r_f=r_f, r_b=r_b)


def barrier_rate(s, sigma: float, M: float) -> float:
    """Additive growth rate of max l from the a priori bound constants."""
    if s.mu3 > 0.0:
        f_sup, f_lin = s.mu1 / s.mu3, 0.0
    else:
        f_sup, f_lin = 0.0, s.mu1 / max(s.mu2, 1e-300)
    rate = f_sup + s.beta * s.receptor_bound * sigma
    return f_lin + rate / max(M, 1e-9)


def check_times(T: float, dt: Optional[float]) -> None:
    """Reject a final time that is not finite and nonnegative, or a step
    that is given but not finite and positive."""
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"final time must be finite and nonnegative, "
                         f"got {T!r}")
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")


def step_of(rule: str) -> Optional[float]:
    """The step a dt_rule sets: None for "h", each run then stepping with
    its model's width, or the rule's number, finite and positive."""
    if rule == "h":
        return None
    try:
        dt = float(rule)
    except (TypeError, ValueError):
        dt = math.nan
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt_rule must be 'h' or a finite positive number, "
                         f"got {rule!r}")
    return dt


def check_budget(suite, dt: float) -> None:
    """Reject a step that takes the explicit reactions over budget."""
    if dt * suite.bulk_lipschitz > 0.5:
        raise ValueError(f"dt={dt:g} exceeds the explicit reaction "
                         f"budget 0.5/{suite.bulk_lipschitz:g}")


def schedule(model):
    """(n_sub, dt, lu): sub-steps per sampling window, step, factorization.

    T and dt come from the model's config; the step defaults to the
    model's width and must keep the explicit reactions within budget.
    """
    config = model.config
    if config.T <= 0.0:
        return 0, 0.0, None
    dt_req = config.dt if config.dt is not None else model.width
    check_budget(config.suite, dt_req)
    window = config.T / N_SAMPLES
    n_sub = max(1, int(math.ceil(window / dt_req - 1e-12)))
    dt = window / n_sub
    return n_sub, dt, model.factor(dt)


def integrate(model, plan, keep_fields: bool,
              stop: Optional[threading.Event]) -> Run:
    """Step a scheduled model to its config's T, recording at every
    window's end.

    With keep_fields, the fluid ligand values that model.observe returns
    are kept at every sample time (run.fields); observe must return an
    array that no later step writes. Once stop, if given, is set, the next
    step raises a RuntimeError instead.
    """
    n_sub, dt, lu = plan
    state = model.initial_state()
    M = float(state.l.max(initial=0.0))
    B = barrier_rate(model.config.suite, model.sigma, M)
    area = model.width**2
    rows: list = []
    failures: list = []
    snapshots: Optional[list] = [] if keep_fields else None

    def record(st: State):
        lf, energy, rf_mass, rb_mass = model.observe(st)
        if snapshots is not None:
            snapshots.append(lf)
        mn, mx = float(lf.min()), float(lf.max())
        rows.append((st.t, math.sqrt(float(np.sum(lf**2)) * area), mn, mx,
                     energy, rf_mass, rb_mass))
        if mn < -1e-12 or st.r_f.min(initial=0.0) < -1e-12 \
                or st.r_b.min(initial=0.0) < -1e-12:
            failures.append(f"negative concentration at t={st.t:.6g}")
        barrier = max(M, 1e-9) * math.exp(min(B * st.t, 700.0)) + 1e-6
        if mx > barrier:
            failures.append(f"L-infinity barrier violated at t={st.t:.6g}")

    record(state)
    ledger_max, m0 = 0.0, model.mass(state)
    for _ in range(N_SAMPLES if n_sub else 0):
        worst = (0.0, state.t)          # the window's largest residual
        for _ in range(n_sub):
            if stop is not None and stop.is_set():
                raise RuntimeError(f"run stopped at t={state.t:.6g}")
            state, source = model.step(state, lu, dt)
            m1 = model.mass(state)
            res = abs(m1 - m0 - dt * source) / max(abs(m0), abs(m1), 1e-300)
            worst, m0 = max(worst, (res, state.t)), m1
        ledger_max = max(ledger_max, worst[0])
        if worst[0] > LEDGER_TOL:
            failures.append("mass ledger residual %.3g at t=%.6g" % worst)
        record(state)

    observables = dict(zip(OBSERVABLES, map(np.array, zip(*rows))))
    return Run(config=model.config, model=model, observables=observables,
               final_state=state, barrier_M=M, barrier_B=B,
               ledger_max=ledger_max, failures=failures, fields=snapshots)
