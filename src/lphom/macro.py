"""Homogenized signaling model on the unit square.

Porosity-weighted parabolic equation for the ligand with a space-dependent
effective tensor, coupled to receptor ODE fields resolved at quadrature
points on the reference perforation boundary of each macro node. Space:
flux-form finite volumes with a 9-point stencil (the off-diagonal tensor
entries add cross-derivative terms, one-sided next to the outer walls),
zero-flux closure. Time: MacroOperator is the second model of the
lphom.imex driver, the same IMEX splitting as the microscopic solver with
the porosity entering as the time-derivative weight; the driver checks the
mass ledger H^2 sum(theta l) on every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import imex
from .imex import Run, State
from .micro import face_dirichlet_form
from .scenarios import CoefficientSuite, Scenario
from .unfolding import GammaQuadrature

if TYPE_CHECKING:
    from .cell_problem import EffectiveTensorField


@dataclass(frozen=True)
class MacroConfig:
    """Run parameters for one homogenized solve."""

    scenario: Scenario
    H: float
    T: float = 0.5
    dt: Optional[float] = None          # default: dt = H
    n_gamma: int = 16

    def __post_init__(self):
        if not (0.0 < self.H <= 0.5):
            raise ValueError("macro spacing H must lie in (0, 1/2]")
        if abs(round(1.0 / self.H) - 1.0 / self.H) > 1e-9:
            raise ValueError("1/H must be an integer number of grid cells")
        imex.check_times(self.T, self.dt)
        if self.n_gamma < 4:
            raise ValueError("need at least 4 boundary quadrature points")

    @property
    def suite(self) -> CoefficientSuite:
        """The run's coefficients: its scenario's."""
        return self.scenario.suite

    @property
    def n_cells(self) -> int:
        return int(round(1.0 / self.H))


def macro_nodes(config: MacroConfig) -> np.ndarray:
    """Cell-center nodes of the macro grid, raveled row-major in (i, j)."""
    n = config.n_cells
    x = (np.arange(n) + 0.5) * config.H
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    return np.column_stack([X1.ravel(), X2.ravel()])


@dataclass
class MacroOperator:
    """Diffusion operator, porosity weights and Γ quadrature: the macro model.

    State.l is (n, n); r_f and r_b are (P, S), one value per node and
    boundary quadrature point.
    """

    config: MacroConfig
    n: int
    H: float
    nodes: np.ndarray        # (P, 2)
    theta: np.ndarray        # (P,) porosity weight of the time derivative
    tensors: np.ndarray      # (P, 2, 2)
    L: sp.csr_matrix         # discrete div(𝒜 grad), zero-flux closure
    gamma_w: np.ndarray      # (P, S) quadrature weights on the hole boundary
    cell_measure: np.ndarray  # (P,) measure of the local reference cell

    @property
    def gamma_measure(self) -> np.ndarray:
        # per-node boundary measure is defined as the quadrature total
        return self.gamma_w.sum(axis=1)

    @property
    def width(self) -> float:
        return self.H

    @property
    def sigma(self) -> float:
        """Largest surface density |Γ| / (θ |Y|) over the nodes."""
        if not self.gamma_w.shape[1]:
            return 0.0
        return float((self.gamma_measure
                      / (self.theta * self.cell_measure)).max())

    def factor(self, dt: float):
        return spla.splu((sp.diags(self.theta) - dt * self.L).tocsc())

    def initial_state(self) -> State:
        s = self.config.suite
        P, S = self.gamma_w.shape
        return State(t=0.0, l=np.full((self.n, self.n), float(s.l0)),
                     r_f=np.full((P, S), float(s.rf0)),
                     r_b=np.full((P, S), float(s.rb0)))

    def step(self, st: State, lu, dt: float):
        """One IMEX step, mirroring the microscopic update."""
        s = self.config.suite
        l = st.l.ravel()
        bulk = self.theta * (s.F(l) - s.dl * l)
        exchange, r_f, r_b = imex.receptors(s, l[:, None], st, dt)
        gain = bulk + (self.gamma_w * exchange).sum(axis=1) / self.cell_measure
        l_new = lu.solve(self.theta * l + dt * gain)
        return imex.advance(st, dt, l_new, r_f, r_b), \
            self.H**2 * float(np.sum(gain))

    def observe(self, st: State):
        surf = self.H**2 * self.gamma_w / self.cell_measure[:, None]
        return (st.l, macro_energy(st, self), float(np.sum(st.r_f * surf)),
                float(np.sum(st.r_b * surf)))

    def mass(self, st: State) -> float:
        return self.H**2 * float(np.sum(self.theta * st.l.ravel()))


def _flux_stencil(H: float, ann: np.ndarray, ant: np.ndarray,
                  ids_a: np.ndarray, ids_b: np.ndarray, axis: int):
    """COO triplets for one orientation of faces.

    ann, ant: face-averaged normal and tangential tensor entries, shaped
    like ids_a; faces connect cells ids_a -> ids_b along `axis`. The flux
    ann*(l_b - l_a)/H + ant*dT enters the divergence of cell a with +1/H
    and of cell b with -1/H; the tangential derivative dT is central and
    falls back to one-sided in the first and last transverse rows.
    """
    rows, cols, vals = [], [], []

    def face_term(ra, rb, col, coef):
        for r, v in ((ra, coef / H), (rb, -coef / H)):
            rows.append(np.asarray(r).ravel())
            cols.append(np.asarray(col).ravel())
            vals.append(np.broadcast_to(v, np.asarray(r).shape).ravel())

    # normal part
    face_term(ids_a, ids_b, ids_b, ann / H)
    face_term(ids_a, ids_b, ids_a, -ann / H)

    t = 1 - axis
    nt = ids_a.shape[t]

    def sl(k):
        s = [slice(None), slice(None)]
        s[t] = k
        return tuple(s)

    # central tangential derivative away from the walls
    mid, up, dn = sl(slice(1, nt - 1)), sl(slice(2, nt)), sl(slice(0, nt - 2))
    c_mid = ant[mid] / (4.0 * H)
    for base in (ids_a, ids_b):
        face_term(ids_a[mid], ids_b[mid], base[up], c_mid)
        face_term(ids_a[mid], ids_b[mid], base[dn], -c_mid)
    # one-sided at the transverse walls
    for k, knb, sgn_own in ((0, 1, -1.0), (nt - 1, nt - 2, 1.0)):
        c = ant[sl(k)] / (2.0 * H)
        for base in (ids_a, ids_b):
            face_term(ids_a[sl(k)], ids_b[sl(k)], base[sl(k)], sgn_own * c)
            face_term(ids_a[sl(k)], ids_b[sl(k)], base[sl(knb)],
                      -sgn_own * c)
    return rows, cols, vals


def assemble_macro(config: MacroConfig,
                   fld: EffectiveTensorField) -> MacroOperator:
    """Discrete operator bundle: diffusion stencil, θ, Γ quadrature, on
    the effective tensor field fld at the macro nodes, whose tensors must
    be symmetric positive definite and porosities in (0, 1]."""
    scen = config.scenario
    n = config.n_cells
    H = config.H
    nodes = macro_nodes(config)
    P = len(nodes)

    if fld.points.shape != nodes.shape \
            or not np.allclose(fld.points, nodes, rtol=0.0, atol=1e-9):
        raise ValueError("tensor field does not cover the macro nodes")
    if not fld.ok():
        bad = next(e for e in fld.errors if e is not None)
        raise ValueError(f"tensor field carries a failed solve: {bad}")

    # every node's checks in one pass; the first failing node reports its
    # first failing check. Only symmetric tensors reach eigvalsh, so NaN
    # entries read as not symmetric; fmax keeps a NaN out of the tolerance
    tensors = fld.tensors
    tensors_t = tensors.transpose(0, 2, 1)
    atol = 1e-8 * np.fmax(1.0, np.abs(tensors).max(axis=(1, 2)))
    symmetric = np.isclose(tensors, tensors_t, rtol=0.0,
                           atol=atol[:, None, None]).all(axis=(1, 2))
    definite = symmetric.copy()
    definite[symmetric] = ~(np.linalg.eigvalsh(
        0.5 * (tensors + tensors_t)[symmetric]).min(axis=1) <= 0.0)
    porous = (0.0 < fld.theta) & (fld.theta <= 1.0)
    bad = np.flatnonzero(~(definite & porous))
    if bad.size:
        p = int(bad[0])
        if not symmetric[p]:
            raise ValueError(f"effective tensor at node {p} is not symmetric")
        if not definite[p]:
            raise ValueError(
                f"effective tensor at node {p} is not positive definite")
        raise ValueError(f"porosity at node {p} must lie in (0, 1], "
                         f"got {float(fld.theta[p])!r}")

    ids = np.arange(P).reshape(n, n)
    A11 = tensors[:, 0, 0].reshape(n, n)
    A22 = tensors[:, 1, 1].reshape(n, n)
    A12 = tensors[:, 0, 1].reshape(n, n)
    A21 = tensors[:, 1, 0].reshape(n, n)

    rows, cols, vals = [], [], []
    # x-faces: normal entry A11, tangential A12
    r, c, v = _flux_stencil(
        H,
        0.5 * (A11[:-1, :] + A11[1:, :]),
        0.5 * (A12[:-1, :] + A12[1:, :]),
        ids[:-1, :], ids[1:, :], axis=0)
    rows += r; cols += c; vals += v
    # y-faces: normal entry A22, tangential A21
    r, c, v = _flux_stencil(
        H,
        0.5 * (A22[:, :-1] + A22[:, 1:]),
        0.5 * (A21[:, :-1] + A21[:, 1:]),
        ids[:, :-1], ids[:, 1:], axis=1)
    rows += r; cols += c; vals += v

    L = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(P, P))
    L.sum_duplicates()

    # Γ weights: the reference arc weights times the metric |D K τ_s| of
    # the maps at each node; no inclusion leaves no Γ points
    quad = (GammaQuadrature(scen.cell, config.n_gamma)
            if scen.cell.a != 0.0 else None)
    gamma_w = np.zeros((P, 0 if quad is None else config.n_gamma))
    cell_measure = np.empty(P)
    tf = scen.transform
    for p, x in enumerate(nodes):
        D = tf.D_at(x)
        cell_measure[p] = abs(np.linalg.det(D))
        if quad is not None:
            gamma_w[p] = quad.ref_weights * quad.metric(D, tf.K_at(x))
    return MacroOperator(config=config, n=n, H=H, nodes=nodes,
                         theta=fld.theta.copy(), tensors=tensors, L=L,
                         gamma_w=gamma_w, cell_measure=cell_measure)


def macro_energy(state: State, op: MacroOperator) -> float:
    """Homogenized Dirichlet form ⟨𝒜∇l, ∇l⟩ over the macro grid.

    Diagonal entries use the same weighted face form as the micro energy;
    the cross term is a cell-centered product of one-sided/central
    difference gradients.
    """
    n, H = op.n, op.H
    A11 = op.tensors[:, 0, 0].reshape(n, n)
    A22 = op.tensors[:, 1, 1].reshape(n, n)
    A12 = op.tensors[:, 0, 1].reshape(n, n)
    txx = 0.5 * (A11[:-1, :] + A11[1:, :])
    tyy = 0.5 * (A22[:, :-1] + A22[:, 1:])
    total = face_dirichlet_form(state.l, txx, tyy)
    g1 = np.gradient(state.l, H, axis=0)
    g2 = np.gradient(state.l, H, axis=1)
    total += float(np.sum(2.0 * A12 * g1 * g2)) * H * H
    return total


def run_macro(op: MacroOperator, keep_fields: bool = False) -> Run:
    """Integrate the operator's config to T, recording the same observable
    schema as run_micro."""
    return imex.integrate(op, imex.schedule(op), keep_fields, None)
