"""Microscopic signaling model on a perforated grid at fixed epsilon.

Ligand diffusion with zero-flux outer walls, an epsilon-scaled exchange
condition on the perforation boundaries, and free/bound receptor ODEs on
boundary faces. Space: masked 5-point finite volumes at resolution h; the
perforation boundary is polygonalized by marching squares inside each
boundary-crossing cell and each segment deposits its exchange flux into an
adjacent fluid cell. Time: MicroGrid is a model of the lphom.imex driver,
explicit reactions and boundary exchange from the step-start state (so the
alpha/beta terms cancel exactly in the receptor balance), implicit
backward-Euler diffusion factorized once per run; the driver checks the
mass ledger h^2 sum(l) on every step.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import imex
from .geometry import (Partition, _covering, build_partition,
                       indicator_perforated, mask_connected,
                       perforation_level)
from .imex import Run, State
from .scenarios import CoefficientSuite, Scenario

@dataclass(frozen=True)
class MicroConfig:
    """Run parameters for one microscopic solve."""

    scenario: Scenario
    eps: float
    r: float = 0.5
    # odd count: perforation centers land on cell centers, where the
    # staircase volume and surface errors nearly cancel; even counts put
    # the centers on grid nodes and the two biases add up
    cells_per_eps: int = 15
    T: float = 0.5
    dt: Optional[float] = None          # default: dt = h

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if not (0.0 < self.r < 1.0):
            raise ValueError("r must lie in (0, 1)")
        if self.cells_per_eps < 8:
            raise ValueError("need at least 8 cells per eps (h <= eps/8)")
        imex.check_times(self.T, self.dt)
        n = self.eps / self.cells_per_eps
        if abs(round(1.0 / n) - 1.0 / n) > 1e-9:
            raise ValueError("1/h must be an integer number of grid cells")

    @property
    def suite(self) -> CoefficientSuite:
        """The run's coefficients: its scenario's."""
        return self.scenario.suite

    @property
    def h(self) -> float:
        return self.eps / self.cells_per_eps

    @property
    def n_cells(self) -> int:
        return int(round(1.0 / self.h))


@dataclass
class MicroFaces:
    """Polygonal boundary faces of the perforations."""

    cell: np.ndarray         # (F,) flat deposit-cell index
    length: np.ndarray      # (F,) physical segment length
    midpoint: np.ndarray    # (F, 2)

    def __len__(self) -> int:
        return len(self.length)


@dataclass
class MicroGrid:
    """Masked grid and boundary faces: the micro model of lphom.imex.

    State.l is (n, n), zero outside the fluid mask; r_f and r_b are (F,),
    one value per boundary face.
    """

    config: MicroConfig
    partition: Partition
    mask: np.ndarray         # (n, n) bool, True = fluid
    faces: MicroFaces
    n: int
    h: float

    @property
    def width(self) -> float:
        return self.h

    @cached_property
    def face_scale(self) -> np.ndarray:
        # per-face surface density eps * len / h^2 of the explicit deposit
        return self.config.eps * self.faces.length / self.h**2

    @property
    def sigma(self) -> float:
        """Largest per-cell surface density eps * sum(len) / h^2."""
        if not len(self.faces):
            return 0.0
        per_cell = np.zeros(self.n * self.n)
        np.add.at(per_cell, self.faces.cell, self.faces.length)
        return self.config.eps * float(per_cell.max()) / self.h**2

    def factor(self, dt: float):
        return spla.splu(_diffusion_matrix(self, dt))

    def initial_state(self) -> State:
        s = self.config.suite
        F = len(self.faces)
        return State(t=0.0, l=np.where(self.mask, s.l0, 0.0),
                     r_f=np.full(F, s.rf0), r_b=np.full(F, s.rb0))

    def step(self, st: State, lu, dt: float):
        """One IMEX step: explicit reactions and exchange, then diffusion."""
        s = self.config.suite
        l = st.l.ravel()
        l_face = l[self.faces.cell]                 # step-start trace per face
        gain = (s.F(l) - s.dl * l) * self.mask.ravel()
        lstar = l + dt * gain
        exchange, r_f, r_b = imex.receptors(s, l_face, st, dt)
        np.add.at(lstar, self.faces.cell, dt * self.face_scale * exchange)
        source = (self.h**2 * float(np.sum(gain)) + self.config.eps
                  * float(np.sum(exchange * self.faces.length)))
        return imex.advance(st, dt, lu.solve(lstar), r_f, r_b), source

    def observe(self, st: State):
        eps, length = self.config.eps, self.faces.length
        return (st.l[self.mask], micro_energy(st, self),
                eps * float(np.sum(st.r_f * length)),
                eps * float(np.sum(st.r_b * length)))

    def mass(self, st: State) -> float:
        return self.h**2 * float(st.l.sum())


# marching-squares connectivity: per corner sign code, the pairs of edges
# (0 bottom, 1 right, 2 top, 3 left) crossed by the boundary segments; the
# saddles (corners 00 and 11, or 10 and 01 inside) are split by the sign of
# the corner mean, and take _MS_SADDLES_IN when it is inside the hole
_MS_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 4: [(1, 2)], 8: [(2, 3)],
    3: [(3, 1)], 6: [(0, 2)], 12: [(3, 1)], 9: [(0, 2)],
    7: [(3, 2)], 11: [(1, 2)], 13: [(0, 1)], 14: [(3, 0)],
    5: [(3, 0), (1, 2)], 10: [(0, 1), (2, 3)],
}
_MS_SADDLES_IN = {5: [(3, 2), (1, 0)], 10: [(0, 3), (2, 1)]}


def _ms_table() -> np.ndarray:
    """Edge pairs indexed [mean inside, code, segment, end]; -1 = none."""
    table = np.full((2, 16, 2, 2), -1)
    for c, pairs in _MS_SEGMENTS.items():
        table[:, c, :len(pairs)] = pairs
    for c, pairs in _MS_SADDLES_IN.items():
        table[1, c] = pairs
    return table


_MS_TABLE = _ms_table()
# per edge: its corners (0: i,j  1: i+1,j  2: i+1,j+1  3: i,j+1) in the
# direction of the crossing parameter t, and its offset on the fixed axis
_EDGE_FROM = np.array([0, 1, 3, 0])
_EDGE_TO = np.array([1, 2, 2, 3])
_EDGE_OFFSET = np.array([0.0, 1.0, 1.0, 0.0])


def _face_segments(level: np.ndarray, h: float):
    """Marching-squares segments of the zero level set.

    level has node values on an (n+1)^2 grid; returns per-segment host cell
    (i, j), endpoints in physical coordinates, for every cell whose corner
    signs are mixed. Saddle cells are split by the corner-mean value.
    Segments come in row-major cell order, then in table order within a
    cell: the face arrays, and every sum over them, depend on that order.
    """
    inside = level < 0.0
    code = (inside[:-1, :-1].astype(np.int8) + 2 * inside[1:, :-1]
            + 4 * inside[1:, 1:] + 8 * inside[:-1, 1:])
    cells = np.argwhere((code > 0) & (code < 15))
    i, j = cells[:, 0], cells[:, 1]
    phi = np.stack([level[i, j], level[i + 1, j], level[i + 1, j + 1],
                    level[i, j + 1]], axis=1)
    center_in = (phi[:, 0] + phi[:, 1] + phi[:, 2] + phi[:, 3]) < 0.0
    pairs = _MS_TABLE[center_in.astype(int), code[i, j]]
    seg_cell, seg = np.nonzero(pairs[:, :, 0] >= 0)
    edges = pairs[seg_cell, seg]
    hosts = cells[seg_cell]

    def crossing(edge):
        a = phi[seg_cell, _EDGE_FROM[edge]]
        b = phi[seg_cell, _EDGE_TO[edge]]
        t = a / (a - b)
        along_x = edge % 2 == 0            # bottom and top edges
        off = _EDGE_OFFSET[edge]
        return np.column_stack(((hosts[:, 0] + np.where(along_x, t, off)) * h,
                                (hosts[:, 1] + np.where(along_x, off, t)) * h))

    return hosts, crossing(edges[:, 0]), crossing(edges[:, 1])


def _commensurate_r(eps: float, r: float) -> float:
    """Exponent whose subdomain side is a whole multiple of eps.

    The grid can only represent subdomain seams on lattice lines; with the
    nominal side eps^r the seams cut through lattice cells and the solver
    would carry O(1)-wide unperforated bands whose area oscillates with eps
    instead of shrinking. Snapping the side to eps*round(eps^(r-1)) keeps
    the side within a factor 1 + O(eps^(1-r)) of nominal and makes the
    discrete perforated domain exactly the intended one.
    """
    m = max(2, int(round(eps ** (r - 1.0))))
    side = m * eps
    if side >= 1.0:
        return r
    return math.log(side) / math.log(eps)


def _diagonal_steps(transform):
    """Per-axis lattice step functions when the frozen maps separate.

    Returns [f0, f1] with D(x) = diag(f0(x_0), f1(x_1)) when that holds on
    a probe grid, else None. Separable diagonal transforms admit an exactly
    tiling covering (see _micro_partition); anything else falls back to the
    uniform one.
    """
    ts = np.linspace(0.0, 1.0, 7)
    Ds = np.stack([transform.D_at(np.array([a, b])) for a in ts for b in ts])
    if np.max(np.abs(Ds[:, 0, 1])) > 1e-12 or np.max(np.abs(Ds[:, 1, 0])) > 1e-12:
        return None
    d11 = Ds[:, 0, 0].reshape(7, 7)
    d22 = Ds[:, 1, 1].reshape(7, 7)
    if np.max(np.abs(d11 - d11[:, :1])) > 1e-12:   # varies with x_1
        return None
    if np.max(np.abs(d22 - d22[:1, :])) > 1e-12:   # varies with x_0
        return None

    def f0(t: float) -> float:
        return float(transform.D_at(np.array([t, 0.5]))[0, 0])

    def f1(t: float) -> float:
        return float(transform.D_at(np.array([0.5, t]))[1, 1])

    return [f0, f1]


def _axis_breaks(eps: float, r: float, f) -> np.ndarray:
    """Subdomain edges along one axis, snapped to the local lattice.

    Each interval spans a whole number of frozen lattice steps eps*f(anchor),
    solved as a fixed point since the anchor is the interval midpoint. The
    last interval ends at 1 and may carry one partial row; that is the only
    unperforated band left on the axis.
    """
    s0 = eps**r
    breaks = [0.0]
    p = 0.0
    while True:
        loc = f(min(p + 0.5 * s0, 1.0))
        m = max(2, int(round(s0 / (eps * loc))))
        t = m * eps * loc
        for _ in range(60):
            t_new = m * eps * f(min(p + 0.5 * t, 1.0))
            done = abs(t_new - t) < 1e-15
            t = t_new
            if done:
                break
        rem = 1.0 - (p + t)
        if rem < 2.0 * eps * f(min(0.5 * (p + t + 1.0), 1.0)) - 1e-12:
            # remainder cannot hold two full rows: extend this interval to 1
            if (1.0 - p) < 2.0 * eps * f(0.5 * (p + 1.0)):
                raise ValueError(
                    f"subdomain side {1.0 - p:.4g} cannot hold one full cell "
                    f"(needs at least {2.0 * eps * f(0.5 * (p + 1.0)):.4g})")
            breaks.append(1.0)
            return np.array(breaks)
        p += t
        breaks.append(p)


def _micro_partition(eps: float, r: float, transform) -> Partition:
    """Covering used by the micro grid.

    Where the frozen maps are diagonal with each entry a function of its own
    axis only, the subdomain edges are snapped per axis to whole multiples of
    the local lattice step and each lattice passes through its subdomain's
    lower corner, so the cells tile every subdomain exactly. Without the snap
    each subdomain seam sheds a band of excluded cells whose receptor deficit
    decays too slowly in eps to observe convergence under it. Transforms that
    do not separate (rotations) keep the uniform covering with the side
    rounded to a whole multiple of eps.
    """
    domain = ((0.0, 0.0), (1.0, 1.0))
    fs = _diagonal_steps(transform)
    if fs is None:
        return build_partition(domain, eps, _commensurate_r(eps, r), transform)
    breaks = [_axis_breaks(eps, r, f) for f in fs]
    # lattices through the lower corners
    return _covering(*np.asarray(domain), breaks, eps, transform,
                     on_corner=True)


def build_micro_grid(config: MicroConfig) -> MicroGrid:
    """Fluid mask at cell centers plus marching-squares boundary faces."""
    scen = config.scenario
    n = config.n_cells
    h = config.h
    partition = _micro_partition(config.eps, config.r, scen.transform)
    centers, nodes = (
        np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        for g in ((np.arange(n) + 0.5) * h, np.arange(n + 1) * h))
    mask = indicator_perforated(partition, scen.cell, centers).reshape(n, n)
    if not mask_connected(mask):
        raise ValueError("fluid region of the micro grid is disconnected")

    level = perforation_level(partition, scen.cell, nodes)
    hosts, p0, p1 = _face_segments(level.reshape(n + 1, n + 1), h)
    length = np.linalg.norm(p1 - p0, axis=1)
    mid = 0.5 * (p0 + p1)
    keep = length > 1e-14 * h
    hosts, length, mid = hosts[keep], length[keep], mid[keep]
    faces = MicroFaces(cell=_deposit_cells(hosts, mid, mask, h),
                       length=length, midpoint=mid)

    return MicroGrid(config=config, partition=partition, mask=mask,
                     faces=faces, n=n, h=h)


# neighbor search order of the deposit cell; the first of equidistant
# neighbors wins
_NEIGHBORS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)])


def _deposit_cells(hosts: np.ndarray, mid: np.ndarray, mask: np.ndarray,
                   h: float) -> np.ndarray:
    """Flat fluid cell receiving each segment's exchange flux.

    A segment deposits into its host cell when the host center is fluid,
    else into the nearest fluid cell among the host's 8 neighbors.
    """
    n = mask.shape[0]
    i, j = hosts[:, 0], hosts[:, 1]
    deposit = i * n + j
    solid = ~mask[i, j]                 # host center inside the hole
    if solid.any():
        ii = i[solid, None] + _NEIGHBORS[:, 0]
        jj = j[solid, None] + _NEIGHBORS[:, 1]
        ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
        ok[ok] = mask[ii[ok], jj[ok]]
        if not ok.any(axis=1).all():
            raise ValueError("boundary segment has no adjacent fluid cell")
        dist = ((ii + 0.5) * h - mid[solid, 0, None])**2 \
            + ((jj + 0.5) * h - mid[solid, 1, None])**2
        best = np.argmin(np.where(ok, dist, np.inf), axis=1)
        rows = np.arange(len(best))
        deposit[solid] = ii[rows, best] * n + jj[rows, best]
    return deposit


def _face_coefficients(grid: MicroGrid) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the interior faces along axis 0 and along axis 1.

    A face between two fluid cells carries A (the harmonic mean of the
    constant coefficient is the coefficient itself); any other face 0.
    """
    mask = grid.mask
    A = grid.config.suite.A
    return A * (mask[:-1, :] & mask[1:, :]), A * (mask[:, :-1] & mask[:, 1:])


def _diffusion_matrix(grid: MicroGrid, dt: float) -> sp.csc_matrix:
    """Backward-Euler diffusion matrix I - dt * div(A grad) on the full grid.

    Written straight into canonical CSC arrays with int32 indices, so splu
    converts nothing. Every column stores its whole 5-point stencil in row
    order: solid cells keep identity columns, a face touching a solid cell
    stores -0.0 off the diagonal, and each diagonal adds its face weights to
    1 in the order +axis 0, -axis 0, +axis 1, -axis 1.
    """
    n = grid.n
    wx, wy = _face_coefficients(grid)
    lam = dt / grid.h**2
    wx *= lam
    wy *= lam
    # stencil size per column: 5, less one for each grid edge it lies on
    count = np.full((n, n), 5, dtype=np.int32)
    count[[0, -1]] -= 1
    count[:, [0, -1]] -= 1
    indptr = np.zeros(n * n + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    del count
    first = indptr[:-1].reshape(n, n)
    at = first.copy()                       # slot of the diagonal
    at[1:] += 1
    at[:, 1:] += 1
    ids = np.arange(n * n, dtype=np.int32).reshape(n, n)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)

    def put(slots, rows, vals):
        indices[slots] = rows
        data[slots] = vals

    diag = np.ones((n, n))
    diag[:-1] += wx
    diag[1:] += wx
    diag[:, :-1] += wy
    diag[:, 1:] += wy
    put(at, ids, diag)
    del diag
    np.negative(wx, out=wx)
    np.negative(wy, out=wy)
    put(first[1:], ids[:-1], wx)            # row k - n
    put(at[:, 1:] - 1, ids[:, :-1], wy)     # row k - 1
    put(at[:, :-1] + 1, ids[:, 1:], wy)     # row k + 1
    put(indptr[1:-n].reshape(n - 1, n) - 1, ids[1:], wx)    # row k + n
    return sp.csc_matrix((data, indices, indptr), shape=(n * n, n * n))


def face_dirichlet_form(l: np.ndarray, tx: np.ndarray,
                        ty: np.ndarray) -> float:
    """Weighted face sum of coefficient times squared difference quotient.

    Faces with zero coefficient are treated as absent; the first and last
    face of every contiguous run get an extra half cell so an affine field
    on the unperforated square integrates exactly to |Omega|.
    """
    total = 0.0
    for t, axis in ((tx, 0), (ty, 1)):
        dl = np.diff(l, axis=axis)
        on = t > 0.0
        pad = [(0, 0), (0, 0)]
        pad[axis] = (1, 0)
        prev = np.pad(on, pad)[tuple(
            slice(0, -1) if ax == axis else slice(None) for ax in range(2))]
        pad[axis] = (0, 1)
        nxt = np.pad(on, pad)[tuple(
            slice(1, None) if ax == axis else slice(None) for ax in range(2))]
        w = np.where(on, 1.0 + 0.5 * (~prev) + 0.5 * (~nxt), 0.0)
        total += float(np.sum(t * w * dl**2))
    return total


def micro_energy(state: State, grid: MicroGrid) -> float:
    """Dirichlet form of the ligand field on interior fluid faces."""
    return face_dirichlet_form(state.l, *_face_coefficients(grid))


def run_micro(config: MicroConfig, keep_fields: bool = False,
              set_up: Optional[threading.Event] = None,
              stop: Optional[threading.Event] = None) -> Run:
    """Build the grid of config and integrate to T, recording observables
    at imex.N_SAMPLES windows.

    set_up, if given, is set once the grid build and factorization have
    returned or raised; once stop, if given, is set, the next step raises
    a RuntimeError.
    """
    try:
        grid = build_micro_grid(config)
        plan = imex.schedule(grid)
    finally:
        if set_up is not None:
            set_up.set()
    return imex.integrate(grid, plan, keep_fields, stop)
