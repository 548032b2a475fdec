"""Microscopic signaling model on a perforated grid at fixed epsilon.

Ligand diffusion with zero-flux outer walls, an epsilon-scaled exchange
condition on the perforation boundaries, and free/bound receptor ODEs on
boundary faces. Space: masked 5-point finite volumes at resolution h; the
perforation boundary is polygonalized by marching squares inside each
boundary-crossing cell and each segment deposits its exchange flux into an
adjacent fluid cell. Time: IMEX, explicit reactions and boundary exchange
from the step-start state (so the alpha/beta terms cancel exactly in the
receptor balance), implicit backward-Euler diffusion factorized once per
run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (Partition, _frozen_subdomains, build_partition,
                       indicator_perforated, locate_batch, mask_connected)
from .scenarios import CoefficientSuite, Scenario

# held by run_micro around the grid build and the factorization, so that
# runs on several threads do not stack their set-up memory peaks
_SETUP_LOCK = threading.Lock()


@dataclass
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
    suite: Optional[CoefficientSuite] = None

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.cells_per_eps < 8:
            raise ValueError("need at least 8 cells per eps (h <= eps/8)")
        if self.T < 0.0:
            raise ValueError("final time must be nonnegative")
        if self.suite is None:
            self.suite = self.scenario.suite
        n = self.eps / self.cells_per_eps
        if abs(round(1.0 / n) - 1.0 / n) > 1e-9:
            raise ValueError("1/h must be an integer number of grid cells")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")

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
    subdomain: np.ndarray   # (F,) subdomain index of the hosting cell

    def __len__(self) -> int:
        return len(self.length)

    def total_length(self) -> float:
        return float(self.length.sum())

    def per_subdomain(self) -> dict:
        out: dict = {}
        for n in np.unique(self.subdomain):
            out[int(n)] = float(self.length[self.subdomain == n].sum())
        return out


@dataclass
class MicroGrid:
    """Masked grid, boundary faces and the factorized diffusion operator."""

    config: MicroConfig
    partition: Partition
    mask: np.ndarray         # (n, n) bool, True = fluid
    faces: MicroFaces
    n: int
    h: float

    def fluid_count(self) -> int:
        return int(self.mask.sum())


@dataclass
class MicroState:
    t: float
    l: np.ndarray            # (n, n), zero outside the fluid mask
    r_f: np.ndarray          # (F,)
    r_b: np.ndarray          # (F,)


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


class _SnappedPartition(Partition):
    """Covering with per-axis breakpoints instead of one uniform side."""

    def __init__(self, breaks, *args):
        super().__init__(*args)
        self._breaks = breaks

    def subdomain_of(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        flat = np.zeros(len(X), dtype=int)
        for i, b in enumerate(self._breaks):
            k = np.searchsorted(b, X[:, i], side="right") - 1
            flat *= len(b) - 1
            flat += np.clip(k, 0, len(b) - 2)
        return flat


def _micro_partition(eps: float, r: float, transform) -> Partition:
    """Covering used by the micro grid.

    Where the frozen maps are diagonal with each entry a function of its own
    axis only, the subdomain edges are snapped per axis to whole multiples of
    the local lattice step and each lattice is anchored at its subdomain's
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
    n_sub = tuple(len(b) - 1 for b in breaks)
    ks = list(np.ndindex(*n_sub))
    k = np.array(ks)
    s_lo = np.column_stack([b[k[:, i]] for i, b in enumerate(breaks)])
    s_hi = np.column_stack([b[k[:, i] + 1] for i, b in enumerate(breaks)])
    anchor = 0.5 * (s_lo + s_hi)
    D = np.array([transform.D_at(a) for a in anchor])
    K = np.array([transform.K_at(a) for a in anchor])
    # lattices anchored at the lower corner
    subs = _frozen_subdomains(ks, s_lo, s_hi, anchor, eps, D, K, on_corner=True)
    return _SnappedPartition(breaks, domain[0], domain[1], eps, r, transform,
                             "subdomain-center", subs, n_sub, eps**r)


def build_micro_grid(config: MicroConfig) -> MicroGrid:
    """Fluid mask at cell centers plus marching-squares boundary faces."""
    scen = config.scenario
    n = config.n_cells
    h = config.h
    partition = _micro_partition(config.eps, config.r, scen.transform)
    idx = (np.arange(n) + 0.5) * h
    CX, CY = np.meshgrid(idx, idx, indexing="ij")
    centers = np.column_stack([CX.ravel(), CY.ravel()])
    mask = indicator_perforated(partition, scen.transform, scen.cell,
                                centers).reshape(n, n)
    if not mask_connected(mask):
        raise ValueError("fluid region of the micro grid is disconnected")

    hosts = np.zeros((0, 2), dtype=int)
    p0 = p1 = np.zeros((0, 2))
    if scen.cell.inclusion != "none":
        # node level values of the perforation boundary, +1 in leftover
        # regions (no perforations there)
        g = np.arange(n + 1) * h
        GX, GY = np.meshgrid(g, g, indexing="ij")
        nodes = np.column_stack([GX.ravel(), GY.ravel()])
        sub_n, _, y, lam = locate_batch(partition, nodes)
        c = scen.cell.center
        u = np.einsum("pij,pj->pi", partition._Kinv[sub_n], y - c)
        level = np.linalg.norm(u, axis=1) - scen.cell.a
        level[lam] = 1.0
        hosts, p0, p1 = _face_segments(level.reshape(n + 1, n + 1), h)
    length = np.linalg.norm(p1 - p0, axis=1)
    mid = 0.5 * (p0 + p1)
    keep = length > 1e-14 * h
    hosts, length, mid = hosts[keep], length[keep], mid[keep]
    faces = MicroFaces(cell=_deposit_cells(hosts, mid, mask, h),
                       length=length, midpoint=mid,
                       subdomain=partition.subdomain_of(mid))

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


def _diffusion_matrix(grid: MicroGrid, dt: float) -> sp.csc_matrix:
    """Backward-Euler diffusion matrix I - dt * div(A grad) on the full grid.

    Solid cells keep identity rows. Built in its own frame so that the
    coupling lists and the CSR copy are freed before the factorization runs.
    """
    n, h = grid.n, grid.h
    mask = grid.mask
    A = grid.config.suite.A
    # interior faces between two fluid cells; harmonic mean of the
    # constant coefficient is the coefficient itself
    tx = A * (mask[:-1, :] & mask[1:, :])
    ty = A * (mask[:, :-1] & mask[:, 1:])
    lam = dt / h**2
    N = n * n
    ids = np.arange(N).reshape(n, n)
    diag = np.ones(N)
    rows, cols, vals = [ids.ravel()], [ids.ravel()], [diag]

    def couple(t, ia, ib):
        w = lam * t.ravel()
        a, b = ia.ravel(), ib.ravel()
        rows.extend([a, b, a, b])
        cols.extend([a, b, b, a])
        vals.extend([w, w, -w, -w])

    couple(tx, ids[:-1, :], ids[1:, :])
    couple(ty, ids[:, :-1], ids[:, 1:])
    M = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    return M.tocsc()


class MicroOperator:
    """Factorized backward-Euler diffusion operator and face tables."""

    def __init__(self, grid: MicroGrid, dt: float):
        cfg = grid.config
        self.lu = spla.splu(_diffusion_matrix(grid, dt))
        self.grid = grid
        self.dt = dt
        self.fluid = grid.mask.ravel()
        self.face_cell = grid.faces.cell
        # per-cell surface density sigma = eps * sum(len) / h^2 used by the
        # explicit exchange deposit
        self.face_scale = cfg.eps * grid.faces.length / grid.h**2


def micro_step(state: MicroState, op: MicroOperator) -> MicroState:
    """One IMEX step: explicit reactions and exchange, implicit diffusion."""
    cfg = op.grid.config
    s = cfg.suite
    dt = op.dt
    l = state.l.ravel()
    l_face = l[op.face_cell]                    # step-start trace per face

    bulk = s.F(l) - s.dl * l
    lstar = l + dt * bulk * op.fluid
    exchange = s.beta * state.r_b - s.alpha * l_face * state.r_f
    np.add.at(lstar, op.face_cell, dt * op.face_scale * exchange)

    r_f = state.r_f + dt * (s.p(state.r_b) - s.alpha * l_face * state.r_f
                            + s.beta * state.r_b - s.df * state.r_f)
    r_b = state.r_b + dt * (s.alpha * l_face * state.r_f
                            - s.beta * state.r_b - s.db * state.r_b)

    l_new = op.lu.solve(lstar)
    for name, arr in (("ligand", l_new), ("free receptors", r_f),
                      ("bound receptors", r_b)):
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"{name} field became non-finite at "
                               f"t={state.t + dt:.6g}")
    return MicroState(t=state.t + dt, l=l_new.reshape(op.grid.n, op.grid.n),
                      r_f=r_f, r_b=r_b)


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


def micro_energy(state: MicroState, grid: MicroGrid) -> float:
    """Dirichlet form of the ligand field on interior fluid faces."""
    mask = grid.mask
    A = grid.config.suite.A
    return face_dirichlet_form(state.l, A * (mask[:-1, :] & mask[1:, :]),
                               A * (mask[:, :-1] & mask[:, 1:]))


def _barrier_rate(grid: MicroGrid, M: float) -> float:
    """Additive growth rate of max l from the a priori bound constants."""
    s = grid.config.suite
    if s.mu3 > 0.0:
        f_sup, f_lin = s.mu1 / s.mu3, 0.0
    else:
        f_sup, f_lin = 0.0, s.mu1 / max(s.mu2, 1e-300)
    sigma = 0.0
    if len(grid.faces):
        per_cell = np.zeros(grid.n * grid.n)
        np.add.at(per_cell, grid.faces.cell, grid.faces.length)
        sigma = grid.config.eps * float(per_cell.max()) / grid.h**2
    rate = f_sup + s.beta * s.receptor_bound * sigma
    return f_lin + rate / max(M, 1e-9)


@dataclass
class MicroRun:
    """Trajectory observables and the final state of one micro solve."""

    config: MicroConfig
    grid: MicroGrid
    observables: dict            # arrays keyed t, l2_norm, min_l, max_l,
                                 # energy, rf_mass, rb_mass
    final_state: MicroState
    barrier_M: float
    barrier_B: float
    failures: list = field(default_factory=list)
    fields: Optional[list] = None       # ligand snapshots at sample times

    def ok(self) -> bool:
        return not self.failures


def initial_micro_state(config: MicroConfig, grid: MicroGrid) -> MicroState:
    s = config.suite
    l = np.where(grid.mask, s.l0, 0.0)
    F = len(grid.faces)
    return MicroState(t=0.0, l=l, r_f=np.full(F, s.rf0),
                      r_b=np.full(F, s.rb0))


def run_micro(config: MicroConfig, grid: Optional[MicroGrid] = None,
              n_samples: int = 20, keep_fields: bool = False) -> MicroRun:
    """Integrate to T, recording observables at T/n_samples intervals.

    With keep_fields, a copy of the ligand field is stored at every
    sample time (run.fields), which the convergence study consumes. Runs on
    several threads build their grids and factorize one at a time, so the
    set-up memory peaks do not stack; the step loops still overlap.
    """
    s = config.suite
    with _SETUP_LOCK:
        if grid is None:
            grid = build_micro_grid(config)
        if config.T > 0.0:
            dt_req = config.dt if config.dt is not None else grid.h
            if dt_req * s.bulk_lipschitz > 0.5:
                raise ValueError(
                    f"dt={dt_req:g} exceeds the explicit reaction budget "
                    f"0.5/{s.bulk_lipschitz:g}")
            window = config.T / n_samples
            n_sub = max(1, int(math.ceil(window / dt_req - 1e-12)))
            dt = window / n_sub
            op = MicroOperator(grid, dt)
        else:
            n_sub, dt, op = 0, 0.0, None

    state = initial_micro_state(config, grid)
    M = float(state.l.max(initial=0.0))
    B = _barrier_rate(grid, M)
    h2 = grid.h**2
    fluid = grid.mask
    rows = {k: [] for k in ("t", "l2_norm", "min_l", "max_l", "energy",
                            "rf_mass", "rb_mass")}
    failures: list = []
    snapshots: Optional[list] = [] if keep_fields else None

    def record(st: MicroState):
        if snapshots is not None:
            snapshots.append(st.l.copy())
        lf = st.l[fluid]
        mx = float(lf.max())
        mn = float(lf.min())
        rows["t"].append(st.t)
        rows["l2_norm"].append(math.sqrt(float(np.sum(lf**2)) * h2))
        rows["min_l"].append(mn)
        rows["max_l"].append(mx)
        rows["energy"].append(micro_energy(st, grid))
        rows["rf_mass"].append(config.eps
                               * float(np.sum(st.r_f * grid.faces.length)))
        rows["rb_mass"].append(config.eps
                               * float(np.sum(st.r_b * grid.faces.length)))
        if mn < -1e-12 or st.r_f.min(initial=0.0) < -1e-12 \
                or st.r_b.min(initial=0.0) < -1e-12:
            failures.append(f"negative concentration at t={st.t:.6g}")
        barrier = max(M, 1e-9) * math.exp(min(B * st.t, 700.0)) + 1e-6
        if mx > barrier:
            failures.append(f"L-infinity barrier violated at t={st.t:.6g}")

    record(state)
    if config.T > 0.0:
        for _ in range(n_samples):
            for _ in range(n_sub):
                state = micro_step(state, op)
            record(state)

    observables = {k: np.array(v) for k, v in rows.items()}
    return MicroRun(config=config, grid=grid, observables=observables,
                    final_state=state, barrier_M=M, barrier_B=B,
                    failures=failures, fields=snapshots)
