"""Unit-cell correctors and the space-dependent effective diffusion tensor.

The corrector problems live on the transformed, perforated unit cell at each
macro point. A change of variables pulls them back to the reference square:
the physical operator becomes div(B grad .) with B = |det D| D^-1 A D^-T and
forcing vectors D^T e_j. Bilinear elements on an N_c x N_c Cartesian grid,
periodic wrap-around, with cells cut by the inclusion boundary integrated
exactly (column-wise closed-form moments of the ellipse complement), give
one stiffness matrix per point. It is factorized once by a sparse LU on the
active nodes, with one node pinned to remove the constant mode and the mean
subtracted afterwards, and that factor solves the two unit forcings. The
corrector of the forcing D^T e_j is the same combination of the two unit
correctors, so A_eff(x) = D G D^T / |det D| where G depends on B and K
only: points sharing (B, K), such as every node of a rotated lattice with
isotropic A, share one solve. Because the discrete space is conforming on
the perforated cell and nested under dyadic refinement, the effective tensor
converges monotonically from above at second order; the energy-form assembly
keeps it symmetric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import TransformField, UnitCellSpec, mask_connected

CoefficientLike = Union[float, np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]

# 48-point Gauss-Legendre rule on [0, 1]; cut-cell column integrands are
# analytic between breakpoints except for a square-root endpoint at the
# silhouette extremes, where this rule still leaves only ~1e-11
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def _coefficient_matrix(A: CoefficientLike, x: np.ndarray,
                        y_phys: np.ndarray, d: int) -> np.ndarray:
    """Microscopic coefficient as a (d, d) SPD matrix at one point."""
    if callable(A):
        M = np.asarray(A(x, y_phys), dtype=float)
    elif np.ndim(A) == 0:
        M = float(A) * np.eye(d)
    else:
        M = np.asarray(A, dtype=float)
    if M.shape != (d, d):
        raise ValueError(f"coefficient must be {d}x{d}, got {M.shape}")
    if np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, float(np.max(np.abs(M)))):
        raise ValueError("coefficient matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(M)) <= 0:
        raise ValueError("coefficient matrix must be positive definite")
    return M


def pullback_coefficient(A: CoefficientLike, transform: TransformField,
                         x: np.ndarray):
    """Coefficient of the reference-cell problem at macro point x.

    B(y) = |det D_x| D_x^-1 A(x, D_x y) D_x^-T. Returns a constant matrix for
    constant A, otherwise a callable on reference coordinates.
    """
    x = np.asarray(x, dtype=float)
    D = transform.D_at(x)
    detD = abs(float(np.linalg.det(D)))
    if detD < 1e-14:
        raise ValueError("singular lattice matrix at the requested point")
    Dinv = np.linalg.inv(D)

    if not callable(A):
        M = _coefficient_matrix(A, x, np.zeros_like(x), transform.d)
        return detD * Dinv @ M @ Dinv.T

    def B(y: np.ndarray) -> np.ndarray:
        M = _coefficient_matrix(A, x, D @ np.asarray(y, dtype=float),
                                transform.d)
        return detD * Dinv @ M @ Dinv.T

    return B


def _clip_interval(lo: np.ndarray, hi: np.ndarray):
    lo = np.clip(lo, 0.0, 1.0)
    hi = np.clip(hi, 0.0, 1.0)
    return lo, np.maximum(hi, lo)


def _cut_cell_moments(i: int, j: int, h: float, Kinv: np.ndarray,
                      center: np.ndarray, a: float):
    """Fluid moments (area, int xi, int xi^2, int eta, int eta^2) of one cell.

    Local coordinates (xi, eta) in [0,1]^2; the inclusion boundary cuts the
    cell. Column integration: for fixed xi the inside part is one interval in
    eta with closed-form moments; the xi-integral is Gauss quadrature split
    at the breakpoints where the interval structure changes (silhouette
    extremes and edge crossings), so each piece is analytic.
    """
    # eta-interval of the inside region per column:
    # q(eta) = q0 + eta*v, |q|^2 <= a^2 with q0 affine in xi
    p0 = np.array([i * h, j * h], dtype=float)
    ex = Kinv @ np.array([h, 0.0])
    ev = Kinv @ np.array([0.0, h])
    q00 = Kinv @ (p0 - center)

    vv = float(ev @ ev)
    breaks = {0.0, 1.0}

    def add_roots(ca, cb, cc):
        # real roots of ca t^2 + cb t + cc in (0, 1)
        if abs(ca) < 1e-300:
            if abs(cb) > 1e-300:
                t = -cc / cb
                if 0.0 < t < 1.0:
                    breaks.add(float(t))
            return
        disc = cb * cb - 4.0 * ca * cc
        if disc <= 0.0:
            return
        sq = math.sqrt(disc)
        for t in ((-cb - sq) / (2 * ca), (-cb + sq) / (2 * ca)):
            if 0.0 < t < 1.0:
                breaks.add(float(t))

    # silhouette: discriminant in eta vanishes; it is quadratic in xi
    # disc(xi) = (q0.v)^2 - vv (|q0|^2 - a^2), q0 = q00 + xi*ex
    c2 = (ex @ ev) ** 2 - vv * (ex @ ex)
    c1 = 2.0 * (q00 @ ev) * (ex @ ev) - vv * 2.0 * (q00 @ ex)
    c0 = (q00 @ ev) ** 2 - vv * (q00 @ q00 - a * a)
    add_roots(c2, c1, c0)
    # edge crossings: |q0 + s*ev|^2 = a^2 at s = 0 and s = 1, quadratic in xi
    for s in (0.0, 1.0):
        base = q00 + s * ev
        add_roots(ex @ ex, 2.0 * base @ ex, base @ base - a * a)

    xs = np.sort(np.fromiter(breaks, dtype=float))
    a0 = ax = ax2 = ay = ay2 = 0.0
    for lo_b, hi_b in zip(xs[:-1], xs[1:]):
        width = hi_b - lo_b
        if width <= 1e-15:
            continue
        xi = lo_b + width * _GL_X
        w = width * _GL_W
        q0 = q00[None, :] + xi[:, None] * ex[None, :]
        qb = q0 @ ev
        qc = np.sum(q0 * q0, axis=1) - a * a
        disc = qb * qb - vv * qc
        inside = disc > 0.0
        lo_i = np.zeros_like(xi)
        hi_i = np.zeros_like(xi)
        if np.any(inside):
            sq = np.sqrt(disc[inside])
            lo_i[inside] = (-qb[inside] - sq) / vv
            hi_i[inside] = (-qb[inside] + sq) / vv
        lo_i, hi_i = _clip_interval(lo_i, hi_i)
        length = 1.0 - (hi_i - lo_i)
        m1 = 0.5 - 0.5 * (hi_i**2 - lo_i**2)
        m2 = 1.0 / 3.0 - (hi_i**3 - lo_i**3) / 3.0
        a0 += float(w @ length)
        ax += float(w @ (xi * length))
        ax2 += float(w @ (xi**2 * length))
        ay += float(w @ m1)
        ay2 += float(w @ m2)
    return a0, ax, ax2, ay, ay2


# local bilinear stiffness structure; node order (00, 10, 01, 11)
_SGN_X = np.array([-1.0, 1.0, -1.0, 1.0])
_TYP_X = np.array([0, 0, 1, 1])
_SGN_Y = np.array([-1.0, -1.0, 1.0, 1.0])
_TYP_Y = np.array([0, 1, 0, 1])


def _local_from_moments(a0, ax, ax2, ay, ay2):
    """Per-cell 4x4 stiffness factors and forcing factors from moments.

    Returns (Lx, Ly, gx, gy): Lx carries the grad-x products (multiply by
    B11), Ly the grad-y products (by B22); gx[a] = int over the fluid part of
    d/dx phi_a times h, gy likewise.
    """
    # quadratics in eta for the x-part: P[0,0]=int (1-eta)^2 etc.
    P = np.array([[a0 - 2 * ay + ay2, ay - ay2], [ay - ay2, ay2]])
    Q = np.array([[a0 - 2 * ax + ax2, ax - ax2], [ax - ax2, ax2]])
    Lx = _SGN_X[:, None] * _SGN_X[None, :] * P[_TYP_X[:, None], _TYP_X[None, :]]
    Ly = _SGN_Y[:, None] * _SGN_Y[None, :] * Q[_TYP_Y[:, None], _TYP_Y[None, :]]
    Gx = np.array([a0 - ay, ay])
    Gy = np.array([a0 - ax, ax])
    gx = _SGN_X * Gx[_TYP_X]
    gy = _SGN_Y * Gy[_TYP_Y]
    return Lx, Ly, gx, gy


_FULL = _local_from_moments(1.0, 0.5, 1.0 / 3.0, 0.5, 1.0 / 3.0)


@dataclass
class CellGeometry:
    """Reference perforated cell at one macro point, ready for assembly.

    kind marks each grid cell 0 = solid (dropped), 1 = full, 2 = cut by the
    inclusion boundary; cut cells carry exact fluid moments. fluid is the
    cells with positive fluid area.
    """

    x: np.ndarray
    D: np.ndarray
    K: np.ndarray
    detD: float
    N_c: int
    h: float
    cell: UnitCellSpec
    fluid: np.ndarray            # (N, N) bool
    kind: np.ndarray             # (N, N) int8
    cut_idx: np.ndarray          # (m, 2) int
    cut_moments: np.ndarray      # (m, 5)
    B11: float
    B22: float
    forcing: np.ndarray          # (d, d): column j is D^T e_j
    fluid_area: float            # quadrature measure of the fluid part
    active: np.ndarray = field(default=None)   # (N*N,) node mask
    _S: object = field(default=None, repr=False)
    _S_unit: object = field(default=None, repr=False)
    _bxy: object = field(default=None, repr=False)

    @property
    def fluid_fraction(self) -> float:
        return self.fluid_area

    def _node_ids(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        N = self.N_c
        base_i, base_j = ii % N, jj % N
        return np.stack([
            base_i * N + base_j,
            ((ii + 1) % N) * N + base_j,
            base_i * N + (jj + 1) % N,
            ((ii + 1) % N) * N + (jj + 1) % N], axis=1)

    def assemble(self, unit: bool = False):
        """Stiffness matrix (and unit-forcing vectors on the first call)."""
        if unit and self._S_unit is not None:
            return self._S_unit
        if not unit and self._S is not None:
            return self._S
        N = self.N_c
        b11 = 1.0 if unit else self.B11
        b22 = 1.0 if unit else self.B22

        rows_all, cols_all, data_all = [], [], []
        full_ij = np.argwhere(self.kind == 1)
        bx = np.zeros(N * N)
        by = np.zeros(N * N)
        if len(full_ij):
            nodes = self._node_ids(full_ij[:, 0], full_ij[:, 1])   # (m, 4)
            loc = b11 * _FULL[0] + b22 * _FULL[1]                  # (4, 4)
            rows_all.append(np.repeat(nodes, 4, axis=1).ravel())
            cols_all.append(np.tile(nodes, (1, 4)).ravel())
            data_all.append(np.tile(loc.ravel(), len(nodes)))
            np.add.at(bx, nodes, -self.h * b11 * _FULL[2][None, :])
            np.add.at(by, nodes, -self.h * b22 * _FULL[3][None, :])
        if len(self.cut_idx):
            nodes = self._node_ids(self.cut_idx[:, 0], self.cut_idx[:, 1])
            for k in range(len(self.cut_idx)):
                Lx, Ly, gx, gy = _local_from_moments(*self.cut_moments[k])
                loc = b11 * Lx + b22 * Ly
                nd = nodes[k]
                rows_all.append(np.repeat(nd, 4))
                cols_all.append(np.tile(nd, 4))
                data_all.append(loc.ravel())
                np.add.at(bx, nd, -self.h * b11 * gx)
                np.add.at(by, nd, -self.h * b22 * gy)
        S = sp.csr_matrix(
            (np.concatenate(data_all),
             (np.concatenate(rows_all), np.concatenate(cols_all))),
            shape=(N * N, N * N))
        if unit:
            self._S_unit = S
            return S
        self._S = S
        self._bxy = (bx, by)
        diag = S.diagonal()
        self.active = diag > 1e-12 * float(diag.max())
        return S

    def unit_forcing_vectors(self):
        if self._bxy is None:
            self.assemble()
        return self._bxy


def _cell_coefficient(A: CoefficientLike, transform: TransformField,
                      x: np.ndarray) -> np.ndarray:
    """Pulled-back coefficient B at x, which must be constant on the cell."""
    Bfun = pullback_coefficient(A, transform, x)
    if not callable(Bfun):
        return Bfun
    # A may vary with the macro point but not inside the unit cell
    Bmat = Bfun(np.array([0.5, 0.5]))
    probe = Bfun(np.array([0.125, 0.625]))
    if np.max(np.abs(probe - Bmat)) > 1e-12 * max(1.0, np.max(np.abs(Bmat))):
        raise NotImplementedError(
            "cell coefficients varying inside the unit cell are not "
            "supported; A may depend on the macro point only")
    return Bmat


def build_cell_geometry(x, A: CoefficientLike, transform: TransformField,
                        cell: UnitCellSpec, N_c: int) -> CellGeometry:
    """Mask, cut-cell moments and coefficient data for the problem at x."""
    if N_c < 32:
        raise ValueError("cell grid too coarse, need N_c >= 32")
    x = np.asarray(x, dtype=float)
    d = transform.d
    if d != 2:
        raise NotImplementedError("cell solver is two-dimensional")
    D = transform.D_at(x)
    K = transform.K_at(x)
    detD = abs(float(np.linalg.det(D)))

    Bmat = _cell_coefficient(A, transform, x)
    scale = float(np.max(np.abs(Bmat)))
    if abs(Bmat[0, 1]) > 1e-12 * scale:
        raise NotImplementedError(
            "pulled-back coefficient has cross terms; the tensor-product "
            "cell discretization supports diagonal B only")

    h = 1.0 / N_c
    N = N_c
    if cell.inclusion == "none":
        kind = np.ones((N, N), dtype=np.int8)
        cut_idx = np.zeros((0, 2), dtype=int)
        cut_m = np.zeros((0, 5))
        fluid_area = 1.0
    else:
        Kinv = np.linalg.inv(K)
        center = np.asarray(cell.center, dtype=float)
        span = cell.a * np.linalg.norm(K, axis=1)
        if np.any(center - span <= 0.0) or np.any(center + span >= 1.0):
            raise ValueError(
                "inclusion reaches the unit-cell boundary; the perforation "
                "must stay strictly inside the cell")
        # node inside flags classify most cells; cells near the silhouette
        # extremes are checked by exact moments
        g = np.arange(N + 1) * h
        GX, GY = np.meshgrid(g, g, indexing="ij")
        rel = np.stack([GX - center[0], GY - center[1]], axis=-1)
        z = rel @ Kinv.T
        node_in = np.hypot(z[..., 0], z[..., 1]) <= cell.a
        corners_in = (node_in[:-1, :-1].astype(int) + node_in[1:, :-1]
                      + node_in[:-1, 1:] + node_in[1:, 1:])
        candidates = set(map(tuple, np.argwhere((corners_in > 0)
                                                & (corners_in < 4))))
        # silhouette extremes can poke through a cell edge without moving any
        # corner flag, so sweep a 3x3 patch around each extreme point
        reach = cell.a * np.linalg.norm(K, axis=1)
        for sgn in (-1.0, 1.0):
            for ax in range(2):
                p = center.copy()
                p[ax] += sgn * reach[ax]
                ci = int(np.clip(np.floor(p[0] / h), 0, N - 1))
                cj = int(np.clip(np.floor(p[1] / h), 0, N - 1))
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if 0 <= ci + di < N and 0 <= cj + dj < N:
                            candidates.add((ci + di, cj + dj))
        kind = np.where(corners_in == 4, 0, 1).astype(np.int8)
        cut_list, m_list = [], []
        for (ci, cj) in sorted(candidates):
            m = _cut_cell_moments(ci, cj, h, Kinv, center, cell.a)
            if m[0] <= 1e-12:
                kind[ci, cj] = 0
            elif m[0] >= 1.0 - 1e-12:
                kind[ci, cj] = 1
            else:
                kind[ci, cj] = 2
                cut_list.append((ci, cj))
                m_list.append(m)
        cut_idx = np.array(cut_list, dtype=int).reshape(-1, 2)
        cut_m = np.array(m_list).reshape(-1, 5)
        fluid_area = (float(np.sum(kind == 1)) + float(cut_m[:, 0].sum())) * h * h

    fluid = kind > 0
    if not mask_connected(fluid, periodic=True):
        raise ValueError("fluid region of the cell mask is disconnected")
    return CellGeometry(x=x, D=D, K=K, detD=detD, N_c=N_c, h=h, cell=cell,
                        fluid=fluid, kind=kind, cut_idx=cut_idx,
                        cut_moments=cut_m, B11=float(Bmat[0, 0]),
                        B22=float(Bmat[1, 1]), forcing=D.T.copy(),
                        fluid_area=fluid_area)


def _unit_correctors(geom: CellGeometry):
    """Correctors of the unit forcings bx, by from one sparse LU.

    On the active nodes the stiffness matrix is singular only in the
    constants (the fluid is connected), and the forcings are projected onto
    its range, the zero-mean vectors. Pinning the first active node to zero
    leaves a symmetric positive definite system, factorized once without
    pivoting under a symmetric ordering; subtracting the mean afterwards
    restores the zero-mean normalization. Returns the (2, N*N) nodal
    correctors and the true relative residuals ||S w - b|| / ||b|| on the
    active nodes.
    """
    S = geom.assemble()
    act = geom.active
    S_act = S[act][:, act]
    b = np.column_stack([v[act] for v in geom.unit_forcing_vectors()])
    b -= b.mean(axis=0)
    lu = spla.splu(S_act[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    w = np.zeros_like(b)
    w[1:] = lu.solve(b[1:])
    w -= w.mean(axis=0)
    bnorm = np.linalg.norm(b, axis=0)
    rnorm = np.linalg.norm(S_act @ w - b, axis=0)
    res = np.divide(rnorm, bnorm, out=np.zeros(2), where=bnorm > 0.0)
    out = np.zeros((2, geom.N_c * geom.N_c))
    out[:, act] = w.T
    return out, res


@dataclass
class CellSolution:
    """Correctors of one macro point, nodal fields on the reference grid."""

    geometry: CellGeometry
    unit_correctors: np.ndarray  # (d, N, N) for forcings e_x, e_y; zero
                                 # outside fluid
    residuals: np.ndarray        # (d,) relative residuals of the unit solves
    iterations: np.ndarray       # (d,) solver iterations, 0 for the direct
                                 # solve
    zero_mean: bool = True

    @property
    def N_c(self) -> int:
        return self.geometry.N_c

    @property
    def residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def correctors(self) -> np.ndarray:
        """(d, N, N) correctors of the forcings D^T e_j at the solved point."""
        f = self.geometry.forcing
        wx, wy = self.unit_correctors
        return np.stack([f[0, j] * wx + f[1, j] * wy
                         for j in range(f.shape[1])])

    @cached_property
    def unit_tensor(self) -> np.ndarray:
        """G depending on (B, K) only: the (2, 2) energy-form tensor.

        G[a, b] = int over the fluid cell of B (grad w_b + e_b) . (grad w_a
        + e_a) in pulled-back coordinates, with the same cut-cell quadrature
        as the stiffness matrix; filled from its upper triangle.
        """
        g = self.geometry
        S = g.assemble()
        b = g.unit_forcing_vectors()
        w = [u.ravel() for u in self.unit_correctors]
        Bdiag = (g.B11, g.B22)
        G = np.zeros((2, 2))
        for a in range(2):
            Sw = S @ w[a]
            for c in range(a, 2):
                val = float(w[c] @ Sw) - (float(b[a] @ w[c])
                                          + float(b[c] @ w[a]))
                if a == c:
                    val += g.fluid_area * Bdiag[a]
                G[a, c] = G[c, a] = val
        return G

    def corrector_energy(self, j: int) -> float:
        """Dirichlet energy of corrector j with unit coefficient."""
        S1 = self.geometry.assemble(unit=True)
        w = self.correctors[j].ravel()
        return float(w @ (S1 @ w))


def solve_cell(x, A: CoefficientLike, transform: TransformField,
               cell: UnitCellSpec, N_c: int = 128,
               tol: float = 1e-10) -> CellSolution:
    """Solve the corrector problems at macro point x.

    Conforming bilinear elements on the cut reference grid; the inclusion
    wall condition is natural. Correctors are normalized to zero mean over
    the active nodes. tol bounds the true relative residual of both unit
    solves; a larger one, or a singular factor, raises RuntimeError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    geom = build_cell_geometry(x, A, transform, cell, N_c)
    w, res = _unit_correctors(geom)
    if not np.all(res <= tol):
        raise RuntimeError(
            f"cell solve at x={x} missed tol={tol:g} "
            f"(relative residual {np.max(res):.3e})")
    return CellSolution(geometry=geom,
                        unit_correctors=w.reshape(2, N_c, N_c),
                        residuals=res, iterations=np.zeros(2, dtype=int))


def porosity(transform: TransformField, cell: UnitCellSpec, x) -> float:
    """theta(x) = 1 - |K_x Y0|; the lattice Jacobians cancel in the ratio."""
    if cell.inclusion == "none":
        return 1.0
    K = transform.K_at(np.asarray(x, dtype=float))
    detK = abs(float(np.linalg.det(K)))
    return 1.0 - math.pi * cell.a**2 * detK


def effective_tensor(x, A: CoefficientLike, transform: TransformField,
                     sol: CellSolution):
    """Effective diffusion tensor and porosity at macro point x.

    The corrector of the forcing D^T e_j is the matching combination of the
    unit correctors, so A_eff = D G D^T / |det D| with D = D(x) and G the
    unit tensor of sol: sol may come from any point with the same B and K
    as x. A_eff is filled from its upper triangle, so it is symmetric by
    construction.
    """
    G = sol.unit_tensor
    D = transform.D_at(np.asarray(x, dtype=float))
    detD = abs(float(np.linalg.det(D)))
    d = D.shape[0]
    A_eff = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            A_eff[i, j] = A_eff[j, i] = float(D[i] @ G @ D[j]) / detD
    return A_eff, porosity(transform, sol.geometry.cell, x)


@dataclass
class EffectiveTensorField:
    """Effective tensors at a list of macro sample points."""

    points: np.ndarray           # (m, d)
    tensors: np.ndarray          # (m, d, d)
    theta: np.ndarray            # (m,)
    residual: np.ndarray         # (m,)
    N_c: int
    errors: list = field(default_factory=list)   # per point, None when solved

    def ok(self) -> bool:
        return all(e is None for e in self.errors)


def _cache_key(*mats: np.ndarray) -> tuple:
    """Matrices to 12 digits; + 0.0 turns -0.0 into 0.0, which tobytes
    would tell apart."""
    return tuple((np.round(M, 12) + 0.0).tobytes() for M in mats)


def tensor_field(points, A: CoefficientLike, transform: TransformField,
                 cell: UnitCellSpec, N_c: int = 128,
                 tol: float = 1e-10) -> EffectiveTensorField:
    """Effective tensor at every requested macro point.

    Points sharing the pulled-back coefficient B and the inclusion matrix K
    (to 12 digits) reuse one cell solve, and effective_tensor maps it to
    each point's lattice matrix D: constant-transform scenarios, and
    rotated lattices with isotropic A, cost a single solve regardless of
    the sample count.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(pts)
    d = transform.d
    tensors = np.zeros((m, d, d))
    theta = np.zeros(m)
    residual = np.zeros(m)
    errors: list = [None] * m
    cache: dict = {}            # (B, K) key -> CellSolution or error message
    for k in range(m):
        x = pts[k]
        try:
            key = _cache_key(_cell_coefficient(A, transform, x),
                             transform.K_at(x))
        except (ValueError, NotImplementedError) as exc:
            sol = str(exc)
        else:
            if key not in cache:
                try:
                    cache[key] = solve_cell(x, A, transform, cell, N_c=N_c,
                                            tol=tol)
                except (ValueError, RuntimeError, NotImplementedError) as exc:
                    cache[key] = str(exc)
            sol = cache[key]
        if isinstance(sol, str):
            tensors[k] = np.nan
            residual[k] = np.nan
            errors[k] = sol
        else:
            tensors[k] = effective_tensor(x, A, transform, sol)[0]
            residual[k] = sol.residual
        theta[k] = porosity(transform, cell, x)
    return EffectiveTensorField(points=pts, tensors=tensors, theta=theta,
                                residual=residual, N_c=N_c, errors=errors)
