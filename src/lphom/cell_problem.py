"""Unit-cell correctors and the space-dependent effective diffusion tensor.

The corrector problems live on the transformed, perforated unit cell at each
macro point. A change of variables pulls them back to the reference square:
the physical operator becomes div(B grad .) with B = |det D| D^-1 A D^-T for
the scalar diffusivity A, and forcing vectors D^T e_j. Bilinear elements on
an N_c x N_c Cartesian grid, periodic wrap-around, with cells cut by the
inclusion boundary integrated exactly (column-wise closed-form moments of
the ellipse complement), give one stiffness matrix per point. It is
factorized once by a sparse LU on the active nodes, with one node pinned to
remove the constant mode and the mean subtracted afterwards, and that factor
solves the two unit forcings. The corrector of the forcing D^T e_j is the
same combination of the two unit correctors, so A_eff(x) = D G D^T / |det D|
where G depends on B and K only: points sharing (B, K), such as every node
of a rotated lattice, share one solve. Because the discrete space is
conforming on the perforated cell and nested under dyadic refinement, the
effective tensor converges monotonically from above at second order; the
energy-form assembly keeps it symmetric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import TransformField, UnitCellSpec, mask_connected

# largest true relative residual allowed of a unit corrector solve
_TOL = 1e-10

# 48-point Gauss-Legendre rule on [0, 1]; cut-cell column integrands are
# analytic between breakpoints except for a square-root endpoint at the
# silhouette extremes, where this rule still leaves only ~1e-11
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def pullback_coefficient(A: float, D: np.ndarray) -> np.ndarray:
    """Coefficient B = |det D| D^-1 (A I) D^-T of the reference-cell problem
    at a macro point with lattice matrix D = D(x), for the scalar
    diffusivity A, which must be finite and positive."""
    A = float(A)
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError(f"diffusivity must be finite and positive, got {A!r}")
    detD = abs(float(np.linalg.det(D)))
    if detD < 1e-14:
        raise ValueError("singular lattice matrix at the requested point")
    Dinv = np.linalg.inv(D)
    return detD * Dinv @ (A * np.eye(2)) @ Dinv.T


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of stacked vectors along the last axis, each one summed
    as the 1-d product u @ v sums it."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _roots01(ca: float, cb: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """Real roots of ca t^2 + cb t + cc in (0, 1), (..., 2) with NaN where
    absent; ca != 0."""
    disc = cb * cb - 4.0 * ca * cc
    sq = np.sqrt(np.where(disc > 0.0, disc, np.nan))
    t = np.stack([(-cb - sq) / (2 * ca), (-cb + sq) / (2 * ca)], axis=-1)
    return np.where((t > 0.0) & (t < 1.0), t, np.nan)


def _cut_cell_moments(cells: np.ndarray, h: float, Kinv: np.ndarray,
                      center: np.ndarray, a: float) -> np.ndarray:
    """Fluid moments (area, int xi, int xi^2, int eta, int eta^2) of the
    (m, 2) grid cells, as an (m, 5) array.

    Local coordinates (xi, eta) in [0,1]^2; the inclusion boundary cuts the
    cell. Column integration: for fixed xi the inside part is one interval in
    eta with closed-form moments; the xi-integral is Gauss quadrature split
    at the breakpoints where the interval structure changes (silhouette
    extremes and edge crossings), so each piece is analytic.
    """
    # eta-interval of the inside region per column:
    # q(eta) = q0 + eta*v, |q|^2 <= a^2 with q0 affine in xi
    ex = Kinv @ np.array([h, 0.0])
    ev = Kinv @ np.array([0.0, h])
    q00 = (Kinv @ (cells * h - center)[:, :, None])[:, :, 0]
    vv = float(ev @ ev)
    qev = _dot(q00, ev)
    # silhouette: discriminant in eta vanishes; it is quadratic in xi
    # disc(xi) = (q0.v)^2 - vv (|q0|^2 - a^2), q0 = q00 + xi*ex, with
    # leading coefficient -(ex x ev)^2 < 0; float_power squares through
    # libm pow, as a numpy scalar ** does
    sil = _roots01((ex @ ev) ** 2 - vv * (ex @ ex),
                   2.0 * qev * (ex @ ev) - vv * 2.0 * _dot(q00, ex),
                   np.float_power(qev, 2) - vv * (_dot(q00, q00) - a * a))
    # edge crossings: |q0 + s*ev|^2 = a^2 at s = 0 and s = 1, quadratic in xi
    base = q00[:, None, :] + np.array([0.0, 1.0])[:, None] * ev
    edge = _roots01(ex @ ex, _dot(2.0 * base, ex), _dot(base, base) - a * a)
    # sorted breakpoints, absent roots last as 1.0: repeated breakpoints
    # leave zero-width pieces, which the width test drops
    t = np.sort(np.column_stack([np.zeros(len(cells)), np.ones(len(cells)),
                                 sil, edge.reshape(len(cells), 4)]), axis=1)
    t[np.isnan(t)] = 1.0
    width = np.diff(t, axis=1)
    owner, piece = np.nonzero(width > 1e-15)
    xi = t[owner, piece, None] + width[owner, piece, None] * _GL_X
    w = width[owner, piece, None] * _GL_W
    q0 = q00[owner, None, :] + xi[..., None] * ex     # (pieces, nodes, 2)
    qb = q0 @ ev
    qc = np.sum(q0 * q0, axis=-1) - a * a
    disc = qb * qb - vv * qc
    inside = disc > 0.0
    sq = np.sqrt(np.where(inside, disc, 0.0))
    lo_i = np.clip(np.where(inside, (-qb - sq) / vv, 0.0), 0.0, 1.0)
    hi_i = np.maximum(np.clip(np.where(inside, (-qb + sq) / vv, 0.0), 0.0, 1.0),
                      lo_i)
    length = 1.0 - (hi_i - lo_i)
    m1 = 0.5 - 0.5 * (hi_i**2 - lo_i**2)
    m2 = 1.0 / 3.0 - (hi_i**3 - lo_i**3) / 3.0
    f = np.stack([length, xi * length, xi**2 * length, m1, m2], axis=1)
    sums = np.zeros(width.shape + (5,))
    sums[owner, piece] = _dot(w[:, None, :], f)
    # each cell adds up its pieces in breakpoint order
    return np.cumsum(sums, axis=1)[:, -1]


def _cell_cuts(N: int, K: np.ndarray, cell: UnitCellSpec):
    """Grid cells of the reference cell against the inclusion K Y0.

    Returns kind, (N, N) int8 with 0 = solid, 1 = full and 2 = cut by the
    inclusion boundary, and the (m, 2) cut cells in row-major order with
    their (m, 5) exact fluid moments.
    """
    h = 1.0 / N
    kind = np.ones((N, N), dtype=np.int8)
    if cell.a == 0.0:
        return kind, np.zeros((0, 2), dtype=int), np.zeros((0, 5))
    Kinv = np.linalg.inv(K)
    center = np.asarray(cell.center, dtype=float)
    reach = cell.a * np.linalg.norm(K, axis=1)
    if np.any(center - reach <= 0.0) or np.any(center + reach >= 1.0):
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
    candidate = (corners_in > 0) & (corners_in < 4)
    # silhouette extremes can poke through a cell edge without moving any
    # corner flag, so take the 3x3 patch around each extreme point
    extremes = center + np.concatenate([-np.diag(reach), np.diag(reach)])
    c = np.clip(np.floor(extremes / h), 0, N - 1).astype(int)
    patch = (c[:, None, :] + np.indices((3, 3)).reshape(2, -1).T
             - 1).reshape(-1, 2)
    patch = patch[np.all((patch >= 0) & (patch < N), axis=1)]
    candidate[patch[:, 0], patch[:, 1]] = True

    cells = np.argwhere(candidate)
    moments = _cut_cell_moments(cells, h, Kinv, center, cell.a)
    area = moments[:, 0]
    exact = np.where(area <= 1e-12, 0, np.where(area >= 1.0 - 1e-12, 1, 2))
    kind[corners_in == 4] = 0
    kind[cells[:, 0], cells[:, 1]] = exact
    return kind, cells[exact == 2], moments[exact == 2]


# local bilinear stiffness structure; node order (00, 10, 01, 11)
_SGN_X = np.array([-1.0, 1.0, -1.0, 1.0])
_TYP_X = np.array([0, 0, 1, 1])
_SGN_Y = np.array([-1.0, -1.0, 1.0, 1.0])
_TYP_Y = np.array([0, 1, 0, 1])
_FULL_MOMENTS = np.array([1.0, 0.5, 1.0 / 3.0, 0.5, 1.0 / 3.0])


def _local_from_moments(a0, ax, ax2, ay, ay2):
    """Per-cell 4x4 stiffness factors and forcing factors from the moment
    arrays (m,).

    Returns (Lx, Ly, gx, gy), (m, 4, 4) and (m, 4): Lx carries the grad-x
    products (multiply by B11), Ly the grad-y products (by B22); gx[:, a] =
    int over the fluid part of d/dx phi_a times h, gy likewise.
    """
    # quadratics in eta for the x-part: P[0,0]=int (1-eta)^2 etc.
    P = np.moveaxis(np.array([[a0 - 2 * ay + ay2, ay - ay2], [ay - ay2, ay2]]),
                    -1, 0)
    Q = np.moveaxis(np.array([[a0 - 2 * ax + ax2, ax - ax2], [ax - ax2, ax2]]),
                    -1, 0)
    Lx = _SGN_X[:, None] * _SGN_X[None, :] * P[:, _TYP_X[:, None], _TYP_X]
    Ly = _SGN_Y[:, None] * _SGN_Y[None, :] * Q[:, _TYP_Y[:, None], _TYP_Y]
    gx = _SGN_X * np.column_stack([a0 - ay, ay])[:, _TYP_X]
    gy = _SGN_Y * np.column_stack([a0 - ax, ax])[:, _TYP_Y]
    return Lx, Ly, gx, gy


def _assemble(kind: np.ndarray, cut_idx: np.ndarray, cut_moments: np.ndarray,
              b11: float, b22: float):
    """Periodic stiffness matrix and the (2, N*N) loads of the unit forcings.

    Full cells come first, then the cut cells in order, so duplicate
    entries and loads are summed in that order; every full cell shares one
    local matrix.
    """
    N = len(kind)
    full = np.argwhere(kind == 1)
    i, j = np.concatenate([full, cut_idx]).T
    nodes = np.stack([i * N + j, ((i + 1) % N) * N + j,
                      i * N + (j + 1) % N, ((i + 1) % N) * N + (j + 1) % N],
                     axis=1)
    Lx, Ly, gx, gy = _local_from_moments(
        *np.vstack([_FULL_MOMENTS, cut_moments]).T)
    local = np.concatenate([np.zeros(len(full), dtype=int),
                            np.arange(1, len(cut_idx) + 1)])
    S = sp.csr_matrix(
        ((b11 * Lx + b22 * Ly)[local].ravel(),
         (np.repeat(nodes, 4, axis=1).ravel(), np.tile(nodes, (1, 4)).ravel())),
        shape=(N * N, N * N))
    loads = np.zeros((2, N * N))
    h = 1.0 / N
    np.add.at(loads[0], nodes, (-h * b11 * gx)[local])
    np.add.at(loads[1], nodes, (-h * b22 * gy)[local])
    return S, loads


@dataclass
class CellGeometry:
    """Reference perforated cell at one macro point, assembled.

    S is the stiffness matrix of bilinear elements on the fluid part of the
    N_c x N_c periodic grid, cut cells integrated with their exact fluid
    moments; unit_forcings row j is the load of the forcing e_j.
    """

    N_c: int
    B11: float
    B22: float
    forcing: np.ndarray          # (2, 2): column j is D^T e_j
    fluid_area: float            # quadrature measure of the fluid part
    S: sp.csr_matrix             # (N*N, N*N)
    unit_forcings: np.ndarray    # (2, N*N)
    active: np.ndarray           # (N*N,) nodes with a nonzero diagonal


def check_cell_grid(N_c: int) -> None:
    """The cell grid must resolve the inclusion: N_c >= 32."""
    if N_c < 32:
        raise ValueError("cell grid too coarse, need N_c >= 32")


def build_cell_geometry(x, A: float, transform: TransformField,
                        cell: UnitCellSpec, N_c: int) -> CellGeometry:
    """Cut cells, stiffness matrix and unit forcings of the problem at x."""
    check_cell_grid(N_c)
    x = np.asarray(x, dtype=float)
    D = transform.D_at(x)
    Bmat = pullback_coefficient(A, D)
    scale = float(np.max(np.abs(Bmat)))
    if abs(Bmat[0, 1]) > 1e-12 * scale:
        raise NotImplementedError(
            "pulled-back coefficient has cross terms; the tensor-product "
            "cell discretization supports diagonal B only")

    kind, cut_idx, cut_m = _cell_cuts(N_c, transform.K_at(x), cell)
    if not mask_connected(kind > 0, periodic=True):
        raise ValueError("fluid region of the cell mask is disconnected")
    h = 1.0 / N_c
    fluid_area = 1.0 if cell.a == 0.0 else (
        (float(np.sum(kind == 1)) + float(cut_m[:, 0].sum())) * h * h)
    B11, B22 = float(Bmat[0, 0]), float(Bmat[1, 1])
    S, loads = _assemble(kind, cut_idx, cut_m, B11, B22)
    diag = S.diagonal()
    return CellGeometry(N_c=N_c, B11=B11, B22=B22,
                        forcing=D.T.copy(),
                        fluid_area=fluid_area, S=S, unit_forcings=loads,
                        active=diag > 1e-12 * float(diag.max()))


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
    act = geom.active
    S_act = geom.S[act][:, act]
    b = np.column_stack([v[act] for v in geom.unit_forcings])
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
    unit_correctors: np.ndarray  # (2, N, N) for forcings e_x, e_y; zero
                                 # outside fluid
    residuals: np.ndarray        # (2,) relative residuals of the unit solves
    iterations: np.ndarray       # (2,) solver iterations, 0 for the direct
                                 # solve

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
        S, b = g.S, g.unit_forcings
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


def solve_cell(x, A: float, transform: TransformField,
               cell: UnitCellSpec, N_c: int = 128) -> CellSolution:
    """Solve the corrector problems at macro point x.

    Conforming bilinear elements on the cut reference grid; the inclusion
    wall condition is natural. Correctors are normalized to zero mean over
    the active nodes. _TOL bounds the true relative residual of both unit
    solves; a larger one, or a singular factor, raises RuntimeError.
    """
    geom = build_cell_geometry(x, A, transform, cell, N_c)
    w, res = _unit_correctors(geom)
    if not np.all(res <= _TOL):
        raise RuntimeError(
            f"cell solve at x={x} missed tol={_TOL:g} "
            f"(relative residual {np.max(res):.3e})")
    return CellSolution(geometry=geom,
                        unit_correctors=w.reshape(2, N_c, N_c),
                        residuals=res, iterations=np.zeros(2, dtype=int))


def effective_tensor(D: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Effective diffusion tensor A_eff = D G D^T / |det D| at a macro point
    with lattice matrix D = D(x).

    The corrector of the forcing D^T e_j is the matching combination of the
    unit correctors, so G, the unit tensor of a CellSolution, may come from
    any point with the same B and K. A_eff is filled from its upper
    triangle, so it is symmetric by construction.
    """
    detD = abs(float(np.linalg.det(D)))
    A_eff = np.empty((2, 2))
    for i in range(2):
        for j in range(i, 2):
            A_eff[i, j] = A_eff[j, i] = float(D[i] @ G @ D[j]) / detD
    return A_eff


@dataclass
class EffectiveTensorField:
    """Effective tensors at a list of macro sample points."""

    points: np.ndarray           # (m, 2)
    tensors: np.ndarray          # (m, 2, 2)
    theta: np.ndarray            # (m,)
    residual: np.ndarray         # (m,)
    N_c: int
    errors: list = field(default_factory=list)   # per point, None when solved

    def ok(self) -> bool:
        return all(e is None for e in self.errors)


def _cache_key(*mats: np.ndarray) -> tuple:
    """Each matrix M to 12 digits of its largest entry s: s and M / s, the
    latter to 12 decimals; + 0.0 turns -0.0 into 0.0 for tobytes."""
    scales = [float(np.max(np.abs(M))) or 1.0 for M in mats]
    return tuple((f"{s:.11e}", (np.round(M / s, 12) + 0.0).tobytes())
                 for M, s in zip(mats, scales))


def tensor_field(points, A: float, transform: TransformField,
                 cell: UnitCellSpec, N_c: int = 128) -> EffectiveTensorField:
    """Effective tensor at every requested macro point.

    Points sharing the pulled-back coefficient B and the inclusion matrix K
    (each to 12 digits of its largest entry) reuse one cell solve, of which
    only the unit tensor G and the residual are kept; effective_tensor maps
    G to each point's lattice matrix D, so constant-transform scenarios and
    rotated lattices cost one solve whatever the sample count.
    """
    check_cell_grid(N_c)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(pts)
    tensors = np.zeros((m, 2, 2))
    theta = np.full(m, np.nan)
    residual = np.zeros(m)
    errors: list = [None] * m
    cache: dict = {}            # (B, K) key -> (G, residual) or error message
    for k in range(m):
        x = pts[k]
        try:
            K = transform.K_at(x)
            # theta = 1 - |K Y0|: the lattice Jacobians cancel in the ratio
            theta[k] = 1.0 - cell.inclusion_measure(K)
            D = transform.D_at(x)
            key = _cache_key(pullback_coefficient(A, D), K)
        except ValueError as exc:
            entry = str(exc)
        else:
            if key not in cache:
                try:
                    sol = solve_cell(x, A, transform, cell, N_c=N_c)
                except (ValueError, RuntimeError, NotImplementedError) as exc:
                    cache[key] = str(exc)
                else:
                    # the geometry and the correctors go before the next solve
                    cache[key] = (sol.unit_tensor, sol.residual)
                    del sol
            entry = cache[key]
        if isinstance(entry, str):
            tensors[k] = np.nan
            residual[k] = np.nan
            errors[k] = entry
        else:
            G, residual[k] = entry
            tensors[k] = effective_tensor(D, G)
    return EffectiveTensorField(points=pts, tensors=tensors, theta=theta,
                                residual=residual, N_c=N_c, errors=errors)
