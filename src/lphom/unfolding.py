"""Discrete locally periodic unfolding operators and their integral identities.

Bulk and perforated unfolding, boundary unfolding with metric factors, the
local average operator, the micro-macro interpolant Q with remainder R, and
the pairing functional used to diagnose locally periodic two-scale limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Partition,
    ScalarFieldOnCells,
    UnitCellSpec,
    locate_slots,
    lp_approx_batch,
    map_cells,
)


class GridFunction:
    """Cell-centered values on a uniform Cartesian grid over a box.

    mask marks active cells (inside the domain, or inside the perforated
    domain). Point evaluation is bilinear in the cell-center values with
    linear extrapolation beyond the outermost centers, so affine fields are
    reproduced exactly everywhere. exact_eval, when set, is the underlying
    analytic field; consumers may sample it instead of interpolating to keep
    interpolation error out of convergence diagnostics.

    values is an array, or a function of the grid that returns it, called
    on the first read of values; shape, mask and copy_with do not read it.
    """

    def __init__(self, lo, hi, h: float, values, mask=None,
                 exact_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.h = h
        if callable(values):
            self._sample = values
            self.shape = tuple(int(round(t)) for t in (self.hi - self.lo) / h)
        else:
            self.values = np.asarray(values, dtype=float)
            self.shape = self.values.shape
        self.mask = np.ones(self.shape, dtype=bool) if mask is None else mask
        self.exact_eval = exact_eval

    @cached_property
    def values(self) -> np.ndarray:
        return self._sample(self)

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return self.lo[axis] + (np.arange(n) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        xs = [self.axis_centers(i) for i in range(len(self.shape))]
        return np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1)

    def eval(self, X: np.ndarray) -> np.ndarray:
        """Bilinear interpolation at points X of shape (m, 2)."""
        if len(self.shape) != 2:
            raise ValueError(f"bilinear evaluation needs a 2-D grid, got {self.shape}")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = (X - self.lo) / self.h - 0.5
        n = np.array(self.shape)
        i0 = np.clip(np.floor(t).astype(int), 0, n - 2)
        w = t - i0   # may leave [0,1] at the edges: linear extrapolation
        v = self.values
        i, j = i0[:, 0], i0[:, 1]
        wx, wy = w[:, 0], w[:, 1]
        return ((1 - wx) * (1 - wy) * v[i, j] + wx * (1 - wy) * v[i + 1, j]
                + (1 - wx) * wy * v[i, j + 1] + wx * wy * v[i + 1, j + 1])

    def integrate(self) -> float:
        """Grid integral over active cells (midpoint rule)."""
        return float(self.h ** len(self.shape) * self.values[self.mask].sum())

    def copy_with(self, values: np.ndarray, exact_eval=None) -> "GridFunction":
        return GridFunction(self.lo.copy(), self.hi.copy(), self.h,
                            values, self.mask.copy(), exact_eval)


# points per evaluation of f when a grid_function_from_callable is sampled
_ROW_BLOCK = 1 << 16


def _sample_rows(f: Callable[[np.ndarray], np.ndarray],
                 grid: GridFunction) -> np.ndarray:
    """Cell-center values of f, in blocks of whole rows (first axis)."""
    n = grid.shape
    xs = [grid.axis_centers(i) for i in range(len(n))]
    vals = np.empty(n)
    rows = max(1, _ROW_BLOCK // math.prod(n[1:]))
    for r0 in range(0, n[0], rows):
        X = np.stack(np.meshgrid(xs[0][r0:r0 + rows], *xs[1:], indexing="ij"),
                     axis=-1).reshape(-1, len(n))
        vals[r0:r0 + rows] = np.asarray(f(X), dtype=float).reshape((-1,) + n[1:])
    return vals


def grid_function_from_callable(f: Callable[[np.ndarray], np.ndarray],
                                lo, hi, h: float,
                                keep_exact: bool = True) -> GridFunction:
    """Cell-center samples of f on the grid of spacing h over [lo, hi].

    The samples are taken on the first read of values, so a consumer of
    exact_eval alone samples nothing. f is called on blocks of whole rows
    (first axis) of at most _ROW_BLOCK points, at least one row, written
    into the preallocated value array, so the working memory of f is
    bounded by the block and not by the grid. f must act point by point.
    """
    return GridFunction(lo, hi, h, lambda grid: _sample_rows(f, grid),
                        exact_eval=f if keep_exact else None)


def lattice_pwc_field(partition: Partition, cell_values: dict,
                      lo, hi, h: float, fill: float = 0.0) -> GridFunction:
    """Piecewise constant per lattice cell, keyed by (n, xi); exact-evaluable.

    Values default to fill on leftover regions and unlisted cells; keys
    outside Xi_hat are never read. The dict is written once into a table
    over the partition's cell slots, read as in _slot_table_field.
    """
    table = np.full(partition.n_cell_slots + 1, fill)
    keys = [k for k in cell_values if 0 <= k[0] < partition.n_subdomains]
    slots = partition.cell_slots([k[0] for k in keys], [k[1] for k in keys])
    ok = slots >= 0
    table[slots[ok]] = np.array([cell_values[k] for k in keys])[ok]
    return _slot_table_field(partition, table, lo, hi, h)


def _slot_table_field(partition: Partition, table: np.ndarray,
                      lo, hi, h: float) -> GridFunction:
    """Piecewise constant field read from a table over the cell slots.

    The evaluator indexes the table with the slot that locate_slots returns
    for each point; the entry past the slots, read through slot -1, holds
    the value of the leftover region. Exact-evaluable.
    """
    def f(X: np.ndarray) -> np.ndarray:
        return table[locate_slots(partition, X)[3]]

    return grid_function_from_callable(f, lo, hi, h, keep_exact=True)


def _unit_cell_nodes(m_y: int, d: int) -> np.ndarray:
    """Tensor midpoint nodes over Y = (0,1)^d."""
    one = (np.arange(m_y) + 0.5) / m_y
    return np.stack(np.meshgrid(*([one] * d), indexing="ij"), axis=-1).reshape(-1, d)


@dataclass
class UnfoldedGrid:
    """Samples of the unfolded function indexed by (subdomain, cell, node).

    weight is the macro weight per sample, eps^d |det D_n| / m_y^d; entries
    exist only for cells in Xi_hat, the operator vanishes on leftover regions.
    """

    m_y: int
    d: int
    sub_index: np.ndarray          # (E,)
    xi: np.ndarray                 # (E, d)
    values: np.ndarray             # (E, m)
    weight: np.ndarray             # (E,) per-sample macro weight
    y_nodes: np.ndarray            # (m, d)
    sample_mask: Optional[np.ndarray] = None   # (E, m), perforated mode

    @property
    def n_entries(self) -> int:
        return len(self.xi)

    def _m(self) -> np.ndarray:
        if self.sample_mask is None:
            return np.ones_like(self.values, dtype=bool)
        return self.sample_mask

    def weighted_sum(self) -> float:
        m = self._m()
        return float(np.sum(self.weight[:, None] * np.where(m, self.values, 0.0)))

    def total_weight(self) -> float:
        return float(np.sum(self.weight[:, None] * self._m()))

    def weighted_l2(self) -> float:
        m = self._m()
        return math.sqrt(float(np.sum(self.weight[:, None]
                                      * np.where(m, self.values, 0.0) ** 2)))

    def mean_over_Y(self) -> np.ndarray:
        """Per-entry mean over the unit cell (equal midpoint weights)."""
        m = self._m()
        return np.sum(np.where(m, self.values, 0.0), axis=1) / np.maximum(
            np.sum(m, axis=1), 1)


def unfold(phi: GridFunction, partition: Partition, m_y: int,
           mask_mode: str = "bulk", cell: Optional[UnitCellSpec] = None,
           eval_mode: str = "grid") -> UnfoldedGrid:
    """Discrete locally periodic unfolding.

    Samples phi at the mapped points shift_n + eps D_n (xi + y) for every
    xi in Xi_hat_n and y on an m_y x m_y midpoint grid over Y. Perforated
    mode drops sample nodes inside the reference inclusion (supported for
    K = I only). eval_mode "exact" samples phi.exact_eval when available.
    """
    if m_y < 2:
        raise ValueError("m_y must be at least 2")
    if mask_mode not in ("bulk", "perforated"):
        raise ValueError(f"unknown mask mode {mask_mode!r}")
    if eval_mode not in ("grid", "exact"):
        raise ValueError(f"unknown eval mode {eval_mode!r}")
    d = partition.d
    y_nodes = _unit_cell_nodes(m_y, d)
    if mask_mode == "perforated":
        if cell is None:
            raise ValueError("perforated mode needs the unit cell")
        for s in partition.subdomains:
            if np.max(np.abs(s.K - np.eye(d))) > 1e-13:
                raise ValueError("perforated unfolding supports K = I only")
        keep = np.linalg.norm(y_nodes - cell.center, axis=1) > cell.a \
            if cell.inclusion != "none" else np.ones(len(y_nodes), dtype=bool)
    evaluate = phi.eval
    if eval_mode == "exact":
        if phi.exact_eval is None:
            raise ValueError("grid function carries no exact evaluation")
        evaluate = phi.exact_eval

    # empty first entries keep shapes and dtypes when no subdomain has cells
    subs, xis = [np.zeros(0, dtype=int)], [np.zeros((0, d), dtype=int)]
    vals, wts = [np.zeros((0, len(y_nodes)))], [np.zeros(0)]
    for s in partition.subdomains:
        if not len(s.xi_hat):
            continue
        pts = map_cells(s.shift, partition.eps, s.D, s.xi_hat, y_nodes)
        v = np.asarray(evaluate(pts.reshape(-1, d)), dtype=float).reshape(
            len(s.xi_hat), len(y_nodes))
        subs.append(np.full(len(s.xi_hat), s.n))
        xis.append(s.xi_hat)
        vals.append(v)
        wts.append(np.full(len(s.xi_hat),
                           partition.eps**d * s.detD / len(y_nodes)))
    values = np.concatenate(vals)
    sample_mask = (np.broadcast_to(keep, values.shape).copy()
                   if mask_mode == "perforated" else None)
    return UnfoldedGrid(m_y=m_y, d=d, sub_index=np.concatenate(subs),
                        xi=np.concatenate(xis), values=values,
                        weight=np.concatenate(wts), y_nodes=y_nodes,
                        sample_mask=sample_mask)


@dataclass
class GammaQuadrature:
    """Midpoint rule on n_gamma equal-parameter arcs of the reference circle."""

    cell: UnitCellSpec
    n_gamma: int = 16

    def __post_init__(self):
        if self.cell.inclusion == "none":
            raise ValueError("boundary quadrature needs an inclusion")
        if self.n_gamma < 1:
            raise ValueError(f"n_gamma must be at least 1, got {self.n_gamma}")
        th = 2.0 * math.pi * (np.arange(self.n_gamma) + 0.5) / self.n_gamma
        a = self.cell.a
        self.nodes = self.cell.center + a * np.stack(
            [np.cos(th), np.sin(th)], axis=1)          # on the reference circle
        self.tangents = np.stack([-np.sin(th), np.cos(th)], axis=1)  # unit
        self.ref_weights = np.full(self.n_gamma, 2.0 * math.pi * a / self.n_gamma)

    @property
    def reference_measure(self) -> float:
        return float(self.ref_weights.sum())

    def metric(self, D: np.ndarray, K: np.ndarray) -> np.ndarray:
        """Mapped tangent length |D K tau_s| per node, (S,): the ratio of
        mapped to reference arc length under the maps D, K."""
        return np.linalg.norm(D @ K @ self.tangents.T, axis=0)


@dataclass
class BoundaryUnfolded:
    """Boundary unfolding samples indexed by (subdomain, cell, arc node).

    metric holds GammaQuadrature.metric of each subdomain's D_n, K_n, the
    ratio of mapped to reference surface measure.
    """

    eps: float
    d: int
    sub_index: np.ndarray       # (E,)
    xi: np.ndarray              # (E, d)
    values: np.ndarray          # (E, S)
    ref_weights: np.ndarray     # (S,)
    metric: np.ndarray          # (E, S)
    detD: np.ndarray            # (E,)

    def surface_measure(self) -> float:
        """Quadrature measure of the mapped interior boundary."""
        return float(self.eps ** (self.d - 1)
                     * np.sum(self.metric * self.ref_weights[None, :]))

    def weighted_power_sum(self, p: float = 2.0) -> float:
        """Unfolded surface functional: the x-integral of the weighted
        Gamma-integral of |values|^p with the metric ratio and the local cell
        measure |Y_n| = |det D_n|."""
        integrand = np.abs(self.values) ** p * self.metric * self.ref_weights[None, :]
        percell = integrand.sum(axis=1) / self.detD
        return float(np.sum(self.eps ** self.d * self.detD * percell))

    def direct_surface_integral(self, p: float = 2.0) -> float:
        """Direct quadrature of |psi|^p over the mapped boundary, same nodes."""
        ds = self.eps ** (self.d - 1) * self.metric * self.ref_weights[None, :]
        return float(np.sum(np.abs(self.values) ** p * ds))


def unfold_boundary(psi, partition: Partition,
                    quad: GammaQuadrature) -> BoundaryUnfolded:
    """Boundary unfolding on the mapped inclusion boundaries.

    psi is a callable on the domain or any object with an eval(X) method.
    Nodes are mapped by shift_n + eps D_n (xi + c + K_n (y(s) - c)): the
    inclusion is centered at the cell midpoint and K acts about it.
    """
    evaluate = psi.eval if hasattr(psi, "eval") else psi
    d = partition.d
    c = quad.cell.center
    S = quad.n_gamma   # lists start empty-shaped, as in unfold
    subs, xis = [np.zeros(0, dtype=int)], [np.zeros((0, d), dtype=int)]
    vals, mets = [np.zeros((0, S))], [np.zeros((0, S))]
    dets = [np.zeros(0)]
    for s in partition.subdomains:
        if not len(s.xi_hat):
            continue
        mapped_y = c + (quad.nodes - c) @ s.K.T          # (S, d)
        pts = map_cells(s.shift, partition.eps, s.D, s.xi_hat, mapped_y)
        v = np.asarray(evaluate(pts.reshape(-1, d)), dtype=float).reshape(
            len(s.xi_hat), S)
        subs.append(np.full(len(s.xi_hat), s.n))
        xis.append(s.xi_hat)
        vals.append(v)
        mets.append(np.broadcast_to(quad.metric(s.D, s.K), v.shape))
        dets.append(np.full(len(s.xi_hat), s.detD))
    return BoundaryUnfolded(
        eps=partition.eps, d=d, sub_index=np.concatenate(subs),
        xi=np.concatenate(xis), values=np.concatenate(vals),
        ref_weights=quad.ref_weights, metric=np.concatenate(mets),
        detD=np.concatenate(dets))


def local_average(phi: GridFunction, partition: Partition,
                  m_y: int = 4) -> GridFunction:
    """Local average: per lattice cell the mean over Y, zero on leftovers.

    Uses the exact evaluation path of phi when available so that repeated
    application is an exact projection. The returned field is piecewise
    constant per lattice cell and carries an exact evaluator.
    """
    mode = "exact" if phi.exact_eval is not None else "grid"
    ug = unfold(phi, partition, m_y, eval_mode=mode)
    table = np.zeros(partition.n_cell_slots + 1)
    table[partition.cell_slots(ug.sub_index, ug.xi)] = ug.mean_over_Y()
    out = _slot_table_field(partition, table, phi.lo, phi.hi, phi.h)
    out.mask = phi.mask.copy()
    return out


def _interpolant_cell_integral(phi: GridFunction, lo_pt: np.ndarray,
                               hi_pt: np.ndarray) -> float:
    """Exact integral of the bilinear interpolant over an axis-aligned box.

    Per-axis hat-function weights; the interpolant extends linearly beyond
    the outermost cell centers.
    """
    if len(phi.shape) != 2:
        raise ValueError(f"the interpolant integral needs a 2-D grid, got {phi.shape}")
    wvecs = []
    for ax in range(2):
        centers = phi.axis_centers(ax)
        n = len(centers)
        p, q = float(lo_pt[ax]), float(hi_pt[ax])
        # segment breakpoints: centers strictly inside (p, q), plus p and q
        inner = centers[(centers > p) & (centers < q)]
        brk = np.concatenate(([p], inner, [q]))
        w = np.zeros(n)
        for s0, s1 in zip(brk[:-1], brk[1:]):
            # linear on [s0, s1]; express endpoint values in the two
            # bracketing center values (extrapolated at the edges)
            mid = 0.5 * (s0 + s1)
            j = int(np.clip(np.floor((mid - phi.lo[ax]) / phi.h - 0.5), 0, n - 2))
            for s in (s0, s1):
                u = (s - centers[j]) / phi.h
                w[j] += 0.5 * (s1 - s0) * (1.0 - u)
                w[j + 1] += 0.5 * (s1 - s0) * u
        wvecs.append(w)
    return float(wvecs[0] @ phi.values @ wvecs[1])


def check_integration_identity(phi: GridFunction, partition: Partition,
                               m_y: int, eval_mode: str = "grid"):
    """Integration identity of the unfolding operator.

    lhs: weighted sum of the unfolded samples per unit cell volume.
    rhs: integral of phi over the covered region, cell by cell: the exact
    integral of the bilinear interpolant for axis-aligned lattices, fine
    midpoint subsampling otherwise (and for the exact evaluation path).
    Returns (lhs, rhs, gap).
    """
    ug = unfold(phi, partition, m_y, eval_mode=eval_mode)
    lhs = ug.weighted_sum()

    d = partition.d
    rhs = 0.0
    diag_ok = all(np.max(np.abs(s.D - np.diag(np.diag(s.D)))) < 1e-14
                  for s in partition.subdomains)
    if diag_ok and eval_mode == "grid":
        for s in partition.subdomains:
            diagD = np.diag(s.D)
            for xi in s.xi_hat:
                p0 = s.shift + partition.eps * diagD * xi
                p1 = s.shift + partition.eps * diagD * (xi + 1)
                lo_pt, hi_pt = np.minimum(p0, p1), np.maximum(p0, p1)
                rhs += _interpolant_cell_integral(phi, lo_pt, hi_pt)
    else:
        m_ref = 3 * m_y + 1   # independent of the lhs sample set
        y_f = _unit_cell_nodes(m_ref, d)
        evaluate = phi.exact_eval if (eval_mode == "exact") else phi.eval
        for s in partition.subdomains:
            if not len(s.xi_hat):
                continue
            pts = map_cells(s.shift, partition.eps, s.D, s.xi_hat, y_f)
            v = np.asarray(evaluate(pts.reshape(-1, d)), dtype=float)
            rhs += partition.eps**d * s.detD * float(v.sum()) / len(y_f)
    return lhs, rhs, abs(lhs - rhs)


def check_boundary_identity(psi, partition: Partition, quad: GammaQuadrature,
                            p: float = 2.0):
    """Boundary unfolding identity.

    lhs: unfolded surface functional with metric ratio and cell-measure
    weights. rhs: eps times the direct quadrature of |psi|^p over the mapped
    interior boundary, same nodes. Returns (lhs, rhs, gap).
    """
    bu = unfold_boundary(psi, partition, quad)
    lhs = bu.weighted_power_sum(p)
    rhs = partition.eps * bu.direct_surface_integral(p)
    return lhs, rhs, abs(lhs - rhs)


@dataclass
class QInterpolant:
    """Multilinear interpolant of cell-averaged node values.

    The node at lattice point xi carries the average of phi over the cell
    anchored there; a lattice cell is usable when the full averaging stencil
    (the 2^d cells anchored at its corners) lies inside the covered region.
    Constants are reproduced exactly; affine fields are reproduced up to an
    exact half-cell shift of the argument, so the remainder of a smooth field
    is of first order in eps. node_values is a table over the partition's
    cell slots (Partition.cell_slots); slots without a cell average hold NaN.
    """

    partition: Partition
    node_values: np.ndarray      # (n_cell_slots,) node value per cell slot
    usable_cells: dict           # n -> (m, d) int array

    def eval_cells(self, phi: GridFunction, points_per_axis: int):
        """Q and R = phi - Q sampled on a midpoint grid of each usable cell.

        Returns (q_vals, r_vals, points, weights) flattened over cells and
        samples.
        """
        part = self.partition
        d = part.d
        y = _unit_cell_nodes(points_per_axis, d)
        corners = np.array(list(np.ndindex(*(2,) * d)))          # (2^d, d)
        # multilinear weights in the fractional coordinate
        wts = np.ones((len(y), len(corners)))
        for ax in range(d):
            wts *= np.where(corners[None, :, ax] > 0.5,
                            y[:, None, ax], 1.0 - y[:, None, ax])
        evaluate = phi.exact_eval if phi.exact_eval is not None else phi.eval
        z = np.zeros(0)   # empty-shaped first entries, as in unfold
        q_all, r_all, p_all, w_all = [z], [z], [np.zeros((0, d))], [z]
        for s in part.subdomains:
            cells = self.usable_cells.get(s.n)
            if cells is None or not len(cells):
                continue
            corner_vals = np.stack([
                self.node_values[part.cell_slots(s.n, cells + c)]
                for c in corners], axis=1)                        # (m, 2^d)
            qv = corner_vals @ wts.T                              # (m, S)
            pts = map_cells(s.shift, part.eps, s.D, cells, y).reshape(-1, d)
            fv = evaluate(pts).reshape(qv.shape)
            q_all.append(qv.ravel())
            r_all.append((fv - qv).ravel())
            p_all.append(pts)
            w_all.append(np.full(qv.size, part.eps**d * s.detD / len(y)))
        return (np.concatenate(q_all), np.concatenate(r_all),
                np.concatenate(p_all), np.concatenate(w_all))


def interpolate_Q(phi: GridFunction, partition: Partition,
                  m_y: int = 4) -> QInterpolant:
    """Micro-macro interpolant: the node at lattice point xi carries the
    average of phi over the cell anchored at xi; values inside a cell are the
    multilinear interpolant of its corner node values."""
    mode = "exact" if phi.exact_eval is not None else "grid"
    ug = unfold(phi, partition, m_y, eval_mode=mode)
    node_values = np.full(partition.n_cell_slots, np.nan)
    node_values[partition.cell_slots(ug.sub_index, ug.xi)] = ug.mean_over_Y()

    offsets = list(np.ndindex(*(2,) * partition.d))
    usable = {}
    for s in partition.subdomains:
        good = np.ones(len(s.xi_hat), dtype=bool)
        for c in offsets:
            good &= partition.xi_hat_contains(s.n, s.xi_hat + c)
        usable[s.n] = s.xi_hat[good]
    return QInterpolant(partition=partition, node_values=node_values,
                        usable_cells=usable)


def remainder_R(phi: GridFunction, partition: Partition, m_y: int = 4,
                points_per_axis: int = 4, grad=None):
    """Remainder diagnostics of the micro-macro interpolant on usable cells.

    Returns (r_norm, grad_norm, region_measure): the L2 norms of phi - Q(phi)
    and of the gradient of phi over the same region. grad is an optional
    callable X -> (m, d); central differences of phi otherwise.
    """
    qi = interpolate_Q(phi, partition, m_y=m_y)
    _, r, pts, w = qi.eval_cells(phi, points_per_axis)
    r_norm = math.sqrt(float(np.sum(w * r**2)))
    if len(pts) == 0:
        return r_norm, 0.0, 0.0
    if grad is not None:
        g = np.asarray(grad(pts), dtype=float)
    else:
        evaluate = phi.exact_eval if phi.exact_eval is not None else phi.eval
        delta = 1e-6
        g = np.empty_like(pts)
        for ax in range(pts.shape[1]):
            dp, dm = pts.copy(), pts.copy()
            dp[:, ax] += delta
            dm[:, ax] -= delta
            g[:, ax] = (evaluate(dp) - evaluate(dm)) / (2 * delta)
    grad_norm = math.sqrt(float(np.sum(w * np.sum(g**2, axis=1))))
    return r_norm, grad_norm, float(np.sum(w))


def lts_pairing(u: GridFunction, psi: ScalarFieldOnCells,
                partition: Partition) -> float:
    """Grid quadrature of u times the locally periodic approximation of psi."""
    d = len(u.shape)
    X = u.centers().reshape(-1, d)
    act = u.mask.ravel()
    vals = lp_approx_batch(psi, partition, X[act], variant="L")
    return float(u.h**d * np.sum(u.values.ravel()[act] * vals))


def norm_unfold_minus_identity(phi: GridFunction, partition: Partition,
                               m_y: int) -> float:
    """L2 distance between the unfolded field and the field itself.

    Both arguments of |T(phi)(x, y) - phi(x)| are sampled on the same
    midpoint set per lattice cell (independent x and y indices), an exact
    double quadrature on the product of the cell with Y.
    """
    mode = "exact" if phi.exact_eval is not None else "grid"
    ug = unfold(phi, partition, m_y, eval_mode=mode)
    total = 0.0
    for e in range(ug.n_entries):
        v = ug.values[e]
        diff = v[None, :] - v[:, None]      # x-sample index first
        total += ug.weight[e] / len(v) * float(np.sum(diff**2))
    return math.sqrt(total)


def norm_unfold_of_lp_minus_psi(psi: ScalarFieldOnCells, partition: Partition,
                                m_y: int, lo, hi, h: float) -> float:
    """L2 distance between the unfolded locally periodic approximation and
    the two-scale field itself, sampled per cell in (x, y)."""
    lp_field = grid_function_from_callable(
        lambda X: lp_approx_batch(psi, partition, X, variant="L"),
        lo, hi, h, keep_exact=True)
    ug = unfold(lp_field, partition, m_y, eval_mode="exact")
    m = len(ug.y_nodes)
    Yrep = np.tile(ug.y_nodes, (m, 1))
    total = 0.0
    for s in partition.subdomains:
        sel = np.where(ug.sub_index == s.n)[0]
        if not len(sel):
            continue
        pts = map_cells(s.shift, partition.eps, s.D, ug.xi[sel], ug.y_nodes)
        for row, e in enumerate(sel):
            # psi_tilde(x_t, y_s) on the product of the sample sets
            ps = psi.f(np.repeat(pts[row], m, axis=0), Yrep).reshape(m, m)
            diff = ug.values[e][None, :] - ps
            total += ug.weight[e] / m * float(np.sum(diff**2))
    return math.sqrt(total)
