"""Discrete locally periodic unfolding operators and their integral identities.

Bulk unfolding, boundary unfolding with metric factors, the
local average operator, the micro-macro interpolant Q with remainder R, and
the pairing functional used to diagnose locally periodic two-scale limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .geometry import (
    Partition,
    UnitCellSpec,
    locate_cells,
    lp_approx_batch,
    map_cells,
)


# a field: a function of points X, (m, 2), to its values there, (m,)
Field = Callable[[np.ndarray], np.ndarray]


class GridFunction:
    """Cell-centered values on a uniform Cartesian grid over a 2-D box, and
    the field of their bilinear interpolation.

    Called at points X of shape (m, 2), it interpolates bilinearly in the
    cell-center values, with linear extrapolation beyond the outermost
    centers, so affine fields are reproduced exactly everywhere.
    """

    def __init__(self, lo, hi, h: float, values):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.h = h
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"a grid function needs a 2-D grid, got "
                             f"{self.values.shape}")

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        return self.lo[axis] + (np.arange(n) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        return np.stack(np.meshgrid(self.axis_centers(0), self.axis_centers(1),
                                    indexing="ij"), axis=-1)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = (X - self.lo) / self.h - 0.5
        n = np.array(self.values.shape)
        i0 = np.clip(np.floor(t).astype(int), 0, n - 2)
        w = t - i0   # may leave [0,1] at the edges: linear extrapolation
        v = self.values
        i, j = i0[:, 0], i0[:, 1]
        wx, wy = w[:, 0], w[:, 1]
        return ((1 - wx) * (1 - wy) * v[i, j] + wx * (1 - wy) * v[i + 1, j]
                + (1 - wx) * wy * v[i, j + 1] + wx * wy * v[i + 1, j + 1])


# points per evaluation of f when a grid_function_from_callable is sampled,
# and per array pass of the row-blocked reductions
_ROW_BLOCK = 1 << 16


def _row_blocks(n_rows: int, per_row: int) -> list:
    """Slices of at most _ROW_BLOCK // per_row rows, at least one, that
    cover range(n_rows) in order."""
    step = max(1, _ROW_BLOCK // per_row)
    return [slice(r0, r0 + step) for r0 in range(0, n_rows, step)]


def grid_function_from_callable(f: Field, lo, hi, h: float) -> GridFunction:
    """Cell-center samples of f on the grid of spacing h over [lo, hi].

    f is called on blocks of whole rows (first axis) of at most _ROW_BLOCK
    points, at least one row, written into the preallocated value array,
    so the working memory of f is bounded by the block and not by the grid.
    f must act point by point.
    """
    shape = np.rint((np.asarray(hi, dtype=float) - lo) / h).astype(int)
    grid = GridFunction(lo, hi, h, np.empty(shape))
    x0, x1 = grid.axis_centers(0), grid.axis_centers(1)
    for rows in _row_blocks(len(x0), len(x1)):
        X = np.stack(np.meshgrid(x0[rows], x1, indexing="ij"),
                     axis=-1).reshape(-1, 2)
        grid.values[rows] = np.asarray(f(X), dtype=float).reshape(-1, len(x1))
    return grid


def lattice_pwc_field(partition: Partition, values: np.ndarray) -> Field:
    """The field constant on each lattice cell.

    values holds one value per row of the partition's Xi_hat row layout;
    the field is 0 on leftover regions, read through the row -1 that
    locate_cells returns there from the table's extra last entry.
    """
    table = np.append(np.broadcast_to(values, partition.hat_n.shape), 0.0)
    return lambda X: table[locate_cells(partition, X)[3]]


def _unit_cell_nodes(m_y: int) -> np.ndarray:
    """Tensor midpoint nodes over Y = (0,1)^2."""
    one = (np.arange(m_y) + 0.5) / m_y
    return np.stack(np.meshgrid(one, one, indexing="ij"), axis=-1).reshape(-1, 2)


@dataclass
class UnfoldedGrid:
    """Samples of the unfolded function indexed by (subdomain, cell, node).

    The rows are the partition's Xi_hat row layout: row e belongs to
    subdomain hat_n[e] and cell hat_xi[e]. weight is the macro weight per
    sample, eps^2 |det D_n| / m_y^2; entries exist only for cells in
    Xi_hat, the operator vanishes on leftover regions.
    """

    values: np.ndarray             # (E, m)
    weight: np.ndarray             # (E,) per-sample macro weight
    y_nodes: np.ndarray            # (m, 2)

    @property
    def n_entries(self) -> int:
        return len(self.values)

    def mean_over_Y(self) -> np.ndarray:
        """Per-entry mean over the unit cell (equal midpoint weights)."""
        return np.sum(self.values, axis=1) / self.values.shape[1]


def _mapped_samples(evaluate: Field, partition: Partition, y):
    """(n, rows, values) per hat_blocks() block: evaluate at the points
    shift_n + eps D_n (xi + y) of the block's cells, one map_cells call per
    block, as a (cells, k) float array. y holds the k unit-cell points, or
    is a function of n that returns them."""
    for n, rows in partition.hat_blocks():
        y_n = y(n) if callable(y) else y
        pts = map_cells(partition.shift[n], partition.eps, partition.D[n],
                        partition.hat_xi[rows], y_n)
        yield n, rows, np.asarray(evaluate(pts.reshape(-1, 2)),
                                  dtype=float).reshape(-1, len(y_n))


def unfold(phi: Field, partition: Partition, m_y: int) -> UnfoldedGrid:
    """Discrete locally periodic unfolding.

    Samples phi at the mapped points
    shift_n + eps D_n (xi + y) for every xi in Xi_hat_n and y on an
    m_y x m_y midpoint grid over Y.
    """
    if m_y < 2:
        raise ValueError("m_y must be at least 2")
    y_nodes = _unit_cell_nodes(m_y)
    m = len(y_nodes)
    values = np.empty((len(partition.hat_n), m))
    for _, rows, v in _mapped_samples(phi, partition, y_nodes):
        values[rows] = v
    return UnfoldedGrid(values=values,
                        weight=(partition.cell_measures / m)[partition.hat_n],
                        y_nodes=y_nodes)


@dataclass
class GammaQuadrature:
    """Midpoint rule on n_gamma equal-parameter arcs of the reference circle."""

    cell: UnitCellSpec
    n_gamma: int = 16

    def __post_init__(self):
        if self.cell.a == 0.0:
            raise ValueError("boundary quadrature needs an inclusion")
        if self.n_gamma < 1:
            raise ValueError(f"n_gamma must be at least 1, got {self.n_gamma}")
        th = 2.0 * math.pi * (np.arange(self.n_gamma) + 0.5) / self.n_gamma
        a = self.cell.a
        self.nodes = self.cell.center + a * np.stack(
            [np.cos(th), np.sin(th)], axis=1)          # on the reference circle
        self.tangents = np.stack([-np.sin(th), np.cos(th)], axis=1)  # unit
        self.ref_weights = np.full(self.n_gamma, 2.0 * math.pi * a / self.n_gamma)

    def metric(self, D: np.ndarray, K: np.ndarray) -> np.ndarray:
        """Mapped tangent length |D K tau_s| per node, (S,): the ratio of
        mapped to reference arc length under the maps D, K."""
        return np.linalg.norm(D @ K @ self.tangents.T, axis=0)


@dataclass
class BoundaryUnfolded:
    """Boundary unfolding samples indexed by (subdomain, cell, arc node).

    The rows of values are the partition's Xi_hat row layout. metric holds
    GammaQuadrature.metric of each subdomain's D_n, K_n, the ratio of
    mapped to reference surface measure, one row per subdomain.
    """

    partition: Partition
    values: np.ndarray          # (E, S)
    ref_weights: np.ndarray     # (S,)
    metric: np.ndarray          # (n_subdomains, S)

    def weighted_power_sum(self) -> float:
        """Unfolded surface functional: the x-integral of the weighted
        Gamma-integral of |values|^2 with the metric ratio and the local cell
        measure |Y_n| = |det D_n|."""
        # |values|^2 * metric * ref_weights in one work array, in the
        # order of the operations, which the bits of the sum depend on; one
        # subdomain at a time, as metric[hat_n] would gather an (E, S) copy
        # that lifts the traced peak of the plywood2d eps = 1/128 boundary
        # check from 2.26x its samples to 3.0x, past its 2.5x test gate
        integrand = np.abs(self.values)
        integrand **= 2.0
        for n, rows in self.partition.hat_blocks():
            integrand[rows] *= self.metric[n]
        integrand *= self.ref_weights
        detD = self.partition.detD[self.partition.hat_n]
        percell = integrand.sum(axis=1) / detD
        return float(np.sum(self.partition.eps ** 2 * detD * percell))

    def direct_surface_integral(self) -> float:
        """Direct quadrature of |psi|^2 over the mapped boundary, same nodes."""
        # |values|^2 * (eps * metric * ref_weights), in that order, one
        # subdomain at a time for the reason in weighted_power_sum
        ds = self.partition.eps * self.metric
        ds *= self.ref_weights
        integrand = np.abs(self.values)
        integrand **= 2.0
        for n, rows in self.partition.hat_blocks():
            integrand[rows] *= ds[n]
        return float(np.sum(integrand))


def unfold_boundary(psi: Field, partition: Partition,
                    quad: GammaQuadrature) -> BoundaryUnfolded:
    """Boundary unfolding on the mapped inclusion boundaries.

    psi is a callable on the domain. Nodes are mapped by
    shift_n + eps D_n (xi + c + K_n (y(s) - c)): the inclusion is centered
    at the cell midpoint and K acts about it.
    """
    c = quad.cell.center
    values = np.empty((len(partition.hat_n), quad.n_gamma))
    for _, rows, v in _mapped_samples(
            psi, partition, lambda n: c + (quad.nodes - c) @ partition.K[n].T):
        values[rows] = v
    metric = np.array([quad.metric(D, K)
                       for D, K in zip(partition.D, partition.K)])
    return BoundaryUnfolded(partition=partition, values=values,
                            ref_weights=quad.ref_weights, metric=metric)


def local_average(phi: Field, partition: Partition, m_y: int = 4) -> Field:
    """Local average: per lattice cell the mean over Y, zero on leftovers.

    The returned field is piecewise constant per lattice cell, so that
    repeated application is an exact projection.
    """
    means = unfold(phi, partition, m_y).mean_over_Y()
    return lattice_pwc_field(partition, means)


def _interpolant_box_integrals(phi: GridFunction, lo_pts: np.ndarray,
                               hi_pts: np.ndarray) -> float:
    """Sum of the exact integrals of the bilinear interpolant over the
    axis-aligned boxes [lo_pts[i], hi_pts[i]], (m, 2) each.

    Each box side is cut at the cell centers, where the interpolant bends,
    into pieces padded with pieces of width 0; on a product of two pieces
    the interpolant is bilinear, so its integral is the area times its
    value at the midpoint."""
    pieces = []
    for ax in range(2):
        centers = phi.axis_centers(ax)
        p, q = lo_pts[:, ax, None], hi_pts[:, ax, None]
        first = np.searchsorted(centers, p, side="right")
        inner = np.searchsorted(centers, q, side="left") - first
        t = np.arange(int(np.max(inner, initial=0)) + 2)
        brk = np.where(t > inner, q, centers[np.clip(first + t - 1, 0,
                                                     len(centers) - 1)])
        brk[:, 0] = p[:, 0]
        pieces.append((0.5 * (brk[:, :-1] + brk[:, 1:]), np.diff(brk, axis=1)))
    (mx, wx), (my, wy) = pieces
    total = 0.0
    for rows in _row_blocks(len(mx), mx.shape[1] * my.shape[1]):
        X = np.stack(np.broadcast_arrays(mx[rows, :, None], my[rows, None, :]),
                     axis=-1)
        v = phi(X.reshape(-1, 2)).reshape(X.shape[:-1])
        total += float(np.einsum("ca,cab,cb->", wx[rows], v, wy[rows]))
    return total


def check_integration_identity(phi: Field, partition: Partition, m_y: int):
    """Integration identity of the unfolding operator.

    lhs: weighted sum of the unfolded samples per unit cell volume.
    rhs: integral of phi over the covered region, cell by cell: for a
    GridFunction on axis-aligned lattices, the exact integral of its
    bilinear interpolant; fine midpoint subsampling of phi otherwise.
    Returns (lhs, rhs, gap).
    """
    # weighted in place and released before the rhs pass, so the check
    # holds its samples once; products commute, so the lhs keeps its bits
    samples = unfold(phi, partition, m_y)
    samples.values *= samples.weight[:, None]
    lhs = float(np.sum(samples.values))
    del samples

    rhs = 0.0
    diagD = np.diagonal(partition.D, axis1=1, axis2=2)
    if isinstance(phi, GridFunction) and np.all(
            np.abs(partition.D - diagD[..., None] * np.eye(2)) < 1e-14):
        n, xi = partition.hat_n, partition.hat_xi
        p0 = partition.shift[n] + partition.eps * diagD[n] * xi
        p1 = partition.shift[n] + partition.eps * diagD[n] * (xi + 1)
        rhs = _interpolant_box_integrals(phi, np.minimum(p0, p1),
                                         np.maximum(p0, p1))
    else:
        y_f = _unit_cell_nodes(3 * m_y + 1)   # independent of the lhs samples
        detD = partition.detD.tolist()
        for n, _, v in _mapped_samples(phi, partition, y_f):
            rhs += partition.eps**2 * detD[n] * float(v.sum()) / len(y_f)
    return lhs, rhs, abs(lhs - rhs)


def check_boundary_identity(psi, partition: Partition, quad: GammaQuadrature):
    """Boundary unfolding identity.

    lhs: unfolded surface functional with metric ratio and cell-measure
    weights. rhs: eps times the direct quadrature of |psi|^2 over the mapped
    interior boundary, same nodes. Returns (lhs, rhs, gap).
    """
    bu = unfold_boundary(psi, partition, quad)
    lhs = bu.weighted_power_sum()
    rhs = partition.eps * bu.direct_surface_integral()
    return lhs, rhs, abs(lhs - rhs)


@dataclass
class QInterpolant:
    """Multilinear interpolant of cell-averaged node values.

    The node at lattice point xi carries the average of phi over the cell
    anchored there; a lattice cell is usable when the full averaging stencil
    (the 4 cells anchored at its corners) lies inside the covered region.
    Constants are reproduced exactly; affine fields are reproduced up to an
    exact half-cell shift of the argument, so the remainder of a smooth field
    is of first order in eps. node_values holds the cell average of each
    row of the partition's Xi_hat row layout, and usable_rows are the rows
    of the usable cells.
    """

    partition: Partition
    node_values: np.ndarray      # (E,) node value per Xi_hat row
    usable_rows: np.ndarray      # (m,) ascending Xi_hat rows

    def eval_cells(self, phi: Field, points_per_axis: int):
        """Q and R = phi - Q sampled on a midpoint grid of each usable cell.

        Returns (q_vals, r_vals, points, weights) flattened over cells and
        samples, cell after cell in row order.
        """
        part = self.partition
        y = _unit_cell_nodes(points_per_axis)
        corners = np.array(list(np.ndindex(2, 2)))                # (4, 2)
        # bilinear weights in the fractional coordinate, corner by corner
        u, v = y[:, :1], y[:, 1:]
        wts = np.hstack([(1.0 - u) * (1.0 - v), (1.0 - u) * v,
                         u * (1.0 - v), u * v])
        n = part.hat_n[self.usable_rows]
        cells = part.hat_xi[self.usable_rows]
        # the points first: their temporaries are the largest
        pts = map_cells(part.shift[n], part.eps, part.D[n], cells,
                        y).reshape(-1, 2)
        corner_vals = np.stack([self.node_values[part.cell_rows(n, cells + c)]
                                for c in corners], axis=1)        # (m, 4)
        # one product per subdomain: BLAS rounds the product of a single
        # row (a matrix-vector call) unlike that row in a larger product
        q = np.empty((len(n), len(y)))                            # (m, S)
        edges = np.searchsorted(n, np.arange(part.n_subdomains + 1))
        for a, b in zip(edges[:-1], edges[1:]):
            q[a:b] = corner_vals[a:b] @ wts.T
        r = np.reshape(phi(pts), q.shape) - q
        w = np.repeat(part.cell_measures[n] / len(y), len(y))
        return q.ravel(), r.ravel(), pts, w


def interpolate_Q(phi: Field, partition: Partition,
                  m_y: int = 4) -> QInterpolant:
    """Micro-macro interpolant: the node at lattice point xi carries the
    average of phi over the cell anchored at xi; values inside a cell are the
    multilinear interpolant of its corner node values."""
    good = np.ones(len(partition.hat_n), dtype=bool)
    for c in np.ndindex(2, 2):
        good &= partition.cell_rows(partition.hat_n, partition.hat_xi + c) >= 0
    return QInterpolant(partition=partition,
                        node_values=unfold(phi, partition, m_y).mean_over_Y(),
                        usable_rows=np.flatnonzero(good))


def remainder_R(phi: Field, partition: Partition, m_y: int = 4,
                points_per_axis: int = 4, grad=None):
    """Remainder diagnostics of the micro-macro interpolant on usable cells.

    Returns (r_norm, grad_norm, region_measure): the L2 norms of phi - Q(phi)
    and of the gradient of phi over the same region. grad is an optional
    callable X -> (m, 2) acting point by point; central differences of phi
    otherwise. The gradient is taken in blocks of points.
    """
    qi = interpolate_Q(phi, partition, m_y=m_y)
    r, pts, w = qi.eval_cells(phi, points_per_axis)[1:]
    r_norm = math.sqrt(float(np.sum(w * r**2)))
    del r               # the gradient reads the points and weights only
    if grad is None:
        grad = partial(_central_gradient, phi)
    g2 = np.empty(len(pts))             # |grad phi|^2 per point
    for rows in _row_blocks(len(pts), pts.shape[1]):
        g2[rows] = np.sum(np.asarray(grad(pts[rows]), dtype=float) ** 2,
                          axis=1)
    grad_norm = math.sqrt(float(np.sum(w * g2)))
    return r_norm, grad_norm, float(np.sum(w))


def _central_gradient(evaluate: Field, X: np.ndarray) -> np.ndarray:
    """Central differences of evaluate at the points X, (m, 2)."""
    delta = 1e-6
    g = np.empty_like(X)
    # one copy of the points, moved along one axis at a time
    moved = X.copy()
    for ax in range(X.shape[1]):
        np.add(X[:, ax], delta, out=moved[:, ax])
        g[:, ax] = evaluate(moved)
        np.subtract(X[:, ax], delta, out=moved[:, ax])
        g[:, ax] -= evaluate(moved)
        g[:, ax] /= 2 * delta
        moved[:, ax] = X[:, ax]
    return g


def lts_pairing(u: GridFunction,
                psi: Callable[[np.ndarray, np.ndarray], np.ndarray],
                partition: Partition) -> float:
    """Grid quadrature of u times the locally periodic approximation of
    psi(x, y)."""
    vals = lp_approx_batch(psi, partition, u.centers().reshape(-1, 2))
    return float(u.h**2 * np.sum(u.values.ravel() * vals))


def norm_unfold_minus_identity(phi: Field, partition: Partition,
                               m_y: int) -> float:
    """L2 distance between the unfolded field and the field itself.

    Both arguments of |T(phi)(x, y) - phi(x)| are sampled on the same
    midpoint set per lattice cell (independent x and y indices), an exact
    double quadrature on the product of the cell with Y.
    """
    ug = unfold(phi, partition, m_y)
    m = len(ug.y_nodes)
    total = 0.0
    for rows in _row_blocks(ug.n_entries, m * m):
        v = ug.values[rows]
        diff = v[:, None, :] - v[:, :, None]      # x-sample index first
        diff **= 2
        total += float(np.sum(ug.weight[rows] / m * diff.sum(axis=(1, 2))))
    return math.sqrt(total)


def norm_unfold_of_lp_minus_psi(
        psi: Callable[[np.ndarray, np.ndarray], np.ndarray],
        partition: Partition, m_y: int) -> float:
    """L2 distance between the unfolded locally periodic approximation and
    the two-scale field psi(x, y) itself, sampled per cell in (x, y)."""
    ug = unfold(partial(lp_approx_batch, psi, partition), partition, m_y)
    m = len(ug.y_nodes)
    total = 0.0
    for rows in _row_blocks(ug.n_entries, m * m):
        n = partition.hat_n[rows]
        pts = map_cells(partition.shift[n], partition.eps, partition.D[n],
                        partition.hat_xi[rows], ug.y_nodes)
        # psi_tilde(x_t, y_s) on the product of the sample sets of each row
        X = np.repeat(pts, m, axis=1).reshape(-1, 2)
        Y = np.tile(ug.y_nodes, (len(n) * m, 1))
        diff = (ug.values[rows][:, None, :]
                - np.reshape(psi(X, Y), (len(n), m, m)))
        diff **= 2
        total += float(np.sum(ug.weight[rows] / m * diff.sum(axis=(1, 2))))
    return math.sqrt(total)
