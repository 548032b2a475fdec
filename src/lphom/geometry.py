"""Locally periodic microstructure geometry in two dimensions.

Transform fields D(x), K(x), partition coverings with frozen per-subdomain
lattices, lattice point location, locally periodic approximation operators,
and the level and membership indicator of perforated domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Optional

import numpy as np

Matrix = np.ndarray
Point = np.ndarray

# Inclusive tolerance for corner tests and box membership. Lattice cells that
# touch a subdomain face exactly (binary-representable geometry) must count
# as interior.
_GEOM_ATOL = 1e-12


def rotation_matrix(alpha: float) -> Matrix:
    """Rotation block used by plywood-like structures."""
    if not math.isfinite(alpha):
        raise ValueError("angle must be finite")
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class UnitCellSpec:
    """Reference unit cell Y = (0,1)^2 with a disk Y0 of radius a centered
    at the cell midpoint; a = 0 is the unperforated cell.
    """

    a: float = 0.25
    # the cell midpoint, shared by every cell and read-only
    center: ClassVar[Point] = np.full(2, 0.5)
    center.flags.writeable = False

    def __post_init__(self):
        if not self.a >= 0.0:
            raise ValueError(
                f"inclusion radius must be at least 0, got {self.a!r}")
        if self.a >= 0.5:
            raise ValueError("inclusion radius must satisfy 0 <= a < 1/2")

    def inclusion_measure(self, K: Optional[Matrix] = None) -> float:
        """|K Y0| for the centered inclusion."""
        detK = 1.0 if K is None else abs(np.linalg.det(K))
        return math.pi * self.a**2 * detK


def _matrix_at(f: Callable[[Point], Matrix], x: Point, name: str) -> Matrix:
    """f(x) as a float array, which must be 2x2."""
    M = np.asarray(f(np.asarray(x, dtype=float)), dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"{name}(x) must be 2x2, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class TransformField:
    """The 2x2 maps D(x), K(x) defining local periodicity and perforation
    shape."""

    D: Callable[[Point], Matrix]
    K: Callable[[Point], Matrix]

    def D_at(self, x: Point) -> Matrix:
        return _matrix_at(self.D, x, "D")

    def K_at(self, x: Point) -> Matrix:
        return _matrix_at(self.K, x, "K")


@dataclass(frozen=True)
class Subdomain:
    """One axis-aligned subdomain of the covering with its frozen lattice."""

    n: int                     # flat index
    k: tuple[int, ...]         # multi-index in the subdomain grid
    lo: Point
    hi: Point
    # read-only views of row n of the Partition's stacked maps
    anchor: Point              # x_n
    D: Matrix
    Dinv: Matrix
    K: Matrix
    shift: Point               # x_tilde_n: the lattice is shift + eps D Z^2
    eps: float                 # lattice scale, read by xi_all

    @cached_property
    def xi_all(self) -> np.ndarray:
        """(m2, 2) int, cells intersecting the subdomain.

        Computed on first read; only the geometry report needs it.
        """
        [(_, cand, pts)] = _candidate_cells(
            self.lo[None], self.hi[None], self.eps, self.D[None],
            self.Dinv[None], self.shift[None])
        return cand[_cells_box_intersect(pts, self.lo, self.hi, self.Dinv)]


class Partition:
    """Covering of the box domain by the boxes between per-axis breakpoints,
    each with a lattice frozen at its anchor.

    Subdomain n is the box [breaks[i][k_i], breaks[i][k_i + 1]] on every
    axis i, with k its multi-index in row-major order.

    Its read-only arrays, one row per subdomain, are the one copy of the
    frozen maps: anchor (S, 2), D, Dinv, K, Kinv (S, 2, 2), shift (S, 2)
    and detD = |det D_n| (S,). The package reads the maps only from these
    arrays; each Subdomain, the record of the geometry report, views its
    rows of anchor, D, Dinv, K and shift.

    The Xi_hat row layout, one row per Xi_hat cell, subdomain after
    subdomain, is the one cell index: the order of every per-cell table
    and unfolded sample array, and the one copy of the cells. Its
    read-only arrays: the subdomain hat_n (E,) and cell hat_xi (E, 2) of
    each row, and hat_start, the first row of each subdomain and, last,
    E. cell_rows looks cells up in it.
    """

    def __init__(self, domain_lo, domain_hi, breaks, eps: float, *,
                 subdomains: list[Subdomain], anchor, D, Dinv, K, Kinv, shift,
                 detD, hat_xi: np.ndarray, hat_start: np.ndarray):
        self.domain_lo = np.asarray(domain_lo, dtype=float)
        self.domain_hi = np.asarray(domain_hi, dtype=float)
        self.breaks = breaks
        self.n_sub = tuple(len(b) - 1 for b in breaks)
        self.eps = eps
        self.subdomains = subdomains
        self.anchor, self.shift, self.detD = anchor, shift, detD
        self.D, self.Dinv, self.K, self.Kinv = D, Dinv, K, Kinv
        # the bounding box of each Xi_hat, laid out one after another,
        # row-major, is the hash of _cell_slots; _slot_row maps each slot
        # to its Xi_hat row, -1 for the box cells outside Xi_hat and, in
        # its extra last entry, for the cells outside the box
        self.hat_start = hat_start
        counts = np.diff(hat_start)
        self.hat_n = np.repeat(np.arange(len(anchor)), counts)
        hat = self.hat_xi = hat_xi
        full = counts > 0
        starts = self.hat_start[:-1][full]
        self._xi_min = np.zeros((len(anchor), 2), dtype=int)
        self._box_shape = np.ones((len(anchor), 2), dtype=int)
        if len(hat):
            self._xi_min[full] = np.minimum.reduceat(hat, starts, axis=0)
            self._box_shape[full] = (np.maximum.reduceat(hat, starts, axis=0)
                                     - self._xi_min[full] + 1)
        self._box_offset = np.concatenate(
            ([0], np.cumsum(np.prod(self._box_shape, axis=1))))
        for a in (self.hat_start, self.hat_n, hat):
            a.flags.writeable = False
        self._slot_row = np.full(self._box_offset[-1] + 1, -1)
        self._slot_row[self._cell_slots(self.hat_n, hat)] = np.arange(len(hat))

    @property
    def n_subdomains(self) -> int:
        return len(self.anchor)

    @property
    def cell_measures(self) -> np.ndarray:
        """Measure of one lattice cell per subdomain, eps^2 |det D_n|."""
        return self.eps**2 * self.detD

    @property
    def omega_hat_measure(self) -> float:
        return float(np.sum(np.diff(self.hat_start) * self.cell_measures))

    @property
    def lambda_measure(self) -> float:
        total = float(np.prod(self.domain_hi - self.domain_lo))
        return total - self.omega_hat_measure

    def hat_blocks(self) -> list[tuple[int, slice]]:
        """(n, slice of its rows) of each subdomain n with cells."""
        bounds = self.hat_start.tolist()
        return [(n, slice(a, b)) for n, (a, b) in
                enumerate(zip(bounds[:-1], bounds[1:])) if a < b]

    def cell_rows(self, n, xi: np.ndarray) -> np.ndarray:
        """Xi_hat row of lattice cell xi of subdomain n, one per cell, or
        -1 when the cell is not in Xi_hat. n may also be one index for all
        cells."""
        return self._slot_row[self._cell_slots(n, xi)]

    def _cell_slots(self, n, xi: np.ndarray) -> np.ndarray:
        """Flat slot of lattice cell xi of subdomain n in the boxes around
        every subdomain's Xi_hat, row-major, box after box in subdomain
        order; -1 outside the box of its subdomain."""
        n = np.asarray(n, dtype=int)
        xi = np.asarray(xi, dtype=int).reshape(-1, 2)
        slots = np.zeros(len(xi), dtype=int)
        inside = np.ones(len(xi), dtype=bool)
        rel = np.empty(len(xi), dtype=int)
        for ax in range(2):
            size = self._box_shape[n, ax]
            np.subtract(xi[:, ax], self._xi_min[n, ax], out=rel)
            # one unsigned test for 0 <= rel < size
            inside &= rel.view(np.uint64) < size.view(np.uint64)
            slots *= size
            slots += rel
        slots += self._box_offset[n]
        slots[~inside] = -1
        return slots

    def subdomain_of(self, X: np.ndarray) -> np.ndarray:
        """Flat subdomain index per point.

        A point on an interior break belongs to the subdomain above it; a
        point beyond the first or last break to the first or last one.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        flat = np.zeros(len(X), dtype=int)
        for ax, b in enumerate(self.breaks):
            flat *= len(b) - 1
            flat += np.searchsorted(b[1:-1], X[:, ax], side="right")
        return flat


def build_partition(domain, eps: float, r: float,
                    transform: TransformField) -> Partition:
    """Cover the box domain by cubes of side eps^r with lattices frozen at
    the subdomain centres.

    The shift x_tilde_n = eps D_n xi0 snaps each subdomain lattice to the
    lattice point nearest the subdomain's lower corner, so the frozen lattice
    passes through a global lattice point and the unfolding formulas collapse
    to their shift-free form.
    """
    if not (eps > 0.0 and 0.0 < r < 1.0):
        raise ValueError("need eps > 0 and 0 < r < 1")
    lo = np.asarray(domain[0], dtype=float)
    hi = np.asarray(domain[1], dtype=float)
    if lo.shape != (2,) or hi.shape != (2,) or np.any(hi <= lo):
        raise ValueError("domain must be a nonempty box in the plane")
    side = eps**r
    n_sub = [int(math.ceil((hi[i] - lo[i]) / side - 1e-9)) for i in range(2)]
    # breaks lo + k side, the last one clipped to hi (or just below it, when
    # (hi - lo) / side lies within 1e-9 above a whole number)
    breaks = [np.minimum(lo[i] + np.arange(n + 1) * side, hi[i])
              for i, n in enumerate(n_sub)]
    return _covering(lo, hi, breaks, eps, transform, side=side)


# relative slack of the side check: a side snapped to its bound and passed
# as an exponent, eps**r, may come back a few ulps below it
_SIDE_RTOL = 4 * np.finfo(float).eps


def _covering(lo, hi, breaks, eps: float, transform: TransformField,
              on_corner: bool = False, side: Optional[float] = None
              ) -> Partition:
    """The Partition of the box [lo, hi] with the given per-axis breaks.

    Each subdomain's maps are frozen at its anchor, the box centre;
    on_corner is _frozen_subdomains'. A nominal side, when given, that
    cannot hold one full cell at some anchor beyond _SIDE_RTOL is rejected,
    naming the first such subdomain.
    """
    ks = list(np.ndindex(*(len(b) - 1 for b in breaks)))
    k = np.array(ks)
    s_lo = np.column_stack([b[k[:, i]] for i, b in enumerate(breaks)])
    s_hi = np.column_stack([b[k[:, i] + 1] for i, b in enumerate(breaks)])
    anchor = 0.5 * (s_lo + s_hi)
    D = np.array([transform.D_at(a) for a in anchor])
    if side is not None:
        need = 2.0 * eps * np.linalg.norm(D, 2, axis=(1, 2))
        small = np.flatnonzero(side < need * (1.0 - _SIDE_RTOL))
        if len(small):
            raise ValueError(
                f"subdomain side {side:.4g} cannot hold one full cell "
                f"(needs at least {need[small[0]]:.4g})")
    K = np.array([transform.K_at(a) for a in anchor])
    return Partition(lo, hi, breaks, eps, **_frozen_subdomains(
        ks, s_lo, s_hi, anchor, eps, D, K, on_corner))


def _frozen_subdomains(ks, s_lo, s_hi, anchor, eps: float, D, K,
                       on_corner: bool = False) -> dict:
    """The subdomains of a covering, their stacked frozen maps and Xi_hat
    cells, built in one batched pass: the keyword arguments of Partition.

    Row i of s_lo, s_hi, anchor (S, 2) and of the frozen maps D, K (S, 2, 2)
    belongs to the subdomain with multi-index ks[i]. Each lattice passes
    through the lattice point eps D xi0 nearest the subdomain's lower
    corner, or through the corner itself with on_corner. The cells come
    grouped by subdomain, in subdomain order, as _candidate_cells yields
    them.
    """
    Dinv, Kinv = np.linalg.inv(D), np.linalg.inv(K)
    # matmul on stacked (2, 1) columns runs the same product per row as
    # Dinv @ s_lo on one subdomain
    xi0 = np.round(np.matmul(Dinv, s_lo[..., None])[..., 0] / eps).astype(int)
    shift = s_lo.copy() if on_corner else np.matmul(eps * D, xi0[..., None])[..., 0]
    maps = dict(anchor=anchor, D=D, Dinv=Dinv, K=K, Kinv=Kinv, shift=shift,
                detD=np.abs(np.linalg.det(D)))
    for a in maps.values():     # read-only, and so are the views below
        a.flags.writeable = False
    # Xi_hat: the cells whose corners all lie in their subdomain
    owners, cells = [], []
    for owner, cand, pts in _candidate_cells(s_lo, s_hi, eps, D, Dinv, shift):
        inside = np.all((pts >= s_lo[owner, None] - _GEOM_ATOL)
                        & (pts <= s_hi[owner, None] + _GEOM_ATOL), axis=(1, 2))
        owners.append(owner[inside])
        cells.append(cand[inside])
    counts = np.bincount(np.concatenate(owners), minlength=len(ks))
    subs = [Subdomain(n=n, k=k, lo=s_lo[n], hi=s_hi[n], anchor=anchor[n],
                      D=D[n], Dinv=Dinv[n], K=K[n], shift=shift[n],
                      eps=eps)
            for n, k in enumerate(ks)]
    return dict(maps, subdomains=subs, hat_xi=np.concatenate(cells),
                hat_start=np.append(0, np.cumsum(counts)))


# candidate cells mapped at once; bounds the corner arrays of a covering
_CELL_BLOCK = 8192


def _candidate_cells(s_lo, s_hi, eps, D, Dinv, shift):
    """Lattice cells near each subdomain and their mapped corners.

    One row of the stacked arguments per subdomain. Yields, per block of
    whole subdomains with about _CELL_BLOCK cells, (owner, cand, pts): the
    subdomain row of each cell (c,), the integer cells (c, 2) of the index
    box around that subdomain's preimage, row-major box after box, and
    their corner points (c, 4, 2).
    """
    unit = np.array(list(np.ndindex(2, 2)), dtype=float)
    corners = np.where(unit > 0, s_hi[:, None, :], s_lo[:, None, :])
    # the preimage's index box, padded by one cell: its last bits do not
    # change which cells pass a test
    z = np.einsum("sij,skj->ski", Dinv, corners - shift[:, None, :]) / eps
    ximin = np.floor(z.min(axis=1)).astype(int) - 1
    size = np.ceil(z.max(axis=1)).astype(int) + 2 - ximin
    counts = np.prod(size, axis=1)
    first = np.cumsum(counts) - counts
    cuts = np.flatnonzero(np.diff(first // _CELL_BLOCK)) + 1
    for rows in np.split(np.arange(len(s_lo)), cuts):
        owner = np.repeat(rows, counts[rows])
        rest = np.arange(len(owner)) - np.repeat(first[rows] - first[rows[0]],
                                                 counts[rows])
        cand = np.empty((len(owner), 2), dtype=int)
        for ax in (1, 0):
            rest, cand[:, ax] = np.divmod(rest, size[owner, ax])
        cand += ximin[owner]
        yield owner, cand, map_cells(shift[owner], eps, D[owner], cand, unit)


def map_cells(shift, eps: float, D, xi, y) -> np.ndarray:
    """Points shift + eps D (xi + y), (c, k, 2), of cells xi (c, 2) and unit-
    cell points y (k, 2). D (2, 2) and shift (2,) may also be given per
    cell, (c, 2, 2) and (c, 2). Per-axis sums of two contiguous products
    give the bits of the einsum contraction, about 4x faster. The points
    are axis-major, a view of one (2, c, k) array, so the columns of its
    (c k, 2) reshape are contiguous."""
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    D = np.asarray(D, dtype=float)
    shift = np.asarray(shift, dtype=float)
    a0 = xi[:, None, 0] + y[None, :, 0]
    a1 = xi[:, None, 1] + y[None, :, 1]
    out = np.empty((2,) + a0.shape)
    for i, plane in enumerate(out):
        np.multiply(D[..., i, 0, None], a0, out=plane)
        plane += D[..., i, 1, None] * a1
        plane *= eps
        plane += shift[..., i, None]
    return out.transpose(1, 2, 0)


def _cells_box_intersect(cell_pts, b_lo, b_hi, Dinv) -> np.ndarray:
    """Separating-axis test: lattice cells of the map with inverse Dinv
    (parallelepipeds given by their corner points, (ncand, 4, 2)) versus one
    axis-aligned box, open-interior overlap. Returns one bool per cell."""
    box_pts = np.stack([np.where(np.array(c), b_hi, b_lo)
                        for c in np.ndindex(2, 2)])
    # the box's face normals, then the mapped cell's
    ax = np.hstack([np.eye(2), Dinv.T])                 # (2, 4)
    p1 = cell_pts @ ax                          # (ncand, 4, 4)
    p2 = box_pts @ ax                           # (4, 4)
    apart = ((p1.max(axis=1) <= p2.min(axis=0) + _GEOM_ATOL)
             | (p2.max(axis=0) <= p1.min(axis=1) + _GEOM_ATOL))
    return ~apart.any(axis=1)


def locate_cells(partition: Partition, X: np.ndarray):
    """Vectorized lattice location.

    Returns (n, xi, y, row): flat subdomain index, integer lattice cell,
    fractional in-cell coordinate in [0,1)^2, and the cell's Xi_hat row
    (Partition.cell_rows), -1 in the leftover region. Plain floor
    convention throughout. A point outside the domain, or with a NaN
    coordinate, raises ValueError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lo, hi = partition.domain_lo, partition.domain_hi
    for ax in range(2):
        c = X[:, ax]
        # min and max carry a NaN, and every comparison with it is False
        if len(c) and not (c.min() >= lo[ax] - _GEOM_ATOL
                           and c.max() <= hi[ax] + _GEOM_ATOL):
            raise ValueError("point outside the domain")
    n = partition.subdomain_of(X)
    # unfolding passes its points grouped by subdomain already
    if np.all(n[1:] >= n[:-1]):
        return (n,) + _locate_runs(partition, X, n)
    # one stable sort groups them, each group in ascending point order
    order = np.argsort(n, kind="stable")
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return (n,) + tuple(a[back] for a in
                        _locate_runs(partition, X[order], n[order]))


def _locate_runs(partition: Partition, X: np.ndarray, n: np.ndarray):
    """(xi, y, row) of locate_cells for points grouped by subdomain n."""
    xi = np.empty((len(X), 2), dtype=int)
    y = np.empty((len(X), 2), dtype=float)
    row = np.empty(len(X), dtype=int)
    edges = [0, *(np.flatnonzero(n[1:] != n[:-1]) + 1).tolist(), len(X)]
    for a, b in zip(edges[:-1], edges[1:]) if len(X) else ():
        nn = n[a]
        # u holds X - shift laid out as (X - shift).T, so Dinv @ u is the
        # product of the per-subdomain passes, bit for bit; it is a view of
        # y, which gets the fraction in the end
        u = y[a:b].T
        for ax in range(2):
            np.subtract(X[a:b, ax], partition.shift[nn, ax], out=u[ax])
        z = partition.Dinv[nn] @ u
        z /= partition.eps
        np.floor(z, out=u)
        xi[a:b] = u.T
        np.subtract(z, u, out=u)
        row[a:b] = partition.cell_rows(nn, xi[a:b])
    return xi, y, row


def lp_approx_batch(psi: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    partition: Partition, X: np.ndarray) -> np.ndarray:
    """Locally periodic approximation psi(x, y) at many points x, with y
    the in-cell coordinate of x.

    psi is continuous in x and Y-periodic in y, and takes arrays of shape
    (m, 2) for both arguments.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return psi(X, locate_cells(partition, X)[2])


def perforation_level(partition: Partition, cell: UnitCellSpec,
                      X: np.ndarray) -> np.ndarray:
    """|K_n^-1 (y - c)| - a at the points X, negative inside a perforation:
    y is a point's in-cell coordinate, c the cell midpoint, a the inclusion
    radius. Leftover regions carry no perforations and get 1, as does every
    point when the cell has no inclusion."""
    if cell.a == 0.0:
        return np.ones(len(np.atleast_2d(X)))
    n, _, y, row = locate_cells(partition, X)
    level = np.ones(len(n))
    act = row >= 0
    u = np.einsum("pij,pj->pi", partition.Kinv[n[act]], y[act] - cell.center)
    level[act] = np.linalg.norm(u, axis=1) - cell.a
    return level


def indicator_perforated(partition: Partition, cell: UnitCellSpec,
                         X: np.ndarray) -> np.ndarray:
    """Membership in the perforated domain, perforation_level > 0 (True =
    outside every perforation). Leftover regions carry no perforations: they
    belong to the perforated domain and are fluid in the micro grid."""
    return perforation_level(partition, cell, X) > 0.0


def mask_connected(mask: np.ndarray, periodic: bool = False) -> bool:
    """True when the True cells of a 2-D mask form one 4-connected set.

    With periodic, the first and last row (and column) are neighbours, as on
    the unit-cell torus; otherwise the outer boundary is a wall. An empty
    mask counts as disconnected.
    """
    # imported here because scipy.sparse.csgraph adds to every lphom import
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    mask = np.asarray(mask, dtype=bool)
    total = int(mask.sum())
    if total == 0:
        return False
    ids = np.full(mask.shape, -1)
    ids[mask] = np.arange(total)
    if periodic:
        pairs = [(ids, np.roll(ids, -1, axis=0)), (ids, np.roll(ids, -1, axis=1))]
    else:
        pairs = [(ids[:-1, :], ids[1:, :]), (ids[:, :-1], ids[:, 1:])]
    rows, cols = [], []
    for a, b in pairs:
        keep = (a >= 0) & (b >= 0)
        rows.append(a[keep])
        cols.append(b[keep])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(total, total))
    return connected_components(graph, directed=False)[0] == 1
