"""Locally periodic microstructure geometry.

Transform fields D(x), K(x), partition coverings with frozen per-subdomain
lattices, lattice point location, locally periodic approximation operators,
and membership indicators for perforated and plywood-like domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

Matrix = np.ndarray
Point = np.ndarray

# Inclusive tolerance for corner tests and box membership. Lattice cells that
# touch a subdomain face exactly (binary-representable geometry) must count
# as interior.
_GEOM_ATOL = 1e-12


def rotation_matrix(alpha: float, d: int) -> Matrix:
    """Rotation block used by plywood-like structures.

    d=3 rotates about the third axis; d=2 is the upper-left block.
    """
    if d not in (2, 3):
        raise ValueError(f"unsupported dimension {d}")
    if not math.isfinite(alpha):
        raise ValueError("angle must be finite")
    c, s = math.cos(alpha), math.sin(alpha)
    if d == 2:
        return np.array([[c, s], [-s, c]])
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class UnitCellSpec:
    """Reference unit cell Y = (0,1)^d with an optional inclusion Y0.

    inclusion: "disk" (d=2), "cylinder" (d=3, axis 0), or "none".
    The inclusion is centered at the cell midpoint.
    """

    d: int = 2
    inclusion: str = "disk"
    a: float = 0.25

    def __post_init__(self):
        if self.inclusion not in ("disk", "cylinder", "none"):
            raise ValueError(f"unknown inclusion {self.inclusion!r}")
        if self.inclusion != "none" and not (0.0 < self.a < 0.5):
            raise ValueError("inclusion radius must satisfy 0 < a < 1/2")
        if self.inclusion == "disk" and self.d != 2:
            raise ValueError("disk inclusion requires d=2")
        if self.inclusion == "cylinder" and self.d != 3:
            raise ValueError("cylinder inclusion requires d=3")

    @property
    def center(self) -> Point:
        return np.full(self.d, 0.5)

    @property
    def transverse_axes(self) -> tuple[int, ...]:
        # disk: all axes; cylinder: the two axes transverse to the fiber
        if self.inclusion == "cylinder":
            return (1, 2)
        return tuple(range(self.d))

    def inclusion_measure(self, K: Optional[Matrix] = None) -> float:
        """|K Y0| for the centered inclusion (unit fiber length for cylinders)."""
        if self.inclusion == "none":
            return 0.0
        detK = 1.0 if K is None else abs(np.linalg.det(K))
        return math.pi * self.a**2 * detK


@dataclass(frozen=True)
class TransformField:
    """The maps D(x), K(x) defining local periodicity and perforation shape."""

    d: int
    D: Callable[[Point], Matrix]
    K: Callable[[Point], Matrix]
    detD_bounds: tuple[float, float] = (0.5, 2.0)
    detK_bounds: tuple[float, float] = (0.5, 4.0)
    lipschitz_budget: float = 2.0
    name: str = ""

    def D_at(self, x: Point) -> Matrix:
        return np.asarray(self.D(np.asarray(x, dtype=float)), dtype=float)

    def K_at(self, x: Point) -> Matrix:
        return np.asarray(self.K(np.asarray(x, dtype=float)), dtype=float)

    def check_sampled(self, lo: Point, hi: Point, n: int = 9,
                      cell: Optional[UnitCellSpec] = None) -> dict:
        """Sampling-based verification of determinant bounds, the Lipschitz
        budget, and (if a cell is given) strict containment of K(x) Y0 in Y.

        Raises ValueError on the first violated bound.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        axes = [np.linspace(lo[i], hi[i], n) for i in range(self.d)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.d)
        Ds = np.array([self.D_at(x) for x in pts])
        Ks = np.array([self.K_at(x) for x in pts])
        detD = np.abs(np.linalg.det(Ds))
        detK = np.abs(np.linalg.det(Ks))
        D1, D2 = self.detD_bounds
        K1, K2 = self.detK_bounds
        if detD.min() < D1 - 1e-12 or detD.max() > D2 + 1e-12:
            raise ValueError("det D out of declared bounds")
        if detK.min() < K1 - 1e-12 or detK.max() > K2 + 1e-12:
            raise ValueError("det K out of declared bounds")
        # difference quotients against the budget, nearest-neighbor pairs only
        lip = 0.0
        for i in range(len(pts) - 1):
            dx = np.linalg.norm(pts[i + 1] - pts[i])
            if dx == 0.0:
                continue
            lip = max(lip,
                      np.linalg.norm(Ds[i + 1] - Ds[i], 2) / dx,
                      np.linalg.norm(Ks[i + 1] - Ks[i], 2) / dx)
        if lip > self.lipschitz_budget + 1e-9:
            raise ValueError(f"sampled Lipschitz quotient {lip:.3g} exceeds budget")
        if cell is not None and cell.inclusion != "none":
            c = cell.center
            for Km in Ks:
                reach = cell.a * np.linalg.norm(Km, axis=1)  # extent per axis
                if np.any(c - reach <= 0.0) or np.any(c + reach >= 1.0):
                    raise ValueError("K(x) Y0 leaves the unit cell")
        return {"detD": (detD.min(), detD.max()),
                "detK": (detK.min(), detK.max()),
                "lipschitz": lip}


def identity_transform(d: int = 2) -> TransformField:
    I = np.eye(d)
    return TransformField(d=d, D=lambda x: I, K=lambda x: I,
                          detD_bounds=(1.0, 1.0), detK_bounds=(1.0, 1.0),
                          lipschitz_budget=0.0, name="identity")


@dataclass(frozen=True)
class Subdomain:
    """One axis-aligned subdomain of the covering with its frozen lattice."""

    n: int                     # flat index
    k: tuple[int, ...]         # multi-index in the subdomain grid
    lo: Point
    hi: Point
    anchor: Point              # x_n
    D: Matrix
    Dinv: Matrix
    K: Matrix
    Kinv: Matrix
    detD: float
    xi0: np.ndarray            # lattice point defining the shift
    shift: Point               # x_tilde_n = eps * D @ xi0
    xi_hat: np.ndarray         # (m, d) int, cells fully inside
    eps: float                 # lattice scale, read by xi_all

    @cached_property
    def xi_all(self) -> np.ndarray:
        """(m2, d) int, cells intersecting the subdomain.

        Computed on first read; only the geometry report needs it.
        """
        [(_, cand, pts)] = _candidate_cells(
            self.lo[None], self.hi[None], self.eps, self.D[None],
            self.Dinv[None], self.shift[None])
        return cand[_cells_box_intersect(pts, self.lo, self.hi, self.D)]


class Partition:
    """Covering of the domain by cubes of side eps^r with frozen lattices."""

    def __init__(self, domain_lo, domain_hi, eps: float, r: float,
                 transform: TransformField, anchor_rule: str,
                 subdomains: list[Subdomain], n_sub: tuple[int, ...],
                 side: float):
        self.domain_lo = np.asarray(domain_lo, dtype=float)
        self.domain_hi = np.asarray(domain_hi, dtype=float)
        self.eps = eps
        self.r = r
        self.transform = transform
        self.anchor_rule = anchor_rule
        self.subdomains = subdomains
        self.n_sub = n_sub
        self.side = side
        self.d = transform.d
        # packed per-subdomain arrays for vectorized location
        self._Dinv = np.array([s.Dinv for s in subdomains])
        self._D = np.array([s.D for s in subdomains])
        self._shift = np.array([s.shift for s in subdomains])
        self._Kinv = np.array([s.Kinv for s in subdomains])
        self._anchor = np.array([s.anchor for s in subdomains])
        self._detD = np.array([s.detD for s in subdomains])
        # the bounding box of each Xi_hat, laid out one after another,
        # row-major, as one flat index space for per-cell tables (see
        # cell_slots); _in_hat marks the slots of Xi_hat cells
        d = self.d
        counts = np.array([len(s.xi_hat) for s in subdomains], dtype=int)
        hat = np.concatenate([s.xi_hat for s in subdomains]).reshape(-1, d)
        owner = np.repeat(np.arange(len(subdomains)), counts)
        full = counts > 0
        starts = (np.cumsum(counts) - counts)[full]
        self._xi_min = np.zeros((len(subdomains), d), dtype=int)
        self._box_shape = np.ones((len(subdomains), d), dtype=int)
        if len(hat):
            self._xi_min[full] = np.minimum.reduceat(hat, starts, axis=0)
            self._box_shape[full] = (np.maximum.reduceat(hat, starts, axis=0)
                                     - self._xi_min[full] + 1)
        self._box_offset = np.concatenate(
            ([0], np.cumsum(np.prod(self._box_shape, axis=1))))
        self._in_hat = np.zeros(self.n_cell_slots, dtype=bool)
        self._in_hat[self.cell_slots(owner, hat)] = True

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)

    @property
    def cell_measures(self) -> np.ndarray:
        """Measure of one lattice cell per subdomain, eps^d |det D_n|."""
        return self.eps**self.d * self._detD

    @property
    def omega_hat_measure(self) -> float:
        counts = np.array([len(s.xi_hat) for s in self.subdomains])
        return float(np.sum(counts * self.cell_measures))

    @property
    def lambda_measure(self) -> float:
        total = float(np.prod(self.domain_hi - self.domain_lo))
        return total - self.omega_hat_measure

    def xi_hat_contains(self, n: int, xi: np.ndarray) -> np.ndarray:
        """Vectorized membership of lattice indices in Xi_hat of subdomain n."""
        return self._hat_slots(n, xi) >= 0

    @property
    def n_cell_slots(self) -> int:
        """Length of a per-cell table indexed by cell_slots."""
        return int(self._box_offset[-1])

    def cell_slots(self, n, xi: np.ndarray) -> np.ndarray:
        """Flat slot of lattice cell xi of subdomain n, one per row.

        n may also be one index for all rows. The slots enumerate the box
        around every subdomain's Xi_hat, row-major, box after box in
        subdomain order, so a table of length n_cell_slots holds a value for
        every Xi_hat cell. Cells outside the box of their subdomain get -1.
        """
        n = np.asarray(n, dtype=int)
        xi = np.asarray(xi, dtype=int).reshape(-1, self.d)
        slots = np.zeros(len(xi), dtype=int)
        inside = np.ones(len(xi), dtype=bool)
        rel = np.empty(len(xi), dtype=int)
        for ax in range(self.d):
            size = self._box_shape[n, ax]
            np.subtract(xi[:, ax], self._xi_min[n, ax], out=rel)
            # one unsigned test for 0 <= rel < size
            inside &= rel.view(np.uint64) < size.view(np.uint64)
            slots *= size
            slots += rel
        slots += self._box_offset[n]
        slots[~inside] = -1
        return slots

    def _hat_slots(self, n, xi: np.ndarray) -> np.ndarray:
        """cell_slots, with -1 also for the cells of the box outside Xi_hat."""
        slots = self.cell_slots(n, xi)
        # slot -1 reads the last flag and stays -1 either way
        slots[~self._in_hat[slots]] = -1
        return slots

    def subdomain_of(self, X: np.ndarray) -> np.ndarray:
        """Flat subdomain index per point. Floor convention on faces."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        flat = np.zeros(len(X))
        k = np.empty(len(X))
        for ax in range(self.d):
            np.subtract(X[:, ax], self.domain_lo[ax], out=k)
            k /= self.side
            np.floor(k, out=k)
            np.maximum(k, 0, out=k)
            np.minimum(k, self.n_sub[ax] - 1, out=k)
            flat *= self.n_sub[ax]
            flat += k
        return flat.astype(int)


@dataclass
class LocateResult:
    n: int
    xi: np.ndarray
    y: np.ndarray
    in_lambda: bool


def build_partition(domain, eps: float, r: float, transform: TransformField,
                    anchor_rule: str = "subdomain-center") -> Partition:
    """Cover the box domain by cubes of side eps^r with frozen lattices.

    The shift x_tilde_n = eps D_n xi0 snaps each subdomain lattice to the
    lattice point nearest the subdomain's lower corner, so the frozen lattice
    passes through a global lattice point and the unfolding formulas collapse
    to their shift-free form.
    """
    if not (eps > 0.0 and 0.0 < r < 1.0):
        raise ValueError("need eps > 0 and 0 < r < 1")
    if anchor_rule not in ("subdomain-center", "lower-corner"):
        raise ValueError(f"unknown anchor rule {anchor_rule!r}")
    lo = np.asarray(domain[0], dtype=float)
    hi = np.asarray(domain[1], dtype=float)
    d = transform.d
    if lo.shape != (d,) or hi.shape != (d,) or np.any(hi <= lo):
        raise ValueError("domain must be a nonempty box of matching dimension")
    side = eps**r
    n_sub = tuple(int(math.ceil((hi[i] - lo[i]) / side - 1e-9)) for i in range(d))

    ks = list(np.ndindex(*n_sub))
    k = np.array(ks)
    s_lo = lo + k * side
    s_hi = np.minimum(lo + (k + 1) * side, hi)
    anchor = (s_lo + s_hi) / 2.0 if anchor_rule == "subdomain-center" else s_lo.copy()
    D = np.array([transform.D_at(a) for a in anchor])
    need = 2.0 * eps * np.linalg.norm(D, 2, axis=(1, 2))
    small = np.flatnonzero(side < need)
    if len(small):
        raise ValueError(
            f"subdomain side {side:.4g} cannot hold one full cell "
            f"(needs at least {need[small[0]]:.4g})")
    K = np.array([transform.K_at(a) for a in anchor])
    subs = _frozen_subdomains(ks, s_lo, s_hi, anchor, eps, D, K)
    return Partition(lo, hi, eps, r, transform, anchor_rule, subs, n_sub, side)


def _frozen_subdomains(ks, s_lo, s_hi, anchor, eps: float, D, K,
                      on_corner: bool = False) -> list[Subdomain]:
    """The subdomains of a covering, built in one batched pass.

    Row i of s_lo, s_hi, anchor (S, d) and of the frozen maps D, K (S, d, d)
    belongs to the subdomain with multi-index ks[i]. Each lattice passes
    through the lattice point eps D xi0 nearest the subdomain's lower
    corner, or through the corner itself with on_corner.
    """
    Dinv, Kinv = np.linalg.inv(D), np.linalg.inv(K)
    detD = np.abs(np.linalg.det(D)).tolist()
    # matmul on stacked (d, 1) columns runs the same product per row as
    # Dinv @ s_lo on one subdomain
    xi0 = np.round(np.matmul(Dinv, s_lo[..., None])[..., 0] / eps).astype(int)
    shift = s_lo.copy() if on_corner else np.matmul(eps * D, xi0[..., None])[..., 0]
    # Xi_hat: the cells whose corners all lie in their subdomain
    owners, cells = [], []
    for owner, cand, pts in _candidate_cells(s_lo, s_hi, eps, D, Dinv, shift):
        inside = np.all((pts >= s_lo[owner, None] - _GEOM_ATOL)
                        & (pts <= s_hi[owner, None] + _GEOM_ATOL), axis=(1, 2))
        owners.append(owner[inside])
        cells.append(cand[inside])
    counts = np.bincount(np.concatenate(owners), minlength=len(ks))
    xi_hat = np.split(np.concatenate(cells), np.cumsum(counts)[:-1])
    return [Subdomain(n=n, k=k, lo=s_lo[n], hi=s_hi[n], anchor=anchor[n],
                      D=D[n], Dinv=Dinv[n], K=K[n], Kinv=Kinv[n],
                      detD=detD[n], xi0=xi0[n], shift=shift[n],
                      xi_hat=xi_hat[n], eps=eps)
            for n, k in enumerate(ks)]


# candidate cells mapped at once; bounds the corner arrays of a covering
_CELL_BLOCK = 8192


def _candidate_cells(s_lo, s_hi, eps, D, Dinv, shift):
    """Lattice cells near each subdomain and their mapped corners.

    One row of the stacked arguments per subdomain. Yields, per block of
    whole subdomains with about _CELL_BLOCK cells, (owner, cand, pts): the
    subdomain row of each cell (c,), the integer cells (c, d) of the index
    box around that subdomain's preimage, row-major box after box, and
    their corner points (c, 2^d, d).
    """
    d = s_lo.shape[1]
    unit = np.array(list(np.ndindex(*(2,) * d)), dtype=float)
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
        cand = np.empty((len(owner), d), dtype=int)
        for ax in range(d - 1, -1, -1):
            rest, cand[:, ax] = np.divmod(rest, size[owner, ax])
        cand += ximin[owner]
        yield owner, cand, map_cells(shift[owner], eps, D[owner], cand, unit)


def map_cells(shift, eps: float, D, xi, y) -> np.ndarray:
    """Points shift + eps D (xi + y), (c, k, d), of cells xi (c, d) and unit-
    cell points y (k, d). D (d, d) and shift (d,) may also be given per cell,
    (c, d, d) and (c, d). In 2-D, per-axis sums of two contiguous products
    give the bits of the einsum used for other d, about 4x faster."""
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    D = np.asarray(D, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if D.shape[-1] != 2:
        # einsum adds three or more terms in an order of its own
        spec = "ij,ckj->cki" if D.ndim == 2 else "cij,ckj->cki"
        return shift[..., None, :] + eps * np.einsum(
            spec, D, xi[:, None, :] + y[None, :, :])
    a0 = xi[:, None, 0] + y[None, :, 0]
    a1 = xi[:, None, 1] + y[None, :, 1]
    return np.stack([(D[..., i, 0, None] * a0 + D[..., i, 1, None] * a1) * eps
                     + shift[..., i, None] for i in range(2)], axis=-1)


def _cells_box_intersect(cell_pts, b_lo, b_hi, D) -> np.ndarray:
    """Separating-axis test: mapped lattice cells (parallelepipeds given by
    their corner points, (ncand, 2^d, d)) versus one axis-aligned box,
    open-interior overlap. Returns one bool per cell."""
    d = len(b_lo)
    box_pts = np.stack([np.where(np.array(c), b_hi, b_lo)
                        for c in np.ndindex(*(2,) * d)])
    axes = [np.eye(d)[i] for i in range(d)]
    Dinv_T = np.linalg.inv(D).T
    axes += [Dinv_T[:, i] for i in range(d)]  # face normals of the mapped cell
    if d == 3:
        for i in range(3):
            for j in range(3):
                cr = np.cross(D[:, i], np.eye(3)[j])
                if np.linalg.norm(cr) > 1e-14:
                    axes.append(cr)
    ax = np.stack(axes, axis=1)                 # (d, n_axes)
    p1 = cell_pts @ ax                          # (ncand, 2^d, n_axes)
    p2 = box_pts @ ax                           # (2^d, n_axes)
    apart = ((p1.max(axis=1) <= p2.min(axis=0) + _GEOM_ATOL)
             | (p2.max(axis=0) <= p1.min(axis=1) + _GEOM_ATOL))
    return ~apart.any(axis=1)


def locate_slots(partition: Partition, X: np.ndarray):
    """Vectorized lattice location.

    Returns (n, xi, y, slot): flat subdomain index, integer lattice cell,
    fractional in-cell coordinate in [0,1)^d, and the cell's slot in the
    per-cell tables (Partition.cell_slots), -1 in the leftover region (xi
    outside Xi_hat). Plain floor convention throughout. A point outside
    the domain, or with a NaN coordinate, raises ValueError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lo, hi = partition.domain_lo, partition.domain_hi
    for ax in range(partition.d):
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
    """(xi, y, slot) of locate_slots for points grouped by subdomain n."""
    d = partition.d
    xi = np.empty((len(X), d), dtype=int)
    y = np.empty((len(X), d), dtype=float)
    slot = np.empty(len(X), dtype=int)
    edges = [0, *(np.flatnonzero(n[1:] != n[:-1]) + 1).tolist(), len(X)]
    for a, b in zip(edges[:-1], edges[1:]) if len(X) else ():
        nn = n[a]
        # u holds X - shift laid out as (X - shift).T, so Dinv @ u is the
        # product of the per-subdomain passes, bit for bit; it is a view of
        # y, which gets the fraction in the end
        u = y[a:b].T
        for ax in range(d):
            np.subtract(X[a:b, ax], partition._shift[nn, ax], out=u[ax])
        z = partition._Dinv[nn] @ u
        z /= partition.eps
        np.floor(z, out=u)
        xi[a:b] = u.T
        np.subtract(z, u, out=u)
        slot[a:b] = partition._hat_slots(nn, xi[a:b])
    return xi, y, slot


def locate_batch(partition: Partition, X: np.ndarray):
    """locate_slots with the leftover flag slot < 0: (n, xi, y, in_lambda)."""
    n, xi, y, slot = locate_slots(partition, X)
    return n, xi, y, slot < 0


def locate(partition: Partition, transform: TransformField, x) -> LocateResult:
    """Locate one point; see locate_batch. The transform argument is accepted
    for interface symmetry, the partition already carries the frozen maps."""
    n, xi, y, lam = locate_batch(partition, np.asarray(x, dtype=float)[None, :])
    return LocateResult(n=int(n[0]), xi=xi[0], y=y[0], in_lambda=bool(lam[0]))


@dataclass(frozen=True)
class ScalarFieldOnCells:
    """A function psi_tilde(x, y) continuous in x and Y-periodic in y.

    f must accept arrays of shape (m, d) for both arguments.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""

    def check_periodicity(self, X: np.ndarray, Y: np.ndarray, tol: float = 1e-12):
        d = X.shape[1]
        base = self.f(X, Y)
        for j in range(d):
            shifted = Y.copy()
            shifted[:, j] += 1.0
            if np.max(np.abs(self.f(X, shifted) - base)) > tol:
                raise ValueError(f"field {self.name!r} is not Y-periodic in axis {j}")


def lp_approx_batch(psi: ScalarFieldOnCells, partition: Partition,
                    X: np.ndarray, variant: str = "L") -> np.ndarray:
    """Locally periodic approximation at many points.

    variant "L" evaluates psi_tilde(x, .), variant "L0" freezes the slow
    argument at the subdomain anchor x_n.
    """
    if variant not in ("L", "L0"):
        raise ValueError(f"unknown variant {variant!r}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, _, y, _ = locate_batch(partition, X)
    x_slow = X if variant == "L" else partition._anchor[n]
    return psi.f(x_slow, y)


def indicator_perforated(partition: Partition, transform: TransformField,
                         cell: UnitCellSpec, X: np.ndarray) -> np.ndarray:
    """Membership in the perforated domain (True = outside every perforation).

    Leftover regions carry no perforations and are solid material. Membership
    of the inclusion is tested via the K-inverse pullback of the in-cell
    coordinate, with the inclusion centered at the cell midpoint.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.ones(len(X), dtype=bool)
    if cell.inclusion == "none":
        return out
    n, _, y, lam = locate_batch(partition, X)
    c = cell.center
    act = ~lam
    if act.any():
        u = np.einsum("pij,pj->pi", partition._Kinv[n[act]], y[act] - c)
        t = cell.transverse_axes
        dist = np.sqrt(np.sum(u[:, t]**2, axis=1))
        out[act] = dist > cell.a
    return out


def indicator_plywood(partition: Partition, gamma: Callable[[float], float],
                      a: float, rho: Callable[[Point], float],
                      X: np.ndarray) -> np.ndarray:
    """Fiber membership for the plywood-like structure.

    The partition must be built with D = R(gamma(x_last))^{-1}; fibers run
    along the first lattice axis and the transverse radius is rho(x_n) * a,
    tested on fractional coordinates centered at the cell midpoint. Leftover
    regions carry no fibers.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = partition.d
    n, _, y, lam = locate_batch(partition, X)
    out = np.zeros(len(X), dtype=bool)
    act = ~lam
    if not act.any():
        return out
    anchors = partition._anchor[n]
    rho_n = np.array([float(rho(p)) for p in anchors])
    if np.any(rho_n * a >= 0.5):
        raise ValueError("rho(x) * a must stay below 1/2")
    # consistency of the caller-supplied angle field with the frozen lattice
    for nn in np.unique(n[act]):
        R = rotation_matrix(float(gamma(partition._anchor[nn][d - 1])), d)
        if np.max(np.abs(np.linalg.inv(R) - partition._D[nn])) > 1e-9:
            raise ValueError("partition was not built with this angle field")
    yhat = y[act] - 0.5
    trans = yhat[:, 1:d]
    dist = np.sqrt(np.sum(trans**2, axis=1)) / rho_n[act]
    out[act] = dist <= a
    return out


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
