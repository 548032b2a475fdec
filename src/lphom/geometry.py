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
        cand, pts = _candidate_cells(self.lo, self.hi, self.eps, self.D,
                                     self.Dinv, self.shift)
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
        self._xi_min = np.zeros((len(subdomains), d), dtype=int)
        self._box_shape = np.ones((len(subdomains), d), dtype=int)
        for i, s in enumerate(subdomains):
            if len(s.xi_hat):
                self._xi_min[i] = s.xi_hat.min(axis=0)
                self._box_shape[i] = s.xi_hat.max(axis=0) - self._xi_min[i] + 1
        self._box_offset = np.concatenate(
            ([0], np.cumsum(np.prod(self._box_shape, axis=1))))
        self._in_hat = np.zeros(self.n_cell_slots, dtype=bool)
        for i, s in enumerate(subdomains):
            self._in_hat[self.cell_slots(i, s.xi_hat)] = True

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
        rel = xi - self._xi_min[n]
        shape = self._box_shape[n]
        inside = np.all((rel >= 0) & (rel < shape), axis=1)
        flat = rel[:, 0]
        for ax in range(1, self.d):
            flat = flat * shape[..., ax] + rel[:, ax]
        return np.where(inside, self._box_offset[n] + flat, -1)

    def _hat_slots(self, n, xi: np.ndarray) -> np.ndarray:
        """cell_slots, with -1 also for the cells of the box outside Xi_hat."""
        slots = self.cell_slots(n, xi)
        return np.where((slots >= 0) & self._in_hat[slots], slots, -1)

    def subdomain_of(self, X: np.ndarray) -> np.ndarray:
        """Flat subdomain index per point. Floor convention on faces."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k = np.floor((X - self.domain_lo) / self.side).astype(int)
        k = np.clip(k, 0, np.asarray(self.n_sub) - 1)
        return np.ravel_multi_index(tuple(k.T), self.n_sub)


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

    subs: list[Subdomain] = []
    flat = 0
    for k in np.ndindex(*n_sub):
        k_arr = np.array(k)
        s_lo = lo + k_arr * side
        s_hi = np.minimum(lo + (k_arr + 1) * side, hi)
        anchor = (s_lo + s_hi) / 2.0 if anchor_rule == "subdomain-center" else s_lo.copy()
        D = transform.D_at(anchor)
        K = transform.K_at(anchor)
        Dinv = np.linalg.inv(D)
        Kinv = np.linalg.inv(K)
        detD = abs(float(np.linalg.det(D)))
        if side < 2.0 * eps * np.linalg.norm(D, 2):
            raise ValueError(
                f"subdomain side {side:.4g} cannot hold one full cell "
                f"(needs at least {2.0 * eps * np.linalg.norm(D, 2):.4g})")
        xi0 = np.round(Dinv @ s_lo / eps).astype(int)
        shift = eps * D @ xi0
        xi_hat = _lattice_xi_hat(s_lo, s_hi, eps, D, Dinv, shift)
        subs.append(Subdomain(n=flat, k=k, lo=s_lo, hi=s_hi, anchor=anchor,
                              D=D, Dinv=Dinv, K=K, Kinv=Kinv, detD=detD,
                              xi0=xi0, shift=shift, xi_hat=xi_hat, eps=eps))
        flat += 1
    return Partition(lo, hi, eps, r, transform, anchor_rule, subs, n_sub, side)


def _candidate_cells(s_lo, s_hi, eps, D, Dinv, shift):
    """Lattice cells near a subdomain and their mapped corners.

    Returns the integer cells (ncand, d) of the index box around the
    subdomain's preimage and their corner points (ncand, 2^d, d).
    """
    d = len(s_lo)
    corners_box = np.stack([np.where(np.array(c), s_hi, s_lo)
                            for c in np.ndindex(*(2,) * d)])
    z = (Dinv @ (corners_box - shift).T).T / eps
    ximin = np.floor(z.min(axis=0)).astype(int) - 1
    ximax = np.ceil(z.max(axis=0)).astype(int) + 1
    ranges = [np.arange(ximin[i], ximax[i] + 1) for i in range(d)]
    cand = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    unit = np.stack([np.array(c, dtype=float) for c in np.ndindex(*(2,) * d)])
    return cand, map_cells(shift, eps, D, cand, unit)


def map_cells(shift, eps: float, D, xi, y) -> np.ndarray:
    """Points shift + eps D (xi + y), (c, k, d), of cells xi (c, d) and unit-
    cell points y (k, d). In 2-D, per-axis sums of two contiguous products
    give the bits of the einsum used for other d, about 4x faster."""
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(D) != 2:
        # einsum adds three or more terms in an order of its own
        return shift + eps * np.einsum("ij,ckj->cki", D,
                                       xi[:, None, :] + y[None, :, :])
    a0 = xi[:, None, 0] + y[None, :, 0]
    a1 = xi[:, None, 1] + y[None, :, 1]
    return np.stack([(D[i, 0] * a0 + D[i, 1] * a1) * eps + shift[i]
                     for i in range(2)], axis=-1)


def _lattice_xi_hat(s_lo, s_hi, eps, D, Dinv, shift):
    """Xi_hat: the lattice cells fully inside the subdomain (corner tests)."""
    cand, pts = _candidate_cells(s_lo, s_hi, eps, D, Dinv, shift)
    inside = np.all((pts >= s_lo - _GEOM_ATOL) & (pts <= s_hi + _GEOM_ATOL), axis=(1, 2))
    return cand[inside]


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
    outside Xi_hat). Plain floor convention throughout.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lo, hi = partition.domain_lo, partition.domain_hi
    if np.any(X < lo - _GEOM_ATOL) or np.any(X > hi + _GEOM_ATOL):
        raise ValueError("point outside the domain")
    n = partition.subdomain_of(X)
    d = partition.d
    xi = np.empty((len(X), d), dtype=int)
    y = np.empty((len(X), d), dtype=float)
    slot = np.empty(len(X), dtype=int)
    # one stable sort groups the points by subdomain, each group in
    # ascending point order
    order = np.argsort(n, kind="stable")
    starts = np.flatnonzero(np.diff(n[order])) + 1
    for idx in np.split(order, starts) if len(X) else ():
        nn = n[idx[0]]
        z = (partition._Dinv[nn] @ (X[idx] - partition._shift[nn]).T).T / partition.eps
        xi_n = np.floor(z).astype(int)
        xi[idx] = xi_n
        y[idx] = z - xi_n
        slot[idx] = partition._hat_slots(nn, xi_n)
    return n, xi, y, slot


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


def lp_approx(psi: ScalarFieldOnCells, partition: Partition,
              transform: TransformField, x, variant: str = "L") -> float:
    return float(lp_approx_batch(psi, partition, np.asarray(x, dtype=float)[None, :],
                                 variant=variant)[0])


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
