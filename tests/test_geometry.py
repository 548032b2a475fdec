import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lphom.geometry import (
    TransformField,
    UnitCellSpec,
    _SIDE_RTOL,
    _candidate_cells,
    _covering,
    _cells_box_intersect,
    build_partition,
    indicator_perforated,
    locate_cells,
    lp_approx_batch,
    map_cells,
    perforation_level,
    rotation_matrix,
)
from lphom.micro import _axis_breaks, _diagonal_steps, _micro_partition
from lphom.scenarios import SCENARIO_NAMES, get_scenario

UNIT_BOX = ((0.0, 0.0), (1.0, 1.0))
IDENTITY = TransformField(D=lambda x: np.eye(2), K=lambda x: np.eye(2))


def hat_cells(p, n):
    """The Xi_hat cells of subdomain n: its rows of the partition's Xi_hat
    row layout."""
    return p.hat_xi[p.hat_start[n]:p.hat_start[n + 1]]


def constant_rotation_transform(alpha: float) -> TransformField:
    Dm = np.linalg.inv(rotation_matrix(alpha))
    I = np.eye(2)
    return TransformField(D=lambda x: Dm, K=lambda x: I)


class TestRotationMatrix:
    def test_identity_at_zero_angle(self):
        assert np.allclose(rotation_matrix(0.0), np.eye(2), atol=0)

    def test_quarter_turn_2d(self):
        R = rotation_matrix(math.pi / 2)
        assert np.allclose(R, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    @given(st.floats(-10, 10))
    @settings(deadline=None, max_examples=50)
    def test_orthogonality_property(self, alpha):
        R = rotation_matrix(alpha)
        assert np.max(np.abs(R @ R.T - np.eye(2))) <= 1e-13


class TestBuildPartition:
    def test_sixteen_subdomains(self):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, IDENTITY)
        assert p.n_subdomains == 16
        for b in p.breaks:
            assert_same_bits(b, np.arange(5) * 0.25)

    def test_four_subdomains(self):
        p = build_partition(UNIT_BOX, 1 / 4, 0.5, IDENTITY)
        assert p.n_subdomains == 4
        for b in p.breaks:
            assert_same_bits(b, np.arange(3) * 0.5)

    def test_xi_hat_counts_match_brute_force_enumeration(self):
        # independent oracle: enumerate candidate cells and corner-test them
        # directly, without the library's lattice machinery
        eps, r = 1 / 16, 0.5
        p = build_partition(UNIT_BOX, eps, r, IDENTITY)
        side = eps**r
        for s in p.subdomains:
            lo = np.array(s.k) * side
            hi = lo + side
            xi0 = np.round(lo / eps).astype(int)
            shift = eps * xi0
            expected = set()
            for i in range(-2, int(side / eps) + 3):
                for j in range(-2, int(side / eps) + 3):
                    corners = shift + eps * (np.array([i, j]) +
                                             np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))
                    if np.all(corners >= lo - 1e-12) and np.all(corners <= hi + 1e-12):
                        expected.add((i, j))
            got = set(map(tuple, hat_cells(p, s.n)))
            assert got == expected
            assert len(got) == 16

    def test_xi_hat_matches_brute_force_for_varying_transform(self):
        eps = 1 / 8
        sc = get_scenario("epithelial")
        p = build_partition(UNIT_BOX, eps, 0.5, sc.transform)
        corners_unit = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        for s in p.subdomains:
            expected = set()
            z = np.linalg.solve(s.D, (np.stack([s.lo, s.hi]) - s.shift).T).T / eps
            zmin = np.floor(z.min(axis=0)).astype(int) - 2
            zmax = np.ceil(z.max(axis=0)).astype(int) + 2
            for i in range(zmin[0], zmax[0] + 1):
                for j in range(zmin[1], zmax[1] + 1):
                    pts = s.shift + eps * (corners_unit + [i, j]) @ s.D.T
                    if np.all(pts >= s.lo - 1e-12) and np.all(pts <= s.hi + 1e-12):
                        expected.add((i, j))
            assert set(map(tuple, hat_cells(p, s.n))) == expected

    def test_subdomains_cover_domain_without_overlap(self):
        p = build_partition(UNIT_BOX, 1 / 32, 0.5, get_scenario("epithelial").transform)
        total = sum(float(np.prod(s.hi - s.lo)) for s in p.subdomains)
        assert total == pytest.approx(1.0, abs=1e-12)
        boxes = [(tuple(s.lo), tuple(s.hi)) for s in p.subdomains]
        assert len(set(boxes)) == len(boxes)
        for s in p.subdomains:
            assert np.all(s.anchor >= s.lo) and np.all(s.anchor <= s.hi)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_anchor_is_the_subdomain_centre(self, name):
        # in the uniform covering and in the micro grid's snapped one
        tf = get_scenario(name).transform
        for p in (build_partition(UNIT_BOX, 1 / 8, 0.5, tf),
                  _micro_partition(1 / 8, 0.5, tf)):
            for s in p.subdomains:
                assert_same_bits(s.anchor, 0.5 * (s.lo + s.hi))

    def test_lambda_measure_bounded_by_eps_power(self):
        # measured ratios stay below 2.4 for every registry scenario; C = 4
        for name in ("periodic", "epithelial", "plywood2d", "radius-gradient"):
            sc = get_scenario(name)
            for eps in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
                p = build_partition(UNIT_BOX, eps, 0.5, sc.transform)
                assert p.lambda_measure <= 4.0 * eps**0.5
                assert p.lambda_measure >= -1e-12

    def test_rejects_subdomain_too_small_for_one_cell(self):
        with pytest.raises(ValueError, match="full cell"):
            build_partition(UNIT_BOX, 1 / 4, 0.99, IDENTITY)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_partition(UNIT_BOX, -1.0, 0.5, IDENTITY)
        with pytest.raises(ValueError):
            build_partition(UNIT_BOX, 1 / 8, 1.5, IDENTITY)


def single_subdomain_partition(eps, transform):
    # r small enough that one subdomain covers almost all of the unit square;
    # points tested stay inside the first subdomain
    return build_partition(UNIT_BOX, eps, 0.01, transform)


def reference_cell_box_intersects(cell_pts, b_lo, b_hi, D) -> bool:
    """The scalar separating-axis test xi_all ran once per candidate cell:
    one mapped lattice cell (its corner points) versus an axis-aligned box,
    open-interior overlap."""
    atol = 1e-12
    d = len(b_lo)
    box_pts = np.stack([np.where(np.array(c), b_hi, b_lo)
                        for c in np.ndindex(*(2,) * d)])
    axes = [np.eye(d)[i] for i in range(d)]
    Dinv_T = np.linalg.inv(D).T
    axes += [Dinv_T[:, i] for i in range(d)]
    for ax in axes:
        p1 = cell_pts @ ax
        p2 = box_pts @ ax
        if p1.max() <= p2.min() + atol or p2.max() <= p1.min() + atol:
            return False
    return True


def reference_xi_all(s, eps):
    """Xi of one subdomain as build_partition computed it eagerly."""
    d = len(s.lo)
    corners_box = np.stack([np.where(np.array(c), s.hi, s.lo)
                            for c in np.ndindex(*(2,) * d)])
    z = (s.Dinv @ (corners_box - s.shift).T).T / eps
    ximin = np.floor(z.min(axis=0)).astype(int) - 1
    ximax = np.ceil(z.max(axis=0)).astype(int) + 1
    ranges = [np.arange(ximin[i], ximax[i] + 1) for i in range(d)]
    cand = np.stack(np.meshgrid(*ranges, indexing="ij"),
                    axis=-1).reshape(-1, d)
    unit = np.stack([np.array(c, dtype=float)
                     for c in np.ndindex(*(2,) * d)])
    pts = s.shift + eps * np.einsum("ij,ckj->cki", s.D,
                                    cand[:, None, :] + unit[None, :, :])
    inter = np.array([reference_cell_box_intersects(pts[i], s.lo, s.hi, s.D)
                      for i in range(len(cand))])
    return cand[inter]


class TestLazyXiAll:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32])
    def test_matches_the_eager_set(self, name, eps):
        tf = get_scenario(name).transform
        for p in (build_partition(UNIT_BOX, eps, 0.5, tf),
                  _micro_partition(eps, 0.5, tf)):
            for s in p.subdomains:
                assert "xi_all" not in vars(s)
                ref = reference_xi_all(s, eps)
                assert np.array_equal(s.xi_all, ref)
                assert s.xi_all is s.xi_all


class TestVectorizedSeparatingAxes:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_fine_partitions_match_the_scalar_test(self, name):
        tf = get_scenario(name).transform
        for s in build_partition(UNIT_BOX, 1 / 64, 0.5, tf).subdomains:
            assert np.array_equal(s.xi_all, reference_xi_all(s, 1 / 64))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 2 * math.pi), st.floats(0.5, 2.0),
           st.floats(-0.4, 0.4), st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0.05, 0.5))
    def test_random_boxes_match_the_scalar_test(self, alpha, stretch, shear,
                                                x0, y0, side):
        D = np.linalg.inv(rotation_matrix(alpha)) @ np.array(
            [[stretch, shear], [0.0, 1.0]])
        lo = np.array([x0, y0])
        hi = lo + side
        eps = 1 / 16
        shift = eps * D @ np.round(np.linalg.inv(D) @ lo / eps)
        [(rows, cand, pts)] = _candidate_cells(
            lo[None], hi[None], eps, D[None], np.linalg.inv(D)[None],
            shift[None])
        assert not rows.any()
        got = _cells_box_intersect(pts, lo, hi, np.linalg.inv(D))
        ref = [reference_cell_box_intersects(c, lo, hi, D) for c in pts]
        assert got.dtype == bool and got.shape == (len(cand),)
        assert got.tolist() == ref


def reference_map_cells(shift, eps, D, xi, y):
    """The einsum contraction that map_cells replaces in 2-D."""
    return shift + eps * np.einsum("ij,ckj->cki", D,
                                   xi[:, None, :].astype(float) + y[None, :, :])


def unit_cell_nodes(m, d):
    one = (np.arange(m) + 0.5) / m
    return np.stack(np.meshgrid(*([one] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)


def assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


class TestMapCells:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 12, 1 / 32, 1 / 128])
    def test_matches_einsum_bit_for_bit(self, name, eps):
        sc = get_scenario(name)
        p = build_partition(UNIT_BOX, eps, 0.5, sc.transform)
        c = sc.cell.center
        th = 2.0 * math.pi * (np.arange(16) + 0.5) / 16
        circle = c + 0.25 * np.column_stack([np.cos(th), np.sin(th)])
        for s in p.subdomains:
            sets = [unit_cell_nodes(m, 2) for m in (4, 8, 13, 25)]
            sets.append(c + (circle - c) @ s.K.T)   # boundary nodes
            for y in sets:
                xi = hat_cells(p, s.n)
                assert_same_bits(map_cells(s.shift, eps, s.D, xi, y),
                                 reference_map_cells(s.shift, eps, s.D, xi, y))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_per_cell_maps_match_einsum_bit_for_bit(self, name, eps):
        # one D and shift row per cell, as _candidate_cells passes them for
        # a covering's candidates and QInterpolant.eval_cells for its cells
        p = build_partition(UNIT_BOX, eps, 0.5, get_scenario(name).transform)
        s_lo = np.array([s.lo for s in p.subdomains])
        s_hi = np.array([s.hi for s in p.subdomains])
        unit = np.array(list(np.ndindex(2, 2)), dtype=float)
        for owner, cand, pts in _candidate_cells(s_lo, s_hi, eps, p.D, p.Dinv,
                                                 p.shift):
            ref = np.concatenate([
                reference_map_cells(p.shift[n], eps, p.D[n],
                                    cand[owner == n], unit)
                for n in np.unique(owner)])
            assert_same_bits(pts, ref)
        y = unit_cell_nodes(4, 2)
        got = map_cells(p.shift[p.hat_n], eps, p.D[p.hat_n], p.hat_xi, y)
        ref = np.concatenate([
            reference_map_cells(p.shift[n], eps, p.D[n], p.hat_xi[rows], y)
            for n, rows in p.hat_blocks()])
        assert_same_bits(got, ref)

    @pytest.mark.parametrize("per_cell", [False, True],
                             ids=["one-D", "per-cell"])
    def test_points_are_axis_major(self, per_cell):
        # the flat points every consumer passes on are a view whose
        # coordinate columns are contiguous
        rng = np.random.default_rng(5)
        xi = rng.integers(-40, 40, (37, 2))
        D, shift = rotation_matrix(0.3), np.array([0.125, -0.25])
        if per_cell:
            D, shift = rng.normal(size=(37, 2, 2)), rng.normal(size=(37, 2))
        pts = map_cells(shift, 1 / 16, D, xi, unit_cell_nodes(5, 2))
        assert pts.shape == (37, 25, 2)
        X = pts.reshape(-1, 2)
        assert np.shares_memory(X, pts)
        assert X[:, 0].flags.c_contiguous and X[:, 1].flags.c_contiguous

    def test_no_cells(self):
        got = map_cells(np.zeros(2), 1 / 8, np.eye(2), np.zeros((0, 2), int),
                        unit_cell_nodes(4, 2))
        assert got.shape == (0, 16, 2)


def reference_candidate_cells(s_lo, s_hi, eps, D, Dinv, shift):
    """The candidate cells and corners of one subdomain as build_partition
    enumerated them, one subdomain at a time."""
    d = len(s_lo)
    corners_box = np.stack([np.where(np.array(c), s_hi, s_lo)
                            for c in np.ndindex(*(2,) * d)])
    z = (Dinv @ (corners_box - shift).T).T / eps
    ximin = np.floor(z.min(axis=0)).astype(int) - 1
    ximax = np.ceil(z.max(axis=0)).astype(int) + 1
    ranges = [np.arange(ximin[i], ximax[i] + 1) for i in range(d)]
    cand = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    unit = np.stack([np.array(c, dtype=float) for c in np.ndindex(*(2,) * d)])
    return cand, reference_map_cells(shift, eps, D, cand, unit)


def reference_subdomain(n, k, s_lo, s_hi, anchor, D, K, eps, shift=None):
    """The fields of one subdomain as the per-subdomain loop built them;
    shift None snaps the lattice to the point nearest the lower corner."""
    Dinv = np.linalg.inv(D)
    Kinv = np.linalg.inv(K)
    detD = abs(float(np.linalg.det(D)))
    if shift is None:
        shift = eps * D @ np.round(Dinv @ s_lo / eps).astype(int)
    cand, pts = reference_candidate_cells(s_lo, s_hi, eps, D, Dinv, shift)
    inside = np.all((pts >= s_lo - 1e-12) & (pts <= s_hi + 1e-12), axis=(1, 2))
    return dict(n=n, k=k, lo=s_lo, hi=s_hi, anchor=anchor, D=D, Dinv=Dinv,
                K=K, Kinv=Kinv, detD=detD, shift=shift,
                xi_hat=cand[inside], eps=eps)


def reference_build_partition(domain, eps, r, transform):
    """build_partition's subdomain fields, one subdomain at a time."""
    lo = np.asarray(domain[0], dtype=float)
    hi = np.asarray(domain[1], dtype=float)
    d = 2
    side = eps**r
    n_sub = tuple(int(math.ceil((hi[i] - lo[i]) / side - 1e-9))
                  for i in range(d))
    subs = []
    for flat, k in enumerate(np.ndindex(*n_sub)):
        k_arr = np.array(k)
        s_lo = lo + k_arr * side
        s_hi = np.minimum(lo + (k_arr + 1) * side, hi)
        anchor = (s_lo + s_hi) / 2.0
        D = transform.D_at(anchor)
        if side < 2.0 * eps * np.linalg.norm(D, 2):
            raise ValueError(
                f"subdomain side {side:.4g} cannot hold one full cell "
                f"(needs at least {2.0 * eps * np.linalg.norm(D, 2):.4g})")
        subs.append(reference_subdomain(flat, k, s_lo, s_hi, anchor, D,
                                        transform.K_at(anchor), eps))
    return subs


def reference_micro_subdomains(eps, r, transform):
    """_micro_partition's subdomain fields on a separable transform."""
    fs = _diagonal_steps(transform)
    breaks = [_axis_breaks(eps, r, f) for f in fs]
    subs = []
    for flat, k in enumerate(np.ndindex(*(len(b) - 1 for b in breaks))):
        s_lo = np.array([breaks[0][k[0]], breaks[1][k[1]]])
        s_hi = np.array([breaks[0][k[0] + 1], breaks[1][k[1] + 1]])
        anchor = 0.5 * (s_lo + s_hi)
        subs.append(reference_subdomain(
            flat, k, s_lo, s_hi, anchor, transform.D_at(anchor),
            transform.K_at(anchor), eps, shift=s_lo.copy()))
    return subs


def reference_slot_tables(subs, d):
    """The Partition's box hash and its slot -> Xi_hat row table, filled
    one subdomain at a time."""
    xi_min = np.zeros((len(subs), d), dtype=int)
    box_shape = np.ones((len(subs), d), dtype=int)
    for i, s in enumerate(subs):
        if len(s["xi_hat"]):
            xi_min[i] = s["xi_hat"].min(axis=0)
            box_shape[i] = s["xi_hat"].max(axis=0) - xi_min[i] + 1
    box_offset = np.concatenate(([0], np.cumsum(np.prod(box_shape, axis=1))))
    slot_row = np.full(box_offset[-1] + 1, -1)
    first = 0
    for i, s in enumerate(subs):
        rel = s["xi_hat"] - xi_min[i]
        flat = rel[:, 0]
        for ax in range(1, d):
            flat = flat * box_shape[i, ax] + rel[:, ax]
        slot_row[box_offset[i] + flat] = first + np.arange(len(flat))
        first += len(flat)
    return dict(_xi_min=xi_min, _box_shape=box_shape, _box_offset=box_offset,
                _slot_row=slot_row)


def assert_breaks_bound_the_subdomains(p):
    """Partition.breaks hold every Subdomain's lo and hi, bit for bit."""
    assert [b[0] for b in p.breaks] == list(p.domain_lo)
    for s in p.subdomains:
        for i, b in enumerate(p.breaks):
            assert b[s.k[i]] == s.lo[i] and b[s.k[i] + 1] == s.hi[i]


def assert_same_partition(p, ref_subs):
    assert p.n_subdomains == len(ref_subs)
    assert_breaks_bound_the_subdomains(p)
    for s, ref in zip(p.subdomains, ref_subs):
        for name, want in ref.items():
            if name in ("detD", "Kinv"):
                continue            # Partition arrays only, compared below
            got = (hat_cells(p, s.n) if name == "xi_hat"
                   else getattr(s, name))
            if isinstance(want, np.ndarray):
                assert_same_bits(np.asarray(got), want)
            elif isinstance(want, float):
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            else:
                assert got == want and type(got) is type(want)
    for name, want in reference_slot_tables(ref_subs, 2).items():
        assert_same_bits(getattr(p, name), want)
    for name in ("D", "Dinv", "K", "Kinv", "shift", "anchor", "detD"):
        assert_same_bits(getattr(p, name),
                         np.array([ref[name] for ref in ref_subs]))


def varying_stretch_transform() -> TransformField:
    """D = diag(0.8 + 0.4 x_1, 1): |D| grows with x_1 from 1 to 1.2."""
    I = np.eye(2)
    return TransformField(D=lambda x: np.diag([0.8 + 0.4 * x[0], 1.0]),
                          K=lambda x: I)


class TestBatchedPartition:
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 12, 1 / 16, 1 / 32, 1 / 64,
                                     1 / 128])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_matches_the_per_subdomain_loop(self, name, eps):
        tf = get_scenario(name).transform
        p = build_partition(UNIT_BOX, eps, 0.5, tf)
        assert_same_partition(p, reference_build_partition(UNIT_BOX, eps,
                                                           0.5, tf))

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    @pytest.mark.parametrize("name", ["periodic", "epithelial",
                                      "radius-gradient"])
    def test_micro_covering_matches_the_per_subdomain_loop(self, name, eps):
        tf = get_scenario(name).transform
        assert _diagonal_steps(tf) is not None
        assert_same_partition(_micro_partition(eps, 0.5, tf),
                              reference_micro_subdomains(eps, 0.5, tf))

    def test_blocks_split_between_whole_subdomains(self, monkeypatch):
        from lphom import geometry

        tf = get_scenario("plywood2d").transform
        ref = reference_build_partition(UNIT_BOX, 1 / 32, 0.5, tf)
        for block in (1, 100, 10**9):
            monkeypatch.setattr(geometry, "_CELL_BLOCK", block)
            assert_same_partition(build_partition(UNIT_BOX, 1 / 32, 0.5, tf),
                                  ref)

    @pytest.mark.parametrize("eps, r, tf", [
        (1 / 4, 0.5, varying_stretch_transform()),     # the second fails
        (1 / 4, 0.99, IDENTITY),
        (1 / 8, 0.9, get_scenario("plywood2d").transform),
        (1 / 8, 0.9, get_scenario("epithelial").transform),
        (1 / 16, 0.95, get_scenario("radius-gradient").transform),
    ])
    def test_too_small_subdomains_give_the_same_message(self, eps, r, tf):
        with pytest.raises(ValueError, match="full cell") as want:
            reference_build_partition(UNIT_BOX, eps, r, tf)
        with pytest.raises(ValueError, match="full cell") as got:
            build_partition(UNIT_BOX, eps, r, tf)
        assert str(got.value) == str(want.value)

    def test_the_first_failing_subdomain_is_named(self):
        # subdomain (0, 0) holds a cell, (1, 0) does not
        with pytest.raises(ValueError) as exc:
            build_partition(UNIT_BOX, 1 / 4, 0.5, varying_stretch_transform())
        assert str(exc.value) == ("subdomain side 0.5 cannot hold one full "
                                  "cell (needs at least 0.55)")


def snapped_breaks(eps):
    """Per-axis breaks of the unit box at whole multiples of 2 eps."""
    b = np.linspace(0.0, 1.0, int(round(1 / (2 * eps))) + 1)
    return [b, b]


class TestSideSlack:
    # plywood2d rotates its cells, so the side 2 eps is the least that holds
    # one; a side snapped to it and passed as eps**r may come back a few
    # ulps below
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    def test_a_side_a_few_ulps_below_the_bound_builds(self, eps):
        tf = get_scenario("plywood2d").transform
        side = 2 * eps
        for _ in range(4):
            p = _covering(np.zeros(2), np.ones(2), snapped_breaks(eps), eps,
                          tf, side=side)
            assert len(p.hat_xi)
            side = np.nextafter(side, 0.0)

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    def test_a_side_beyond_the_slack_is_rejected(self, eps):
        tf = get_scenario("plywood2d").transform
        side = 2 * eps * (1.0 - 1e3 * _SIDE_RTOL)
        with pytest.raises(ValueError, match="full cell"):
            _covering(np.zeros(2), np.ones(2), snapped_breaks(eps), eps, tf,
                      side=side)


class TestHatBlocks:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_blocks_are_the_subdomains_with_cells_in_row_order(self, name):
        tf = get_scenario(name).transform
        for p in (build_partition(UNIT_BOX, 1 / 16, 0.5, tf),
                  _micro_partition(1 / 16, 0.5, tf)):
            blocks = p.hat_blocks()
            ns = [n for n, _ in blocks]
            assert ns == np.flatnonzero(np.diff(p.hat_start)).tolist()
            rows = np.concatenate([np.arange(len(p.hat_n))[s]
                                   for _, s in blocks])
            assert_same_bits(rows, np.arange(len(p.hat_n)))
            for n, s in blocks:
                assert (p.hat_n[s] == n).all()

    def test_a_subdomain_without_cells_has_no_block(self):
        # the first column, 0.05 wide, holds no cell of side 1/8
        breaks = [np.array([0.0, 0.05, 1.0]), np.array([0.0, 1.0])]
        p = _covering(np.zeros(2), np.ones(2), breaks, 1 / 8, IDENTITY)
        assert p.hat_start[1] == 0
        assert [n for n, _ in p.hat_blocks()] == [1]
        [(_, rows)] = p.hat_blocks()
        assert (rows.start, rows.stop) == (0, len(p.hat_n))


def reference_subdomain_of(partition, X):
    """Partition.subdomain_of with a clipped multi-index searched in the full
    breaks of every axis, and ravel_multi_index."""
    k = np.stack([np.clip(np.searchsorted(b, X[:, i], side="right") - 1,
                          0, len(b) - 2)
                  for i, b in enumerate(partition.breaks)], axis=1)
    return np.ravel_multi_index(tuple(k.T), partition.n_sub)


def reference_locate(partition, X):
    """locate_cells from one np.where pass per subdomain, and the Xi_hat
    row from a dict of tuples."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = reference_subdomain_of(partition, X)
    d = 2
    xi = np.empty((len(X), d), dtype=int)
    y = np.empty((len(X), d), dtype=float)
    row = np.empty(len(X), dtype=int)
    for nn in np.unique(n):
        idx = np.where(n == nn)[0]
        z = (partition.Dinv[nn] @ (X[idx] - partition.shift[nn]).T).T \
            / partition.eps
        xi_n = np.floor(z).astype(int)
        xi[idx] = xi_n
        y[idx] = z - xi_n
        first = int(partition.hat_start[nn])
        rows = {tuple(t): first + e for e, t in
                enumerate(hat_cells(partition, nn).tolist())}
        row[idx] = [rows.get(tuple(t), -1) for t in xi_n.tolist()]
    return n, xi, y, row


def locate_probe_points(p, seed):
    """Random points, a row-major grid, and points on the breaks and on the
    multiples of the nominal side eps^r at r = 0.5, every caller's r."""
    rng = np.random.default_rng(seed)
    g = (np.arange(97) + 0.5) / 97
    GX, GY = np.meshgrid(g, g, indexing="ij")
    faces = np.concatenate([np.arange(p.n_sub[0] + 1) * p.eps**0.5,
                            p.breaks[0]])
    F = np.column_stack([np.repeat(faces, 9), np.tile(np.linspace(0, 1, 9),
                                                      len(faces))])
    return np.clip(np.concatenate([rng.uniform(0, 1, size=(5000, 2)),
                                   np.column_stack([GX.ravel(), GY.ravel()]),
                                   F, F[:, ::-1]]), 0.0, 1.0)


class TestGroupedLocate:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_matches_per_subdomain_passes(self, name, eps):
        tf = get_scenario(name).transform
        for p in (build_partition(UNIT_BOX, eps, 0.5, tf),
                  _micro_partition(eps, 0.5, tf)):
            X = locate_probe_points(p, 3)
            got = locate_cells(p, X)
            assert len(np.unique(got[0])) == p.n_subdomains
            for g, r in zip(got, reference_locate(p, X)):
                assert g.dtype == r.dtype and g.shape == r.shape
                assert g.tobytes() == r.tobytes()
            assert (got[3] >= 0).any() and not (got[3] >= 0).all()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128])
    def test_a_point_on_a_break_belongs_to_the_subdomain_above(self, name,
                                                                eps):
        # every subdomain owns its lower faces: a point on the subdomain's
        # lo along one axis (or all), at its centre along the others, is
        # located in that subdomain
        tf = get_scenario(name).transform
        for p in (build_partition(UNIT_BOX, eps, 0.5, tf),
                  _micro_partition(eps, 0.5, tf)):
            lo = np.array([s.lo for s in p.subdomains])
            mid = 0.5 * (lo + np.array([s.hi for s in p.subdomains]))
            want = np.arange(p.n_subdomains)
            for ax in range(2):
                X = mid.copy()
                X[:, ax] = lo[:, ax]
                assert_same_bits(p.subdomain_of(X), want)
                assert_same_bits(locate_cells(p, X)[0], want)
            assert_same_bits(p.subdomain_of(lo), want)

    @staticmethod
    def assert_matches_reference(p, X):
        got = locate_cells(p, X)
        for g, r in zip(got, reference_locate(p, X)):
            assert_same_bits(g, r)
        return got

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_input_grouped_by_subdomain(self, name, eps):
        # the mapped unit-cell nodes of every Xi_hat cell, subdomain after
        # subdomain, as unfold passes them
        tf = get_scenario(name).transform
        y = unit_cell_nodes(4, 2)
        for p in (build_partition(UNIT_BOX, eps, 0.5, tf),
                  _micro_partition(eps, 0.5, tf)):
            per_sub = [map_cells(s.shift, eps, s.D, hat_cells(p, s.n),
                                 y).reshape(-1, 2) for s in p.subdomains]
            for X in per_sub[:3] + [np.concatenate(per_sub)]:
                n = self.assert_matches_reference(p, X)[0]
                assert np.all(np.diff(n) >= 0)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_single_points(self, name):
        tf = get_scenario(name).transform
        for p in (build_partition(UNIT_BOX, 1 / 16, 0.5, tf),
                  _micro_partition(1 / 16, 0.5, tf)):
            for x in locate_probe_points(p, 5)[::97]:
                self.assert_matches_reference(p, x)
                self.assert_matches_reference(p, x[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_non_finite_points(self, bad, axis):
        tf = get_scenario("plywood2d").transform
        for p in (build_partition(UNIT_BOX, 1 / 16, 0.5, tf),
                  _micro_partition(1 / 16, 0.5, get_scenario("periodic").transform)):
            X = np.full((5, 2), 0.5)
            X[3, axis] = bad
            for call in (lambda: locate_cells(p, X[3]),
                         lambda: locate_cells(p, X),
                         lambda: locate_cells(p, X[::-1])):
                with pytest.raises(ValueError, match="point outside the domain"):
                    call()

    def test_empty_input(self):
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, IDENTITY)
        n, xi, y, row = locate_cells(p, np.zeros((0, 2)))
        assert n.shape == row.shape == (0,)
        assert xi.shape == y.shape == (0, 2)


class TestCellSlots:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_xi_hat_cells_get_distinct_in_range_slots(self, name):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, get_scenario(name).transform)
        n = np.concatenate([np.full(len(hat_cells(p, s.n)), s.n)
                            for s in p.subdomains])
        xi = np.concatenate([hat_cells(p, s.n) for s in p.subdomains])
        slots = p._cell_slots(n, xi)
        assert slots.min() >= 0 and slots.max() < p._box_offset[-1]
        assert len(np.unique(slots)) == len(slots)

    def test_one_subdomain_for_all_rows(self):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, get_scenario("plywood2d").transform)
        for s in p.subdomains:
            cells = hat_cells(p, s.n)
            probes = np.concatenate([cells, cells.max(axis=0) + [[1, 0]]])
            assert_same_bits(p._cell_slots(s.n, probes),
                             p._cell_slots(np.full(len(probes), s.n), probes))
            assert_same_bits(p.cell_rows(s.n, probes),
                             p.cell_rows(np.full(len(probes), s.n), probes))

    def test_outside_the_box_is_minus_one(self):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, get_scenario("plywood2d").transform)
        for s in p.subdomains:
            lo, hi = hat_cells(p, s.n).min(axis=0), hat_cells(p, s.n).max(axis=0)
            probes = np.array([lo - [1, 0], lo - [0, 1], hi + [1, 0],
                               hi + [0, 1], lo, hi])
            slots = p._cell_slots(np.full(len(probes), s.n), probes)
            assert list(slots[:4]) == [-1] * 4
            assert slots[4] == p._box_offset[s.n]
            assert slots[5] == p._box_offset[s.n + 1] - 1


class TestCellRows:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_matches_a_dict_of_the_rows(self, name, eps):
        # every Xi_hat cell and its eight neighbours, the corners of the
        # index box around each subdomain's Xi_hat, and cells far outside
        # every box: rotated lattices put box cells outside Xi_hat
        tf = get_scenario(name).transform
        steps = np.array(list(np.ndindex(3, 3))) - 1
        for p in (build_partition(UNIT_BOX, eps, 0.5, tf),
                  _micro_partition(eps, 0.5, tf)):
            rows = {(n, tuple(xi)): e for e, (n, xi) in
                    enumerate(zip(p.hat_n.tolist(), p.hat_xi.tolist()))}
            ns, xis = [np.repeat(p.hat_n, len(steps))], [
                (p.hat_xi[:, None, :] + steps).reshape(-1, 2)]
            for n, rows_n in p.hat_blocks():
                lo = p.hat_xi[rows_n].min(axis=0)
                hi = p.hat_xi[rows_n].max(axis=0)
                ns.append(np.full(6, n))
                xis.append(np.array([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]],
                                     [10**6, lo[1]], [lo[0], -10**6]]))
            n, xi = np.concatenate(ns), np.concatenate(xis)
            want = np.array([rows.get((k, tuple(c)), -1) for k, c in
                             zip(n.tolist(), xi.tolist())])
            assert_same_bits(p.cell_rows(n, xi), want)
            assert (want < 0).any() and (want >= 0).any()
            in_box = p._cell_slots(n, xi) >= 0
            assert (~in_box).any()
            if name == "plywood2d":
                assert (in_box & (want < 0)).any()


class TestLocate:
    def test_identity_single_subdomain(self):
        p = single_subdomain_partition(1 / 4, IDENTITY)
        _, [xi], [y], _ = locate_cells(p, np.array([0.3, 0.6]))
        assert tuple(xi) == (1, 2)
        assert np.allclose(y, [0.2, 0.4], atol=1e-12)

    def test_exact_lattice_corner_floor_convention(self):
        p = single_subdomain_partition(1 / 4, IDENTITY)
        _, [xi], [y], _ = locate_cells(p, np.array([0.5, 0.25]))
        assert tuple(xi) == (2, 1)
        assert np.allclose(y, [0.0, 0.0], atol=0)

    def test_rotated_lattice_against_direct_arithmetic(self):
        # oracle: direct evaluation of Dinv (x - shift) / eps with its own
        # shift computation, no partition internals
        eps = 1 / 8
        tf = constant_rotation_transform(math.pi / 6)
        p = build_partition(UNIT_BOX, eps, 0.5, tf)
        x = np.array([0.40, 0.35])
        _, [xi], [y], _ = locate_cells(p, x)
        Dm = np.linalg.inv(rotation_matrix(math.pi / 6))
        k = np.floor(x / eps**0.5).astype(int)
        lo = k * eps**0.5
        xi0 = np.round(np.linalg.solve(Dm, lo) / eps)
        shift = eps * Dm @ xi0
        z = np.linalg.solve(Dm, x - shift) / eps
        assert np.allclose(xi, np.floor(z), atol=0)
        assert np.allclose(y, z - np.floor(z), atol=1e-12)

    def test_rejects_point_outside_domain(self):
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, IDENTITY)
        with pytest.raises(ValueError, match="outside"):
            locate_cells(p, np.array([1.2, 0.5]))

    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    def test_reconstruction_left_inverse(self, name):
        sc = get_scenario(name)
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(7)
        X = rng.uniform(0.0, 1.0, size=(500, 2))
        n, xi, y, _ = locate_cells(p, X)
        rec = p.shift[n] + p.eps * np.einsum("pij,pj->pi", p.D[n], xi + y)
        assert np.max(np.abs(rec - X)) <= 1e-12

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(deadline=None, max_examples=60)
    def test_reconstruction_property_epithelial(self, x1, x2):
        p = _EPI_PARTITION
        [n], [xi], [y], _ = locate_cells(p, np.array([x1, x2]))
        s = p.subdomains[n]
        rec = s.shift + p.eps * s.D @ (xi + y)
        assert np.max(np.abs(rec - np.array([x1, x2]))) <= 1e-12

    def test_lambda_flag_consistent_with_xi_hat(self):
        sc = get_scenario("plywood2d")
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1.0, size=(400, 2))
        n, xi, _, row = locate_cells(p, X)
        hat = set(zip(p.hat_n.tolist(), map(tuple, p.hat_xi.tolist())))
        for i in range(len(X)):
            member = (int(n[i]), tuple(xi[i].tolist())) in hat
            assert member == (row[i] >= 0)


_EPI_PARTITION = build_partition(UNIT_BOX, 1 / 8, 0.5,
                                 get_scenario("epithelial").transform)


def frozen_lp_approx(psi, p, X):
    """The approximation with the slow argument frozen at the anchor x_n."""
    n, _, y, _ = locate_cells(p, X)
    return psi(p.anchor[n], y)


class TestLpApprox:
    def test_no_fast_dependence(self):
        g = lambda x, y: x[:, 0] ** 2 + 3.0
        p = _EPI_PARTITION
        x = np.array([0.37, 0.81])
        [n] = locate_cells(p, x)[0]
        anchor = p.subdomains[n].anchor
        assert lp_approx_batch(g, p, x[None])[0] == pytest.approx(
            0.37**2 + 3.0, abs=1e-14)
        assert frozen_lp_approx(g, p, x[None])[0] == pytest.approx(
            anchor[0] ** 2 + 3.0, abs=1e-14)

    def test_pure_oscillation_identity_lattice(self):
        psi = lambda x, y: np.sin(2 * np.pi * y[:, 0])
        p = single_subdomain_partition(1 / 4, IDENTITY)
        for x in ([0.3, 0.6], [0.11, 0.52], [0.77, 0.23]):
            [v] = lp_approx_batch(psi, p, np.array([x]))
            [v0] = frozen_lp_approx(psi, p, np.array([x]))
            want = math.sin(2 * math.pi * x[0] / (1 / 4))
            assert v == pytest.approx(want, abs=1e-12)
            assert v0 == pytest.approx(want, abs=1e-12)

    def test_composition_oracle_rotating_lattice(self):
        # psi(x, y) = x1 * y2 under the plywood transform; oracle composes
        # the fractional decomposition by hand
        sc = get_scenario("plywood2d")
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        psi = lambda x, y: x[:, 0] * y[:, 1]
        rng = np.random.default_rng(11)
        X = rng.uniform(0.0, 1.0, size=(100, 2))
        got = lp_approx_batch(psi, p, X)
        for i, x in enumerate(X):
            k = np.minimum(np.floor(x / (1 / 8) ** 0.5).astype(int),
                           np.array(p.n_sub) - 1)
            s = p.subdomains[int(np.ravel_multi_index(tuple(k), p.n_sub))]
            z = np.linalg.solve(s.D, x - s.shift) / p.eps
            y = z - np.floor(z)
            assert got[i] == pytest.approx(x[0] * y[1], abs=1e-12)

    def test_variants_agree_without_x_dependence(self):
        psi = lambda x, y: np.cos(2 * np.pi * y[:, 0]) + y[:, 1]
        p = _EPI_PARTITION
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(200, 2))
        vL = lp_approx_batch(psi, p, X)
        vL0 = frozen_lp_approx(psi, p, X)
        assert np.max(np.abs(vL - vL0)) <= 1e-14

    def test_rejects_unknown_variant(self):
        # the approximation has one form: a variant argument is an error
        psi = lambda x, y: y[:, 0]
        with pytest.raises(TypeError):
            lp_approx_batch(psi, _EPI_PARTITION, np.array([[0.5, 0.5]]), "L2")


class TestIndicatorPerforated:
    def test_center_of_disk_is_perforation(self):
        sc = get_scenario("periodic")
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, sc.transform)
        # image of the unit-cell center for some interior cell
        s = p.subdomains[5]
        xi = hat_cells(p, s.n)[0]
        x = s.shift + p.eps * s.D @ (xi + np.array([0.5, 0.5]))
        assert not indicator_perforated(p, sc.cell, x[None, :])[0]

    def test_cell_corner_is_material(self):
        sc = get_scenario("periodic")
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, sc.transform)
        s = p.subdomains[5]
        xi = hat_cells(p, s.n)[0]
        x = s.shift + p.eps * s.D @ (xi + np.array([0.01, 0.01]))
        assert indicator_perforated(p, sc.cell, x[None, :])[0]

    def test_scaled_perforation_distance_threshold(self):
        # K = 1.5 I, a = 0.25: physical in-cell radius is 0.375, so distance
        # 0.37 falls inside the perforation and 0.38 outside
        K = 1.5 * np.eye(2)
        tf = TransformField(D=lambda x: np.eye(2), K=lambda x: K)
        cell = UnitCellSpec(a=0.25)
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, tf)
        s = p.subdomains[5]
        xi = hat_cells(p, s.n)[0]
        for dist, expected in ((0.37, False), (0.38, True)):
            y = np.array([0.5, 0.5]) + dist * np.array([1.0, 0.0])
            x = s.shift + p.eps * s.D @ (xi + y)
            assert indicator_perforated(p, cell, x[None, :])[0] == expected

    def test_lambda_region_is_material(self):
        sc = get_scenario("plywood2d")
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(500, 2))
        lam = locate_cells(p, X)[3] < 0
        ind = indicator_perforated(p, sc.cell, X)
        assert np.all(ind[lam])

    def test_no_inclusion_everything_material(self):
        sc = get_scenario("periodic", a=0.0)
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(200, 2))
        assert np.all(indicator_perforated(p, sc.cell, X))

    def test_volume_fraction_converges_to_mean_inclusion_measure(self):
        sc = get_scenario("radius-gradient")
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        num = den = 0.0
        for s in p.subdomains:
            m = len(hat_cells(p, s.n)) * p.eps**2 * p.detD[s.n]
            num += m * sc.cell.inclusion_measure(s.K)
            den += m
        expected = num / den
        for ng in (512, 1024):
            xs = (np.arange(ng) + 0.5) / ng
            X = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
            inhat = locate_cells(p, X)[3] >= 0
            fluid = indicator_perforated(p, sc.cell, X)
            frac = np.sum(inhat & ~fluid) / np.sum(inhat)
            assert abs(frac - expected) / expected <= 0.01



def reference_center_mask(p, cell, X):
    """The fluid test indicator_perforated ran itself: sqrt(sum(u**2)) > a
    on the points outside the leftover regions, True elsewhere."""
    out = np.ones(len(X), dtype=bool)
    if cell.a == 0.0:
        return out
    n, _, y, row = locate_cells(p, X)
    act = row >= 0
    if act.any():
        u = np.einsum("pij,pj->pi", p.Kinv[n[act]], y[act] - cell.center)
        out[act] = np.sqrt(np.sum(u**2, axis=1)) > cell.a
    return out


def reference_node_level(p, cell, X):
    """The node level build_micro_grid computed itself: norm(u) - a at every
    point, then +1 at the leftover ones."""
    n, _, y, row = locate_cells(p, X)
    u = np.einsum("pij,pj->pi", p.Kinv[n], y - cell.center)
    level = np.linalg.norm(u, axis=1) - cell.a
    level[row < 0] = 1.0
    return level


def micro_grid_points(eps, cells_per_eps=15):
    """The cell centres and the nodes of the micro grid at eps."""
    n = int(round(cells_per_eps / eps))
    h = eps / cells_per_eps
    out = []
    for g in ((np.arange(n) + 0.5) * h, np.arange(n + 1) * h):
        GX, GY = np.meshgrid(g, g, indexing="ij")
        out.append(np.column_stack([GX.ravel(), GY.ravel()]))
    return out


class TestPerforationLevel:
    """One level routine gives both old perforation tests, bit for bit."""

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_matches_the_center_mask_and_the_node_level(self, name, eps):
        sc = get_scenario(name)
        p = _micro_partition(eps, 0.5, sc.transform)
        centers, nodes = micro_grid_points(eps)
        want = reference_center_mask(p, sc.cell, centers)
        assert np.array_equal(perforation_level(p, sc.cell, centers) > 0.0,
                              want)
        assert np.array_equal(indicator_perforated(p, sc.cell, centers), want)
        assert not want.all() and want.any()
        assert_same_bits(perforation_level(p, sc.cell, nodes),
                         reference_node_level(p, sc.cell, nodes))

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32])
    def test_no_inclusion_is_all_fluid(self, eps):
        sc = get_scenario("periodic", a=0.0)
        assert sc.cell.a == 0.0
        p = _micro_partition(eps, 0.5, sc.transform)
        for X in micro_grid_points(eps):
            assert_same_bits(perforation_level(p, sc.cell, X),
                             np.ones(len(X)))
            assert indicator_perforated(p, sc.cell, X).all()
            assert reference_center_mask(p, sc.cell, X).all()


# the frozen maps of a Partition that every Subdomain also views; Kinv and
# detD are Partition arrays only
MAP_NAMES = ("anchor", "D", "Dinv", "K", "shift")


class TestOneCopyOfTheMaps:
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_subdomain_maps_are_views_of_the_partition_rows(self, name, eps):
        tf = get_scenario(name).transform
        for p in (build_partition(UNIT_BOX, eps, 0.5, tf),
                  _micro_partition(eps, 0.5, tf)):
            assert p.detD.shape == (p.n_subdomains,)
            for s in p.subdomains:
                for m in MAP_NAMES:
                    got, row = getattr(s, m), getattr(p, m)[s.n]
                    assert np.shares_memory(got, row)
                    assert_same_bits(got, row)

    def test_the_maps_are_read_only(self):
        p = build_partition(UNIT_BOX, 1 / 8, 0.5,
                            get_scenario("plywood2d").transform)
        s = p.subdomains[0]
        for a in ([getattr(p, m) for m in MAP_NAMES + ("Kinv", "detD")]
                  + [getattr(s, m) for m in MAP_NAMES]):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


# each registry scenario's bounds at its default parameters: |det D|, |det K|
# and a Lipschitz budget of both maps
DECLARED_BOUNDS = {
    "periodic": ((1.0, 1.0), (1.0, 1.0), 0.0),
    "epithelial": ((0.7, 0.95), (1.0, 1.0), 0.25 + 0.1),
    "plywood2d": ((1.0, 1.0), (1.4, 1.4), math.pi / 2 + 0.1),
    "radius-gradient": ((1.0, 1.0), (1.0, 1.5**2), 2.0 * 0.5 + 0.1),
}


class TestTransformField:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_registry_transforms_keep_their_declared_bounds(self, name):
        # on a 7 x 7 grid: det D and det K within the declared bounds,
        # neighbour difference quotients within the Lipschitz budget, and
        # K(x) Y0 strictly inside Y
        sc = get_scenario(name)
        tf = sc.transform
        detD_bounds, detK_bounds, budget = DECLARED_BOUNDS[name]
        g = np.linspace(0.0, 1.0, 7)
        pts = [np.array([a, b]) for a in g for b in g]
        Ds = np.array([tf.D_at(x) for x in pts]).reshape(7, 7, 2, 2)
        Ks = np.array([tf.K_at(x) for x in pts]).reshape(7, 7, 2, 2)
        for M, (lo, hi) in ((Ds, detD_bounds), (Ks, detK_bounds)):
            det = np.abs(np.linalg.det(M))
            assert det.min() >= lo - 1e-12 and det.max() <= hi + 1e-12
            for ax in (0, 1):
                quot = np.linalg.norm(np.diff(M, axis=ax), 2,
                                      axis=(-2, -1)) / (g[1] - g[0])
                assert quot.max() <= budget + 1e-9
        if sc.cell.a != 0.0:
            # extent of K Y0 per axis about the cell centre 1/2
            assert np.all(sc.cell.a * np.linalg.norm(Ks, axis=-1) < 0.5)


    @pytest.mark.parametrize("which", ["D", "K"])
    @pytest.mark.parametrize("shape", [(3, 3), (2,), (2, 3)])
    def test_a_map_that_is_not_2x2_is_rejected(self, which, shape):
        maps = {"D": lambda x: np.eye(2), "K": lambda x: np.eye(2),
                which: lambda x: np.ones(shape)}
        want = re.escape(f"{which}(x) must be 2x2, got shape {shape}")
        with pytest.raises(ValueError, match=want):
            build_partition(UNIT_BOX, 1 / 8, 0.5, TransformField(**maps))


class TestUnitCellSpec:
    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            UnitCellSpec(a=0.5)
        for a in (-0.1, float("nan")):
            with pytest.raises(ValueError,
                               match="inclusion radius must be at least 0"):
                UnitCellSpec(a=a)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios_reject_a_negative_radius(self, name):
        # a = 0 is the unperforated cell; a negative radius is no cell
        with pytest.raises(ValueError, match="inclusion radius"):
            get_scenario(name, a=-0.3)
        assert get_scenario(name, a=0.0).cell.a == 0.0

    def test_inclusion_measure(self):
        cell = UnitCellSpec(a=0.25)
        assert cell.inclusion_measure() == pytest.approx(math.pi * 0.0625, rel=1e-15)
        K = np.diag([1.5, 1.5])
        assert cell.inclusion_measure(K) == pytest.approx(math.pi * 0.0625 * 2.25, rel=1e-14)
        none = UnitCellSpec(a=0.0)
        assert none.inclusion_measure() == 0.0
        assert none.inclusion_measure(K) == 0.0
