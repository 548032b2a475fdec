import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lphom.geometry import (
    ScalarFieldOnCells,
    TransformField,
    UnitCellSpec,
    _candidate_cells,
    _cells_box_intersect,
    build_partition,
    identity_transform,
    indicator_perforated,
    indicator_plywood,
    locate,
    locate_batch,
    locate_slots,
    lp_approx_batch,
    map_cells,
    rotation_matrix,
)
from lphom.micro import _axis_breaks, _diagonal_steps, _micro_partition
from lphom.scenarios import (
    SCENARIO_NAMES,
    epithelial_scenario,
    get_scenario,
    periodic_scenario,
    plywood2d_scenario,
    radius_gradient_scenario,
)

UNIT_BOX = ((0.0, 0.0), (1.0, 1.0))


def constant_rotation_transform(alpha: float) -> TransformField:
    Dm = np.linalg.inv(rotation_matrix(alpha, 2))
    I = np.eye(2)
    return TransformField(d=2, D=lambda x: Dm, K=lambda x: I,
                          detD_bounds=(1.0, 1.0), detK_bounds=(1.0, 1.0),
                          lipschitz_budget=0.0, name="const-rot")


class TestRotationMatrix:
    def test_identity_at_zero_angle(self):
        assert np.allclose(rotation_matrix(0.0, 3), np.eye(3), atol=0)

    def test_quarter_turn_2d(self):
        R = rotation_matrix(math.pi / 2, 2)
        assert np.allclose(R, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_orthogonality_3d(self):
        R = rotation_matrix(0.7, 3)
        assert np.max(np.abs(R @ R.T - np.eye(3))) <= 1e-14

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            rotation_matrix(0.1, 4)

    @given(st.floats(-10, 10))
    @settings(deadline=None, max_examples=50)
    def test_orthogonality_property(self, alpha):
        for d in (2, 3):
            R = rotation_matrix(alpha, d)
            assert np.max(np.abs(R @ R.T - np.eye(d))) <= 1e-13


class TestBuildPartition:
    def test_sixteen_subdomains(self):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, identity_transform(2))
        assert p.n_subdomains == 16
        assert p.side == pytest.approx(0.25, abs=0)

    def test_four_subdomains(self):
        p = build_partition(UNIT_BOX, 1 / 4, 0.5, identity_transform(2))
        assert p.n_subdomains == 4
        assert p.side == pytest.approx(0.5, abs=0)

    def test_xi_hat_counts_match_brute_force_enumeration(self):
        # independent oracle: enumerate candidate cells and corner-test them
        # directly, without the library's lattice machinery
        eps, r = 1 / 16, 0.5
        p = build_partition(UNIT_BOX, eps, r, identity_transform(2),
                            anchor_rule="lower-corner")
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
            got = set(map(tuple, s.xi_hat))
            assert got == expected
            assert len(got) == 16

    def test_xi_hat_matches_brute_force_for_varying_transform(self):
        eps = 1 / 8
        sc = epithelial_scenario()
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
            assert set(map(tuple, s.xi_hat)) == expected

    def test_subdomains_cover_domain_without_overlap(self):
        p = build_partition(UNIT_BOX, 1 / 32, 0.5, epithelial_scenario().transform)
        total = sum(float(np.prod(s.hi - s.lo)) for s in p.subdomains)
        assert total == pytest.approx(1.0, abs=1e-12)
        boxes = [(tuple(s.lo), tuple(s.hi)) for s in p.subdomains]
        assert len(set(boxes)) == len(boxes)
        for s in p.subdomains:
            assert np.all(s.anchor >= s.lo) and np.all(s.anchor <= s.hi)

    def test_anchor_inside_subdomain_for_both_rules(self):
        for rule in ("subdomain-center", "lower-corner"):
            p = build_partition(UNIT_BOX, 1 / 8, 0.5, identity_transform(2),
                                anchor_rule=rule)
            for s in p.subdomains:
                assert np.all(s.anchor >= s.lo - 1e-15)
                assert np.all(s.anchor <= s.hi + 1e-15)

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
            build_partition(UNIT_BOX, 1 / 4, 0.99, identity_transform(2))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_partition(UNIT_BOX, -1.0, 0.5, identity_transform(2))
        with pytest.raises(ValueError):
            build_partition(UNIT_BOX, 1 / 8, 1.5, identity_transform(2))
        with pytest.raises(ValueError):
            build_partition(UNIT_BOX, 1 / 8, 0.5, identity_transform(2),
                            anchor_rule="median")


def single_subdomain_partition(eps, transform, anchor_rule="lower-corner"):
    # r small enough that one subdomain covers almost all of the unit square;
    # points tested stay inside the first subdomain
    return build_partition(UNIT_BOX, eps, 0.01, transform, anchor_rule=anchor_rule)


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
    if d == 3:
        for i in range(3):
            for j in range(3):
                cr = np.cross(D[:, i], np.eye(3)[j])
                if np.linalg.norm(cr) > 1e-14:
                    axes.append(cr)
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


def constant_transform_3d(M) -> TransformField:
    I = np.eye(3)
    return TransformField(d=3, D=lambda x: M, K=lambda x: I,
                          detD_bounds=(0.1, 10.0), detK_bounds=(1.0, 1.0),
                          lipschitz_budget=0.0, name="const-3d")


class TestVectorizedSeparatingAxes:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_fine_partitions_match_the_scalar_test(self, name):
        tf = get_scenario(name).transform
        for s in build_partition(UNIT_BOX, 1 / 64, 0.5, tf).subdomains:
            assert np.array_equal(s.xi_all, reference_xi_all(s, 1 / 64))

    @pytest.mark.parametrize("alpha, sheared", [(0.3, False),
                                                (math.pi / 4, True)])
    def test_three_dimensional_cells_use_the_cross_axes(self, alpha, sheared):
        M = np.linalg.inv(rotation_matrix(alpha, 3))
        if sheared:
            M = M @ np.array([[1.2, 0.3, 0.0], [0.0, 0.9, 0.2],
                              [0.1, 0.0, 1.1]])
        # side 0.76: a 2 x 2 x 2 covering
        p = build_partition(((0.0,) * 3, (1.0,) * 3), 1 / 4, 0.2,
                            constant_transform_3d(M))
        assert p.n_subdomains == 8
        for s in p.subdomains:
            got = s.xi_all
            assert np.array_equal(got, reference_xi_all(s, 1 / 4))
            assert len(got) > len(s.xi_hat)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 2 * math.pi), st.floats(0.5, 2.0),
           st.floats(-0.4, 0.4), st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0.05, 0.5))
    def test_random_boxes_match_the_scalar_test(self, alpha, stretch, shear,
                                                x0, y0, side):
        D = np.linalg.inv(rotation_matrix(alpha, 2)) @ np.array(
            [[stretch, shear], [0.0, 1.0]])
        lo = np.array([x0, y0])
        hi = lo + side
        eps = 1 / 16
        shift = eps * D @ np.round(np.linalg.inv(D) @ lo / eps)
        [(rows, cand, pts)] = _candidate_cells(
            lo[None], hi[None], eps, D[None], np.linalg.inv(D)[None],
            shift[None])
        assert not rows.any()
        got = _cells_box_intersect(pts, lo, hi, D)
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
                assert_same_bits(map_cells(s.shift, eps, s.D, s.xi_hat, y),
                                 reference_map_cells(s.shift, eps, s.D,
                                                     s.xi_hat, y))

    @pytest.mark.parametrize("alpha, sheared", [(0.3, False),
                                                (math.pi / 4, True)])
    def test_three_dimensional_cells(self, alpha, sheared):
        M = np.linalg.inv(rotation_matrix(alpha, 3))
        if sheared:
            M = M @ np.array([[1.2, 0.3, 0.0], [0.0, 0.9, 0.2],
                              [0.1, 0.0, 1.1]])
        p = build_partition(((0.0,) * 3, (1.0,) * 3), 1 / 4, 0.2,
                            constant_transform_3d(M))
        for s in p.subdomains:
            for y in (unit_cell_nodes(3, 3), unit_cell_nodes(2, 3)):
                assert_same_bits(map_cells(s.shift, 1 / 4, s.D, s.xi_all, y),
                                 reference_map_cells(s.shift, 1 / 4, s.D,
                                                     s.xi_all, y))

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
        xi0 = np.round(Dinv @ s_lo / eps).astype(int)
        shift = eps * D @ xi0
    else:
        xi0 = np.round(Dinv @ shift / eps).astype(int)
    cand, pts = reference_candidate_cells(s_lo, s_hi, eps, D, Dinv, shift)
    inside = np.all((pts >= s_lo - 1e-12) & (pts <= s_hi + 1e-12), axis=(1, 2))
    return dict(n=n, k=k, lo=s_lo, hi=s_hi, anchor=anchor, D=D, Dinv=Dinv,
                K=K, Kinv=Kinv, detD=detD, xi0=xi0, shift=shift,
                xi_hat=cand[inside], eps=eps)


def reference_build_partition(domain, eps, r, transform,
                              anchor_rule="subdomain-center"):
    """build_partition's subdomain fields, one subdomain at a time."""
    lo = np.asarray(domain[0], dtype=float)
    hi = np.asarray(domain[1], dtype=float)
    d = transform.d
    side = eps**r
    n_sub = tuple(int(math.ceil((hi[i] - lo[i]) / side - 1e-9))
                  for i in range(d))
    subs = []
    for flat, k in enumerate(np.ndindex(*n_sub)):
        k_arr = np.array(k)
        s_lo = lo + k_arr * side
        s_hi = np.minimum(lo + (k_arr + 1) * side, hi)
        anchor = ((s_lo + s_hi) / 2.0 if anchor_rule == "subdomain-center"
                  else s_lo.copy())
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
    """The Partition slot tables, filled one subdomain at a time."""
    xi_min = np.zeros((len(subs), d), dtype=int)
    box_shape = np.ones((len(subs), d), dtype=int)
    for i, s in enumerate(subs):
        if len(s["xi_hat"]):
            xi_min[i] = s["xi_hat"].min(axis=0)
            box_shape[i] = s["xi_hat"].max(axis=0) - xi_min[i] + 1
    box_offset = np.concatenate(([0], np.cumsum(np.prod(box_shape, axis=1))))
    in_hat = np.zeros(box_offset[-1], dtype=bool)
    for i, s in enumerate(subs):
        rel = s["xi_hat"] - xi_min[i]
        flat = rel[:, 0]
        for ax in range(1, d):
            flat = flat * box_shape[i, ax] + rel[:, ax]
        in_hat[box_offset[i] + flat] = True
    return dict(_xi_min=xi_min, _box_shape=box_shape, _box_offset=box_offset,
                _in_hat=in_hat)


def assert_same_partition(p, ref_subs):
    assert p.n_subdomains == len(ref_subs)
    for s, ref in zip(p.subdomains, ref_subs):
        for name, want in ref.items():
            got = getattr(s, name)
            if isinstance(want, np.ndarray):
                assert_same_bits(np.asarray(got), want)
            elif isinstance(want, float):
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            else:
                assert got == want and type(got) is type(want)
    for name, want in reference_slot_tables(ref_subs, p.d).items():
        assert_same_bits(getattr(p, name), want)
    for name in ("D", "Dinv", "Kinv", "shift", "anchor", "detD"):
        assert_same_bits(getattr(p, f"_{name}"),
                         np.array([ref[name] for ref in ref_subs]))


def varying_stretch_transform() -> TransformField:
    """D = diag(0.8 + 0.4 x_1, 1): |D| grows with x_1 from 1 to 1.2."""
    I = np.eye(2)
    return TransformField(d=2, D=lambda x: np.diag([0.8 + 0.4 * x[0], 1.0]),
                          K=lambda x: I, detD_bounds=(0.8, 1.2),
                          detK_bounds=(1.0, 1.0), lipschitz_budget=0.4,
                          name="stretch")


class TestBatchedPartition:
    @pytest.mark.parametrize("anchor_rule", ["subdomain-center",
                                             "lower-corner"])
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 12, 1 / 16, 1 / 32, 1 / 64,
                                     1 / 128])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_matches_the_per_subdomain_loop(self, name, eps, anchor_rule):
        tf = get_scenario(name).transform
        p = build_partition(UNIT_BOX, eps, 0.5, tf, anchor_rule=anchor_rule)
        assert_same_partition(p, reference_build_partition(
            UNIT_BOX, eps, 0.5, tf, anchor_rule))

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    @pytest.mark.parametrize("name", ["periodic", "epithelial",
                                      "radius-gradient"])
    def test_micro_covering_matches_the_per_subdomain_loop(self, name, eps):
        tf = get_scenario(name).transform
        assert _diagonal_steps(tf) is not None
        assert_same_partition(_micro_partition(eps, 0.5, tf),
                              reference_micro_subdomains(eps, 0.5, tf))

    @pytest.mark.parametrize("alpha, sheared", [(0.3, False),
                                                (math.pi / 4, True)])
    def test_three_dimensional_coverings(self, alpha, sheared):
        M = np.linalg.inv(rotation_matrix(alpha, 3))
        if sheared:
            M = M @ np.array([[1.2, 0.3, 0.0], [0.0, 0.9, 0.2],
                              [0.1, 0.0, 1.1]])
        box = ((0.0,) * 3, (1.0,) * 3)
        tf = constant_transform_3d(M)
        for eps, r in ((1 / 4, 0.2), (1 / 8, 0.3)):
            p = build_partition(box, eps, r, tf)
            assert_same_partition(p, reference_build_partition(box, eps, r, tf))

    def test_blocks_split_between_whole_subdomains(self, monkeypatch):
        from lphom import geometry

        tf = plywood2d_scenario().transform
        ref = reference_build_partition(UNIT_BOX, 1 / 32, 0.5, tf)
        for block in (1, 100, 10**9):
            monkeypatch.setattr(geometry, "_CELL_BLOCK", block)
            assert_same_partition(build_partition(UNIT_BOX, 1 / 32, 0.5, tf),
                                  ref)

    @pytest.mark.parametrize("eps, r, tf", [
        (1 / 4, 0.5, varying_stretch_transform()),     # the second fails
        (1 / 4, 0.99, identity_transform(2)),
        (1 / 8, 0.9, plywood2d_scenario().transform),
        (1 / 8, 0.9, epithelial_scenario().transform),
        (1 / 16, 0.95, radius_gradient_scenario().transform),
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


def reference_subdomain_of(partition, X):
    """Partition.subdomain_of (and the snapped covering's) with a clipped
    multi-index and ravel_multi_index."""
    if hasattr(partition, "_breaks"):
        k = np.stack([np.clip(np.searchsorted(b, X[:, i], side="right") - 1,
                              0, len(b) - 2)
                      for i, b in enumerate(partition._breaks)], axis=1)
    else:
        k = np.floor((X - partition.domain_lo) / partition.side).astype(int)
        k = np.clip(k, 0, np.asarray(partition.n_sub) - 1)
    return np.ravel_multi_index(tuple(k.T), partition.n_sub)


def reference_locate_batch(partition, X):
    """locate_batch with one np.where pass per subdomain, and Xi_hat
    membership from a set of tuples."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = reference_subdomain_of(partition, X)
    d = partition.d
    xi = np.empty((len(X), d), dtype=int)
    y = np.empty((len(X), d), dtype=float)
    lam = np.ones(len(X), dtype=bool)
    for nn in np.unique(n):
        idx = np.where(n == nn)[0]
        z = (partition._Dinv[nn] @ (X[idx] - partition._shift[nn]).T).T \
            / partition.eps
        xi_n = np.floor(z).astype(int)
        xi[idx] = xi_n
        y[idx] = z - xi_n
        hat = set(map(tuple, partition.subdomains[nn].xi_hat))
        lam[idx] = [tuple(t) not in hat for t in xi_n]
    return n, xi, y, lam


def locate_probe_points(p, seed):
    """Random points, a row-major grid, and points on subdomain faces."""
    rng = np.random.default_rng(seed)
    g = (np.arange(97) + 0.5) / 97
    GX, GY = np.meshgrid(g, g, indexing="ij")
    faces = np.arange(p.n_sub[0] + 1) * p.side
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
            got = locate_batch(p, X)
            ref = reference_locate_batch(p, X)
            assert len(np.unique(got[0])) == p.n_subdomains
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and g.shape == r.shape
                assert g.tobytes() == r.tobytes()
            # locate_slots: the same location, and the slot of each Xi_hat cell
            n, xi, y, slot = locate_slots(p, X)
            cell = p.cell_slots(n, xi)
            in_hat = (cell >= 0) & p._in_hat[cell]
            assert in_hat.any() and not in_hat.all()
            assert_same_bits(slot, np.where(in_hat, cell, -1))
            for g, r in zip((n, xi, y, slot < 0), got):
                assert_same_bits(g, r)

    @staticmethod
    def assert_matches_reference(p, X):
        got = locate_batch(p, X)
        for g, r in zip(got, reference_locate_batch(p, X)):
            assert_same_bits(g, r)
        n, xi, y, slot = locate_slots(p, X)
        cell = p.cell_slots(n, xi)
        assert_same_bits(slot, np.where((cell >= 0) & p._in_hat[cell],
                                        cell, -1))
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
            per_sub = [map_cells(s.shift, eps, s.D, s.xi_hat, y).reshape(-1, 2)
                       for s in p.subdomains]
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
        tf = plywood2d_scenario().transform
        for p in (build_partition(UNIT_BOX, 1 / 16, 0.5, tf),
                  _micro_partition(1 / 16, 0.5, periodic_scenario().transform)):
            X = np.full((5, 2), 0.5)
            X[3, axis] = bad
            for call in (lambda: locate(p, tf, X[3]),
                         lambda: locate_batch(p, X),
                         lambda: locate_slots(p, X),
                         lambda: locate_slots(p, X[::-1])):
                with pytest.raises(ValueError, match="point outside the domain"):
                    call()

    def test_empty_input(self):
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, identity_transform(2))
        n, xi, y, lam = locate_batch(p, np.zeros((0, 2)))
        assert n.shape == (0,) and xi.shape == y.shape == (0, 2)
        assert lam.shape == (0,)
        assert locate_slots(p, np.zeros((0, 2)))[3].shape == (0,)


class TestCellSlots:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_xi_hat_cells_get_distinct_in_range_slots(self, name):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, get_scenario(name).transform)
        n = np.concatenate([np.full(len(s.xi_hat), s.n) for s in p.subdomains])
        xi = np.concatenate([s.xi_hat for s in p.subdomains])
        slots = p.cell_slots(n, xi)
        assert slots.min() >= 0 and slots.max() < p.n_cell_slots
        assert len(np.unique(slots)) == len(slots)

    def test_one_subdomain_for_all_rows(self):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, plywood2d_scenario().transform)
        for s in p.subdomains:
            probes = np.concatenate([s.xi_hat, s.xi_hat.max(axis=0) + [[1, 0]]])
            assert_same_bits(p.cell_slots(s.n, probes),
                             p.cell_slots(np.full(len(probes), s.n), probes))

    def test_outside_the_box_is_minus_one(self):
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, plywood2d_scenario().transform)
        for s in p.subdomains:
            lo, hi = s.xi_hat.min(axis=0), s.xi_hat.max(axis=0)
            probes = np.array([lo - [1, 0], lo - [0, 1], hi + [1, 0],
                               hi + [0, 1], lo, hi])
            slots = p.cell_slots(np.full(len(probes), s.n), probes)
            assert list(slots[:4]) == [-1] * 4
            assert slots[4] == p._box_offset[s.n]
            assert slots[5] == p._box_offset[s.n + 1] - 1


class TestLocate:
    def test_identity_single_subdomain(self):
        p = single_subdomain_partition(1 / 4, identity_transform(2))
        res = locate(p, p.transform, np.array([0.3, 0.6]))
        assert tuple(res.xi) == (1, 2)
        assert np.allclose(res.y, [0.2, 0.4], atol=1e-12)

    def test_exact_lattice_corner_floor_convention(self):
        p = single_subdomain_partition(1 / 4, identity_transform(2))
        res = locate(p, p.transform, np.array([0.5, 0.25]))
        assert tuple(res.xi) == (2, 1)
        assert np.allclose(res.y, [0.0, 0.0], atol=0)

    def test_rotated_lattice_against_direct_arithmetic(self):
        # oracle: direct evaluation of Dinv (x - shift) / eps with its own
        # shift computation, no partition internals
        eps = 1 / 8
        tf = constant_rotation_transform(math.pi / 6)
        p = build_partition(UNIT_BOX, eps, 0.5, tf)
        x = np.array([0.40, 0.35])
        res = locate(p, tf, x)
        Dm = np.linalg.inv(rotation_matrix(math.pi / 6, 2))
        k = np.floor(x / p.side).astype(int)
        lo = k * p.side
        xi0 = np.round(np.linalg.solve(Dm, lo) / eps)
        shift = eps * Dm @ xi0
        z = np.linalg.solve(Dm, x - shift) / eps
        assert np.allclose(res.xi, np.floor(z), atol=0)
        assert np.allclose(res.y, z - np.floor(z), atol=1e-12)

    def test_rejects_point_outside_domain(self):
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, identity_transform(2))
        with pytest.raises(ValueError, match="outside"):
            locate(p, p.transform, np.array([1.2, 0.5]))

    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    def test_reconstruction_left_inverse(self, name):
        sc = get_scenario(name)
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(7)
        X = rng.uniform(0.0, 1.0, size=(500, 2))
        n, xi, y, _ = locate_batch(p, X)
        rec = p._shift[n] + p.eps * np.einsum("pij,pj->pi", p._D[n], xi + y)
        assert np.max(np.abs(rec - X)) <= 1e-12

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(deadline=None, max_examples=60)
    def test_reconstruction_property_epithelial(self, x1, x2):
        p = _EPI_PARTITION
        res = locate(p, p.transform, np.array([x1, x2]))
        s = p.subdomains[res.n]
        rec = s.shift + p.eps * s.D @ (res.xi + res.y)
        assert np.max(np.abs(rec - np.array([x1, x2]))) <= 1e-12

    def test_lambda_flag_consistent_with_xi_hat(self):
        sc = plywood2d_scenario()
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1.0, size=(400, 2))
        n, xi, _, lam = locate_batch(p, X)
        for i in range(len(X)):
            member = bool(p.xi_hat_contains(n[i], xi[i][None, :])[0])
            assert member == (not lam[i])


_EPI_PARTITION = build_partition(UNIT_BOX, 1 / 8, 0.5,
                                 epithelial_scenario().transform)


class TestLpApprox:
    def test_no_fast_dependence(self):
        g = ScalarFieldOnCells(f=lambda x, y: x[:, 0] ** 2 + 3.0, name="g")
        p = _EPI_PARTITION
        x = np.array([0.37, 0.81])
        res = locate(p, p.transform, x)
        anchor = p.subdomains[res.n].anchor
        assert lp_approx_batch(g, p, x[None], "L")[0] == pytest.approx(
            0.37**2 + 3.0, abs=1e-14)
        assert lp_approx_batch(g, p, x[None], "L0")[0] == pytest.approx(
            anchor[0] ** 2 + 3.0, abs=1e-14)

    def test_pure_oscillation_identity_lattice(self):
        psi = ScalarFieldOnCells(f=lambda x, y: np.sin(2 * np.pi * y[:, 0]), name="osc")
        p = single_subdomain_partition(1 / 4, identity_transform(2))
        for x in ([0.3, 0.6], [0.11, 0.52], [0.77, 0.23]):
            [v] = lp_approx_batch(psi, p, np.array([x]), "L")
            [v0] = lp_approx_batch(psi, p, np.array([x]), "L0")
            want = math.sin(2 * math.pi * x[0] / (1 / 4))
            assert v == pytest.approx(want, abs=1e-12)
            assert v0 == pytest.approx(want, abs=1e-12)

    def test_composition_oracle_rotating_lattice(self):
        # psi(x, y) = x1 * y2 under the plywood transform; oracle composes
        # the fractional decomposition by hand
        sc = plywood2d_scenario()
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        psi = ScalarFieldOnCells(f=lambda x, y: x[:, 0] * y[:, 1], name="xy")
        rng = np.random.default_rng(11)
        X = rng.uniform(0.0, 1.0, size=(100, 2))
        got = lp_approx_batch(psi, p, X, "L")
        for i, x in enumerate(X):
            k = np.minimum(np.floor(x / p.side).astype(int),
                           np.array(p.n_sub) - 1)
            s = p.subdomains[int(np.ravel_multi_index(tuple(k), p.n_sub))]
            z = np.linalg.solve(s.D, x - s.shift) / p.eps
            y = z - np.floor(z)
            assert got[i] == pytest.approx(x[0] * y[1], abs=1e-12)

    def test_variants_agree_without_x_dependence(self):
        psi = ScalarFieldOnCells(f=lambda x, y: np.cos(2 * np.pi * y[:, 0]) + y[:, 1],
                                 name="yonly")
        p = _EPI_PARTITION
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(200, 2))
        vL = lp_approx_batch(psi, p, X, "L")
        vL0 = lp_approx_batch(psi, p, X, "L0")
        assert np.max(np.abs(vL - vL0)) <= 1e-14

    def test_rejects_unknown_variant(self):
        psi = ScalarFieldOnCells(f=lambda x, y: y[:, 0], name="y1")
        with pytest.raises(ValueError):
            lp_approx_batch(psi, _EPI_PARTITION, np.array([[0.5, 0.5]]), "L2")

    def test_periodicity_checker(self):
        good = ScalarFieldOnCells(f=lambda x, y: np.cos(2 * np.pi * y[:, 0]), name="ok")
        bad = ScalarFieldOnCells(f=lambda x, y: y[:, 0], name="bad")
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (50, 2))
        Y = rng.uniform(0, 1, (50, 2))
        good.check_periodicity(X, Y)
        with pytest.raises(ValueError):
            bad.check_periodicity(X, Y)


class TestIndicatorPerforated:
    def test_center_of_disk_is_perforation(self):
        sc = periodic_scenario()
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, sc.transform)
        # image of the unit-cell center for some interior cell
        s = p.subdomains[5]
        xi = s.xi_hat[0]
        x = s.shift + p.eps * s.D @ (xi + np.array([0.5, 0.5]))
        assert not indicator_perforated(p, sc.transform, sc.cell, x[None, :])[0]

    def test_cell_corner_is_material(self):
        sc = periodic_scenario()
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, sc.transform)
        s = p.subdomains[5]
        xi = s.xi_hat[0]
        x = s.shift + p.eps * s.D @ (xi + np.array([0.01, 0.01]))
        assert indicator_perforated(p, sc.transform, sc.cell, x[None, :])[0]

    def test_scaled_perforation_distance_threshold(self):
        # K = 1.5 I, a = 0.25: physical in-cell radius is 0.375, so distance
        # 0.37 falls inside the perforation and 0.38 outside
        sc = radius_gradient_scenario(rho_base=1.5, rho_slope=0.0)
        p = build_partition(UNIT_BOX, 1 / 16, 0.5, sc.transform)
        s = p.subdomains[5]
        xi = s.xi_hat[0]
        for dist, expected in ((0.37, False), (0.38, True)):
            y = np.array([0.5, 0.5]) + dist * np.array([1.0, 0.0])
            x = s.shift + p.eps * s.D @ (xi + y)
            assert indicator_perforated(p, sc.transform, sc.cell, x[None, :])[0] == expected

    def test_lambda_region_is_material(self):
        sc = plywood2d_scenario()
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(500, 2))
        _, _, _, lam = locate_batch(p, X)
        ind = indicator_perforated(p, sc.transform, sc.cell, X)
        assert np.all(ind[lam])

    def test_no_inclusion_everything_material(self):
        sc = periodic_scenario(a=0.0)
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(200, 2))
        assert np.all(indicator_perforated(p, sc.transform, sc.cell, X))

    def test_volume_fraction_converges_to_mean_inclusion_measure(self):
        sc = radius_gradient_scenario()
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        num = den = 0.0
        for s in p.subdomains:
            m = len(s.xi_hat) * p.eps**2 * s.detD
            num += m * sc.cell.inclusion_measure(s.K)
            den += m
        expected = num / den
        for ng in (512, 1024):
            xs = (np.arange(ng) + 0.5) / ng
            X = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
            _, _, _, lam = locate_batch(p, X)
            fluid = indicator_perforated(p, sc.transform, sc.cell, X)
            inhat = ~lam
            frac = np.sum(inhat & ~fluid) / np.sum(inhat)
            assert abs(frac - expected) / expected <= 0.01


class TestIndicatorPlywood:
    def test_zero_rotation_reduces_to_periodic_fiber_test(self):
        sc = plywood2d_scenario(gamma_rate=0.0, k2=1.0)
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(400, 2))
        fib = indicator_plywood(p, lambda t: 0.0, 0.25, lambda x: 1.0, X)
        _, _, y, lam = locate_batch(p, X)
        expected = (~lam) & (np.abs(y[:, 1] - 0.5) <= 0.25)
        assert np.array_equal(fib, expected)

    def test_fiber_axis_point_always_inside(self):
        sc = plywood2d_scenario()
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        for s in p.subdomains:
            if not len(s.xi_hat):
                continue
            xi = s.xi_hat[0]
            x = s.shift + p.eps * s.D @ (xi + np.array([0.3, 0.5]))
            got = indicator_plywood(p, sc.gamma, 0.25, lambda q: 1.0, x[None, :])
            assert got[0]

    def test_composition_oracle_on_grid(self):
        # independent pipeline: rotation, fractional part, transverse test
        gamma_rate = math.pi / 2
        sc = plywood2d_scenario(gamma_rate=gamma_rate, k2=1.0)
        eps = 1 / 8
        p = build_partition(UNIT_BOX, eps, 0.5, sc.transform)
        xs = np.linspace(0.02, 0.98, 33)
        X = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        got = indicator_plywood(p, sc.gamma, 0.2, lambda q: 1.0, X)
        for i, x in enumerate(X):
            k = np.minimum(np.floor(x / p.side).astype(int),
                           np.array(p.n_sub) - 1)
            s = p.subdomains[int(np.ravel_multi_index(tuple(k), p.n_sub))]
            R = rotation_matrix(gamma_rate * s.anchor[1], 2)
            z = R @ (x - s.shift) / eps
            y = z - np.floor(z)
            in_hat = bool(p.xi_hat_contains(s.n, np.floor(z).astype(int)[None, :])[0])
            expected = in_hat and abs(y[1] - 0.5) <= 0.2
            assert bool(got[i]) == expected

    def test_agrees_with_perforated_complement(self):
        # fibers are the material removed by the perforation view: on the
        # covered region the two indicators are complementary, on leftover
        # regions the fiber indicator is False and the perforated one True
        sc = plywood2d_scenario(gamma_rate=0.0, k2=1.0)
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(500, 2))
        cell_strip = UnitCellSpec(d=2, inclusion="disk", a=0.25)
        fib = indicator_plywood(p, lambda t: 0.0, 0.25, lambda q: 1.0, X)
        _, _, y, lam = locate_batch(p, X)
        # disk versus transverse-strip inclusion differ; compare on the strip
        strip = (~lam) & (np.abs(y[:, 1] - 0.5) <= 0.25)
        assert np.array_equal(fib, strip)

    def test_agrees_with_perforated_complement_3d_cylinder(self):
        I3 = np.eye(3)
        tf = TransformField(d=3, D=lambda x: I3, K=lambda x: I3,
                            detD_bounds=(1, 1), detK_bounds=(1, 1),
                            lipschitz_budget=0.0, name="id3")
        p = build_partition(((0, 0, 0), (1, 1, 1)), 1 / 4, 0.5, tf)
        cell = UnitCellSpec(d=3, inclusion="cylinder", a=0.2)
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, size=(400, 3))
        fib = indicator_plywood(p, lambda t: 0.0, 0.2, lambda q: 1.0, X)
        mat = indicator_perforated(p, tf, cell, X)
        _, _, _, lam = locate_batch(p, X)
        assert np.array_equal(fib[~lam], ~mat[~lam])
        assert np.all(~fib[lam]) and np.all(mat[lam])

    def test_rejects_fat_fibers(self):
        sc = plywood2d_scenario()
        p = build_partition(UNIT_BOX, 1 / 8, 0.5, sc.transform)
        with pytest.raises(ValueError, match="1/2"):
            indicator_plywood(p, sc.gamma, 0.3, lambda q: 2.0,
                              np.array([[0.5, 0.5]]))


class TestTransformField:
    def test_sampled_checks_pass_for_registry(self):
        for name in ("periodic", "epithelial", "plywood2d", "radius-gradient"):
            sc = get_scenario(name)
            rep = sc.transform.check_sampled((0, 0), (1, 1), n=7, cell=sc.cell)
            assert rep["lipschitz"] <= sc.transform.lipschitz_budget + 1e-9

    def test_sampled_checks_fail_on_wrong_bounds(self):
        sc = epithelial_scenario()
        bad = TransformField(d=2, D=sc.transform.D, K=sc.transform.K,
                             detD_bounds=(0.99, 1.0), detK_bounds=(1.0, 1.0),
                             lipschitz_budget=10.0, name="bad")
        with pytest.raises(ValueError, match="det D"):
            bad.check_sampled((0, 0), (1, 1), n=5)

    def test_inclusion_containment_fail(self):
        Km = np.diag([2.5, 2.5])
        tf = TransformField(d=2, D=lambda x: np.eye(2), K=lambda x: Km,
                            detD_bounds=(1, 1), detK_bounds=(6.25, 6.25),
                            lipschitz_budget=0.0, name="fat")
        with pytest.raises(ValueError, match="unit cell"):
            tf.check_sampled((0, 0), (1, 1), n=3,
                             cell=UnitCellSpec(d=2, inclusion="disk", a=0.25))


class TestUnitCellSpec:
    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            UnitCellSpec(d=2, inclusion="disk", a=0.5)
        with pytest.raises(ValueError):
            UnitCellSpec(d=2, inclusion="disk", a=-0.1)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenarios_reject_a_negative_radius(self, name):
        # a = 0 is the unperforated cell; a negative radius is no cell
        with pytest.raises(ValueError, match="inclusion radius"):
            get_scenario(name, a=-0.3)
        assert get_scenario(name, a=0.0).cell.inclusion == "none"

    def test_inclusion_measure(self):
        cell = UnitCellSpec(d=2, inclusion="disk", a=0.25)
        assert cell.inclusion_measure() == pytest.approx(math.pi * 0.0625, rel=1e-15)
        K = np.diag([1.5, 1.5])
        assert cell.inclusion_measure(K) == pytest.approx(math.pi * 0.0625 * 2.25, rel=1e-14)
        none = UnitCellSpec(d=2, inclusion="none")
        assert none.inclusion_measure() == 0.0
