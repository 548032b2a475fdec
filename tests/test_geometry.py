import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lphom.geometry import (
    ScalarFieldOnCells,
    TransformField,
    UnitCellSpec,
    _cell_box_intersects,
    build_partition,
    identity_transform,
    indicator_perforated,
    indicator_plywood,
    locate,
    locate_batch,
    lp_approx,
    lp_approx_batch,
    rotation_matrix,
)
from lphom.micro import _micro_partition
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
    inter = np.array([_cell_box_intersects(pts[i], s.lo, s.hi, s.D)
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
        assert lp_approx(g, p, p.transform, x, "L") == pytest.approx(0.37**2 + 3.0, abs=1e-14)
        assert lp_approx(g, p, p.transform, x, "L0") == pytest.approx(anchor[0] ** 2 + 3.0, abs=1e-14)

    def test_pure_oscillation_identity_lattice(self):
        psi = ScalarFieldOnCells(f=lambda x, y: np.sin(2 * np.pi * y[:, 0]), name="osc")
        p = single_subdomain_partition(1 / 4, identity_transform(2))
        for x in ([0.3, 0.6], [0.11, 0.52], [0.77, 0.23]):
            v = lp_approx(psi, p, p.transform, np.array(x), "L")
            v0 = lp_approx(psi, p, p.transform, np.array(x), "L0")
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
            lp_approx(psi, _EPI_PARTITION, _EPI_PARTITION.transform,
                      np.array([0.5, 0.5]), "L2")

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

    def test_inclusion_measure(self):
        cell = UnitCellSpec(d=2, inclusion="disk", a=0.25)
        assert cell.inclusion_measure() == pytest.approx(math.pi * 0.0625, rel=1e-15)
        K = np.diag([1.5, 1.5])
        assert cell.inclusion_measure(K) == pytest.approx(math.pi * 0.0625 * 2.25, rel=1e-14)
        none = UnitCellSpec(d=2, inclusion="none")
        assert none.inclusion_measure() == 0.0
