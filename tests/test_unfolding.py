import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lphom.geometry import (
    ScalarFieldOnCells,
    TransformField,
    UnitCellSpec,
    build_partition,
    identity_transform,
    locate_batch,
    lp_approx_batch,
    rotation_matrix,
)
from lphom.scenarios import (
    SCENARIO_NAMES,
    epithelial_scenario,
    get_scenario,
    periodic_scenario,
    plywood2d_scenario,
    radius_gradient_scenario,
)
from lphom import unfolding
from lphom.unfolding import (
    GammaQuadrature,
    check_boundary_identity,
    check_integration_identity,
    grid_function_from_callable,
    interpolate_Q,
    lattice_pwc_field,
    local_average,
    lts_pairing,
    norm_unfold_minus_identity,
    norm_unfold_of_lp_minus_psi,
    remainder_R,
    unfold,
    unfold_boundary,
)

LO = np.zeros(2)
HI = np.ones(2)


def single_subdomain_partition(eps, transform=None):
    # r close to 0 makes the subdomain side ~ 1, so the whole domain is one
    # frozen lattice with zero shift
    tf = transform if transform is not None else identity_transform(2)
    return build_partition((LO, HI), eps, 0.01, tf)


def constant_transform(D, K=None):
    Dm = np.asarray(D, dtype=float)
    Km = np.eye(2) if K is None else np.asarray(K, dtype=float)
    dd = abs(float(np.linalg.det(Dm)))
    dk = abs(float(np.linalg.det(Km)))
    return TransformField(d=2, D=lambda x: Dm, K=lambda x: Km,
                          detD_bounds=(dd, dd), detK_bounds=(dk, dk),
                          lipschitz_budget=0.0, name="const")


def smooth_field(eps_over=8):
    def f(X):
        return np.sin(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1])
    return f


def mapped_points(part, ug):
    """x-coordinates of every unfolded sample, entry by entry."""
    pts = np.empty((ug.n_entries, len(ug.y_nodes), part.d))
    for s in part.subdomains:
        sel = np.flatnonzero(ug.sub_index == s.n)
        if not len(sel):
            continue
        pts[sel] = s.shift + part.eps * np.einsum(
            "ij,ckj->cki", s.D,
            ug.xi[sel][:, None, :].astype(float) + ug.y_nodes[None, :, :])
    return pts


class TestUnfold:
    def test_constant_entries(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, identity_transform(2))
        phi = grid_function_from_callable(lambda X: np.full(len(X), 3.25),
                                          LO, HI, 1 / 64)
        ug = unfold(phi, part, 4)
        assert np.max(np.abs(ug.values - 3.25)) <= 1e-13

    def test_affine_entry_values(self):
        # x1 sampled through the grid interpolant at shift zero: entry at
        # (xi, y) must be eps*(xi1 + y1) exactly
        eps = 1 / 4
        part = single_subdomain_partition(eps)
        phi = grid_function_from_callable(lambda X: X[:, 0], LO, HI, 1 / 32)
        ug = unfold(phi, part, 4)
        expected = eps * (ug.xi[:, None, 0] + ug.y_nodes[None, :, 0])
        assert np.max(np.abs(ug.values - expected)) <= 1e-12

    def test_composition_oracle(self):
        # unfolding the locally periodic approximation recovers the
        # two-scale field at (mapped x, y) node for node
        eps = 1 / 8
        epi = epithelial_scenario()
        part = build_partition((LO, HI), eps, 0.5, epi.transform)
        psi = ScalarFieldOnCells(
            lambda X, Y: np.cos(2 * np.pi * Y[:, 0]) * (1 + X[:, 1]),
            name="two-scale")
        phi = grid_function_from_callable(
            lambda X: lp_approx_batch(psi, part, X, variant="L"),
            LO, HI, eps / 8, keep_exact=True)
        ug = unfold(phi, part, 3, eval_mode="exact")
        xs = mapped_points(part, ug)
        oracle = np.cos(2 * np.pi * ug.y_nodes[None, :, 0]) * (1 + xs[:, :, 1])
        assert np.max(np.abs(ug.values - oracle)) <= 1e-12

    def test_zero_on_leftover_structural(self):
        # entries exist only for covered cells; total weight is the covered
        # measure exactly
        for scen in (periodic_scenario(), epithelial_scenario(),
                     plywood2d_scenario()):
            part = build_partition((LO, HI), 1 / 16, 0.5, scen.transform)
            phi = grid_function_from_callable(lambda X: np.ones(len(X)),
                                              LO, HI, 1 / 64)
            ug = unfold(phi, part, 2)
            for s in part.subdomains:
                sel = ug.sub_index == s.n
                assert part.xi_hat_contains(s.n, ug.xi[sel]).all()
            assert abs(ug.total_weight() - part.omega_hat_measure) <= 1e-13

    def test_weights_per_entry(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, epithelial_scenario().transform)
        phi = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI, 1 / 32)
        m_y = 3
        ug = unfold(phi, part, m_y)
        for s in part.subdomains:
            sel = ug.sub_index == s.n
            expected = part.eps**2 * s.detD / m_y**2
            assert np.allclose(ug.weight[sel], expected, rtol=0, atol=1e-16)

    def test_linearity(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, identity_transform(2))
        f1 = grid_function_from_callable(smooth_field(), LO, HI, 1 / 64)
        f2 = grid_function_from_callable(lambda X: X[:, 0] ** 2, LO, HI, 1 / 64)
        comb = f1.copy_with(2.5 * f1.values - 1.25 * f2.values)
        u1 = unfold(f1, part, 4)
        u2 = unfold(f2, part, 4)
        uc = unfold(comb, part, 4)
        assert np.max(np.abs(uc.values - (2.5 * u1.values - 1.25 * u2.values))) <= 1e-13

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(deadline=None, max_examples=20)
    def test_linearity_property(self, a, b):
        part = build_partition((LO, HI), 1 / 4, 0.5, identity_transform(2))
        f1 = grid_function_from_callable(lambda X: X[:, 0] * X[:, 1], LO, HI, 1 / 16)
        f2 = grid_function_from_callable(lambda X: np.cos(X[:, 1]), LO, HI, 1 / 16)
        comb = f1.copy_with(a * f1.values + b * f2.values)
        u1 = unfold(f1, part, 2)
        u2 = unfold(f2, part, 2)
        uc = unfold(comb, part, 2)
        assert np.max(np.abs(uc.values - (a * u1.values + b * u2.values))) <= 1e-12

    def test_norm_contraction_piecewise_constant(self):
        # unfolded weighted L2 norm cannot exceed the full-domain norm for a
        # field that the cell quadrature integrates exactly
        epi = epithelial_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        rng = np.random.default_rng(7)
        table = {(s.n, tuple(int(t) for t in xi)): float(rng.normal())
                 for s in part.subdomains for xi in s.xi_hat}
        phi = lattice_pwc_field(part, table, LO, HI, 1 / 128, fill=0.7)
        ug = unfold(phi, part, 4, eval_mode="exact")
        exact_sq = sum(part.eps**2 * part.subdomains[n].detD * v**2
                       for (n, _), v in table.items())
        full_norm = math.sqrt(exact_sq + 0.7**2 * part.lambda_measure)
        assert ug.weighted_l2() <= full_norm + 1e-8

    def test_perforated_mask_fraction(self):
        cell = UnitCellSpec()
        part = build_partition((LO, HI), 1 / 16, 0.5, identity_transform(2))
        phi = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI, 1 / 64)
        ug = unfold(phi, part, 8, mask_mode="perforated", cell=cell)
        kept = ug.total_weight() / part.omega_hat_measure
        assert abs(kept - (1 - math.pi * 0.25**2)) <= 0.02

    def test_perforated_requires_identity_K(self):
        rad = radius_gradient_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, rad.transform)
        phi = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI, 1 / 32)
        with pytest.raises(ValueError):
            unfold(phi, part, 4, mask_mode="perforated", cell=rad.cell)

    def test_rejects_small_m_y(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, identity_transform(2))
        phi = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI, 1 / 32)
        with pytest.raises(ValueError):
            unfold(phi, part, 1)


class TestLocalAverage:
    def test_constant(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, identity_transform(2))
        phi = grid_function_from_callable(lambda X: np.full(len(X), 1.5),
                                          LO, HI, 1 / 64, keep_exact=True)
        avg = local_average(phi, part)
        X = part.subdomains[0].shift + 1 / 8 * (part.subdomains[0].xi_hat + 0.5)
        assert np.max(np.abs(avg.exact_eval(X) - 1.5)) <= 1e-13

    def test_single_cell_closed_form(self):
        # average of x1 over the lattice cell anchored at xi is eps*(xi1 + 1/2)
        eps = 1 / 4
        part = single_subdomain_partition(eps)
        phi = grid_function_from_callable(lambda X: X[:, 0], LO, HI, 1 / 32,
                                          keep_exact=True)
        avg = local_average(phi, part)
        probe = np.array([[eps * (1 + 0.3), eps * (2 + 0.6)]])   # cell (1, 2)
        assert abs(float(avg.exact_eval(probe)[0]) - eps * 1.5) <= 1e-13

    def test_idempotence_exact(self):
        epi = epithelial_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 64,
                                          keep_exact=True)
        a1 = local_average(phi, part)
        a2 = local_average(a1, part)
        probe = np.random.default_rng(3).uniform(0.05, 0.95, size=(200, 2))
        assert np.max(np.abs(a1.exact_eval(probe) - a2.exact_eval(probe))) == 0.0

    def test_consistency_with_unfold_mean(self):
        epi = epithelial_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 64,
                                          keep_exact=True)
        ug = unfold(phi, part, 4, eval_mode="exact")
        avg = local_average(phi, part, m_y=4)
        means = ug.mean_over_Y()
        xs = mapped_points(part, ug)[:, :, :].mean(axis=1)   # cell midpoints
        assert np.max(np.abs(avg.exact_eval(xs) - means)) <= 1e-14

    def test_zero_on_leftover(self):
        epi = epithelial_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        phi = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI,
                                          1 / 64, keep_exact=True)
        avg = local_average(phi, part)
        n, xi, y, lam = locate_batch(part, np.array([[0.98, 0.98]]))
        if lam[0]:
            assert avg.exact_eval(np.array([[0.98, 0.98]]))[0] == 0.0


class TestIntegrationIdentity:
    def test_constant(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, identity_transform(2))
        phi = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI, 1 / 64)
        lhs, rhs, gap = check_integration_identity(phi, part, 4)
        assert abs(lhs - part.omega_hat_measure) <= 1e-12
        assert gap <= 1e-12

    def test_piecewise_constant_exact(self):
        part = build_partition((LO, HI), 1 / 16, 0.5, identity_transform(2))
        rng = np.random.default_rng(11)
        table = {(s.n, tuple(int(t) for t in xi)): float(rng.uniform(-1, 1))
                 for s in part.subdomains for xi in s.xi_hat}
        phi = lattice_pwc_field(part, table, LO, HI, 1 / 128)
        _, _, gap = check_integration_identity(phi, part, 4, eval_mode="exact")
        assert gap <= 1e-12

    def test_piecewise_constant_general_lattice(self):
        # non-diagonal lattice goes through the fine-midpoint branch; a field
        # constant per lattice cell is integrated exactly there too
        ply = plywood2d_scenario()
        part = build_partition((LO, HI), 1 / 16, 0.5, ply.transform)
        rng = np.random.default_rng(12)
        table = {(s.n, tuple(int(t) for t in xi)): float(rng.uniform(-1, 1))
                 for s in part.subdomains for xi in s.xi_hat}
        phi = lattice_pwc_field(part, table, LO, HI, 1 / 128)
        _, _, gap = check_integration_identity(phi, part, 4, eval_mode="exact")
        assert gap <= 1e-12

    def test_smooth_gap_shrinks_with_m_y(self):
        part = build_partition((LO, HI), 1 / 16, 0.5, identity_transform(2))
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 256,
                                          keep_exact=True)
        gaps = [check_integration_identity(phi, part, m, eval_mode="exact")[2]
                for m in (2, 4)]
        assert gaps[1] <= gaps[0] / 4

    def test_richardson_bound(self):
        # estimate the quadrature constant from the coarse run, then bound
        # the fine one: gap(m) ~ C (eps/m)^2
        eps = 1 / 16
        part = build_partition((LO, HI), eps, 0.5, identity_transform(2))
        phi = grid_function_from_callable(
            lambda X: np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1]),
            LO, HI, 1 / 256, keep_exact=True)
        gap4 = check_integration_identity(phi, part, 4, eval_mode="exact")[2]
        gap8 = check_integration_identity(phi, part, 8, eval_mode="exact")[2]
        C = gap4 / (eps / 4) ** 2
        assert gap8 <= 1.1 * C * (eps / 8) ** 2


class TestBoundaryUnfolding:
    def test_constant_entries_and_measure(self):
        # every entry is 1 and the weighted sum reproduces eps times the
        # mapped boundary measure; the identity transform makes the measure
        # cell count * eps * reference circumference
        eps = 1 / 16
        per = periodic_scenario()
        part = build_partition((LO, HI), eps, 0.5, per.transform)
        quad = GammaQuadrature(per.cell, 16)
        bu = unfold_boundary(lambda X: np.ones(len(X)), part, quad)
        assert np.max(np.abs(bu.values - 1.0)) == 0.0
        n_cells = sum(len(s.xi_hat) for s in part.subdomains)
        assert abs(bu.surface_measure() - n_cells * eps * 2 * math.pi * 0.25) <= 1e-10
        lhs, rhs, gap = check_boundary_identity(
            lambda X: np.ones(len(X)), part, quad)
        assert gap <= 1e-12
        assert abs(lhs - eps * bu.surface_measure()) <= 1e-12

    def test_identity_map_keeps_metric(self):
        per = periodic_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, per.transform)
        quad = GammaQuadrature(per.cell, 12)
        bu = unfold_boundary(lambda X: X[:, 1], part, quad)
        assert np.max(np.abs(bu.metric - 1.0)) <= 1e-14

    def test_scaled_hole_metric_oracle(self):
        # K = 1.5 I scales every arc length by 1.5
        tf = constant_transform(np.eye(2), 1.5 * np.eye(2))
        cell = UnitCellSpec(a=0.25)
        part = build_partition((LO, HI), 1 / 8, 0.5, tf)
        quad = GammaQuadrature(cell, 12)
        bu = unfold_boundary(lambda X: np.ones(len(X)), part, quad)
        assert np.max(np.abs(bu.metric - 1.5)) <= 1e-14

    def test_identity_psi_affine(self):
        per = periodic_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, per.transform)
        quad = GammaQuadrature(per.cell, 16)
        _, _, gap = check_boundary_identity(lambda X: X[:, 1], part, quad)
        assert gap <= 1e-12

    def test_rotated_scaled_identity(self):
        tf = constant_transform(np.linalg.inv(rotation_matrix(math.pi / 6, 2)),
                                1.2 * np.eye(2))
        cell = UnitCellSpec(a=0.25)
        part = build_partition((LO, HI), 1 / 8, 0.5, tf)
        quad = GammaQuadrature(cell, 16)
        _, _, gap = check_boundary_identity(
            lambda X: np.sin(X[:, 0]) + X[:, 1] ** 2, part, quad)
        assert gap <= 1e-10

    def test_quadrature_reference_measure(self):
        cell = UnitCellSpec(a=0.25)
        for n in (8, 16, 33):
            quad = GammaQuadrature(cell, n)
            assert abs(quad.reference_measure - 2 * math.pi * 0.25) <= 1e-10

    @pytest.mark.parametrize("n", [0, -3])
    def test_quadrature_needs_a_node(self, n):
        with pytest.raises(ValueError, match="n_gamma must be at least 1"):
            GammaQuadrature(UnitCellSpec(a=0.25), n)

    def test_all_scenarios_tight(self):
        for scen in (periodic_scenario(), epithelial_scenario(),
                     plywood2d_scenario(), radius_gradient_scenario()):
            part = build_partition((LO, HI), 1 / 16, 0.5, scen.transform)
            quad = GammaQuadrature(scen.cell, 16)
            _, _, gap = check_boundary_identity(
                lambda X: 1 + X[:, 0] * X[:, 1], part, quad)
            assert gap <= 1e-10


class TestQInterpolant:
    def test_constants_reproduced(self):
        epi = epithelial_scenario()
        part = build_partition((LO, HI), 1 / 16, 0.5, epi.transform)
        phi = grid_function_from_callable(lambda X: np.full(len(X), 2.5),
                                          LO, HI, 1 / 128, keep_exact=True)
        qi = interpolate_Q(phi, part)
        _, r, _, w = qi.eval_cells(phi, 4)
        assert len(r) and np.max(np.abs(r)) == 0.0

    def test_affine_half_cell_shift(self):
        # the cell-anchored node values turn an affine field into the same
        # affine field evaluated half a lattice cell ahead, exactly
        eps = 1 / 16
        epi = epithelial_scenario()
        part = build_partition((LO, HI), eps, 0.5, epi.transform)
        aff = lambda X: 3.0 + 2.0 * X[:, 0] - 1.25 * X[:, 1]
        phi = grid_function_from_callable(aff, LO, HI, 1 / 256, keep_exact=True)
        qi = interpolate_Q(phi, part)
        q, r, pts, w = qi.eval_cells(phi, 4)
        off = 0
        for s in part.subdomains:
            cells = qi.usable_cells.get(s.n)
            if cells is None or not len(cells):
                continue
            m = len(cells) * 16
            shift_vec = eps * s.D @ np.array([0.5, 0.5])
            pred = aff(pts[off:off + m]) - aff(pts[off:off + m] + shift_vec)
            assert np.max(np.abs(r[off:off + m] - pred)) <= 1e-12
            off += m
        assert off == len(r)

    def test_remainder_first_order_band(self):
        per = periodic_scenario()
        f = lambda X: np.sin(2 * np.pi * X[:, 0])
        g = lambda X: np.stack([2 * np.pi * np.cos(2 * np.pi * X[:, 0]),
                                np.zeros(len(X))], axis=1)
        ratios = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, per.transform)
            phi = grid_function_from_callable(f, LO, HI, eps / 8,
                                              keep_exact=True)
            rn, gn, meas = remainder_R(phi, part, grad=g)
            assert meas > 0
            ratios.append(rn / (eps * gn))
        assert max(ratios) <= 1.0          # order eps with a modest constant
        assert max(ratios) / min(ratios) <= 1.5

    def test_usable_cells_have_full_corner_stencil(self):
        epi = epithelial_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 64,
                                          keep_exact=True)
        qi = interpolate_Q(phi, part)
        for s in part.subdomains:
            hat = set(map(tuple, s.xi_hat))
            for xi in qi.usable_cells[s.n]:
                for c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    assert (xi[0] + c[0], xi[1] + c[1]) in hat


class TestPairingAndDiagnostics:
    def test_constant_pairing_is_domain_measure(self):
        per = periodic_scenario()
        part = build_partition((LO, HI), 1 / 8, 0.5, per.transform)
        u = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI, 1 / 64)
        one = ScalarFieldOnCells(lambda X, Y: np.ones(len(X)), name="one")
        assert abs(lts_pairing(u, one, part) - 1.0) <= 1e-12

    def test_oscillation_mean_limit(self):
        # cos^2 of the fast variable pairs against 1 to the mean 1/2
        per = periodic_scenario()
        one = ScalarFieldOnCells(lambda X, Y: np.ones(len(X)), name="one")
        for eps in (1 / 8, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, per.transform)
            u = grid_function_from_callable(
                lambda X, e=eps: np.cos(2 * np.pi * X[:, 0] / e) ** 2,
                LO, HI, eps / 16)
            assert abs(lts_pairing(u, one, part) - 0.5) <= 1e-10

    def test_epithelial_two_scale_limit(self):
        # pairing of the approximation against its own generator converges to
        # the x-averaged unit-cell mean of psi^2, computed by fine quadrature
        epi = epithelial_scenario()
        psi = ScalarFieldOnCells(
            lambda X, Y: (1 + X[:, 0]) * np.cos(2 * np.pi * Y[:, 1]),
            name="psi")
        # reference: tensor midpoint quadrature of psi(x, y)^2 over Omega x Y
        nx, ny = 128, 64
        xg = (np.arange(nx) + 0.5) / nx
        yg = (np.arange(ny) + 0.5) / ny
        XX = np.stack(np.meshgrid(xg, xg, indexing="ij"), axis=-1).reshape(-1, 2)
        ref = 0.0
        for y2 in yg:
            Y = np.column_stack([np.full(len(XX), 0.5), np.full(len(XX), y2)])
            ref += float(np.sum(psi.f(XX, Y) ** 2))
        ref /= nx * nx * ny
        gaps = []
        for eps in (1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, epi.transform)
            u = grid_function_from_callable(
                lambda X: lp_approx_batch(psi, part, X, variant="L"),
                LO, HI, eps / 16)
            gaps.append(abs(lts_pairing(u, psi, part) - ref))
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 5e-3

    def test_unfold_distance_decreases(self):
        epi = epithelial_scenario()
        vals = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, epi.transform)
            phi = grid_function_from_callable(smooth_field(), LO, HI, eps / 8,
                                              keep_exact=True)
            vals.append(norm_unfold_minus_identity(phi, part, m_y=4))
        assert vals[0] > vals[1] > vals[2]

    def test_unfold_of_approximation_distance_decreases(self):
        epi = epithelial_scenario()
        psi = ScalarFieldOnCells(
            lambda X, Y: (np.sin(2 * np.pi * Y[:, 0]) * (1 + 0.5 * X[:, 1])
                          + X[:, 0] * Y[:, 1]), name="two-scale test field")
        vals = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, epi.transform)
            vals.append(norm_unfold_of_lp_minus_psi(psi, part, 4, LO, HI,
                                                    eps / 8))
        assert vals[0] > vals[1] > vals[2]


def reference_pwc_eval(partition, cell_values, fill, X):
    """The per-point dict lookup lattice_pwc_field used to evaluate with."""
    n, xi, _, lam = locate_batch(partition, X)
    out = np.full(len(X), fill)
    for i in range(len(X)):
        if not lam[i]:
            out[i] = cell_values.get((int(n[i]), tuple(int(t) for t in xi[i])),
                                     fill)
    return out


def reference_interpolate_Q(phi, partition, points_per_axis):
    """interpolate_Q and eval_cells with a dict of node values and a set of
    Xi_hat tuples per subdomain."""
    ug = unfold(phi, partition, 4, eval_mode="exact")
    means = ug.mean_over_Y()
    d = partition.d
    node_values = {(int(ug.sub_index[e]), tuple(int(t) for t in ug.xi[e])):
                   float(means[e]) for e in range(ug.n_entries)}
    offsets = [np.array(c) for c in np.ndindex(*(2,) * d)]
    usable = {}
    for s in partition.subdomains:
        hat = set(map(tuple, s.xi_hat))
        good = [xi for xi in s.xi_hat
                if all(tuple(int(t) for t in xi + c) in hat for c in offsets)]
        usable[s.n] = np.array(good, dtype=int).reshape(-1, d)
    y = (np.arange(points_per_axis) + 0.5) / points_per_axis
    y = np.stack(np.meshgrid(y, y, indexing="ij"), axis=-1).reshape(-1, d)
    corners = np.stack([np.array(c, dtype=float)
                        for c in np.ndindex(*(2,) * d)])
    wts = np.ones((len(y), len(corners)))
    for ax in range(d):
        wts *= np.where(corners[None, :, ax] > 0.5, y[:, None, ax],
                        1.0 - y[:, None, ax])
    q_all = []
    for s in partition.subdomains:
        cells = usable[s.n]
        if not len(cells):
            continue
        corner_vals = np.array([
            [node_values[(s.n, tuple(int(t) for t in (xi + c).astype(int)))]
             for c in corners] for xi in cells])
        q_all.append((corner_vals @ wts.T).ravel())
    return usable, np.concatenate(q_all) if q_all else np.zeros(0)


def reference_local_average(phi, partition, m_y=4):
    """local_average through a dict keyed by (n, xi) and lattice_pwc_field."""
    mode = "exact" if phi.exact_eval is not None else "grid"
    ug = unfold(phi, partition, m_y, eval_mode=mode)
    means = ug.mean_over_Y()
    table = {(int(ug.sub_index[e]), tuple(int(t) for t in ug.xi[e])): means[e]
             for e in range(ug.n_entries)}
    out = lattice_pwc_field(partition, table, phi.lo, phi.hi, phi.h, fill=0.0)
    out.mask = phi.mask.copy()
    return out


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


class TestVectorizedLookups:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_pwc_table_matches_the_dict_loop(self, name, eps):
        tf = get_scenario(name).transform
        part = build_partition((LO, HI), eps, 0.5, tf)
        rng = np.random.default_rng(11)
        # every third Xi_hat cell unlisted, so it falls back to fill
        table = {(s.n, tuple(int(t) for t in xi)): float(rng.uniform(-1, 1))
                 for s in part.subdomains for xi in s.xi_hat
                 if rng.random() < 2 / 3}
        s0 = part.subdomains[0]
        outside = tuple(int(t) for t in s0.xi_hat.max(axis=0) + 1)
        assert not part.xi_hat_contains(0, np.array(outside))[0]
        table[(0, outside)] = 5.0
        table[(part.n_subdomains, tuple(int(t) for t in s0.xi_hat[0]))] = 6.0
        # a negative n must not wrap around to the last subdomain
        last = part.subdomains[-1]
        table[(-1, tuple(int(t) for t in last.xi_hat[0]))] = 7.0
        h = 1 / 256
        phi = lattice_pwc_field(part, table, LO, HI, h, fill=0.7)
        X = phi.centers().reshape(-1, 2)
        assert locate_batch(part, X)[3].any()       # leftover points
        ref = reference_pwc_eval(part, table, 0.7, X)
        assert np.count_nonzero(ref == 0.7) > 0
        assert_same_bits(phi.values.ravel(), ref)
        Y = np.random.default_rng(5).uniform(0, 1, size=(3000, 2))
        assert_same_bits(phi.exact_eval(Y), reference_pwc_eval(part, table,
                                                               0.7, Y))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_local_average_matches_the_dict_path(self, name, eps):
        part = build_partition((LO, HI), eps, 0.5, get_scenario(name).transform)
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 256,
                                          keep_exact=True)
        avg = local_average(phi, part)
        ref = reference_local_average(phi, part)
        assert_same_bits(avg.mask, ref.mask)
        assert_same_bits(avg.values, ref.values)
        Y = np.random.default_rng(8).uniform(0, 1, size=(3000, 2))
        assert_same_bits(avg.exact_eval(Y), ref.exact_eval(Y))

    def test_row_blocks_match_one_shot_evaluation(self, monkeypatch):
        # 301 rows of 257 points: 255 rows per block, the last one partial
        calls = []
        f = smooth_field()

        def recording(X):
            calls.append(len(X))
            return f(X)

        hi = np.array([301, 257]) / 256
        phi = grid_function_from_callable(recording, LO, hi, 1 / 256)
        values = phi.values
        assert calls == [255 * 257, 46 * 257]
        X = phi.centers().reshape(-1, 2)
        assert_same_bits(values, f(X).reshape(301, 257))
        # a single row longer than the block is still evaluated whole
        monkeypatch.setattr(unfolding, "_ROW_BLOCK", 100)
        calls.clear()
        phi = grid_function_from_callable(recording, LO, hi, 1 / 256)
        values = phi.values
        assert calls == [257] * 301
        assert_same_bits(values, f(X).reshape(301, 257))

    def test_chunked_pwc_grid_matches_one_shot(self):
        part = build_partition((LO, HI), 1 / 32, 0.5,
                               plywood2d_scenario().transform)
        rng = np.random.default_rng(2)
        table = {(s.n, tuple(int(t) for t in xi)): float(rng.normal())
                 for s in part.subdomains for xi in s.xi_hat}
        phi = lattice_pwc_field(part, table, LO, HI, 1 / 600)
        X = phi.centers().reshape(-1, 2)
        assert_same_bits(phi.values.ravel(), phi.exact_eval(X))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32])
    def test_q_tables_match_the_dict_and_set(self, name, eps):
        part = build_partition((LO, HI), eps, 0.5, get_scenario(name).transform)
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 128,
                                          keep_exact=True)
        qi = interpolate_Q(phi, part)
        usable, q_ref = reference_interpolate_Q(phi, part, 4)
        assert len(q_ref) or eps == 1 / 8
        assert sorted(qi.usable_cells) == sorted(usable)
        for n in usable:
            assert_same_bits(qi.usable_cells[n], usable[n])
        assert_same_bits(qi.eval_cells(phi, 4)[0], q_ref)


class TestLazySampling:
    def counting(self, f):
        calls = []

        def g(X):
            calls.append(len(X))
            return f(X)
        return g, calls

    def test_values_are_sampled_on_first_read_only(self):
        f, calls = self.counting(smooth_field())
        phi = grid_function_from_callable(f, LO, HI, 1 / 64)
        assert phi.shape == (64, 64) and phi.mask.shape == (64, 64)
        copy = phi.copy_with(np.zeros((64, 64)))
        assert calls == []
        X = phi.centers().reshape(-1, 2)
        assert_same_bits(phi.values, smooth_field()(X).reshape(64, 64))
        assert calls == [64 * 64]
        assert phi.values is phi.values and calls == [64 * 64]
        assert copy.integrate() == 0.0

    def test_exact_consumers_sample_nothing(self, monkeypatch):
        sampled = []
        sample_rows = unfolding._sample_rows

        def counting_rows(f, grid):
            sampled.append(grid.shape)
            return sample_rows(f, grid)

        monkeypatch.setattr(unfolding, "_sample_rows", counting_rows)
        f, calls = self.counting(smooth_field())
        part = build_partition((LO, HI), 1 / 16, 0.5,
                               plywood2d_scenario().transform)
        phi = grid_function_from_callable(f, LO, HI, 1 / 128)
        check_integration_identity(phi, part, 4, eval_mode="exact")
        avg = local_average(phi, part)
        assert avg.mask.shape == (128, 128)
        assert calls and sampled == []
        avg.values
        assert sampled == [(128, 128)]

    def test_pwc_grid_is_not_sampled_when_built(self, monkeypatch):
        part = build_partition((LO, HI), 1 / 16, 0.5,
                               plywood2d_scenario().transform)
        counted = []
        located = unfolding.locate_slots

        def counting_locate(partition, X):
            counted.append(len(X))
            return located(partition, X)

        monkeypatch.setattr(unfolding, "locate_slots", counting_locate)
        phi = lattice_pwc_field(part, {}, LO, HI, 1 / 128, fill=0.5)
        assert counted == []
        assert np.all(phi.values == 0.5) and sum(counted) == 128 * 128


class TestGridDimension:
    def cube(self):
        return grid_function_from_callable(lambda X: X.sum(axis=1),
                                           np.zeros(3), np.ones(3), 1 / 8)

    def test_eval_needs_a_2d_grid(self):
        with pytest.raises(ValueError, match="2-D grid"):
            self.cube().eval(np.full((1, 3), 0.5))

    def test_interpolant_integral_needs_a_2d_grid(self):
        with pytest.raises(ValueError, match="2-D grid"):
            unfolding._interpolant_cell_integral(self.cube(), np.zeros(3),
                                                 np.full(3, 0.5))


def reference_unfold(phi, partition, m_y, mask_mode, cell, eval_mode):
    """unfold as it was: one block per subdomain, joined by np.concatenate,
    with an all-true mask in bulk mode."""
    d = partition.d
    y_nodes = unfolding._unit_cell_nodes(m_y, d)
    evaluate = phi.exact_eval if eval_mode == "exact" else phi.eval
    subs, xis = [np.zeros(0, dtype=int)], [np.zeros((0, d), dtype=int)]
    vals, wts = [np.zeros((0, len(y_nodes)))], [np.zeros(0)]
    for s in partition.subdomains:
        if not len(s.xi_hat):
            continue
        pts = unfolding.map_cells(s.shift, partition.eps, s.D, s.xi_hat,
                                  y_nodes)
        v = np.asarray(evaluate(pts.reshape(-1, d)), dtype=float).reshape(
            len(s.xi_hat), len(y_nodes))
        subs.append(np.full(len(s.xi_hat), s.n))
        xis.append(s.xi_hat)
        vals.append(v)
        wts.append(np.full(len(s.xi_hat),
                           partition.eps**d * s.detD / len(y_nodes)))
    values = np.concatenate(vals)
    if mask_mode == "perforated":
        keep = np.linalg.norm(y_nodes - cell.center, axis=1) > cell.a
        mask = np.broadcast_to(keep, values.shape).copy()
    else:
        mask = np.ones_like(values, dtype=bool)
    weight = np.concatenate(wts)
    masked = np.where(mask, values, 0.0)
    return SimpleNamespace(
        sub_index=np.concatenate(subs), xi=np.concatenate(xis), values=values,
        weight=weight, sample_mask=mask,
        weighted_sum=float(np.sum(weight[:, None] * masked)),
        weighted_l2=math.sqrt(float(np.sum(weight[:, None] * masked ** 2))),
        mean_over_Y=np.sum(masked, axis=1) / np.maximum(np.sum(mask, axis=1),
                                                        1))


def reference_unfold_boundary(psi, partition, quad, p):
    """unfold_boundary and its two reductions as they were: blocks joined
    by np.concatenate, a broadcast metric copied per subdomain, and a new
    array for every operation."""
    d = partition.d
    c = quad.cell.center
    S = quad.n_gamma
    subs, xis = [np.zeros(0, dtype=int)], [np.zeros((0, d), dtype=int)]
    vals, mets = [np.zeros((0, S))], [np.zeros((0, S))]
    dets = [np.zeros(0)]
    for s in partition.subdomains:
        if not len(s.xi_hat):
            continue
        mapped_y = c + (quad.nodes - c) @ s.K.T
        pts = unfolding.map_cells(s.shift, partition.eps, s.D, s.xi_hat,
                                  mapped_y)
        v = np.asarray(psi(pts.reshape(-1, d)), dtype=float).reshape(
            len(s.xi_hat), S)
        subs.append(np.full(len(s.xi_hat), s.n))
        xis.append(s.xi_hat)
        vals.append(v)
        mets.append(np.broadcast_to(quad.metric(s.D, s.K), v.shape))
        dets.append(np.full(len(s.xi_hat), s.detD))
    values, metric = np.concatenate(vals), np.concatenate(mets)
    detD, eps, w = np.concatenate(dets), partition.eps, quad.ref_weights
    integrand = np.abs(values) ** p * metric * w[None, :]
    percell = integrand.sum(axis=1) / detD
    ds = eps ** (d - 1) * metric * w[None, :]
    return SimpleNamespace(
        sub_index=np.concatenate(subs), xi=np.concatenate(xis), values=values,
        metric=metric, detD=detD,
        weighted_power_sum=float(np.sum(eps ** d * detD * percell)),
        direct_surface_integral=float(np.sum(np.abs(values) ** p * ds)))


@functools.lru_cache(maxsize=None)
def scenario_partition(name, eps):
    return build_partition((LO, HI), eps, 0.5, get_scenario(name).transform)


class TestOneCopyMatchesTheConcatenatingReference:
    """unfold and unfold_boundary fill one preallocated array per quantity
    and reduce in place; every array and sum must keep the bits of the
    list-and-concatenate code."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    @pytest.mark.parametrize("mask_mode", ["bulk", "perforated"])
    @pytest.mark.parametrize("eval_mode", ["grid", "exact"])
    def test_unfold(self, name, eps, mask_mode, eval_mode):
        part = scenario_partition(name, eps)
        cell = get_scenario(name).cell
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 128,
                                          keep_exact=True)
        if mask_mode == "perforated" and any(
                np.max(np.abs(s.K - np.eye(2))) > 1e-13
                for s in part.subdomains):
            # a K that is not the identity has no perforated mode
            with pytest.raises(ValueError, match="K = I only"):
                unfold(phi, part, 8, mask_mode, cell, eval_mode)
            return
        ug = unfold(phi, part, 8, mask_mode, cell, eval_mode)
        ref = reference_unfold(phi, part, 8, mask_mode, cell, eval_mode)
        for key in ("sub_index", "xi", "values", "weight"):
            assert_same_bits(getattr(ug, key), getattr(ref, key))
        assert ug.values.flags.c_contiguous
        if mask_mode == "bulk":
            assert ug.sample_mask is None
        else:
            assert_same_bits(ug.sample_mask, ref.sample_mask)
        assert ug.weighted_sum() == ref.weighted_sum
        assert ug.weighted_l2() == ref.weighted_l2
        assert_same_bits(ug.mean_over_Y(), ref.mean_over_Y)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_unfold_boundary(self, name, eps, p):
        part = scenario_partition(name, eps)
        quad = GammaQuadrature(get_scenario(name).cell, 16)

        def psi(X):
            # changes sign, so the absolute value matters
            return np.sin(3 * X[:, 0]) - X[:, 1]

        bu = unfold_boundary(psi, part, quad)
        ref = reference_unfold_boundary(psi, part, quad, p)
        for key in ("sub_index", "xi", "values", "metric", "detD"):
            assert_same_bits(getattr(bu, key), getattr(ref, key))
        assert bu.weighted_power_sum(p) == ref.weighted_power_sum
        assert bu.direct_surface_integral(p) == ref.direct_surface_integral

    def test_empty_covering_keeps_shapes(self):
        part = scenario_partition("periodic", 1 / 8)
        empty = SimpleNamespace(d=2, eps=part.eps, subdomains=[
            SimpleNamespace(xi_hat=np.zeros((0, 2), dtype=int))])
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 64)
        ug = unfold(phi, empty, 4)
        assert ug.values.shape == (0, 16) and ug.xi.shape == (0, 2)
        assert ug.sub_index.dtype == ug.xi.dtype == np.dtype(int)
        assert ug.weighted_sum() == 0.0
        quad = GammaQuadrature(UnitCellSpec(a=0.25), 8)
        bu = unfold_boundary(lambda X: X[:, 0], empty, quad)
        assert bu.values.shape == bu.metric.shape == (0, 8)
        assert bu.weighted_power_sum() == bu.direct_surface_integral() == 0.0


def traced_peak(fn):
    """Peak traced allocation of fn() above what was allocated before it;
    fn runs once untraced first, so lazy caches are already built."""
    fn()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestUnfoldingMemory:
    """Each check holds its samples once: the working memory of a check is
    a small multiple of the bytes of the samples it reads (plywood2d,
    eps = 1/128, the check-unfold settings)."""

    def test_smooth_check_peak(self):
        part = scenario_partition("plywood2d", 1 / 128)
        smooth = grid_function_from_callable(
            lambda X: np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1]),
            LO, HI, 1 / 128, keep_exact=True)
        n_cells = sum(len(s.xi_hat) for s in part.subdomains)
        peak = traced_peak(lambda: check_integration_identity(
            smooth, part, 8, eval_mode="exact"))
        assert peak <= 2.5 * n_cells * 64 * 8

    def test_boundary_check_peak(self):
        part = scenario_partition("plywood2d", 1 / 128)
        quad = GammaQuadrature(plywood2d_scenario().cell, 16)
        n_cells = sum(len(s.xi_hat) for s in part.subdomains)
        peak = traced_peak(lambda: check_boundary_identity(
            lambda X: 1.0 + X[:, 0], part, quad))
        assert peak <= 4.6 * n_cells * 16 * 8
