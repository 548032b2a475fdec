import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lphom.geometry import (
    _covering,
    TransformField,
    UnitCellSpec,
    build_partition,
    locate_cells,
    lp_approx_batch,
    rotation_matrix,
)
from lphom.scenarios import SCENARIO_NAMES, get_scenario
from lphom import cli, unfolding
from lphom.unfolding import (
    GammaQuadrature,
    GridFunction,
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


def hat_cells(part, n):
    """The Xi_hat cells of subdomain n: its rows of the partition's Xi_hat
    row layout."""
    return part.hat_xi[part.hat_start[n]:part.hat_start[n + 1]]


def single_subdomain_partition(eps, transform=None):
    # r close to 0 makes the subdomain side ~ 1, so the whole domain is one
    # frozen lattice with zero shift
    tf = transform if transform is not None else IDENTITY
    return build_partition((LO, HI), eps, 0.01, tf)


def constant_transform(D, K=None):
    Dm = np.asarray(D, dtype=float)
    Km = np.eye(2) if K is None else np.asarray(K, dtype=float)
    return TransformField(D=lambda x: Dm, K=lambda x: Km)


IDENTITY = constant_transform(np.eye(2))


def sin_sin(X):
    """The smooth field of the check-unfold integration checks."""
    return np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])


def smooth_field(eps_over=8):
    def f(X):
        return np.sin(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1])
    return f


def mapped_points(part, ug):
    """x-coordinates of every unfolded sample, entry by entry."""
    pts = np.empty((ug.n_entries, len(ug.y_nodes), 2))
    for s in part.subdomains:
        sel = np.flatnonzero(part.hat_n == s.n)
        if not len(sel):
            continue
        pts[sel] = s.shift + part.eps * np.einsum(
            "ij,ckj->cki", s.D,
            part.hat_xi[sel][:, None, :].astype(float) + ug.y_nodes[None, :, :])
    return pts


class TestUnfold:
    def test_constant_entries(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, IDENTITY)
        ug = unfold(lambda X: np.full(len(X), 3.25), part, 4)
        assert np.max(np.abs(ug.values - 3.25)) <= 1e-13

    def test_affine_entry_values(self):
        # x1 sampled through the grid interpolant at shift zero: entry at
        # (xi, y) must be eps*(xi1 + y1) exactly
        eps = 1 / 4
        part = single_subdomain_partition(eps)
        phi = grid_function_from_callable(lambda X: X[:, 0], LO, HI, 1 / 32)
        ug = unfold(phi, part, 4)
        expected = eps * (part.hat_xi[:, None, 0] + ug.y_nodes[None, :, 0])
        assert np.max(np.abs(ug.values - expected)) <= 1e-12

    def test_composition_oracle(self):
        # unfolding the locally periodic approximation recovers the
        # two-scale field at (mapped x, y) node for node
        eps = 1 / 8
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), eps, 0.5, epi.transform)
        psi = lambda X, Y: np.cos(2 * np.pi * Y[:, 0]) * (1 + X[:, 1])
        ug = unfold(lambda X: lp_approx_batch(psi, part, X), part, 3)
        xs = mapped_points(part, ug)
        oracle = np.cos(2 * np.pi * ug.y_nodes[None, :, 0]) * (1 + xs[:, :, 1])
        assert np.max(np.abs(ug.values - oracle)) <= 1e-12

    def test_zero_on_leftover_structural(self):
        # entries exist only for covered cells; total weight is the covered
        # measure exactly
        for scen in (get_scenario("periodic"), get_scenario("epithelial"),
                     get_scenario("plywood2d")):
            part = build_partition((LO, HI), 1 / 16, 0.5, scen.transform)
            ug = unfold(lambda X: np.ones(len(X)), part, 2)
            for s in part.subdomains:
                sel = part.hat_n == s.n
                assert_same_bits(part.cell_rows(s.n, part.hat_xi[sel]),
                                 np.flatnonzero(sel))
            total_weight = float(np.sum(ug.weight)) * len(ug.y_nodes)
            assert abs(total_weight - part.omega_hat_measure) <= 1e-13

    def test_weights_per_entry(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, get_scenario("epithelial").transform)
        m_y = 3
        ug = unfold(lambda X: np.ones(len(X)), part, m_y)
        for s in part.subdomains:
            sel = part.hat_n == s.n
            expected = part.eps**2 * part.detD[s.n] / m_y**2
            assert np.allclose(ug.weight[sel], expected, rtol=0, atol=1e-16)

    def test_linearity(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, IDENTITY)
        f1 = grid_function_from_callable(smooth_field(), LO, HI, 1 / 64)
        f2 = grid_function_from_callable(lambda X: X[:, 0] ** 2, LO, HI,
                                         1 / 64)
        comb = GridFunction(LO, HI, 1 / 64, 2.5 * f1.values - 1.25 * f2.values)
        u1 = unfold(f1, part, 4)
        u2 = unfold(f2, part, 4)
        uc = unfold(comb, part, 4)
        assert np.max(np.abs(uc.values - (2.5 * u1.values - 1.25 * u2.values))) <= 1e-13

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(deadline=None, max_examples=20)
    def test_linearity_property(self, a, b):
        part = build_partition((LO, HI), 1 / 4, 0.5, IDENTITY)
        f1 = grid_function_from_callable(lambda X: X[:, 0] * X[:, 1], LO, HI,
                                         1 / 16)
        f2 = grid_function_from_callable(lambda X: np.cos(X[:, 1]), LO, HI,
                                         1 / 16)
        comb = GridFunction(LO, HI, 1 / 16, a * f1.values + b * f2.values)
        u1 = unfold(f1, part, 2)
        u2 = unfold(f2, part, 2)
        uc = unfold(comb, part, 2)
        assert np.max(np.abs(uc.values - (a * u1.values + b * u2.values))) <= 1e-12

    def test_norm_contraction_piecewise_constant(self):
        # unfolded weighted L2 norm cannot exceed the full-domain norm for a
        # field that the cell quadrature integrates exactly
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        values = np.random.default_rng(7).normal(size=len(part.hat_n))
        ug = unfold(lattice_pwc_field(part, values), part, 4)
        # the field is 0 on the leftover region
        full_norm = math.sqrt(float(np.sum(part.cell_measures[part.hat_n]
                                           * values**2)))
        weighted_l2 = math.sqrt(float(np.sum(ug.weight[:, None]
                                             * ug.values ** 2)))
        assert weighted_l2 <= full_norm + 1e-8

    def test_rejects_small_m_y(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, IDENTITY)
        with pytest.raises(ValueError):
            unfold(lambda X: np.ones(len(X)), part, 1)


class TestLocalAverage:
    def test_constant(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, IDENTITY)
        avg = local_average(lambda X: np.full(len(X), 1.5), part)
        X = part.subdomains[0].shift + 1 / 8 * (hat_cells(part, 0) + 0.5)
        assert np.max(np.abs(avg(X) - 1.5)) <= 1e-13

    def test_single_cell_closed_form(self):
        # average of x1 over the lattice cell anchored at xi is eps*(xi1 + 1/2)
        eps = 1 / 4
        part = single_subdomain_partition(eps)
        avg = local_average(lambda X: X[:, 0], part)
        probe = np.array([[eps * (1 + 0.3), eps * (2 + 0.6)]])   # cell (1, 2)
        assert abs(float(avg(probe)[0]) - eps * 1.5) <= 1e-13

    def test_idempotence_exact(self):
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        a1 = local_average(smooth_field(), part)
        a2 = local_average(a1, part)
        probe = np.random.default_rng(3).uniform(0.05, 0.95, size=(200, 2))
        assert np.max(np.abs(a1(probe) - a2(probe))) == 0.0

    def test_consistency_with_unfold_mean(self):
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        phi = smooth_field()
        ug = unfold(phi, part, 4)
        avg = local_average(phi, part, m_y=4)
        means = ug.mean_over_Y()
        xs = mapped_points(part, ug)[:, :, :].mean(axis=1)   # cell midpoints
        assert np.max(np.abs(avg(xs) - means)) <= 1e-14

    def test_zero_on_leftover(self):
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        avg = local_average(lambda X: np.ones(len(X)), part)
        if locate_cells(part, np.array([[0.98, 0.98]]))[3][0] < 0:
            assert avg(np.array([[0.98, 0.98]]))[0] == 0.0


class TestIntegrationIdentity:
    def test_constant(self):
        part = build_partition((LO, HI), 1 / 8, 0.5, IDENTITY)
        phi = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI,
                                          1 / 64)
        lhs, rhs, gap = check_integration_identity(phi, part, 4)
        assert abs(lhs - part.omega_hat_measure) <= 1e-12
        assert gap <= 1e-12

    def test_piecewise_constant_exact(self):
        part = build_partition((LO, HI), 1 / 16, 0.5, IDENTITY)
        values = np.random.default_rng(11).uniform(-1, 1, len(part.hat_n))
        phi = lattice_pwc_field(part, values)
        _, _, gap = check_integration_identity(phi, part, 4)
        assert gap <= 1e-12

    def test_piecewise_constant_general_lattice(self):
        # non-diagonal lattice goes through the fine-midpoint branch; a field
        # constant per lattice cell is integrated exactly there too
        ply = get_scenario("plywood2d")
        part = build_partition((LO, HI), 1 / 16, 0.5, ply.transform)
        values = np.random.default_rng(12).uniform(-1, 1, len(part.hat_n))
        phi = lattice_pwc_field(part, values)
        _, _, gap = check_integration_identity(phi, part, 4)
        assert gap <= 1e-12

    def test_smooth_gap_shrinks_with_m_y(self):
        part = build_partition((LO, HI), 1 / 16, 0.5, IDENTITY)
        phi = smooth_field()
        gaps = [check_integration_identity(phi, part, m)[2]
                for m in (2, 4)]
        assert gaps[1] <= gaps[0] / 4

    def test_richardson_bound(self):
        # estimate the quadrature constant from the coarse run, then bound
        # the fine one: gap(m) ~ C (eps/m)^2
        eps = 1 / 16
        part = build_partition((LO, HI), eps, 0.5, IDENTITY)
        phi = sin_sin
        gap4 = check_integration_identity(phi, part, 4)[2]
        gap8 = check_integration_identity(phi, part, 8)[2]
        C = gap4 / (eps / 4) ** 2
        assert gap8 <= 1.1 * C * (eps / 8) ** 2


class TestEvaluatorsGetContiguousColumns:
    """The unfolding passes hand their evaluators flat points whose
    coordinate columns are contiguous: map_cells lays them out axis by
    axis."""

    @staticmethod
    def recording(seen):
        def f(X):
            seen.append(X)
            return np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])
        return f

    @staticmethod
    def assert_contiguous_columns(seen, n_points):
        assert sum(len(X) for X in seen) == n_points
        for X in seen:
            assert X.ndim == 2 and X.shape[1] == 2 and len(X) > 1
            assert X[:, 0].flags.c_contiguous and X[:, 1].flags.c_contiguous

    @pytest.mark.parametrize("name", ["periodic", "plywood2d"])
    def test_unfold_exact(self, name):
        part = scenario_partition(name, 1 / 16)
        seen = []
        unfold(self.recording(seen), part, 4)
        self.assert_contiguous_columns(seen, len(part.hat_n) * 16)

    @pytest.mark.parametrize("name", ["periodic", "plywood2d"])
    def test_both_passes_of_the_integration_identity(self, name):
        part = scenario_partition(name, 1 / 16)
        seen = []
        check_integration_identity(self.recording(seen), part, 4)
        # the lhs samples m_y^2 points per cell, the rhs (3 m_y + 1)^2
        self.assert_contiguous_columns(seen, len(part.hat_n) * (16 + 169))

    @pytest.mark.parametrize("name", ["periodic", "plywood2d"])
    def test_unfold_boundary(self, name):
        part = scenario_partition(name, 1 / 16)
        seen = []
        quad = GammaQuadrature(get_scenario(name).cell, 16)
        unfold_boundary(self.recording(seen), part, quad)
        self.assert_contiguous_columns(seen, len(part.hat_n) * 16)


class TestBoundaryUnfolding:
    def test_constant_entries_and_measure(self):
        # every entry is 1 and the weighted sum reproduces eps times the
        # mapped boundary measure; the identity transform makes the measure
        # cell count * eps * reference circumference
        eps = 1 / 16
        per = get_scenario("periodic")
        part = build_partition((LO, HI), eps, 0.5, per.transform)
        quad = GammaQuadrature(per.cell, 16)
        bu = unfold_boundary(lambda X: np.ones(len(X)), part, quad)
        assert np.max(np.abs(bu.values - 1.0)) == 0.0
        n_cells = sum(len(hat_cells(part, s.n)) for s in part.subdomains)
        # quadrature measure of the mapped interior boundary
        surface = float(eps * np.sum(bu.metric[part.hat_n] * bu.ref_weights))
        assert abs(surface - n_cells * eps * 2 * math.pi * 0.25) <= 1e-10
        lhs, rhs, gap = check_boundary_identity(
            lambda X: np.ones(len(X)), part, quad)
        assert gap <= 1e-12
        assert abs(lhs - eps * surface) <= 1e-12

    def test_identity_map_keeps_metric(self):
        per = get_scenario("periodic")
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
        per = get_scenario("periodic")
        part = build_partition((LO, HI), 1 / 8, 0.5, per.transform)
        quad = GammaQuadrature(per.cell, 16)
        _, _, gap = check_boundary_identity(lambda X: X[:, 1], part, quad)
        assert gap <= 1e-12

    def test_rotated_scaled_identity(self):
        tf = constant_transform(np.linalg.inv(rotation_matrix(math.pi / 6)),
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
            assert abs(quad.ref_weights.sum() - 2 * math.pi * 0.25) <= 1e-10

    @pytest.mark.parametrize("n", [0, -3])
    def test_quadrature_needs_a_node(self, n):
        with pytest.raises(ValueError, match="n_gamma must be at least 1"):
            GammaQuadrature(UnitCellSpec(a=0.25), n)

    def test_all_scenarios_tight(self):
        for scen in (get_scenario("periodic"), get_scenario("epithelial"),
                     get_scenario("plywood2d"), get_scenario("radius-gradient")):
            part = build_partition((LO, HI), 1 / 16, 0.5, scen.transform)
            quad = GammaQuadrature(scen.cell, 16)
            _, _, gap = check_boundary_identity(
                lambda X: 1 + X[:, 0] * X[:, 1], part, quad)
            assert gap <= 1e-10


class TestQInterpolant:
    def test_constants_reproduced(self):
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), 1 / 16, 0.5, epi.transform)
        phi = lambda X: np.full(len(X), 2.5)
        qi = interpolate_Q(phi, part)
        _, r, _, w = qi.eval_cells(phi, 4)
        assert len(r) and np.max(np.abs(r)) == 0.0

    def test_affine_half_cell_shift(self):
        # the cell-anchored node values turn an affine field into the same
        # affine field evaluated half a lattice cell ahead, exactly
        eps = 1 / 16
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), eps, 0.5, epi.transform)
        aff = lambda X: 3.0 + 2.0 * X[:, 0] - 1.25 * X[:, 1]
        qi = interpolate_Q(aff, part)
        q, r, pts, w = qi.eval_cells(aff, 4)
        assert len(r) == 16 * len(qi.usable_rows)
        # each sample's subdomain, cell after cell in row order
        n = np.repeat(part.hat_n[qi.usable_rows], 16)
        shift_vec = eps * part.D[n] @ np.array([0.5, 0.5])
        pred = aff(pts) - aff(pts + shift_vec)
        assert np.max(np.abs(r - pred)) <= 1e-12

    def test_remainder_first_order_band(self):
        per = get_scenario("periodic")
        f = lambda X: np.sin(2 * np.pi * X[:, 0])
        g = lambda X: np.stack([2 * np.pi * np.cos(2 * np.pi * X[:, 0]),
                                np.zeros(len(X))], axis=1)
        ratios = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, per.transform)
            rn, gn, meas = remainder_R(f, part, grad=g)
            assert meas > 0
            ratios.append(rn / (eps * gn))
        assert max(ratios) <= 1.0          # order eps with a modest constant
        assert max(ratios) / min(ratios) <= 1.5

    def test_usable_cells_have_full_corner_stencil(self):
        epi = get_scenario("epithelial")
        part = build_partition((LO, HI), 1 / 8, 0.5, epi.transform)
        qi = interpolate_Q(smooth_field(), part)
        hats = [set(map(tuple, hat_cells(part, s.n))) for s in part.subdomains]
        assert len(qi.usable_rows)
        for e in qi.usable_rows:
            xi = part.hat_xi[e]
            for c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert (xi[0] + c[0], xi[1] + c[1]) in hats[part.hat_n[e]]


class TestPairingAndDiagnostics:
    def test_constant_pairing_is_domain_measure(self):
        per = get_scenario("periodic")
        part = build_partition((LO, HI), 1 / 8, 0.5, per.transform)
        u = grid_function_from_callable(lambda X: np.ones(len(X)), LO, HI, 1 / 64)
        one = lambda X, Y: np.ones(len(X))
        assert abs(lts_pairing(u, one, part) - 1.0) <= 1e-12

    def test_oscillation_mean_limit(self):
        # cos^2 of the fast variable pairs against 1 to the mean 1/2
        per = get_scenario("periodic")
        one = lambda X, Y: np.ones(len(X))
        for eps in (1 / 8, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, per.transform)
            u = grid_function_from_callable(
                lambda X, e=eps: np.cos(2 * np.pi * X[:, 0] / e) ** 2,
                LO, HI, eps / 16)
            assert abs(lts_pairing(u, one, part) - 0.5) <= 1e-10

    def test_epithelial_two_scale_limit(self):
        # pairing of the approximation against its own generator converges to
        # the x-averaged unit-cell mean of psi^2, computed by fine quadrature
        epi = get_scenario("epithelial")
        psi = lambda X, Y: (1 + X[:, 0]) * np.cos(2 * np.pi * Y[:, 1])
        # reference: tensor midpoint quadrature of psi(x, y)^2 over Omega x Y
        nx, ny = 128, 64
        xg = (np.arange(nx) + 0.5) / nx
        yg = (np.arange(ny) + 0.5) / ny
        XX = np.stack(np.meshgrid(xg, xg, indexing="ij"), axis=-1).reshape(-1, 2)
        ref = 0.0
        for y2 in yg:
            Y = np.column_stack([np.full(len(XX), 0.5), np.full(len(XX), y2)])
            ref += float(np.sum(psi(XX, Y) ** 2))
        ref /= nx * nx * ny
        gaps = []
        for eps in (1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, epi.transform)
            u = grid_function_from_callable(
                lambda X: lp_approx_batch(psi, part, X), LO, HI, eps / 16)
            gaps.append(abs(lts_pairing(u, psi, part) - ref))
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 5e-3

    def test_unfold_distance_decreases(self):
        epi = get_scenario("epithelial")
        vals = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, epi.transform)
            vals.append(norm_unfold_minus_identity(smooth_field(), part,
                                                   m_y=4))
        assert vals[0] > vals[1] > vals[2]

    def test_unfold_of_approximation_distance_decreases(self):
        epi = get_scenario("epithelial")
        psi = (
            lambda X, Y: (np.sin(2 * np.pi * Y[:, 0]) * (1 + 0.5 * X[:, 1])
                          + X[:, 0] * Y[:, 1]))
        vals = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, epi.transform)
            vals.append(norm_unfold_of_lp_minus_psi(psi, part, 4))
        assert vals[0] > vals[1] > vals[2]


class TestFieldsAreCallables:
    """Every unfolding routine takes a plain function of points; the values
    are pinned, hex for hex, to those of the same function wrapped as the
    exact evaluator of a grid function before fields became callables
    (plywood2d, eps = 1/16, m_y = 4)."""

    @staticmethod
    def hexes(*values):
        return [float(v).hex() for v in values]

    def test_unfold_and_the_integration_identity(self):
        part = scenario_partition("plywood2d", 1 / 16)
        ug = unfold(sin_sin, part, 4)
        assert ug.values.shape == (112, 16)
        assert self.hexes(np.sum(ug.values)) == ["0x1.6bef563ce426cp+9"]
        assert self.hexes(*check_integration_identity(sin_sin, part, 4)) == [
            "0x1.6bef563ce426cp-3", "0x1.6bde66b34ebb0p-3",
            "0x1.0ef89956bc000p-15"]

    def test_local_average(self):
        part = scenario_partition("plywood2d", 1 / 16)
        avg = local_average(sin_sin, part, 4)
        probe = np.random.default_rng(3).uniform(0, 1, size=(64, 2))
        assert self.hexes(np.sum(avg(probe))) == ["0x1.6e15d8c292e5cp+3"]

    def test_interpolant_and_remainder(self):
        part = scenario_partition("plywood2d", 1 / 16)
        r = interpolate_Q(sin_sin, part, 4).eval_cells(sin_sin, 4)[1]
        assert self.hexes(np.sum(r)) == ["-0x1.a8bfcf9cb000fp+0"]
        assert self.hexes(*remainder_R(sin_sin, part, 4)) == [
            "0x1.571992b310988p-6", "0x1.69203df572657p-1",
            "0x1.b000000000000p-4"]

    def test_norm_unfold_minus_identity(self):
        part = scenario_partition("plywood2d", 1 / 16)
        assert self.hexes(norm_unfold_minus_identity(sin_sin, part, 4)) == [
            "0x1.28ab06686e9b8p-5"]


def reference_pwc_eval(partition, cell_values, fill, X):
    """The per-point dict lookup lattice_pwc_field used to evaluate with."""
    n, xi, _, row = locate_cells(partition, X)
    out = np.full(len(X), fill)
    for i in range(len(X)):
        if row[i] >= 0:
            out[i] = cell_values.get((int(n[i]), tuple(int(t) for t in xi[i])),
                                     fill)
    return out


def reference_interpolate_Q(phi, partition, points_per_axis):
    """interpolate_Q and eval_cells with a dict of node values and a set of
    Xi_hat tuples per subdomain: the usable cells, the Q samples and the
    node values."""
    ug = unfold(phi, partition, 4)
    means = ug.mean_over_Y()
    d = 2
    node_values = {(int(partition.hat_n[e]),
                    tuple(int(t) for t in partition.hat_xi[e])):
                   float(means[e]) for e in range(ug.n_entries)}
    offsets = [np.array(c) for c in np.ndindex(*(2,) * d)]
    usable = {}
    for s in partition.subdomains:
        xi_hat = hat_cells(partition, s.n)
        hat = set(map(tuple, xi_hat))
        good = [xi for xi in xi_hat
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
    return (usable, np.concatenate(q_all) if q_all else np.zeros(0),
            node_values)


def reference_local_average(phi, partition, m_y=4):
    """local_average through a dict keyed by (n, xi) and the per-point dict
    lookup."""
    ug = unfold(phi, partition, m_y)
    means = ug.mean_over_Y()
    table = {(int(partition.hat_n[e]),
              tuple(int(t) for t in partition.hat_xi[e])): means[e]
             for e in range(ug.n_entries)}
    return lambda X: reference_pwc_eval(partition, table, 0.0, X)


def row_values(partition, table, fill):
    """One value per Xi_hat row from a dict keyed by (n, xi); unlisted
    cells get fill."""
    return np.array([table.get((n, tuple(xi)), fill) for n, xi in
                     zip(partition.hat_n.tolist(), partition.hat_xi.tolist())])


def reference_slot_tables(part):
    """The per-cell tables as they were kept over the cell slots, the
    boxes of Partition._cell_slots: the slot of every Xi_hat row, and a
    flag per slot that marks the Xi_hat cells."""
    hat_slot = part._cell_slots(part.hat_n, part.hat_xi)
    in_hat = np.zeros(part._box_offset[-1], dtype=bool)
    in_hat[hat_slot] = True
    return hat_slot, in_hat


def reference_hat_slots(part, in_hat, n, xi):
    """The slot of each cell, -1 for the cells outside Xi_hat; the slot -1
    reads the last flag and stays -1 either way."""
    slots = part._cell_slots(n, xi)
    slots[~in_hat[slots]] = -1
    return slots


def reference_pwc_slot_eval(partition, values, fill, X):
    """The slot-table lookup lattice_pwc_field used to evaluate with: a
    table over the slots whose entry past them holds fill."""
    hat_slot, in_hat = reference_slot_tables(partition)
    table = np.full(len(in_hat) + 1, fill)
    table[hat_slot] = values
    n, xi = locate_cells(partition, X)[:2]
    return table[reference_hat_slots(partition, in_hat, n, xi)]


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
        # every third Xi_hat cell unlisted, so it falls back to 0, as the
        # leftover points do
        table = {(s.n, tuple(int(t) for t in xi)): float(rng.uniform(-1, 1))
                 for s in part.subdomains for xi in hat_cells(part, s.n)
                 if rng.random() < 2 / 3}
        outside = tuple(int(t) for t in hat_cells(part, 0).max(axis=0) + 1)
        assert part.cell_rows(0, np.array(outside))[0] == -1
        table[(0, outside)] = 5.0
        table[(part.n_subdomains,
               tuple(int(t) for t in hat_cells(part, 0)[0]))] = 6.0
        # a negative n must not wrap around to the last subdomain
        last = part.n_subdomains - 1
        table[(-1, tuple(int(t) for t in hat_cells(part, last)[0]))] = 7.0
        h = 1 / 256
        values = row_values(part, table, 0.0)
        phi = lattice_pwc_field(part, values)
        grid = grid_function_from_callable(phi, LO, HI, h)
        X = grid.centers().reshape(-1, 2)
        leftover = locate_cells(part, X)[3] < 0
        assert leftover.any()
        assert np.all(grid.values.ravel()[leftover] == 0.0)
        ref = reference_pwc_eval(part, table, 0.0, X)
        assert np.count_nonzero(ref == 0.0) > np.count_nonzero(leftover)
        assert_same_bits(grid.values.ravel(), ref)
        assert_same_bits(grid.values.ravel(),
                         reference_pwc_slot_eval(part, values, 0.0, X))
        Y = np.random.default_rng(5).uniform(0, 1, size=(3000, 2))
        assert_same_bits(phi(Y), reference_pwc_eval(part, table, 0.0, Y))
        assert_same_bits(phi(Y), reference_pwc_slot_eval(part, values, 0.0, Y))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_local_average_matches_the_dict_path(self, name, eps):
        part = build_partition((LO, HI), eps, 0.5, get_scenario(name).transform)
        avg = local_average(smooth_field(), part)
        ref = reference_local_average(smooth_field(), part)
        assert_same_bits(
            grid_function_from_callable(avg, LO, HI, 1 / 256).values,
            grid_function_from_callable(ref, LO, HI, 1 / 256).values)
        Y = np.random.default_rng(8).uniform(0, 1, size=(3000, 2))
        assert_same_bits(avg(Y), ref(Y))

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

    def test_pwc_field_needs_one_value_per_row(self):
        # a short array would shift the leftover entry onto a row
        part = build_partition((LO, HI), 1 / 8, 0.5, IDENTITY)
        with pytest.raises(ValueError):
            lattice_pwc_field(part, np.zeros(len(part.hat_n) - 1))

    def test_chunked_pwc_grid_matches_one_shot(self):
        part = build_partition((LO, HI), 1 / 32, 0.5,
                               get_scenario("plywood2d").transform)
        values = np.random.default_rng(2).normal(size=len(part.hat_n))
        phi = lattice_pwc_field(part, values)
        grid = grid_function_from_callable(phi, LO, HI, 1 / 600)
        X = grid.centers().reshape(-1, 2)
        assert_same_bits(grid.values.ravel(), phi(X))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32])
    def test_q_tables_match_the_dict_and_set(self, name, eps):
        part = build_partition((LO, HI), eps, 0.5, get_scenario(name).transform)
        phi = smooth_field()
        qi = interpolate_Q(phi, part)
        usable, q_ref, node_ref = reference_interpolate_Q(phi, part, 4)
        # one node value per Xi_hat row
        assert_same_bits(qi.node_values, row_values(part, node_ref, np.nan))
        assert len(q_ref) or eps == 1 / 8
        # the usable rows as a dict from n to cells
        n, xi = part.hat_n[qi.usable_rows], part.hat_xi[qi.usable_rows]
        usable_cells = {s.n: xi[n == s.n] for s in part.subdomains}
        assert sorted(usable_cells) == sorted(usable)
        for k in usable:
            assert_same_bits(usable_cells[k], usable[k])
        assert_same_bits(qi.eval_cells(phi, 4)[0], q_ref)


class TestGridDimension:
    def cube(self, calls):
        def f(X):
            calls.append(len(X))
            return X.sum(axis=1)
        return grid_function_from_callable(f, np.zeros(3), np.ones(3), 1 / 8)

    def test_eval_needs_a_2d_grid(self):
        # rejected before f is sampled
        calls = []
        with pytest.raises(ValueError, match="2-D grid"):
            self.cube(calls)(np.full((1, 3), 0.5))
        assert calls == []
        with pytest.raises(ValueError, match="2-D grid"):
            GridFunction(np.zeros(3), np.ones(3), 1 / 2, np.zeros((2, 2, 2)))

    def test_interpolant_integral_needs_a_2d_grid(self):
        with pytest.raises(ValueError, match="2-D grid"):
            unfolding._interpolant_box_integrals(self.cube([]),
                                                 np.zeros((1, 3)),
                                                 np.full((1, 3), 0.5))


def reference_interpolant_cell_integral(phi, lo_pt, hi_pt):
    """The exact integral of the bilinear interpolant over one box as the
    grid branch of check_integration_identity took it: per-axis hat
    weights, segment by segment."""
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
            mid = 0.5 * (s0 + s1)
            j = int(np.clip(np.floor((mid - phi.lo[ax]) / phi.h - 0.5), 0,
                            n - 2))
            for s in (s0, s1):
                u = (s - centers[j]) / phi.h
                w[j] += 0.5 * (s1 - s0) * (1.0 - u)
                w[j + 1] += 0.5 * (s1 - s0) * u
        wvecs.append(w)
    return float(wvecs[0] @ phi.values @ wvecs[1])


class TestGridIntegralMatchesThePerCellLoop:
    @pytest.mark.parametrize("h", [1 / 256, 1 / 100])
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 64])
    @pytest.mark.parametrize("name", ["periodic", "epithelial",
                                      "radius-gradient"])
    def test_sin_sin(self, name, eps, h):
        # h = 1/100 puts the cell edges anywhere between the centers
        part = build_partition((LO, HI), eps, 0.5, get_scenario(name).transform)
        phi = grid_function_from_callable(sin_sin, LO, HI, h)
        ref = 0.0
        for n, rows in part.hat_blocks():
            diagD = np.diag(part.D[n])
            for xi in part.hat_xi[rows]:
                p0 = part.shift[n] + part.eps * diagD * xi
                p1 = part.shift[n] + part.eps * diagD * (xi + 1)
                ref += reference_interpolant_cell_integral(
                    phi, np.minimum(p0, p1), np.maximum(p0, p1))
        rhs = check_integration_identity(phi, part, 4)[1]
        assert abs(rhs - ref) <= 1e-13 * abs(ref)


def reference_unfold(phi, partition, m_y):
    """unfold as it was: one block per subdomain, joined by np.concatenate,
    with an all-true mask."""
    d = 2
    y_nodes = unfolding._unit_cell_nodes(m_y)
    subs, xis = [np.zeros(0, dtype=int)], [np.zeros((0, d), dtype=int)]
    vals, wts = [np.zeros((0, len(y_nodes)))], [np.zeros(0)]
    for s in partition.subdomains:
        xi_hat = hat_cells(partition, s.n)
        if not len(xi_hat):
            continue
        pts = unfolding.map_cells(s.shift, partition.eps, s.D, xi_hat,
                                  y_nodes)
        v = np.asarray(phi(pts.reshape(-1, d)), dtype=float).reshape(
            len(xi_hat), len(y_nodes))
        subs.append(np.full(len(xi_hat), s.n))
        xis.append(xi_hat)
        vals.append(v)
        wts.append(np.full(len(xi_hat), partition.eps**d
                           * partition.detD[s.n] / len(y_nodes)))
    values = np.concatenate(vals)
    mask = np.ones_like(values, dtype=bool)
    weight = np.concatenate(wts)
    masked = np.where(mask, values, 0.0)
    return SimpleNamespace(
        sub_index=np.concatenate(subs), xi=np.concatenate(xis), values=values,
        weight=weight,
        weighted_sum=float(np.sum(weight[:, None] * masked)),
        weighted_l2=math.sqrt(float(np.sum(weight[:, None] * masked ** 2))),
        mean_over_Y=np.sum(masked, axis=1) / np.maximum(np.sum(mask, axis=1),
                                                        1))


def reference_unfold_boundary(psi, partition, quad):
    """unfold_boundary and its two reductions as they were: blocks joined
    by np.concatenate, a broadcast metric copied per subdomain, and a new
    array for every operation."""
    d = 2
    c = quad.cell.center
    S = quad.n_gamma
    subs, xis = [np.zeros(0, dtype=int)], [np.zeros((0, d), dtype=int)]
    vals, mets = [np.zeros((0, S))], [np.zeros((0, S))]
    dets = [np.zeros(0)]
    for s in partition.subdomains:
        xi_hat = hat_cells(partition, s.n)
        if not len(xi_hat):
            continue
        mapped_y = c + (quad.nodes - c) @ s.K.T
        pts = unfolding.map_cells(s.shift, partition.eps, s.D, xi_hat,
                                  mapped_y)
        v = np.asarray(psi(pts.reshape(-1, d)), dtype=float).reshape(
            len(xi_hat), S)
        subs.append(np.full(len(xi_hat), s.n))
        xis.append(xi_hat)
        vals.append(v)
        mets.append(np.broadcast_to(quad.metric(s.D, s.K), v.shape))
        dets.append(np.full(len(xi_hat), partition.detD[s.n]))
    values, metric = np.concatenate(vals), np.concatenate(mets)
    detD, eps, w = np.concatenate(dets), partition.eps, quad.ref_weights
    integrand = np.abs(values) ** 2.0 * metric * w[None, :]
    percell = integrand.sum(axis=1) / detD
    ds = eps ** (d - 1) * metric * w[None, :]
    return SimpleNamespace(
        sub_index=np.concatenate(subs), xi=np.concatenate(xis), values=values,
        metric=metric, detD=detD,
        weighted_power_sum=float(np.sum(eps ** d * detD * percell)),
        direct_surface_integral=float(np.sum(np.abs(values) ** 2.0 * ds)))


@functools.lru_cache(maxsize=None)
def scenario_partition(name, eps):
    return build_partition((LO, HI), eps, 0.5, get_scenario(name).transform)


class TestOneCopyMatchesTheConcatenatingReference:
    """unfold and unfold_boundary fill one preallocated array per quantity
    and reduce in place; every array and sum must keep the bits of the
    list-and-concatenate code."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    @pytest.mark.parametrize("field", ["grid", "exact"])
    def test_unfold(self, name, eps, field):
        # a grid function is read through its bilinear interpolation, a
        # plain function directly
        part = scenario_partition(name, eps)
        phi = smooth_field()
        if field == "grid":
            phi = grid_function_from_callable(phi, LO, HI, 1 / 128)
        ug = unfold(phi, part, 8)
        ref = reference_unfold(phi, part, 8)
        got = {"sub_index": part.hat_n, "xi": part.hat_xi,
               "values": ug.values, "weight": ug.weight}
        for key in ("sub_index", "xi", "values", "weight"):
            assert_same_bits(got[key], getattr(ref, key))
        assert ug.values.flags.c_contiguous
        # the integration identity weights these samples in place
        lhs = check_integration_identity(phi, part, 8)[0]
        assert lhs == ref.weighted_sum
        weighted_l2 = math.sqrt(float(np.sum(ug.weight[:, None]
                                             * ug.values ** 2)))
        assert weighted_l2 == ref.weighted_l2
        assert_same_bits(ug.mean_over_Y(), ref.mean_over_Y)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    @pytest.mark.parametrize("n_gamma", [12, 16])
    def test_unfold_boundary(self, name, eps, n_gamma):
        part = scenario_partition(name, eps)
        quad = GammaQuadrature(get_scenario(name).cell, n_gamma)

        def psi(X):
            # changes sign over the domain
            return np.sin(3 * X[:, 0]) - X[:, 1]

        bu = unfold_boundary(psi, part, quad)
        ref = reference_unfold_boundary(psi, part, quad)
        # the rows are the partition's row layout, and the metric and
        # |det D_n| are kept once per subdomain: gathered per row, they
        # are the broadcast reference
        assert bu.partition is part
        got = {"sub_index": part.hat_n, "xi": part.hat_xi,
               "values": bu.values, "metric": bu.metric[part.hat_n],
               "detD": part.detD[part.hat_n]}
        for key in ("sub_index", "xi", "values", "metric", "detD"):
            assert_same_bits(got[key], getattr(ref, key))
        assert bu.metric.shape == (part.n_subdomains, n_gamma)
        assert bu.weighted_power_sum() == ref.weighted_power_sum
        assert bu.direct_surface_integral() == ref.direct_surface_integral

    def test_empty_covering_keeps_shapes(self):
        # cells of side 2 fit in none of the four half-domain subdomains
        half = np.array([0.0, 0.5, 1.0])
        empty = _covering(LO, HI, [half, half], 2.0, IDENTITY)
        assert empty.n_subdomains == 4
        assert all(len(hat_cells(empty, s.n)) == 0 for s in empty.subdomains)
        phi = grid_function_from_callable(smooth_field(), LO, HI, 1 / 64)
        ug = unfold(phi, empty, 4)
        assert ug.values.shape == (0, 16) and empty.hat_xi.shape == (0, 2)
        assert empty.hat_n.dtype == empty.hat_xi.dtype == np.dtype(int)
        assert check_integration_identity(phi, empty, 4)[0] == 0.0
        quad = GammaQuadrature(UnitCellSpec(a=0.25), 8)
        bu = unfold_boundary(lambda X: X[:, 0], empty, quad)
        assert bu.values.shape == bu.metric[empty.hat_n].shape == (0, 8)
        assert bu.weighted_power_sum() == bu.direct_surface_integral() == 0.0


def reference_norm_unfold_minus_identity(phi, partition, m_y):
    """norm_unfold_minus_identity as it was: a Python loop over entries."""
    ug = unfold(phi, partition, m_y)
    total = 0.0
    for e in range(ug.n_entries):
        v = ug.values[e]
        diff = v[None, :] - v[:, None]      # x-sample index first
        total += ug.weight[e] / len(v) * float(np.sum(diff**2))
    return math.sqrt(total)


def reference_norm_unfold_of_lp_minus_psi(psi, partition, m_y):
    """norm_unfold_of_lp_minus_psi as it was: per subdomain, a Python loop
    over its entries."""
    ug = unfold(lambda X: lp_approx_batch(psi, partition, X), partition, m_y)
    m = len(ug.y_nodes)
    Yrep = np.tile(ug.y_nodes, (m, 1))
    total = 0.0
    for s in partition.subdomains:
        sel = np.where(partition.hat_n == s.n)[0]
        if not len(sel):
            continue
        pts = unfolding.map_cells(s.shift, partition.eps, s.D,
                                  partition.hat_xi[sel], ug.y_nodes)
        for row, e in enumerate(sel):
            # psi_tilde(x_t, y_s) on the product of the sample sets
            ps = psi(np.repeat(pts[row], m, axis=0), Yrep).reshape(m, m)
            diff = ug.values[e][None, :] - ps
            total += ug.weight[e] / m * float(np.sum(diff**2))
    return math.sqrt(total)


def reference_eval_cells(phi, partition, points_per_axis, m_y=4):
    """interpolate_Q and eval_cells as they were: node values in a table
    over the cell slots, a dict from n to the usable cells of subdomain n,
    and per-subdomain blocks joined by np.concatenate."""
    part = partition
    ug = unfold(phi, part, m_y)
    hat_slot, in_hat = reference_slot_tables(part)
    node_values = np.full(len(in_hat), np.nan)
    node_values[hat_slot] = ug.mean_over_Y()
    usable = {}
    for s in part.subdomains:
        xi_hat = hat_cells(part, s.n)
        good = np.ones(len(xi_hat), dtype=bool)
        for c in np.ndindex(2, 2):
            good &= reference_hat_slots(part, in_hat, s.n, xi_hat + c) >= 0
        usable[s.n] = xi_hat[good]
    d = 2
    y = unfolding._unit_cell_nodes(points_per_axis)
    corners = np.array(list(np.ndindex(*(2,) * d)))
    wts = np.ones((len(y), len(corners)))
    for ax in range(d):
        wts *= np.where(corners[None, :, ax] > 0.5,
                        y[:, None, ax], 1.0 - y[:, None, ax])
    z = np.zeros(0)
    q_all, r_all, p_all, w_all = [z], [z], [np.zeros((0, d))], [z]
    for s in part.subdomains:
        cells = usable.get(s.n)
        if cells is None or not len(cells):
            continue
        corner_vals = np.stack([
            node_values[part._cell_slots(s.n, cells + c)]
            for c in corners], axis=1)
        qv = corner_vals @ wts.T
        pts = unfolding.map_cells(s.shift, part.eps, s.D, cells,
                                  y).reshape(-1, d)
        fv = phi(pts).reshape(qv.shape)
        q_all.append(qv.ravel())
        r_all.append((fv - qv).ravel())
        p_all.append(pts)
        w_all.append(np.full(qv.size,
                             part.eps**d * part.detD[s.n] / len(y)))
    return (np.concatenate(q_all), np.concatenate(r_all),
            np.concatenate(p_all), np.concatenate(w_all))


def reference_remainder_R(phi, partition, grad=None):
    """remainder_R as it was, on reference_eval_cells, with two shifted
    copies of the points per axis for the central differences."""
    _, r, pts, w = reference_eval_cells(phi, partition, 4)
    r_norm = math.sqrt(float(np.sum(w * r**2)))
    if len(pts) == 0:
        return r_norm, 0.0, 0.0
    if grad is not None:
        g = np.asarray(grad(pts), dtype=float)
    else:
        delta = 1e-6
        g = np.empty_like(pts)
        for ax in range(pts.shape[1]):
            dp, dm = pts.copy(), pts.copy()
            dp[:, ax] += delta
            dm[:, ax] -= delta
            g[:, ax] = (phi(dp) - phi(dm)) / (2 * delta)
    grad_norm = math.sqrt(float(np.sum(w * np.sum(g**2, axis=1))))
    return r_norm, grad_norm, float(np.sum(w))


def smooth_gradient(X):
    return 2 * np.pi * np.stack(
        [np.cos(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1]),
         np.sin(2 * np.pi * X[:, 0]) * np.cos(2 * np.pi * X[:, 1])], axis=1)


class TestRowPassesMatchThePerEntryReference:
    """The norms, Q and R run array passes over the Xi_hat rows; they must
    agree with the per-entry and per-subdomain code they replace."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32])
    def test_norm_unfold_minus_identity(self, name, eps):
        part = scenario_partition(name, eps)
        phi = smooth_field()
        got = norm_unfold_minus_identity(phi, part, m_y=4)
        ref = reference_norm_unfold_minus_identity(phi, part, 4)
        assert ref > 0 and abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32])
    def test_norm_unfold_of_lp_minus_psi(self, name, eps):
        part = scenario_partition(name, eps)
        psi = (
            lambda X, Y: (np.sin(2 * np.pi * Y[:, 0]) * (1 + 0.5 * X[:, 1])
                          + X[:, 0] * Y[:, 1]))
        got = norm_unfold_of_lp_minus_psi(psi, part, 4)
        ref = reference_norm_unfold_of_lp_minus_psi(psi, part, 4)
        assert ref > 0 and abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
    def test_eval_cells_and_remainder(self, name, eps):
        part = scenario_partition(name, eps)
        phi = smooth_field()
        got = interpolate_Q(phi, part).eval_cells(phi, 4)
        ref = reference_eval_cells(phi, part, 4)
        assert len(ref[0]) or eps == 1 / 8
        for a, b in zip(got, ref):
            assert_same_bits(a, b)
        for grad in (None, smooth_gradient):
            assert (remainder_R(phi, part, grad=grad)
                    == reference_remainder_R(phi, part, grad))


class TestUnfoldingMemory:
    """Each check holds its samples once: the working memory of a check is
    a small multiple of the bytes of the samples it reads (plywood2d,
    eps = 1/128, the check-unfold settings)."""

    def test_smooth_check_peak(self, traced_peak):
        part = scenario_partition("plywood2d", 1 / 128)
        n_cells = sum(len(hat_cells(part, s.n)) for s in part.subdomains)
        peak = traced_peak(lambda: check_integration_identity(
            sin_sin, part, 8))
        assert peak <= 1.25 * n_cells * 64 * 8

    def test_pwc_check_peak(self, traced_peak):
        part = scenario_partition("plywood2d", 1 / 128)
        n_cells = sum(len(hat_cells(part, s.n)) for s in part.subdomains)
        peak = traced_peak(lambda: cli._pwc_identity(part))
        assert peak <= 2.5 * n_cells * 16 * 8

    def test_boundary_check_peak(self, traced_peak):
        part = scenario_partition("plywood2d", 1 / 128)
        quad = GammaQuadrature(get_scenario("plywood2d").cell, 16)
        n_cells = sum(len(hat_cells(part, s.n)) for s in part.subdomains)
        peak = traced_peak(lambda: check_boundary_identity(
            lambda X: 1.0 + X[:, 0], part, quad))
        assert peak <= 2.5 * n_cells * 16 * 8

    def test_remainder_peak(self, traced_peak):
        part = scenario_partition("plywood2d", 1 / 128)
        r = interpolate_Q(sin_sin, part).eval_cells(sin_sin, 4)[1]
        peak = traced_peak(lambda: remainder_R(sin_sin, part))
        assert peak <= 7.6 * r.nbytes
