"""Unit-cell solver: pullback, correctors, effective tensors.

Reference values are computed inline from hand-derived formulas (pullback
algebra, porosity, the classical lattice-sum value for a square array of
insulating disks) so every oracle is independent of the code under test.
"""

import math

import numpy as np
import pytest
import scipy.sparse

from lphom import cell_problem
from lphom.cell_problem import (
    build_cell_geometry,
    effective_tensor,
    pullback_coefficient,
    solve_cell,
    tensor_field,
)
from lphom.geometry import (TransformField, UnitCellSpec, mask_connected,
                             rotation_matrix)
from lphom.macro import MacroConfig, macro_nodes
from lphom.scenarios import SCENARIO_NAMES, get_scenario

I2 = np.eye(2)
X0 = np.array([0.5, 0.5])
DISK = UnitCellSpec(a=0.25)
NONE = UnitCellSpec(a=0.0)


def const_tf(D, K=None):
    D = np.asarray(D, dtype=float)
    K = I2 if K is None else np.asarray(K, dtype=float)
    return TransformField(D=lambda x: D, K=lambda x: K)


class TestPullback:
    def test_identity(self):
        B = pullback_coefficient(1.0, I2)
        assert np.array_equal(B, I2)

    def test_stretch_lattice(self):
        # D = diag(2, 1), A = I: B = |det D| D^-1 D^-T = diag(1/2, 2)
        B = pullback_coefficient(1.0, np.diag([2.0, 1.0]))
        assert np.max(np.abs(B - np.diag([0.5, 2.0]))) < 1e-14

    def test_rotation_lattice_is_invisible(self):
        D = np.linalg.inv(rotation_matrix(np.pi / 6))
        B = pullback_coefficient(1.0, D)
        assert np.max(np.abs(B - I2)) < 1e-14

    def test_scales_with_the_diffusivity(self):
        D = np.diag([2.0, 1.0])
        B = pullback_coefficient(0.825, D)
        assert np.max(np.abs(B - 0.825 * np.diag([0.5, 2.0]))) < 1e-14

    @pytest.mark.parametrize("A", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_diffusivity_that_is_not_finite_and_positive(self, A):
        with pytest.raises(ValueError, match="finite and positive"):
            pullback_coefficient(A, I2)

    @pytest.mark.parametrize("A", [
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.diag([1.0, -2.0]),
        np.diag([0.825, 1.0 / 0.825]),
        lambda x, y: (1.0 + x[0]) * np.eye(2),
    ], ids=["nonsymmetric", "indefinite", "diagonal", "macro-dependent"])
    def test_rejects_a_diffusivity_that_is_not_a_scalar(self, A):
        # matrix and callable coefficients are not supported, even those
        # that would be valid tensors
        with pytest.raises(TypeError):
            pullback_coefficient(A, I2)

    def test_rejects_singular_lattice(self):
        with pytest.raises(ValueError):
            pullback_coefficient(1.0, np.zeros((2, 2)))


class TestGeometryBuild:
    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            build_cell_geometry(X0, 1.0, const_tf(I2), DISK, N_c=16)

    def test_fluid_area_matches_analytic(self):
        # cut-cell moments are exact, so the quadrature area is the true
        # fluid measure up to roundoff
        g = build_cell_geometry(X0, 1.0, const_tf(I2), DISK, N_c=64)
        assert abs(g.fluid_area - (1.0 - math.pi / 16.0)) < 1e-10

    def test_fluid_area_elliptic(self):
        K = np.diag([1.2, 0.9])
        g = build_cell_geometry(X0, 1.0, const_tf(I2, K), DISK, N_c=64)
        assert abs(g.fluid_area - (1.0 - math.pi * 0.25**2 * 1.08)) < 1e-10

    def test_inclusion_must_stay_inside(self):
        with pytest.raises(ValueError, match="boundary"):
            build_cell_geometry(X0, 1.0, const_tf(I2, 2.1 * I2), DISK, N_c=64)

    def test_cross_terms_rejected(self):
        # a sheared lattice: B = D^-1 D^-T has the cross term -1/2
        D = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotImplementedError, match="diagonal"):
            build_cell_geometry(X0, 1.0, const_tf(D), DISK, N_c=64)

    def test_cell_varying_coefficient_rejected(self):
        A = lambda x, y: (1.0 + y[0]) * np.eye(2)
        with pytest.raises(TypeError):
            build_cell_geometry(X0, A, const_tf(I2), DISK, N_c=64)

    def test_connectivity_detector(self):
        full = np.ones((8, 8), dtype=bool)
        assert mask_connected(full, periodic=True)
        banded = full.copy()
        banded[3, :] = False          # periodic band still splits the torus?
        # no: one band leaves a connected strip
        assert mask_connected(banded, periodic=True)
        banded[5, :] = False          # two bands separate an annulus
        assert not mask_connected(banded, periodic=True)
        assert not mask_connected(np.zeros((4, 4), dtype=bool),
                                  periodic=True)


class TestNoInclusion:
    def test_identity_lattice_exact(self):
        sol = solve_cell(X0, 1.0, const_tf(I2), NONE, N_c=64)
        A_eff = effective_tensor(I2, sol.unit_tensor)
        assert np.max(np.abs(A_eff - I2)) < 1e-12
        assert np.max(np.abs(sol.correctors)) < 1e-12
        assert 1.0 - NONE.inclusion_measure(I2) == 1.0

    def test_rotated_lattice_exact(self):
        D = np.linalg.inv(rotation_matrix(np.pi / 6))
        sol = solve_cell(X0, 1.0, const_tf(D), NONE, N_c=64)
        A_eff = effective_tensor(D, sol.unit_tensor)
        assert np.max(np.abs(A_eff - I2)) < 1e-12

    def test_stretched_lattice_exact(self):
        # forcing and pullback Jacobians cancel: A_eff equals A I for any D
        D = np.diag([2.0, 1.0])
        sol = solve_cell(X0, 1.0, const_tf(D), NONE, N_c=64)
        A_eff = effective_tensor(D, sol.unit_tensor)
        assert np.max(np.abs(A_eff - I2)) < 1e-12


@pytest.fixture(scope="module")
def disk_solutions():
    """Correctors and tensors of the reference disk cell at three grids."""
    out = {}
    for N in (128, 256, 512):
        sol = solve_cell(X0, 1.0, const_tf(I2), DISK, N_c=N)
        A_eff = effective_tensor(I2, sol.unit_tensor)
        out[N] = (sol, A_eff, 1.0 - DISK.inclusion_measure(I2))
    return out


class TestDiskCell:
    def test_exact_symmetry(self, disk_solutions):
        for _, A_eff, _ in disk_solutions.values():
            assert A_eff[0, 1] == A_eff[1, 0]

    def test_off_diagonal_vanishes(self, disk_solutions):
        _, A_eff, _ = disk_solutions[128]
        assert abs(A_eff[0, 1]) < 1e-12

    def test_isotropy(self, disk_solutions):
        _, A_eff, _ = disk_solutions[128]
        assert abs(A_eff[0, 0] - A_eff[1, 1]) < 1e-8

    def test_lattice_sum_value(self, disk_solutions):
        # classical lattice-sum approximation for a square array of
        # insulating disks, phi = pi a^2
        phi = math.pi / 16.0
        reference = 1.0 - 2.0 * phi / (1.0 + phi - 0.3058 * phi**4)
        _, A_eff, _ = disk_solutions[256]
        assert abs(A_eff[0, 0] - reference) < 2e-4

    def test_monotone_from_above(self, disk_solutions):
        # conforming nested spaces: the discrete tensor decreases with N
        a128 = disk_solutions[128][1][0, 0]
        a256 = disk_solutions[256][1][0, 0]
        a512 = disk_solutions[512][1][0, 0]
        assert a128 > a256 > a512

    def test_mesh_cauchy_gaps(self, disk_solutions):
        tensors = [disk_solutions[N][1] for N in (128, 256, 512)]
        g12 = np.linalg.norm(tensors[0] - tensors[1])
        g23 = np.linalg.norm(tensors[1] - tensors[2])
        assert g23 > 0.0
        assert g12 >= 2.0 * g23

    def test_voigt_bound_and_definiteness(self, disk_solutions):
        theta = 1.0 - math.pi / 16.0
        for _, A_eff, _ in disk_solutions.values():
            eig = np.linalg.eigvalsh(A_eff)
            assert eig[-1] <= theta + 1e-3
            assert eig[0] > 0.1

    def test_corrector_antisymmetry(self, disk_solutions):
        # reflecting the cell about the mid-plane flips the first corrector
        sol = disk_solutions[128][0]
        w1 = sol.correctors[0]
        N = sol.geometry.N_c
        idx = (N - np.arange(N)) % N
        assert np.max(np.abs(w1[idx, :] + w1)) < 1e-9

    def test_zero_mean_normalization(self, disk_solutions):
        sol = disk_solutions[128][0]
        active = sol.geometry.active
        for j in range(2):
            assert abs(sol.correctors[j].ravel()[active].mean()) < 1e-12

    def test_solver_diagnostics(self, disk_solutions):
        for N, (sol, _, _) in disk_solutions.items():
            assert sol.residual <= 1e-10
            assert int(sol.iterations.max()) < 50 * N

    def test_reported_residual_is_the_true_one(self, disk_solutions):
        sol = disk_solutions[128][0]
        g = sol.geometry
        S = g.S
        for j, b in enumerate(g.unit_forcings):
            b = np.where(g.active, b - b[g.active].mean(), 0.0)
            r = (S @ sol.unit_correctors[j].ravel() - b)[g.active]
            true = np.linalg.norm(r) / np.linalg.norm(b)
            assert abs(sol.residuals[j] - true) <= 1e-3 * true

    def test_corrector_energy_converged(self, disk_solutions):
        # A = 1 on the disk cell: the stiffness matrix is the unit-coefficient
        # Dirichlet form
        def energy(sol):
            w = sol.correctors[0].ravel()
            return float(w @ (sol.geometry.S @ w))

        e256 = energy(disk_solutions[256][0])
        e512 = energy(disk_solutions[512][0])
        assert e512 > 0.0
        assert abs(e256 - e512) / e512 < 1e-2

    def test_porosity_values(self, disk_solutions):
        assert disk_solutions[128][2] == 1.0 - math.pi / 16.0
        K = np.diag([1.2, 1.0])
        field = tensor_field(np.array([X0]), 1.0, const_tf(I2, K), DISK,
                             N_c=32)
        assert field.theta[0] == 1.0 - math.pi * 0.0625 * 1.2


class TestRotationCovariance:
    @pytest.mark.parametrize("gamma", [np.pi / 6, np.pi / 4])
    def test_elliptic_inclusion(self, gamma):
        K = np.diag([1.0, 1.4])
        sol0 = solve_cell(X0, 1.0, const_tf(I2, K), DISK, N_c=128)
        A0 = effective_tensor(I2, sol0.unit_tensor)
        R = rotation_matrix(gamma)
        Dg = np.linalg.inv(R)
        solg = solve_cell(X0, 1.0, const_tf(Dg, K), DISK, N_c=128)
        Ag = effective_tensor(Dg, solg.unit_tensor)
        predicted = Dg @ A0 @ Dg.T
        rel = np.max(np.abs(Ag - predicted)) / np.max(np.abs(A0))
        assert rel < 1e-3


class TestScenarioTensors:
    def test_epithelial_pullback(self):
        scen = get_scenario("epithelial")
        x = np.array([0.3, 0.5])
        kappa = 0.7 + 0.25 * 0.5
        B = pullback_coefficient(scen.suite.A, scen.transform.D_at(x))
        assert np.max(np.abs(B - np.diag([kappa, 1.0 / kappa]))) < 1e-14

    def test_epithelial_tensor_ordering(self):
        scen = get_scenario("epithelial")
        x = np.array([0.3, 0.5])
        sol = solve_cell(x, scen.suite.A, scen.transform, scen.cell, N_c=64)
        A_eff = effective_tensor(scen.transform.D_at(x), sol.unit_tensor)
        theta = 1.0 - scen.cell.inclusion_measure(scen.transform.K_at(x))
        # compression packs the holes closer along x2 and blocks that
        # direction harder
        assert A_eff[1, 1] < A_eff[0, 0]
        eig = np.linalg.eigvalsh(A_eff)
        assert 0.0 < eig[0] and eig[-1] < 1.0
        assert 0.0 < theta < 1.0

    def test_radius_gradient_monotone(self):
        scen = get_scenario("radius-gradient")
        xs = np.array([[0.1, 0.5], [0.3, 0.5], [0.5, 0.5],
                       [0.7, 0.5], [0.9, 0.5]])
        field = tensor_field(xs, scen.suite.A, scen.transform, scen.cell,
                             N_c=64)
        assert field.ok()
        a11 = field.tensors[:, 0, 0]
        assert np.all(np.diff(field.theta) < 0.0)
        assert np.all(np.diff(a11) < 0.0)

    def test_plywood_tensor_matches_unrotated(self):
        scen = get_scenario("plywood2d")
        x = np.array([0.5, 0.25])     # gamma = pi/8 there
        field = tensor_field(np.array([x]), scen.suite.A, scen.transform,
                             scen.cell, N_c=64)
        K = scen.transform.K_at(x)
        sol0 = solve_cell(X0, 1.0, const_tf(I2, K), scen.cell, N_c=64)
        A0 = effective_tensor(I2, sol0.unit_tensor)
        D = scen.transform.D_at(x)
        predicted = D @ A0 @ D.T
        assert np.max(np.abs(field.tensors[0] - predicted)) < 1e-3


class TestTensorField:
    def test_dedup_determinism(self):
        scen = get_scenario("periodic")
        pts = np.column_stack([np.linspace(0.1, 0.9, 7), np.full(7, 0.5)])
        field = tensor_field(pts, scen.suite.A, scen.transform, scen.cell,
                             N_c=64)
        assert field.ok()
        for k in range(1, 7):
            assert np.array_equal(field.tensors[0], field.tensors[k])

    def test_singleton_matches_direct_solve(self):
        scen = get_scenario("periodic")
        field = tensor_field(np.array([X0]), scen.suite.A, scen.transform,
                             scen.cell, N_c=64)
        sol = solve_cell(X0, scen.suite.A, scen.transform, scen.cell, N_c=64)
        A_eff = effective_tensor(scen.transform.D_at(X0), sol.unit_tensor)
        theta = 1.0 - scen.cell.inclusion_measure(scen.transform.K_at(X0))
        assert np.array_equal(field.tensors[0], A_eff)
        assert field.theta[0] == theta

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e5])
    def test_one_solve_per_B_and_K(self, scale, monkeypatch):
        # every plywood2d macro node has B = A R^T R = A I (to roundoff,
        # with off-diagonals of either sign) and the same K, whatever the
        # magnitude of A
        scen = get_scenario("plywood2d")
        nodes = macro_nodes(MacroConfig(scen, H=1 / 32))
        calls = []
        real = cell_problem.solve_cell

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cell_problem, "solve_cell", counting)
        field = tensor_field(nodes, scale * scen.suite.A, scen.transform,
                             scen.cell, N_c=32)
        assert field.ok()
        assert len(np.unique(nodes[:, 1])) == 32
        assert len(calls) == 1

    def test_plywood_reuse_matches_per_point_solves(self):
        scen = get_scenario("plywood2d")
        pts = np.array([[0.5, 0.03125], [0.2, 0.25], [0.7, 0.6],
                        [0.9, 0.96875]])
        field = tensor_field(pts, scen.suite.A, scen.transform, scen.cell,
                             N_c=64)
        for k, x in enumerate(pts):
            sol = solve_cell(x, scen.suite.A, scen.transform, scen.cell,
                             N_c=64)
            direct = effective_tensor(scen.transform.D_at(x),
                                      sol.unit_tensor)
            rel = np.max(np.abs(field.tensors[k] - direct)) \
                / np.max(np.abs(direct))
            assert rel <= 1e-12

    @pytest.mark.parametrize("gamma", [np.pi / 6, np.pi / 4, 2.0])
    def test_rotated_lattice_reuses_the_unrotated_solve(self, gamma):
        K = np.diag([1.0, 1.4])
        Dg = np.linalg.inv(rotation_matrix(gamma))
        sol0 = solve_cell(X0, 1.0, const_tf(I2, K), DISK, N_c=64)
        reused = effective_tensor(Dg, sol0.unit_tensor)
        solg = solve_cell(X0, 1.0, const_tf(Dg, K), DISK, N_c=64)
        direct = effective_tensor(Dg, solg.unit_tensor)
        rel = np.max(np.abs(reused - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-12
        assert reused[0, 1] == reused[1, 0]

    def test_small_diffusivity_keeps_distinct_points_apart(self):
        # at A = 1e-13 every entry of B rounds to 0 at 12 decimal places;
        # the key rounds relative to B's largest entry, so two epithelial
        # points with different B each get their own solve
        scen = get_scenario("epithelial")
        A = 1e-13
        pts = np.array([[0.5, 0.1], [0.5, 0.9]])
        field = tensor_field(pts, A, scen.transform, scen.cell, N_c=32)
        assert field.ok()
        for k, x in enumerate(pts):
            sol = solve_cell(x, A, scen.transform, scen.cell, N_c=32)
            direct = effective_tensor(scen.transform.D_at(x),
                                      sol.unit_tensor)
            assert np.array_equal(field.tensors[k], direct)
        assert field.tensors[0, 1, 1] != field.tensors[1, 1, 1]

    def test_coarse_grid_rejected_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(cell_problem, "solve_cell", no_solve)
        with pytest.raises(ValueError, match="N_c >= 32"):
            tensor_field(np.array([X0]), 1.0, const_tf(I2), DISK, N_c=16)

    def test_each_point_reads_its_maps_once(self, monkeypatch):
        # the solve gets the uncounted maps, so every counted call is one
        # the per-point loop makes
        scen = get_scenario("plywood2d")
        calls = {"D": 0, "K": 0, "solve": 0}

        class Counting(TransformField):
            def D_at(self, x):
                calls["D"] += 1
                return super().D_at(x)

            def K_at(self, x):
                calls["K"] += 1
                return super().K_at(x)

        real = cell_problem.solve_cell

        def solve(x, A, transform, *args, **kwargs):
            calls["solve"] += 1
            return real(x, A, scen.transform, *args, **kwargs)

        monkeypatch.setattr(cell_problem, "solve_cell", solve)
        pts = np.column_stack([np.full(6, 0.5), np.linspace(0.1, 0.9, 6)])
        field = tensor_field(pts, scen.suite.A,
                             Counting(D=scen.transform.D, K=scen.transform.K),
                             scen.cell, N_c=32)
        assert field.ok()
        assert calls == {"D": 6, "K": 6, "solve": 1}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_solve_meets_the_one_tolerance(self, name):
        # the field keeps the residual of each point's solve, and every
        # solve has met _TOL
        sc = get_scenario(name)
        pts = np.array([[0.25, 0.25], [0.75, 0.5]])
        field = tensor_field(pts, sc.suite.A, sc.transform, sc.cell, N_c=32)
        assert field.ok()
        assert np.all(field.residual <= cell_problem._TOL)
        for x, res in zip(pts, field.residual):
            sol = solve_cell(x, sc.suite.A, sc.transform, sc.cell, N_c=32)
            assert sol.residual == res

    def test_tolerance_is_a_hard_check(self, monkeypatch):
        monkeypatch.setattr(cell_problem, "_TOL", 1e-30)
        with pytest.raises(RuntimeError, match="residual"):
            solve_cell(X0, 1.0, const_tf(I2), DISK, N_c=32)
        field = tensor_field(np.array([X0]), 1.0, const_tf(I2), DISK,
                             N_c=32)
        assert not field.ok() and "residual" in field.errors[0]

    def test_singular_factor_becomes_an_error_record(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(cell_problem.spla, "splu", singular)
        pts = np.array([[0.25, 0.5], [0.75, 0.5]])
        field = tensor_field(pts, 1.0, const_tf(I2), DISK, N_c=32)
        assert field.errors == ["Factor is exactly singular"] * 2
        assert np.all(np.isnan(field.tensors)) and not field.ok()

    def test_error_capture_keeps_going(self):
        # K grows with x1 until the inclusion hits the cell wall
        def K(x):
            return (1.0 + 2.0 * x[0]) * np.eye(2)

        tf = TransformField(D=lambda x: I2, K=K)
        pts = np.array([[0.0, 0.5], [0.9, 0.5]])
        field = tensor_field(pts, 1.0, tf, DISK, N_c=64)
        assert field.errors[0] is None
        assert field.errors[1] is not None
        assert np.all(np.isnan(field.tensors[1]))
        assert not field.ok()
        assert np.isfinite(field.tensors[0]).all()

    @pytest.mark.parametrize("A", [math.nan, 0.0, -1.0])
    def test_a_bad_diffusivity_is_an_error_at_every_point(self, A):
        pts = np.array([[0.25, 0.5], [0.75, 0.5]])
        field = tensor_field(pts, A, const_tf(I2), DISK, N_c=32)
        assert not field.ok()
        assert all("finite and positive" in e for e in field.errors)
        assert np.all(np.isnan(field.tensors))

    @pytest.mark.parametrize("which", ["D", "K"])
    def test_a_map_that_is_not_2x2_becomes_an_error_record(self, which):
        # 3x3 at the second point only, like the singular D of
        # test_rejects_singular_lattice, it is one point's error
        maps = {"D": lambda x: I2, "K": lambda x: I2,
                which: lambda x: np.eye(3) if x[0] > 0.5 else I2}
        pts = np.array([[0.25, 0.5], [0.75, 0.5]])
        field = tensor_field(pts, 1.0, TransformField(**maps), DISK, N_c=32)
        assert field.errors == [None,
                                f"{which}(x) must be 2x2, got shape (3, 3)"]
        assert np.all(np.isnan(field.tensors[1])) and not field.ok()
        assert np.isfinite(field.tensors[0]).all()


class TestTensorFieldMemory:
    """The tensor field keeps one 2x2 tensor per (B, K), not the cell
    solutions: its working memory is about one solve's."""

    def test_peak_is_one_solve(self, traced_peak, monkeypatch):
        scen = get_scenario("epithelial")
        nodes = macro_nodes(MacroConfig(scen, H=1 / 32))
        solves = []
        real = cell_problem.solve_cell

        def counting(*args, **kwargs):
            solves.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cell_problem, "solve_cell", counting)
        one = traced_peak(lambda: real(nodes[0], scen.suite.A,
                                       scen.transform, scen.cell, N_c=64))
        peak = traced_peak(lambda: tensor_field(
            nodes, scen.suite.A, scen.transform, scen.cell, N_c=64))
        # traced_peak calls the field twice: 32 distinct (B, K) each time
        assert len(solves) == 2 * 32
        assert peak <= 1.5 * one


# ---------------------------------------------------------------------------
# Scalar reference: the per-cell moments, candidate sweep and assembly that
# the array passes of cell_problem replace, kept verbatim in arithmetic.

def _ref_moments(i, j, h, Kinv, center, a):
    p0 = np.array([i * h, j * h], dtype=float)
    ex = Kinv @ np.array([h, 0.0])
    ev = Kinv @ np.array([0.0, h])
    q00 = Kinv @ (p0 - center)
    vv = float(ev @ ev)
    breaks = {0.0, 1.0}

    def add_roots(ca, cb, cc):
        if abs(ca) < 1e-300:
            if abs(cb) > 1e-300:
                t = -cc / cb
                if 0.0 < t < 1.0:
                    breaks.add(float(t))
            return
        disc = cb * cb - 4.0 * ca * cc
        if disc <= 0.0:
            return
        sq = math.sqrt(disc)
        for t in ((-cb - sq) / (2 * ca), (-cb + sq) / (2 * ca)):
            if 0.0 < t < 1.0:
                breaks.add(float(t))

    add_roots((ex @ ev) ** 2 - vv * (ex @ ex),
              2.0 * (q00 @ ev) * (ex @ ev) - vv * 2.0 * (q00 @ ex),
              (q00 @ ev) ** 2 - vv * (q00 @ q00 - a * a))
    for s in (0.0, 1.0):
        base = q00 + s * ev
        add_roots(ex @ ex, 2.0 * base @ ex, base @ base - a * a)

    xs = np.sort(np.fromiter(breaks, dtype=float))
    a0 = ax = ax2 = ay = ay2 = 0.0
    for lo_b, hi_b in zip(xs[:-1], xs[1:]):
        width = hi_b - lo_b
        if width <= 1e-15:
            continue
        xi = lo_b + width * cell_problem._GL_X
        w = width * cell_problem._GL_W
        q0 = q00[None, :] + xi[:, None] * ex[None, :]
        qb = q0 @ ev
        qc = np.sum(q0 * q0, axis=1) - a * a
        disc = qb * qb - vv * qc
        inside = disc > 0.0
        lo_i = np.zeros_like(xi)
        hi_i = np.zeros_like(xi)
        if np.any(inside):
            sq = np.sqrt(disc[inside])
            lo_i[inside] = (-qb[inside] - sq) / vv
            hi_i[inside] = (-qb[inside] + sq) / vv
        lo_i = np.clip(lo_i, 0.0, 1.0)
        hi_i = np.maximum(np.clip(hi_i, 0.0, 1.0), lo_i)
        length = 1.0 - (hi_i - lo_i)
        m1 = 0.5 - 0.5 * (hi_i**2 - lo_i**2)
        m2 = 1.0 / 3.0 - (hi_i**3 - lo_i**3) / 3.0
        a0 += float(w @ length)
        ax += float(w @ (xi * length))
        ax2 += float(w @ (xi**2 * length))
        ay += float(w @ m1)
        ay2 += float(w @ m2)
    return a0, ax, ax2, ay, ay2


def _ref_candidates(N, K, cell):
    """Sorted candidate cells and the kind array before the moment sweep."""
    h = 1.0 / N
    Kinv = np.linalg.inv(K)
    center = np.asarray(cell.center, dtype=float)
    g = np.arange(N + 1) * h
    GX, GY = np.meshgrid(g, g, indexing="ij")
    z = np.stack([GX - center[0], GY - center[1]], axis=-1) @ Kinv.T
    node_in = np.hypot(z[..., 0], z[..., 1]) <= cell.a
    corners_in = (node_in[:-1, :-1].astype(int) + node_in[1:, :-1]
                  + node_in[:-1, 1:] + node_in[1:, 1:])
    candidates = set(map(tuple, np.argwhere((corners_in > 0)
                                            & (corners_in < 4))))
    reach = cell.a * np.linalg.norm(K, axis=1)
    for sgn in (-1.0, 1.0):
        for ax in range(2):
            p = center.copy()
            p[ax] += sgn * reach[ax]
            ci = int(np.clip(np.floor(p[0] / h), 0, N - 1))
            cj = int(np.clip(np.floor(p[1] / h), 0, N - 1))
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if 0 <= ci + di < N and 0 <= cj + dj < N:
                        candidates.add((ci + di, cj + dj))
    return sorted(candidates), np.where(corners_in == 4, 0, 1).astype(np.int8)


def _ref_cuts(N, K, cell):
    h = 1.0 / N
    Kinv = np.linalg.inv(K)
    center = np.asarray(cell.center, dtype=float)
    candidates, kind = _ref_candidates(N, K, cell)
    cut_list, m_list = [], []
    for (ci, cj) in candidates:
        m = _ref_moments(ci, cj, h, Kinv, center, cell.a)
        if m[0] <= 1e-12:
            kind[ci, cj] = 0
        elif m[0] >= 1.0 - 1e-12:
            kind[ci, cj] = 1
        else:
            kind[ci, cj] = 2
            cut_list.append((ci, cj))
            m_list.append(m)
    return (kind, np.array(cut_list, dtype=int).reshape(-1, 2),
            np.array(m_list).reshape(-1, 5))


def _ref_local(a0, ax, ax2, ay, ay2):
    sx, tx = np.array([-1.0, 1.0, -1.0, 1.0]), np.array([0, 0, 1, 1])
    sy, ty = np.array([-1.0, -1.0, 1.0, 1.0]), np.array([0, 1, 0, 1])
    P = np.array([[a0 - 2 * ay + ay2, ay - ay2], [ay - ay2, ay2]])
    Q = np.array([[a0 - 2 * ax + ax2, ax - ax2], [ax - ax2, ax2]])
    Lx = sx[:, None] * sx[None, :] * P[tx[:, None], tx[None, :]]
    Ly = sy[:, None] * sy[None, :] * Q[ty[:, None], ty[None, :]]
    gx = sx * np.array([a0 - ay, ay])[tx]
    gy = sy * np.array([a0 - ax, ax])[ty]
    return Lx, Ly, gx, gy


def _ref_assemble(kind, cut_idx, cut_moments, b11, b22):
    N = len(kind)
    h = 1.0 / N

    def node_ids(ii, jj):
        return np.stack([(ii % N) * N + jj % N, ((ii + 1) % N) * N + jj % N,
                         (ii % N) * N + (jj + 1) % N,
                         ((ii + 1) % N) * N + (jj + 1) % N], axis=1)

    full = _ref_local(1.0, 0.5, 1.0 / 3.0, 0.5, 1.0 / 3.0)
    rows, cols, data = [], [], []
    bx, by = np.zeros(N * N), np.zeros(N * N)
    full_ij = np.argwhere(kind == 1)
    if len(full_ij):
        nodes = node_ids(full_ij[:, 0], full_ij[:, 1])
        loc = b11 * full[0] + b22 * full[1]
        rows.append(np.repeat(nodes, 4, axis=1).ravel())
        cols.append(np.tile(nodes, (1, 4)).ravel())
        data.append(np.tile(loc.ravel(), len(nodes)))
        np.add.at(bx, nodes, -h * b11 * full[2][None, :])
        np.add.at(by, nodes, -h * b22 * full[3][None, :])
    if len(cut_idx):
        nodes = node_ids(cut_idx[:, 0], cut_idx[:, 1])
        for k in range(len(cut_idx)):
            Lx, Ly, gx, gy = _ref_local(*cut_moments[k])
            rows.append(np.repeat(nodes[k], 4))
            cols.append(np.tile(nodes[k], 4))
            data.append((b11 * Lx + b22 * Ly).ravel())
            np.add.at(bx, nodes[k], -h * b11 * gx)
            np.add.at(by, nodes[k], -h * b22 * gy)
    S = scipy.sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N * N, N * N))
    return S, bx, by


SCENARIOS = ["periodic", "epithelial", "plywood2d", "radius-gradient"]
POINTS = [(0.5, 0.5), (0.7, 0.3), (0.1, 0.9)]


class TestArrayPassesMatchTheScalarReference:
    """The array passes reproduce the per-cell routines bit for bit."""

    @pytest.mark.parametrize("N", [32, 64, 128])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_moments(self, name, N):
        # the candidate cells, plus a sweep of full and solid cells
        scen = get_scenario(name)
        center = np.asarray(scen.cell.center, dtype=float)
        h = 1.0 / N
        for x in POINTS:
            K = scen.transform.K_at(np.array(x))
            Kinv = np.linalg.inv(K)
            candidates, _ = _ref_candidates(N, K, scen.cell)
            cells = np.concatenate([np.array(candidates, dtype=int),
                                    np.argwhere(np.ones((N, N)))[::61]])
            got = cell_problem._cut_cell_moments(cells, h, Kinv, center,
                                                 scen.cell.a)
            ref = np.array([_ref_moments(i, j, h, Kinv, center, scen.cell.a)
                            for i, j in cells])
            assert got.shape == (len(cells), 5)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("N", [32, 64, 128])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_cut_cells_and_stiffness(self, name, N):
        scen = get_scenario(name)
        for x in POINTS:
            K = scen.transform.K_at(np.array(x))
            got = cell_problem._cell_cuts(N, K, scen.cell)
            ref = _ref_cuts(N, K, scen.cell)
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and np.array_equal(g, r)
            geom = build_cell_geometry(np.array(x), scen.suite.A,
                                       scen.transform, scen.cell, N_c=N)
            S, bx, by = _ref_assemble(*ref, geom.B11, geom.B22)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(geom.S, attr),
                                      getattr(S, attr))
            assert np.array_equal(geom.unit_forcings, np.stack([bx, by]))

    def test_no_inclusion(self):
        geom = build_cell_geometry(X0, 1.0, const_tf(I2), NONE, N_c=32)
        kind = np.ones((32, 32), dtype=np.int8)
        S, bx, by = _ref_assemble(kind, np.zeros((0, 2), dtype=int),
                                  np.zeros((0, 5)), 1.0, 1.0)
        assert (geom.S != S).nnz == 0
        assert np.array_equal(geom.unit_forcings, np.stack([bx, by]))
        assert geom.fluid_area == 1.0 and geom.active.all()
