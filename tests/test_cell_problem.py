"""Unit-cell solver: pullback, correctors, effective tensors.

Reference values are computed inline from hand-derived formulas (pullback
algebra, porosity, the classical lattice-sum value for a square array of
insulating disks) so every oracle is independent of the code under test.
"""

import math

import numpy as np
import pytest

from lphom import cell_problem
from lphom.cell_problem import (
    build_cell_geometry,
    effective_tensor,
    porosity,
    pullback_coefficient,
    solve_cell,
    tensor_field,
)
from lphom.geometry import (TransformField, UnitCellSpec, mask_connected,
                             rotation_matrix)
from lphom.macro import MacroConfig, macro_nodes
from lphom.scenarios import get_scenario

I2 = np.eye(2)
X0 = np.array([0.5, 0.5])
DISK = UnitCellSpec(d=2, inclusion="disk", a=0.25)
NONE = UnitCellSpec(d=2, inclusion="none", a=0.25)


def const_tf(D, K=None):
    D = np.asarray(D, dtype=float)
    K = I2 if K is None else np.asarray(K, dtype=float)
    return TransformField(d=2, D=lambda x: D, K=lambda x: K)


class TestPullback:
    def test_identity(self):
        B = pullback_coefficient(1.0, const_tf(I2), X0)
        assert np.array_equal(B, I2)

    def test_matrix_coefficient_identity_lattice(self):
        A = np.diag([0.825, 1.0 / 0.825])
        B = pullback_coefficient(A, const_tf(I2), X0)
        assert np.max(np.abs(B - A)) == 0.0

    def test_stretch_lattice(self):
        # D = diag(2, 1), A = I: B = |det D| D^-1 D^-T = diag(1/2, 2)
        B = pullback_coefficient(1.0, const_tf(np.diag([2.0, 1.0])), X0)
        assert np.max(np.abs(B - np.diag([0.5, 2.0]))) < 1e-14

    def test_rotation_lattice_is_invisible(self):
        D = np.linalg.inv(rotation_matrix(np.pi / 6, 2))
        B = pullback_coefficient(1.0, const_tf(D), X0)
        assert np.max(np.abs(B - I2)) < 1e-14

    def test_macro_dependent_coefficient(self):
        A = lambda x, y: (1.0 + x[0]) * np.eye(2)
        B = pullback_coefficient(A, const_tf(I2), np.array([0.5, 0.2]))
        assert callable(B)
        assert np.max(np.abs(B(np.array([0.3, 0.7])) - 1.5 * I2)) < 1e-14

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            pullback_coefficient(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                 const_tf(I2), X0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            pullback_coefficient(np.diag([1.0, -2.0]), const_tf(I2), X0)

    def test_rejects_singular_lattice(self):
        with pytest.raises(ValueError):
            pullback_coefficient(1.0, const_tf(np.zeros((2, 2))), X0)


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
        A = np.array([[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(NotImplementedError, match="diagonal"):
            build_cell_geometry(X0, A, const_tf(I2), DISK, N_c=64)

    def test_cell_varying_coefficient_rejected(self):
        A = lambda x, y: (1.0 + y[0]) * np.eye(2)
        with pytest.raises(NotImplementedError, match="macro"):
            build_cell_geometry(X0, A, const_tf(I2), DISK, N_c=64)

    def test_macro_varying_coefficient_accepted(self):
        A = lambda x, y: (1.0 + x[0]) * np.eye(2)
        g = build_cell_geometry(np.array([0.5, 0.5]), A, const_tf(I2), DISK,
                                N_c=64)
        assert abs(g.B11 - 1.5) < 1e-14 and abs(g.B22 - 1.5) < 1e-14

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
        A_eff, theta = effective_tensor(X0, 1.0, const_tf(I2), sol)
        assert np.max(np.abs(A_eff - I2)) < 1e-12
        assert np.max(np.abs(sol.correctors)) < 1e-12
        assert theta == 1.0

    def test_rotated_lattice_exact(self):
        D = np.linalg.inv(rotation_matrix(np.pi / 6, 2))
        sol = solve_cell(X0, 1.0, const_tf(D), NONE, N_c=64)
        A_eff, _ = effective_tensor(X0, 1.0, const_tf(D), sol)
        assert np.max(np.abs(A_eff - I2)) < 1e-12

    def test_stretched_lattice_exact(self):
        # forcing and pullback Jacobians cancel: A_eff equals A for any D
        D = np.diag([2.0, 1.0])
        A = np.diag([2.0, 1.0])
        sol = solve_cell(X0, A, const_tf(D), NONE, N_c=64)
        A_eff, _ = effective_tensor(X0, A, const_tf(D), sol)
        assert np.max(np.abs(A_eff - A)) < 1e-12


@pytest.fixture(scope="module")
def disk_solutions():
    """Correctors and tensors of the reference disk cell at three grids."""
    out = {}
    for N in (128, 256, 512):
        sol = solve_cell(X0, 1.0, const_tf(I2), DISK, N_c=N)
        A_eff, theta = effective_tensor(X0, 1.0, const_tf(I2), sol)
        out[N] = (sol, A_eff, theta)
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
        N = sol.N_c
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
        S = g.assemble()
        for j, b in enumerate(g.unit_forcing_vectors()):
            b = np.where(g.active, b - b[g.active].mean(), 0.0)
            r = (S @ sol.unit_correctors[j].ravel() - b)[g.active]
            true = np.linalg.norm(r) / np.linalg.norm(b)
            assert abs(sol.residuals[j] - true) <= 1e-3 * true

    def test_corrector_energy_converged(self, disk_solutions):
        e256 = disk_solutions[256][0].corrector_energy(0)
        e512 = disk_solutions[512][0].corrector_energy(0)
        assert e512 > 0.0
        assert abs(e256 - e512) / e512 < 1e-2

    def test_porosity_values(self, disk_solutions):
        assert disk_solutions[128][2] == 1.0 - math.pi / 16.0
        K = np.diag([1.2, 1.0])
        assert porosity(const_tf(I2, K), DISK, X0) == 1.0 - math.pi * 0.0625 * 1.2


class TestRotationCovariance:
    @pytest.mark.parametrize("gamma", [np.pi / 6, np.pi / 4])
    def test_elliptic_inclusion(self, gamma):
        K = np.diag([1.0, 1.4])
        sol0 = solve_cell(X0, 1.0, const_tf(I2, K), DISK, N_c=128)
        A0, _ = effective_tensor(X0, 1.0, const_tf(I2, K), sol0)
        R = rotation_matrix(gamma, 2)
        Dg = np.linalg.inv(R)
        solg = solve_cell(X0, 1.0, const_tf(Dg, K), DISK, N_c=128)
        Ag, _ = effective_tensor(X0, 1.0, const_tf(Dg, K), solg)
        predicted = Dg @ A0 @ Dg.T
        rel = np.max(np.abs(Ag - predicted)) / np.max(np.abs(A0))
        assert rel < 1e-3


class TestScenarioTensors:
    def test_epithelial_pullback(self):
        scen = get_scenario("epithelial")
        x = np.array([0.3, 0.5])
        kappa = 0.7 + 0.25 * 0.5
        B = pullback_coefficient(scen.suite.A, scen.transform, x)
        assert np.max(np.abs(B - np.diag([kappa, 1.0 / kappa]))) < 1e-14

    def test_epithelial_tensor_ordering(self):
        scen = get_scenario("epithelial")
        x = np.array([0.3, 0.5])
        sol = solve_cell(x, scen.suite.A, scen.transform, scen.cell, N_c=64)
        A_eff, theta = effective_tensor(x, scen.suite.A, scen.transform, sol)
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
        A0, _ = effective_tensor(X0, 1.0, const_tf(I2, K), sol0)
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
        A_eff, theta = effective_tensor(X0, scen.suite.A, scen.transform, sol)
        assert np.array_equal(field.tensors[0], A_eff)
        assert field.theta[0] == theta

    def test_one_solve_per_B_and_K(self, monkeypatch):
        # every plywood2d macro node has B = R^T R = I (to roundoff, with
        # off-diagonals of either sign) and the same K
        scen = get_scenario("plywood2d")
        nodes = macro_nodes(MacroConfig(scen, H=1 / 32))
        calls = []
        real = cell_problem.solve_cell

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cell_problem, "solve_cell", counting)
        field = tensor_field(nodes, scen.suite.A, scen.transform, scen.cell,
                             N_c=32)
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
            direct, _ = effective_tensor(x, scen.suite.A, scen.transform, sol)
            rel = np.max(np.abs(field.tensors[k] - direct)) \
                / np.max(np.abs(direct))
            assert rel <= 1e-12

    @pytest.mark.parametrize("gamma", [np.pi / 6, np.pi / 4, 2.0])
    def test_rotated_lattice_reuses_the_unrotated_solve(self, gamma):
        K = np.diag([1.0, 1.4])
        Dg = np.linalg.inv(rotation_matrix(gamma, 2))
        sol0 = solve_cell(X0, 1.0, const_tf(I2, K), DISK, N_c=64)
        reused, _ = effective_tensor(X0, 1.0, const_tf(Dg, K), sol0)
        solg = solve_cell(X0, 1.0, const_tf(Dg, K), DISK, N_c=64)
        direct, _ = effective_tensor(X0, 1.0, const_tf(Dg, K), solg)
        rel = np.max(np.abs(reused - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-12
        assert reused[0, 1] == reused[1, 0]

    def test_tolerance_is_a_hard_check(self):
        with pytest.raises(RuntimeError, match="residual"):
            solve_cell(X0, 1.0, const_tf(I2), DISK, N_c=32, tol=1e-30)
        field = tensor_field(np.array([X0]), 1.0, const_tf(I2), DISK,
                             N_c=32, tol=1e-30)
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

        tf = TransformField(d=2, D=lambda x: I2, K=K)
        pts = np.array([[0.0, 0.5], [0.9, 0.5]])
        field = tensor_field(pts, 1.0, tf, DISK, N_c=64)
        assert field.errors[0] is None
        assert field.errors[1] is not None
        assert np.all(np.isnan(field.tensors[1]))
        assert not field.ok()
        assert np.isfinite(field.tensors[0]).all()
