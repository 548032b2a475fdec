"""Release acceptance tests: the quantitative contracts the toolkit holds.

One test per contract, with the tolerance pinned next to the assertion:
exactness and order of the unfolding identities, structure of the
effective tensors against independent oracles (Richardson refinement,
rotation covariance, the unperforated closed form), the solver
invariants (positivity, exponential barrier, a reference ODE regime),
and the default-parameter epsilon-sweep studies, which must show the
micro-to-macro distance E halving or better over one sweep.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lphom.cell_problem import effective_tensor, solve_cell, tensor_field
from lphom.geometry import (
    TransformField,
    UnitCellSpec,
    build_partition,
    rotation_matrix,
)
from lphom.harness import StudyConfig, convergence_study
from lphom.imex import N_SAMPLES
from lphom.macro import MacroConfig, assemble_macro, macro_nodes, run_macro
from lphom.micro import MicroConfig, run_micro
from lphom.scenarios import get_scenario
from lphom.unfolding import (
    GammaQuadrature,
    check_boundary_identity,
    check_integration_identity,
    lattice_pwc_field,
    norm_unfold_minus_identity,
    norm_unfold_of_lp_minus_psi,
    remainder_R,
)

LO = np.zeros(2)
HI = np.ones(2)
I2 = np.eye(2)


def const_tf(D, K=None):
    D = np.asarray(D, dtype=float)
    K = I2 if K is None else np.asarray(K, dtype=float)
    return TransformField(D=lambda x: D, K=lambda x: K)


@pytest.fixture(scope="module")
def periodic_study():
    return convergence_study(StudyConfig(scenario=get_scenario("periodic")))


@pytest.fixture(scope="module")
def epithelial_study():
    return convergence_study(StudyConfig(scenario=get_scenario("epithelial")))


@pytest.fixture(scope="module")
def disk_refinements():
    """Reference disk tensors at two nested cell grids."""
    tf = const_tf(I2)
    disk = UnitCellSpec(a=0.25)
    x0 = np.array([0.5, 0.5])
    out = {}
    for N in (256, 512):
        sol = solve_cell(x0, 1.0, tf, disk, N_c=N)
        out[N] = effective_tensor(I2, sol.unit_tensor)
    return out


class TestUnfoldingIdentities:
    def test_integration_identity_piecewise_constant_exact(self):
        # a field constant on every lattice cell is integrated exactly
        sc = get_scenario("periodic")
        part = build_partition((LO, HI), 1 / 16, 0.5, sc.transform)
        values = np.random.default_rng(7).uniform(-1, 1, len(part.hat_n))
        phi = lattice_pwc_field(part, values)
        _, _, gap = check_integration_identity(phi, part, 4)
        assert gap <= 1e-12

    def test_integration_identity_smooth_quadrature_order(self):
        # doubling the cell sample count shrinks the smooth-field gap at
        # least fourfold
        sc = get_scenario("periodic")
        part = build_partition((LO, HI), 1 / 16, 0.5, sc.transform)
        phi = lambda X: np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])
        gap4 = check_integration_identity(phi, part, 4)[2]
        gap8 = check_integration_identity(phi, part, 8)[2]
        assert gap8 > 0.0
        assert gap4 / gap8 >= 4.0

    def test_boundary_identity_across_transforms(self):
        # identity, compression and rotation lattices at eps = 1/16
        for name in ("periodic", "epithelial", "plywood2d"):
            sc = get_scenario(name)
            part = build_partition((LO, HI), 1 / 16, 0.5, sc.transform)
            quad = GammaQuadrature(sc.cell, 16)
            _, _, gap = check_boundary_identity(
                lambda X: 1.0 + X[:, 0], part, quad)
            assert gap <= 1e-10, name

    def test_unfolded_field_approaches_the_field(self):
        sc = get_scenario("epithelial")
        vals = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, sc.transform)
            phi = lambda X: np.sin(np.pi * X[:, 0]) * np.cos(np.pi * X[:, 1])
            vals.append(norm_unfold_minus_identity(phi, part, m_y=4))
        assert vals[0] > vals[1] > vals[2]

    def test_unfolded_approximation_approaches_the_two_scale_field(self):
        sc = get_scenario("epithelial")
        psi = (
            lambda X, Y: (np.sin(2 * np.pi * Y[:, 0]) * (1 + 0.5 * X[:, 1])
                          + X[:, 0] * Y[:, 1]))
        vals = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, sc.transform)
            vals.append(norm_unfold_of_lp_minus_psi(psi, part, 4))
        assert vals[0] > vals[1] > vals[2]

    def test_remainder_is_first_order_uniformly(self):
        # |R(phi)| / (eps |grad phi|) stays inside a factor-1.5 band
        sc = get_scenario("periodic")
        f = lambda X: np.sin(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1])
        g = lambda X: 2 * np.pi * np.stack(
            [np.cos(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1]),
             np.sin(2 * np.pi * X[:, 0]) * np.cos(2 * np.pi * X[:, 1])],
            axis=1)
        ratios = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            part = build_partition((LO, HI), eps, 0.5, sc.transform)
            rn, gn, meas = remainder_R(f, part, grad=g)
            assert meas > 0.0
            ratios.append(rn / (eps * gn))
        assert max(ratios) / min(ratios) <= 1.5


class TestEffectiveTensors:
    def test_unperforated_identity_solve_is_exact(self):
        cell = UnitCellSpec(a=0.0)
        x0 = np.array([0.5, 0.5])
        sol = solve_cell(x0, 1.0, const_tf(I2), cell, N_c=64)
        A_eff = effective_tensor(I2, sol.unit_tensor)
        assert np.max(np.abs(sol.correctors)) <= 1e-10
        assert np.max(np.abs(A_eff - I2)) <= 1e-10
        assert 1.0 - cell.inclusion_measure(I2) == 1.0

    def test_disk_tensor_structure(self, disk_refinements):
        A = disk_refinements[256]
        scale = abs(A[0, 0])
        assert abs(A[0, 1] - A[1, 0]) / scale <= 1e-8
        assert abs(A[0, 0] - A[1, 1]) / scale <= 1e-3
        assert A[0, 0] <= 1.0 - math.pi * 0.25**2 + 1e-3

    def test_disk_tensor_against_refinement_oracle(self, disk_refinements):
        # first-order extrapolation of the two nested grids
        A256, A512 = disk_refinements[256], disk_refinements[512]
        oracle = 2.0 * A512 - A256
        rel = np.max(np.abs(A256 - oracle)) / abs(oracle[0, 0])
        assert rel <= 0.01

    def test_rotation_covariance(self):
        sc = get_scenario("plywood2d")
        K = sc.transform.K_at(np.array([0.5, 0.5]))
        x0 = np.array([0.5, 0.5])
        sol0 = solve_cell(x0, 1.0, const_tf(I2, K), sc.cell, N_c=128)
        A0 = effective_tensor(I2, sol0.unit_tensor)
        for gamma in (math.pi / 6, math.pi / 4):
            R = rotation_matrix(gamma)
            D = np.linalg.inv(R)
            sol = solve_cell(x0, 1.0, const_tf(D, K), sc.cell, N_c=128)
            Ag = effective_tensor(D, sol.unit_tensor)
            predicted = D @ A0 @ R
            rel = np.linalg.norm(Ag - predicted) / np.linalg.norm(A0)
            assert rel <= 1e-3, gamma


class TestSolverInvariants:
    def test_micro_positivity_and_barrier_on_the_default_run(self):
        cfg = MicroConfig(scenario=get_scenario("periodic"), eps=1 / 16)
        run = run_micro(cfg)
        assert run.ok(), run.failures
        obs = run.observables
        assert min(obs["min_l"]) >= -1e-12
        M, B = run.barrier_M, run.barrier_B
        for t, mx in zip(obs["t"], obs["max_l"]):
            assert mx <= M * math.exp(B * t) + 1e-6

    def test_micro_reproduces_the_reference_ode(self):
        # alpha = beta = 0 removes boundary exchange; the ligand stays
        # uniform and (l, r_f, r_b) follow a 3-variable system
        sc = get_scenario("periodic")
        s = replace(sc.suite, alpha=0.0, beta=0.0, rb0=0.5)
        cfg = MicroConfig(scenario=replace(sc, suite=s), eps=1 / 8,
                          cells_per_eps=16, T=1.0, dt=1e-3)
        run = run_micro(cfg)

        def rhs(t, u):
            l, rf, rb = u
            return [s.F(l) - s.dl * l,
                    s.p(rb) - s.df * rf,
                    -s.db * rb]

        ref = solve_ivp(rhs, (0.0, cfg.T), [s.l0, s.rf0, s.rb0],
                        rtol=1e-11, atol=1e-13)
        got = np.array([run.final_state.l[run.model.mask].mean(),
                        run.final_state.r_f.mean(),
                        run.final_state.r_b.mean()])
        assert np.max(np.abs(got - ref.y[:, -1])) <= 1e-4

    def test_macro_reproduces_the_reference_ode(self):
        # a constant scenario keeps every node identical: the coupled
        # system reduces to 3 variables with the surface-to-volume factor
        sc = get_scenario("periodic")
        cfg = MacroConfig(sc, H=1 / 32, T=1.0, dt=5e-4)
        op = assemble_macro(cfg, tensor_field(macro_nodes(cfg), sc.suite.A,
                                              sc.transform, sc.cell, N_c=48))
        run = run_macro(op)
        s = cfg.suite
        sig = op.gamma_measure[0] / (op.theta[0] * op.cell_measure[0])

        def rhs(t, u):
            L, rf, rb = u
            ex = s.beta * rb - s.alpha * L * rf
            return [s.F(L) - s.dl * L + sig * ex,
                    s.p(rb) - s.alpha * L * rf + s.beta * rb - s.df * rf,
                    s.alpha * L * rf - s.beta * rb - s.db * rb]

        ref = solve_ivp(rhs, (0.0, cfg.T), [s.l0, s.rf0, s.rb0],
                        rtol=1e-11, atol=1e-13)
        got = np.array([run.final_state.l.ravel()[0],
                        run.final_state.r_f[0, 0],
                        run.final_state.r_b[0, 0]])
        assert np.max(np.abs(got - ref.y[:, -1])) <= 1e-4


class TestConvergenceStudies:
    def _assert_halving_sweep(self, report):
        for row in report.rows:
            assert row.error is None, row.error
            assert row.passed
        E = [row.E for row in report.rows]
        assert E[0] > E[1] > E[2]
        assert E[2] <= E[0] / 2.0
        assert report.passed

    def test_periodic_sweep_halves_the_distance(self, periodic_study):
        self._assert_halving_sweep(periodic_study)

    def test_epithelial_sweep_halves_the_distance(self, epithelial_study):
        self._assert_halving_sweep(epithelial_study)

    def test_finest_run_is_resolved(self, periodic_study):
        # the eps = 1/32 run must be a real resolution-scale solve. Under
        # dt_rule "h" it steps with its grid width, and the steps are
        # counted as imex.schedule counts them
        run = periodic_study.micro_runs[1 / 32]
        assert run.model.n >= 448
        assert run.config.dt is None
        window = run.config.T / N_SAMPLES
        steps = N_SAMPLES * math.ceil(window / run.model.width - 1e-12)
        assert steps >= 200

    def test_periodic_energy_gap_decreases(self, periodic_study):
        gaps = [abs(row.energy_gap) for row in periodic_study.rows]
        assert gaps[0] > gaps[1] > gaps[2]
