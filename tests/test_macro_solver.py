"""Tests for the homogenized solver.

Stencil identities (5-point reduction, conservation, finite-difference
consistency), quadrature oracles on the reference hole boundary, the
coupled 3-variable ODE reference in the spatially uniform regime, and the
contract that with unit porosity, identity tensor and boundary terms off
the macro solver reproduces the unperforated micro solver exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.special import ellipe

from lphom.cell_problem import EffectiveTensorField, tensor_field
from lphom.geometry import build_partition
from lphom.imex import N_SAMPLES, State
from lphom.macro import (
    MacroConfig,
    assemble_macro,
    macro_energy,
    macro_nodes,
    run_macro,
)
from lphom.micro import MicroConfig, run_micro
from lphom.scenarios import SCENARIO_NAMES, get_scenario
from lphom.unfolding import GammaQuadrature, unfold_boundary


def constant_field(nodes, A, theta=1.0):
    P = len(nodes)
    return EffectiveTensorField(points=nodes,
                                tensors=np.tile(np.asarray(A, float),
                                                (P, 1, 1)),
                                theta=np.full(P, float(theta)),
                                residual=np.zeros(P), N_c=0,
                                errors=[None] * P)


def assembled(cfg, N_c=64):
    """The operator of cfg on the tensor field of its scenario's cell
    problems at N_c."""
    sc = cfg.scenario
    fld = tensor_field(macro_nodes(cfg), cfg.suite.A, sc.transform, sc.cell,
                       N_c=N_c)
    return assemble_macro(cfg, fld)


class TestConfig:
    def test_spacing_validation(self):
        scen = get_scenario("periodic")
        with pytest.raises(ValueError):
            MacroConfig(scenario=scen, H=0.7)
        with pytest.raises(ValueError):
            MacroConfig(scenario=scen, H=0.3)    # 1/H not an integer

    def test_quadrature_count(self):
        with pytest.raises(ValueError):
            MacroConfig(scenario=get_scenario("periodic"), H=1 / 8, n_gamma=2)

    @pytest.mark.parametrize("key,value,message", [
        ("T", math.nan, "final time"), ("T", math.inf, "final time"),
        ("T", -1.0, "final time"), ("dt", math.nan, "dt must be"),
        ("dt", math.inf, "dt must be"), ("dt", -0.1, "dt must be")])
    def test_non_finite_or_out_of_range_times(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            MacroConfig(scenario=get_scenario("periodic"), H=1 / 8,
                        **{key: value})

    def test_reaction_budget(self):
        cfg = MacroConfig(scenario=get_scenario("periodic"), H=1 / 8,
                          T=0.5, dt=0.2)
        op = assembled(cfg, N_c=32)
        with pytest.raises(ValueError):
            run_macro(op)


class TestAssemble:
    def test_five_point_reduction(self):
        # identity tensor, unit porosity: cross terms vanish and the
        # stencil is exactly the standard 5-point Laplacian
        scen = get_scenario("periodic", a=0.0)
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.0)
        op = assembled(cfg)
        n, H = op.n, op.H
        P = n * n
        ids = np.arange(P).reshape(n, n)
        rows, cols, vals = [], [], []

        def couple(ia, ib):
            a, b = ia.ravel(), ib.ravel()
            w = np.full(len(a), 1.0 / H ** 2)
            rows.extend([a, b, a, b])
            cols.extend([a, b, b, a])
            vals.extend([-w, -w, w, w])

        couple(ids[:-1, :], ids[1:, :])
        couple(ids[:, :-1], ids[:, 1:])
        L5 = sp.csr_matrix((np.concatenate(vals),
                            (np.concatenate(rows), np.concatenate(cols))),
                           shape=(P, P))
        assert (op.theta == 1.0).all()
        diff = op.L - L5
        assert diff.nnz == 0 or abs(diff.data).max() < 1e-12 / H ** 2

    def test_row_and_column_sums_zero(self):
        # divergence form: constants in the kernel, fluxes telescope
        scen = get_scenario("periodic", a=0.0)
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.0)
        nodes = macro_nodes(cfg)
        fld = constant_field(nodes, [[2.0, 0.3], [0.3, 1.0]])
        op = assemble_macro(cfg, fld)
        one = np.ones(len(nodes))
        assert abs(op.L @ one).max() < 1e-10
        assert abs(op.L.T @ one).max() < 1e-10

    def test_fd_consistency_rotated_field(self):
        # apply the stencil to l = x1 under a smoothly rotating tensor and
        # compare with div(A e1) = d1 A11 + d2 A21 from central differences
        scen = get_scenario("periodic", a=0.0)
        H = 1 / 32
        cfg = MacroConfig(scenario=scen, H=H, T=0.0)
        nodes = macro_nodes(cfg)

        def Afun(x):
            phi = 0.3 * x[0] + 0.5 * x[1]
            c, s = math.cos(phi), math.sin(phi)
            R = np.array([[c, -s], [s, c]])
            return R @ np.diag([2.0, 1.0]) @ R.T

        tens = np.array([Afun(x) for x in nodes])
        fld = EffectiveTensorField(points=nodes, tensors=tens,
                                   theta=np.ones(len(nodes)),
                                   residual=np.zeros(len(nodes)), N_c=0,
                                   errors=[None] * len(nodes))
        op = assemble_macro(cfg, fld)
        got = (op.L @ nodes[:, 0]).reshape(op.n, op.n)

        def div_col(x):
            e = 1e-6
            d1 = (Afun([x[0] + e, x[1]])[0, 0]
                  - Afun([x[0] - e, x[1]])[0, 0]) / (2 * e)
            d2 = (Afun([x[0], x[1] + e])[1, 0]
                  - Afun([x[0], x[1] - e])[1, 0]) / (2 * e)
            return d1 + d2

        exact = np.array([div_col(x) for x in nodes]).reshape(op.n, op.n)
        assert abs(got - exact)[1:-1, 1:-1].max() < 5e-4

    def test_tensor_field_must_cover_nodes(self):
        scen = get_scenario("periodic", a=0.0)
        cfg = MacroConfig(scenario=scen, H=1 / 8, T=0.0)
        other = macro_nodes(MacroConfig(scenario=scen, H=1 / 4, T=0.0))
        fld = constant_field(other, np.eye(2))
        with pytest.raises(ValueError, match="cover"):
            assemble_macro(cfg, fld)

    def test_non_spd_tensor_rejected(self):
        scen = get_scenario("periodic", a=0.0)
        cfg = MacroConfig(scenario=scen, H=1 / 8, T=0.0)
        nodes = macro_nodes(cfg)
        fld = constant_field(nodes, [[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(ValueError, match="positive definite"):
            assemble_macro(cfg, fld)
        fld2 = constant_field(nodes, [[1.0, 0.5], [-0.5, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            assemble_macro(cfg, fld2)

    @pytest.mark.parametrize("bad,message", [
        # node 5 fails only the porosity check, node 9 both tensor checks
        ({5: ([[1.0, 0.0], [0.0, 1.0]], 1.5), 9: ([[1.0, 0.5], [-0.5, -1.0]],
                                                   0.0)},
         "porosity at node 5 must lie in (0, 1], got 1.5"),
        # node 3 fails definiteness and porosity: definiteness is checked
        # first; node 40's NaN entry is not symmetric and reaches no eigvalsh
        ({3: ([[1.0, 0.0], [0.0, -2.0]], math.nan),
          40: ([[math.nan, 0.0], [0.0, 1.0]], 1.0)},
         "effective tensor at node 3 is not positive definite"),
        ({7: ([[math.nan, 0.0], [0.0, 1.0]], 1.0),
          8: ([[1.0, 0.0], [0.0, -2.0]], 1.0)},
         "effective tensor at node 7 is not symmetric"),
        # a tolerance of 1e-8 times the node's largest entry, at least 1e-8
        ({2: ([[1e3, 1e-6], [0.0, 1e3]], 1.0),
          6: ([[1.0, 2e-8], [0.0, 1.0]], 1.0)},
         "effective tensor at node 6 is not symmetric"),
    ])
    def test_first_failing_node_and_check_are_reported(self, bad, message):
        scen = get_scenario("periodic", a=0.0)
        cfg = MacroConfig(scenario=scen, H=1 / 8, T=0.0)
        fld = constant_field(macro_nodes(cfg), np.eye(2))
        for p, (A, theta) in bad.items():
            fld.tensors[p], fld.theta[p] = A, theta
        with pytest.raises(ValueError) as info:
            assemble_macro(cfg, fld)
        assert str(info.value) == message

    def test_circle_quadrature_measure_exact(self):
        # equal-speed parametrization: the trapezoid sum is exactly 2*pi*a
        scen = get_scenario("periodic")
        op = assembled(MacroConfig(scenario=scen, H=1 / 8, T=0.0), N_c=32)
        assert op.gamma_measure == pytest.approx(2 * math.pi * scen.cell.a,
                                                 abs=1e-12)

    def test_ellipse_quadrature_spectral(self):
        # 16 quadrature points already reproduce the ellipse perimeter to
        # far better than the discretization scales
        scen = get_scenario("epithelial")
        op = assembled(MacroConfig(scenario=scen, H=1 / 8, T=0.0), N_c=32)
        a = scen.cell.a
        for p, x in enumerate(op.nodes):
            kappa = scen.transform.D_at(x)[1, 1]
            major, minor = a * max(1.0, kappa), a * min(1.0, kappa)
            exact = 4 * major * ellipe(1 - (minor / major) ** 2)
            assert abs(op.gamma_measure[p] - exact) / exact < 1e-6

    def test_unperforated_has_no_quadrature(self):
        scen = get_scenario("periodic", a=0.0)
        op = assembled(MacroConfig(scenario=scen, H=1 / 8, T=0.0))
        assert op.gamma_w.shape == (64, 0)
        assert (op.theta == 1.0).all()

    @pytest.mark.parametrize("n_gamma", [8, 12, 16])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_gamma_weights_are_the_boundary_unfolding_metric(self, name,
                                                             n_gamma):
        # at eps = 1/16, r = 1/2 the subdomains are the H = 1/4 macro cells,
        # so each anchor is a macro node and both models freeze the same
        # D, K there: the macro Γ weights are the unfolding's, bit for bit
        scen = get_scenario(name)
        cfg = MacroConfig(scenario=scen, H=1 / 4, T=0.0, n_gamma=n_gamma)
        op = assemble_macro(cfg, constant_field(macro_nodes(cfg), np.eye(2)))
        part = build_partition(((0.0, 0.0), (1.0, 1.0)), 1 / 16, 0.5,
                               scen.transform)
        bu = unfold_boundary(lambda X: np.ones(len(X)), part,
                             GammaQuadrature(scen.cell, n_gamma))
        assert part.n_subdomains == len(op.nodes) == 16
        for s in part.subdomains:
            assert np.array_equal(s.anchor, op.nodes[s.n])
            rows = bu.metric[part.hat_n][part.hat_n == s.n] * bu.ref_weights
            assert len(rows) and (rows == op.gamma_w[s.n]).all()


class TestStep:
    def test_zero_fixed_point(self):
        scen = get_scenario("periodic")
        suite = replace(scen.suite, l0=0.0, rf0=0.0, rb0=0.0)
        cfg = MacroConfig(scenario=replace(scen, suite=suite), H=1 / 16,
                          T=0.2)
        run = run_macro(assembled(cfg, N_c=32))
        assert np.abs(run.final_state.l).max() == 0.0
        assert np.abs(run.final_state.r_f).max() == 0.0
        assert np.abs(run.final_state.r_b).max() == 0.0
        assert run.ok()

    def test_uniform_coupled_ode_oracle(self):
        # constant scenario: every node sees the same tensor, porosity and
        # boundary measure, so l stays uniform and the full coupled system
        # reduces to three variables
        scen = get_scenario("periodic")
        cfg = MacroConfig(scenario=scen, H=1 / 32, T=1.0, dt=5e-4)
        op = assembled(cfg, N_c=48)
        run = run_macro(op)
        l = run.final_state.l
        assert l.max() - l.min() < 1e-12
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
        got = np.array([l.ravel()[0], run.final_state.r_f[0, 0],
                        run.final_state.r_b[0, 0]])
        assert np.abs(got - ref.y[:, -1]).max() < 1e-4
        assert run.ok()

    def test_receptor_decay_alpha_zero(self):
        # alpha = 0 makes r_b linear: exact exponential decay, and the
        # explicit Euler error halves with the step
        scen = get_scenario("periodic")
        errs = []
        for dt in (2e-3, 1e-3):
            suite = replace(scen.suite, alpha=0.0, rb0=0.8)
            cfg = MacroConfig(scenario=replace(scen, suite=suite),
                              H=1 / 32, T=0.5, dt=dt)
            run = run_macro(assembled(cfg, N_c=48))
            exact = 0.8 * math.exp(-(suite.beta + suite.db) * 0.5)
            errs.append(abs(run.final_state.r_b[0, 0] - exact))
        assert errs[1] < 5e-4
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_no_spurious_coupling_across_quadrature(self):
        # quadrature points of one node share coefficients and the nodal
        # ligand value, so their receptor trajectories stay identical
        scen = get_scenario("epithelial")
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.2, dt=2e-3)
        run = run_macro(assembled(cfg, N_c=32))
        assert np.ptp(run.final_state.r_f, axis=1).max() == 0.0
        assert np.ptp(run.final_state.r_b, axis=1).max() == 0.0

    def test_nan_abort_names_field(self):
        scen = get_scenario("periodic")
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.1)
        op = assembled(cfg, N_c=32)
        lu = op.factor(1e-3)
        st = op.initial_state()
        st.l[3, 3] = np.nan
        with pytest.raises(RuntimeError, match="ligand"):
            op.step(st, lu, 1e-3)

    def test_conservation_with_sources_off(self):
        # F = 0, d_l = 0, alpha = beta = 0: the weighted integral of l is
        # invariant under the theta-weighted backward Euler step
        scen = get_scenario("periodic")
        suite = replace(scen.suite, mu1=0.0, dl=0.0, alpha=0.0, beta=0.0)
        cfg = MacroConfig(scenario=replace(scen, suite=suite), H=1 / 32,
                          T=0.5)
        op = assembled(cfg, N_c=48)
        st = op.initial_state()
        X = op.nodes[:, 0].reshape(op.n, op.n)
        Y = op.nodes[:, 1].reshape(op.n, op.n)
        st.l = 1.0 + 0.5 * np.sin(2 * math.pi * X) * np.cos(math.pi * Y)
        lu = op.factor(5e-3)
        m0 = float(np.sum(op.theta * st.l.ravel()))
        for _ in range(100):
            st, _ = op.step(st, lu, 5e-3)
        m1 = float(np.sum(op.theta * st.l.ravel()))
        assert abs(m1 - m0) < 1e-10 * abs(m0)

    def test_pure_diffusion_energy_decays(self):
        scen = get_scenario("periodic")
        suite = replace(scen.suite, mu1=0.0, dl=0.0, alpha=0.0, beta=0.0)
        cfg = MacroConfig(scenario=replace(scen, suite=suite), H=1 / 32,
                          T=0.3)
        op = assembled(cfg, N_c=48)
        st = op.initial_state()
        X = op.nodes[:, 0].reshape(op.n, op.n)
        Y = op.nodes[:, 1].reshape(op.n, op.n)
        st.l = 1.0 + 0.5 * np.sin(2 * math.pi * X) * np.cos(math.pi * Y)
        lu = op.factor(5e-3)
        e_prev = macro_energy(st, op)
        for _ in range(30):
            st, _ = op.step(st, lu, 5e-3)
            e = macro_energy(st, op)
            assert e < e_prev
            e_prev = e


class TestRun:
    def test_matches_unperforated_micro(self):
        # theta = 1, tensor = I, boundary terms off: macro and micro run
        # the same scheme on the same grid, so trajectories coincide
        suite = replace(get_scenario("periodic").suite, alpha=0.0, beta=0.0)
        scen = get_scenario("periodic", a=0.0, suite=suite)
        mic = run_micro(MicroConfig(scenario=scen, eps=1 / 8,
                                    cells_per_eps=16, T=0.25, dt=2.5e-3))
        cfg = MacroConfig(scenario=scen, H=1 / 128, T=0.25, dt=2.5e-3)
        mac = run_macro(assembled(cfg))
        assert abs(mic.final_state.l - mac.final_state.l).max() < 1e-12
        for key in ("l2_norm", "min_l", "max_l", "energy", "rf_mass",
                    "rb_mass"):
            assert abs(mic.observables[key]
                       - mac.observables[key]).max() < 1e-12

    def test_positivity_and_barrier_default(self):
        scen = get_scenario("periodic")
        cfg = MacroConfig(scenario=scen, H=1 / 32, T=0.5)
        run = run_macro(assembled(cfg, N_c=48))
        o = run.observables
        assert o["min_l"].min() >= -1e-12
        M, B = run.barrier_M, run.barrier_B
        for t, mx in zip(o["t"], o["max_l"]):
            assert mx <= M * math.exp(B * t) + 1e-6
        assert run.ok()
        assert 0.0 < run.ledger_max < 1e-12

    @pytest.mark.parametrize("change", [
        dict(H=1 / 16), dict(n_gamma=8),
        dict(scenario=get_scenario("periodic", suite=replace(
            get_scenario("periodic").suite, beta=0.5)))])
    def test_run_steps_the_config_of_its_operator(self, change):
        # a run has one config, its operator's, so it is the run of any
        # operator assembled from that config
        base = dict(scenario=get_scenario("periodic"), H=1 / 8, T=0.05)
        cfg = MacroConfig(**{**base, **change})
        op = assembled(cfg, N_c=32)
        run = run_macro(op)
        ref = run_macro(assembled(MacroConfig(**{**base, **change}), N_c=32))
        assert run.config is cfg and run.model is op
        assert run.final_state.l.shape == (cfg.n_cells, cfg.n_cells)
        assert run.observables["t"][-1] == pytest.approx(cfg.T)
        for key, values in ref.observables.items():
            assert np.array_equal(run.observables[key], values), key

    def test_observable_schema(self):
        scen = get_scenario("periodic")
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.1)
        run = run_macro(assembled(cfg, N_c=32))
        o = run.observables
        assert set(o) == {"t", "l2_norm", "min_l", "max_l", "energy",
                          "rf_mass", "rb_mass"}
        assert len(o["t"]) == N_SAMPLES + 1
        assert o["t"][-1] == pytest.approx(0.1)

    def test_fields_are_the_states_of_each_sample(self):
        # every step replaces the (n, n) state, so the snapshots keep the
        # states themselves: distinct arrays, the last one the final state
        scen = get_scenario("periodic")
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.1)
        run = run_macro(assembled(cfg, N_c=32), keep_fields=True)
        assert len(run.fields) == N_SAMPLES + 1
        assert not any(np.shares_memory(a, b) for k, a in
                       enumerate(run.fields) for b in run.fields[k + 1:])
        assert all(f.shape == (16, 16) for f in run.fields)
        assert np.array_equal(run.fields[-1], run.final_state.l)
        assert np.array_equal(run.fields[0], np.ones((16, 16)))

    def test_t_zero_single_row(self):
        scen = get_scenario("periodic")
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.0)
        run = run_macro(assembled(cfg, N_c=32))
        assert len(run.observables["t"]) == 1
        assert run.ok()

    def test_step_halving_first_order(self):
        scen = get_scenario("periodic")
        vals = []
        for dt in (2.5e-3, 1.25e-3, 6.25e-4):
            cfg = MacroConfig(scenario=scen, H=1 / 32, T=0.25, dt=dt)
            run = run_macro(assembled(cfg, N_c=48))
            vals.append(run.observables["l2_norm"][-1])
        d1 = abs(vals[0] - vals[1])
        d2 = abs(vals[1] - vals[2])
        assert 1.7 < d1 / d2 < 2.4

    def test_epithelial_tensor_integration(self):
        # anisotropic tensors from real cell solves, deduplicated by rows
        scen = get_scenario("epithelial")
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.2, dt=2e-3)
        op = assembled(cfg, N_c=32)
        d = np.array([np.diag(t) for t in op.tensors])
        assert (op.tensors[:, 0, 1] == 0.0).all() or \
            abs(op.tensors[:, 0, 1]).max() < 1e-10
        assert (d > 0.0).all() and (d < 1.0).all()
        run = run_macro(op)
        assert run.ok()
        assert np.isfinite(run.observables["energy"]).all()


class TestEnergy:
    def test_constant_zero(self):
        scen = get_scenario("periodic")
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.0)
        op = assembled(cfg, N_c=32)
        st = op.initial_state()
        assert macro_energy(st, op) == 0.0

    def test_affine_field_full_tensor(self):
        # l = x1 + x2 with constant A: energy is sum of all entries of A,
        # exactly, because difference quotients of affine fields are exact
        scen = get_scenario("periodic", a=0.0)
        cfg = MacroConfig(scenario=scen, H=1 / 16, T=0.0)
        nodes = macro_nodes(cfg)
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        fld = constant_field(nodes, A)
        op = assemble_macro(cfg, fld)
        l = (nodes[:, 0] + nodes[:, 1]).reshape(op.n, op.n)
        st = State(t=0.0, l=l, r_f=np.zeros((len(nodes), 0)),
                   r_b=np.zeros((len(nodes), 0)))
        assert macro_energy(st, op) == pytest.approx(A.sum(), abs=1e-12)
