"""Tests for the microscopic signaling solver.

Geometry oracles (perimeters against closed-form circle and ellipse
values), exact fixed points, a reference ODE integration in the regime
where the ligand stays spatially uniform, and the bookkeeping identities
(mass ledger, receptor balance) the IMEX step is built to satisfy. The
vectorized grid-build pieces are checked bit for bit against scalar
reference loops kept here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.special import ellipe

from lphom import imex, micro
from lphom.geometry import mask_connected
from lphom.imex import N_SAMPLES, State
from lphom.micro import (
    MicroConfig,
    _deposit_cells,
    _diffusion_matrix,
    _face_segments,
    build_micro_grid,
    micro_energy,
    run_micro,
)
from lphom.scenarios import SCENARIO_NAMES, get_scenario


@pytest.fixture(scope="module")
def default_run():
    scen = get_scenario("periodic")
    cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.5)
    return run_micro(cfg)


class TestConfig:
    def test_grid_spacing(self):
        cfg = MicroConfig(scenario=get_scenario("periodic"), eps=1 / 8,
                          cells_per_eps=16, T=0.1)
        assert cfg.h == pytest.approx(1 / 128)
        assert cfg.n_cells == 128

    def test_eps_range(self):
        with pytest.raises(ValueError):
            MicroConfig(scenario=get_scenario("periodic"), eps=1.5)

    def test_resolution_floor(self):
        # h <= eps/8 is a hard requirement
        with pytest.raises(ValueError):
            MicroConfig(scenario=get_scenario("periodic"), eps=1 / 8,
                        cells_per_eps=4)

    def test_incommensurate_spacing(self):
        # 1/h must be an integer so the outer walls land on grid lines
        with pytest.raises(ValueError):
            MicroConfig(scenario=get_scenario("periodic"), eps=0.3,
                        cells_per_eps=16)

    def test_negative_final_time(self):
        with pytest.raises(ValueError):
            MicroConfig(scenario=get_scenario("periodic"), eps=1 / 8, T=-1.0)

    @pytest.mark.parametrize("key,value,message", [
        ("T", math.nan, "final time"), ("T", math.inf, "final time"),
        ("dt", math.nan, "dt must be"), ("dt", math.inf, "dt must be"),
        ("dt", 0.0, "dt must be"), ("r", 1.5, "r must lie"),
        ("r", 0.0, "r must lie"), ("r", math.nan, "r must lie")])
    def test_non_finite_or_out_of_range_parameters(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            MicroConfig(scenario=get_scenario("periodic"), eps=1 / 8,
                        **{key: value})

    def test_reaction_budget(self):
        # dt * bulk Lipschitz constant must stay below 1/2
        cfg = MicroConfig(scenario=get_scenario("periodic"), eps=1 / 8,
                          cells_per_eps=16, T=0.5, dt=0.2)
        with pytest.raises(ValueError):
            run_micro(cfg)


def face_length_per_subdomain(grid):
    """Boundary face length per subdomain of the face midpoints."""
    p = grid.partition
    return np.bincount(p.subdomain_of(grid.faces.midpoint),
                       weights=grid.faces.length, minlength=p.n_subdomains)


class TestGridBuild:
    def test_unperforated(self):
        scen = get_scenario("periodic", a=0.0)
        grid = build_micro_grid(MicroConfig(scenario=scen, eps=1 / 8,
                                            cells_per_eps=16, T=0.0))
        assert grid.mask.all()
        assert len(grid.faces) == 0
        assert int(grid.mask.sum()) == grid.n * grid.n

    def test_disk_perimeter(self):
        # total face length against eps * (number of holes) * 2*pi*a
        scen = get_scenario("periodic")
        for cpe in (16, 64):
            cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=cpe,
                              T=0.0)
            grid = build_micro_grid(cfg)
            n_holes = len(grid.partition.hat_xi)
            analytic = cfg.eps * n_holes * 2 * math.pi * scen.cell.a
            rel = abs(grid.faces.length.sum() - analytic) / analytic
            assert rel < 0.02

    def test_perimeter_improves_on_refinement(self):
        scen = get_scenario("periodic")
        rels = []
        for cpe in (16, 64):
            cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=cpe,
                              T=0.0)
            grid = build_micro_grid(cfg)
            n_holes = len(grid.partition.hat_xi)
            analytic = cfg.eps * n_holes * 2 * math.pi * scen.cell.a
            rels.append(abs(grid.faces.length.sum() - analytic) / analytic)
        assert rels[1] < rels[0]

    def test_radius_gradient_per_subdomain(self):
        # hole radius a*rho(x) makes per-subdomain totals scale like rho
        scen = get_scenario("radius-gradient")
        cfg = MicroConfig(scenario=scen, eps=1 / 16, cells_per_eps=16, T=0.0)
        grid = build_micro_grid(cfg)
        per = face_length_per_subdomain(grid)
        assert per.any()
        for k, sub in enumerate(grid.partition.subdomains):
            if not per[k]:
                continue
            rho = sub.K[0, 0]
            cells = np.diff(grid.partition.hat_start)[k]
            analytic = cells * cfg.eps * 2 * math.pi * scen.cell.a * rho
            assert abs(per[k] - analytic) / analytic < 0.02

    def test_epithelial_ellipse_perimeter(self):
        # D = diag(1, kappa(x2)) turns each hole into an ellipse with
        # semiaxes eps*a and eps*a*kappa
        scen = get_scenario("epithelial")
        cfg = MicroConfig(scenario=scen, eps=1 / 16, cells_per_eps=16, T=0.0)
        grid = build_micro_grid(cfg)
        per = face_length_per_subdomain(grid)
        for k, sub in enumerate(grid.partition.subdomains):
            if not per[k]:
                continue
            kappa = sub.D[1, 1]
            major = scen.cell.a * max(1.0, kappa)
            minor = scen.cell.a * min(1.0, kappa)
            perim = 4 * major * ellipe(1 - (minor / major) ** 2)
            analytic = np.diff(grid.partition.hat_start)[k] * cfg.eps * perim
            assert abs(per[k] - analytic) / analytic < 0.02

    def test_deposit_cells_are_fluid(self, default_run):
        grid = default_run.model
        assert grid.mask.ravel()[grid.faces.cell].all()

    def test_midpoints_near_hole_boundary(self):
        # chord midpoints sit within a sagitta of the true circle
        scen = get_scenario("periodic")
        cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.0)
        grid = build_micro_grid(cfg)
        from lphom.geometry import locate_cells
        _, _, y, row = locate_cells(grid.partition, grid.faces.midpoint)
        assert (row >= 0).all()
        dev = np.abs(np.hypot(*(y - scen.cell.center).T) - scen.cell.a)
        assert dev.max() < 1e-2

    def test_disconnected_error(self):
        # radius 0.48 closes the throats between neighboring holes at
        # this resolution, stranding the corner pockets
        scen = get_scenario("periodic", a=0.48)
        cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.0)
        with pytest.raises(ValueError, match="disconnected"):
            build_micro_grid(cfg)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_every_r_builds(self, name, r):
        # plywood2d at r = 0.75 snaps its side to 2 eps, the least that
        # holds a rotated cell; eps**r then comes back one ulp below it
        for eps in (1 / 8, 1 / 16, 1 / 32):
            grid = build_micro_grid(MicroConfig(get_scenario(name), eps, r=r,
                                                T=0.0))
            assert len(grid.partition.hat_xi) and grid.mask.any()


class TestStep:
    def test_zero_fixed_point(self):
        # F(0) = p(0) = 0, so zero data stays exactly zero
        scen = get_scenario("periodic")
        suite = replace(scen.suite, l0=0.0, rf0=0.0, rb0=0.0)
        cfg = MicroConfig(scenario=replace(scen, suite=suite), eps=1 / 8,
                          cells_per_eps=16, T=0.2)
        run = run_micro(cfg)
        assert np.abs(run.final_state.l).max() == 0.0
        assert np.abs(run.final_state.r_f).max() == 0.0
        assert np.abs(run.final_state.r_b).max() == 0.0
        assert run.observables["l2_norm"][-1] == 0.0
        assert run.ok()

    def test_constant_preserved(self):
        # unperforated, no reactions: zero-flux diffusion keeps l constant
        scen = get_scenario("periodic", a=0.0)
        suite = replace(scen.suite, mu1=0.0, dl=0.0)
        cfg = MicroConfig(scenario=get_scenario("periodic", a=0.0,
                                                suite=suite),
                          eps=1 / 8, cells_per_eps=16, T=0.2)
        run = run_micro(cfg)
        assert np.abs(run.final_state.l - suite.l0).max() < 1e-12

    def test_receptor_balance(self):
        # the alpha/beta exchange cancels exactly in r_f + r_b; the sum
        # follows explicit Euler on p - d_f r_f - d_b r_b alone
        scen = get_scenario("periodic")
        cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.1,
                          dt=2e-3)
        grid = build_micro_grid(cfg)
        dt = 2e-3
        lu = grid.factor(dt)
        st = grid.initial_state()
        s = cfg.suite
        q = st.r_f + st.r_b
        for _ in range(50):
            q = q + dt * (s.p(st.r_b) - s.df * st.r_f - s.db * st.r_b)
            st, _ = grid.step(st, lu, dt)
            assert np.abs(st.r_f + st.r_b - q).max() < 1e-13

    def test_mass_ledger(self):
        # per step: change of integral of l = dt * (bulk + boundary flux)
        scen = get_scenario("periodic")
        cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.1,
                          dt=2e-3)
        grid = build_micro_grid(cfg)
        dt = 2e-3
        lu = grid.factor(dt)
        st = grid.initial_state()
        s = cfg.suite
        h2 = grid.h ** 2
        for _ in range(50):
            l = st.l.ravel()
            bulk = h2 * float(np.sum((s.F(l) - s.dl * l) * grid.mask.ravel()))
            ex = s.beta * st.r_b - s.alpha * l[grid.faces.cell] * st.r_f
            flux = cfg.eps * float(np.sum(ex * grid.faces.length))
            m0 = h2 * float(st.l.sum())
            st, source = grid.step(st, lu, dt)
            m1 = h2 * float(st.l.sum())
            assert abs(m1 - m0 - dt * (bulk + flux)) < 1e-10 * abs(m1)
            # the step reports the same ligand gain the ledger balances
            assert source == pytest.approx(bulk + flux, rel=1e-12)

    def test_nan_abort_names_field(self):
        scen = get_scenario("periodic")
        cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.1)
        grid = build_micro_grid(cfg)
        lu = grid.factor(1e-3)
        st = grid.initial_state()
        st.l[5, 5] = np.nan
        with pytest.raises(RuntimeError, match="ligand"):
            grid.step(st, lu, 1e-3)


class TestRun:
    def test_ode_regime_matches_reference(self):
        # alpha = beta = 0 removes the boundary exchange, so l stays
        # spatially uniform and (l, r_f, r_b) follow a 3-variable system
        scen = get_scenario("periodic")
        s = replace(scen.suite, alpha=0.0, beta=0.0, rb0=0.5)
        cfg = MicroConfig(scenario=replace(scen, suite=s), eps=1 / 8,
                          cells_per_eps=16, T=1.0, dt=1e-3)
        run = run_micro(cfg)
        lf = run.final_state.l[run.model.mask]
        assert lf.max() - lf.min() < 1e-11
        assert np.ptp(run.final_state.r_f) == 0.0
        assert np.ptp(run.final_state.r_b) == 0.0

        def rhs(t, u):
            l, rf, rb = u
            return [s.F(l) - s.dl * l,
                    s.p(rb) - s.df * rf,
                    -s.db * rb]

        ref = solve_ivp(rhs, (0.0, cfg.T), [s.l0, s.rf0, s.rb0],
                        rtol=1e-11, atol=1e-13)
        exact = ref.y[:, -1]
        got = np.array([lf[0], run.final_state.r_f[0],
                        run.final_state.r_b[0]])
        assert np.abs(got - exact).max() < 1e-4
        assert run.ok()

    def test_positivity_default(self, default_run):
        assert default_run.observables["min_l"].min() >= -1e-12
        assert default_run.final_state.r_f.min() >= -1e-12
        assert default_run.final_state.r_b.min() >= -1e-12
        assert default_run.ok()

    def test_barrier_holds(self, default_run):
        o = default_run.observables
        M = default_run.barrier_M
        B = default_run.barrier_B
        for t, mx in zip(o["t"], o["max_l"]):
            assert mx <= M * math.exp(B * t) + 1e-6

    def test_observable_schema(self, default_run):
        o = default_run.observables
        assert set(o) == {"t", "l2_norm", "min_l", "max_l", "energy",
                          "rf_mass", "rb_mass"}
        n = len(o["t"])
        assert all(len(v) == n for v in o.values())
        assert o["t"][0] == 0.0
        assert o["t"][-1] == pytest.approx(default_run.config.T)

    def test_t_zero_records_initial_state_only(self):
        scen = get_scenario("periodic")
        run = run_micro(MicroConfig(scenario=scen, eps=1 / 8,
                                    cells_per_eps=16, T=0.0))
        assert len(run.observables["t"]) == 1
        assert run.observables["l2_norm"][0] > 0.0
        assert run.ok()

    def test_step_halving_first_order(self):
        # exact divisors of the sampling window so dt really halves
        scen = get_scenario("periodic")
        vals = []
        for dt in (2.5e-3, 1.25e-3, 6.25e-4):
            cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16,
                              T=0.25, dt=dt)
            r = run_micro(cfg)
            vals.append(r.observables["l2_norm"][-1])
        d1 = abs(vals[0] - vals[1])
        d2 = abs(vals[1] - vals[2])
        assert 1.7 < d1 / d2 < 2.4

    def test_receptor_mass_transfer(self, default_run):
        # bound receptors appear as free ones deplete
        o = default_run.observables
        assert o["rb_mass"][0] == 0.0
        assert o["rb_mass"][-1] > 0.0
        assert o["rf_mass"][-1] < o["rf_mass"][0]

    def test_fields_are_the_fluid_values_at_each_sample(self, monkeypatch):
        # a snapshot is l[mask] at its sample time, in row-major fluid
        # order, with no full-grid copy beside it
        cfg = MicroConfig(scenario=get_scenario("epithelial"), eps=1 / 8,
                          cells_per_eps=8, T=0.05)
        seen, real_observe = [], micro.MicroGrid.observe

        def observe(self, st):
            seen.append(st.l.copy())
            return real_observe(self, st)

        monkeypatch.setattr(micro.MicroGrid, "observe", observe)
        run = run_micro(cfg, keep_fields=True)
        grid = run.model
        fluid = int(grid.mask.sum())
        ii, jj = np.nonzero(grid.mask)
        assert 0 < fluid < grid.n**2
        assert len(run.fields) == len(seen) == N_SAMPLES + 1
        assert sum(f.nbytes for f in run.fields) \
            == 8 * fluid * (N_SAMPLES + 1)
        for f, l in zip(run.fields, seen):
            assert f.shape == (fluid,) and f.dtype == np.float64
            assert np.array_equal(f, l[ii, jj])
        assert np.array_equal(run.fields[-1],
                              run.final_state.l[grid.mask])
        assert run_micro(cfg).fields is None

    def test_mass_ledger_checked_on_every_run(self, default_run):
        assert 0.0 < default_run.ledger_max < 1e-12

    def test_dropped_deposit_breaks_the_ledger(self, monkeypatch):
        # the step still reports the exchange it no longer deposits
        cfg = MicroConfig(scenario=get_scenario("periodic"), eps=1 / 8,
                          cells_per_eps=8, T=0.05)
        real_build = micro.build_micro_grid

        def build_without_deposit(config):
            grid = real_build(config)
            grid.face_scale = np.zeros(len(grid.faces))
            return grid

        monkeypatch.setattr(micro, "build_micro_grid", build_without_deposit)
        run = run_micro(cfg)
        assert not run.ok()
        assert run.ledger_max > 1e-10
        assert len(run.failures) == N_SAMPLES
        assert all(f.startswith("mass ledger residual ") and " at t=" in f
                   for f in run.failures)

    @pytest.mark.parametrize("change", [
        dict(eps=1 / 16), dict(r=0.6), dict(cells_per_eps=16),
        dict(scenario=get_scenario("periodic", suite=replace(
            get_scenario("periodic").suite, alpha=2.0)))])
    def test_run_builds_the_grid_of_its_config(self, change):
        # a run has one config: the grid it steps is built from it, so it
        # is the run of that grid stepped by hand
        base = dict(scenario=get_scenario("periodic"), eps=1 / 8,
                    cells_per_eps=8, T=0.05)
        cfg = MicroConfig(**{**base, **change})
        run, grid = run_micro(cfg), build_micro_grid(cfg)
        ref = imex.integrate(grid, imex.schedule(grid), False, None)
        assert run.config is cfg and run.model.config is cfg
        assert run.model.n == cfg.n_cells
        assert np.array_equal(run.model.mask, grid.mask)
        for key, values in ref.observables.items():
            assert np.array_equal(run.observables[key], values), key


class TestEnergy:
    def test_constant_is_zero(self):
        scen = get_scenario("periodic")
        cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.0)
        grid = build_micro_grid(cfg)
        assert micro_energy(grid.initial_state(), grid) == 0.0

    def test_affine_field_exact(self):
        # l = x1 on the unperforated square: energy is |Omega| = 1 exactly
        scen = get_scenario("periodic", a=0.0)
        cfg = MicroConfig(scenario=scen, eps=1 / 8, cells_per_eps=16, T=0.0)
        grid = build_micro_grid(cfg)
        x = (np.arange(grid.n) + 0.5) * grid.h
        st = State(t=0.0, l=np.broadcast_to(x[:, None],
                                            (grid.n, grid.n)).copy(),
                   r_f=np.zeros(0), r_b=np.zeros(0))
        assert abs(micro_energy(st, grid) - 1.0) < 1e-12

    def test_refinement_agreement(self):
        # the energy here is a small boundary-layer quantity whose staircase
        # error is first order in h: successive refinement differences must
        # shrink and the two finest levels agree to a few percent
        scen = get_scenario("periodic")
        vals = []
        for cpe in (16, 32, 64):
            cfg = MicroConfig(scenario=scen, eps=1 / 4, cells_per_eps=cpe,
                              T=0.1, dt=2e-3)
            vals.append(run_micro(cfg).observables["energy"][-1])
        d1 = abs(vals[0] - vals[1])
        d2 = abs(vals[1] - vals[2])
        assert d2 < d1
        assert d2 / abs(vals[2]) < 0.05


# ------------------------------------------------ scalar reference loops

_REF_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 4: [(1, 2)], 8: [(2, 3)],
    3: [(3, 1)], 6: [(0, 2)], 12: [(3, 1)], 9: [(0, 2)],
    7: [(3, 2)], 11: [(1, 2)], 13: [(0, 1)], 14: [(3, 0)],
}


def reference_face_segments(level, h):
    """Per-cell marching-squares loop the vectorized version replaced."""
    inside = level < 0.0
    code = (inside[:-1, :-1].astype(np.int8) + 2 * inside[1:, :-1]
            + 4 * inside[1:, 1:] + 8 * inside[:-1, 1:])
    hosts, p0s, p1s = [], [], []
    for i, j in np.argwhere((code > 0) & (code < 15)):
        c = int(code[i, j])
        phi = (level[i, j], level[i + 1, j], level[i + 1, j + 1],
               level[i, j + 1])

        def crossing(edge):
            if edge == 0:
                a, b = phi[0], phi[1]
                t = a / (a - b)
                return ((i + t) * h, j * h)
            if edge == 1:
                a, b = phi[1], phi[2]
                t = a / (a - b)
                return ((i + 1) * h, (j + t) * h)
            if edge == 2:
                a, b = phi[3], phi[2]
                t = a / (a - b)
                return ((i + t) * h, (j + 1) * h)
            a, b = phi[0], phi[3]
            t = a / (a - b)
            return (i * h, (j + t) * h)

        if c in (5, 10):
            center_in = (phi[0] + phi[1] + phi[2] + phi[3]) < 0.0
            if c == 5:
                pairs = [(3, 0), (1, 2)] if not center_in else [(3, 2), (1, 0)]
            else:
                pairs = [(0, 1), (2, 3)] if not center_in else [(0, 3), (2, 1)]
        else:
            pairs = _REF_SEGMENTS[c]
        for e0, e1 in pairs:
            hosts.append((i, j))
            p0s.append(crossing(e0))
            p1s.append(crossing(e1))
    return (np.array(hosts, dtype=int).reshape(-1, 2),
            np.array(p0s, dtype=float).reshape(-1, 2),
            np.array(p1s, dtype=float).reshape(-1, 2))


def reference_deposit_cells(hosts, mid, mask, h):
    """Per-segment nearest-fluid-neighbor loop with a strict < on ties."""
    n = mask.shape[0]
    deposit = np.empty(len(hosts), dtype=int)
    for k, (i, j) in enumerate(hosts):
        if mask[i, j]:
            deposit[k] = i * n + j
            continue
        best, best_d = -1, math.inf
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            ii, jj = i + di, j + dj
            if 0 <= ii < n and 0 <= jj < n and mask[ii, jj]:
                cc = ((ii + 0.5) * h - mid[k, 0])**2 \
                    + ((jj + 0.5) * h - mid[k, 1])**2
                if cc < best_d:
                    best, best_d = ii * n + jj, cc
        if best < 0:
            raise ValueError("boundary segment has no adjacent fluid cell")
        deposit[k] = best
    return deposit


def reference_connected(mask, periodic):
    """Depth-first flood fill from the first True cell."""
    n1, n2 = mask.shape
    total = int(mask.sum())
    if total == 0:
        return False
    seen = np.zeros_like(mask, dtype=bool)
    start = tuple(np.argwhere(mask)[0])
    seen[start] = True
    stack = [start]
    while stack:
        i, j = stack.pop()
        for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if periodic:
                ni, nj = ni % n1, nj % n2
            if 0 <= ni < n1 and 0 <= nj < n2 and mask[ni, nj] \
                    and not seen[ni, nj]:
                seen[ni, nj] = True
                stack.append((ni, nj))
    return int(seen.sum()) == total


def assert_bitwise_equal(got, ref):
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


class TestVectorizedGridPieces:
    def test_every_mixed_code_and_saddle_branch(self):
        # one cell per case; corner k carries bit 2^k of the code
        seen = set()
        for c in range(1, 15):
            for neg, pos in ((-2.3, 0.7), (-0.6, 1.9)):
                corners = [neg * (1 + 0.1 * k) if c >> k & 1
                           else pos * (1 + 0.1 * k) for k in range(4)]
                level = np.array([[corners[0], corners[3]],
                                  [corners[1], corners[2]]])
                got = _face_segments(level, 0.125)
                assert_bitwise_equal(got, reference_face_segments(level,
                                                                  0.125))
                assert len(got[0]) == (2 if c in (5, 10) else 1)
                seen.add((c, sum(corners) < 0.0))
        assert {(5, True), (5, False), (10, True), (10, False)} <= seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_level_matches_scalar_loop(self, seed):
        # many cells of every code: segment order across and within cells
        rng = np.random.default_rng(seed)
        level = rng.normal(size=(41, 37))
        level[rng.random(level.shape) < 0.05] = 0.0
        h = 1 / 40
        got = _face_segments(level, h)
        assert len(got[0]) > 500
        assert_bitwise_equal(got, reference_face_segments(level, h))

    def test_no_crossing_gives_empty_arrays(self):
        got = _face_segments(np.ones((5, 5)), 0.25)
        assert [a.shape for a in got] == [(0, 2)] * 3

    def test_deposit_tie_goes_to_first_neighbor(self):
        # wet host (1, 1); its (1, 0) and (0, 1) neighbors are fluid and
        # equidistant from a midpoint on the diagonal between their centers
        h = 0.25
        mask = np.zeros((3, 3), dtype=bool)
        mask[2, 1] = mask[1, 2] = True
        hosts = np.array([[1, 1]])
        mid = np.array([[0.4375, 0.4375]])
        assert reference_deposit_cells(hosts, mid, mask, h)[0] == 7
        assert _deposit_cells(hosts, mid, mask, h)[0] == 7
        mask[2, 1] = False
        mask[0, 1] = True            # (-1, 0) now precedes (0, 1)
        mid = np.array([[0.3125, 0.4375]])
        assert reference_deposit_cells(hosts, mid, mask, h)[0] == 1
        assert _deposit_cells(hosts, mid, mask, h)[0] == 1

    def test_deposit_without_fluid_neighbor_is_rejected(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValueError, match="no adjacent fluid"):
            _deposit_cells(np.array([[2, 2]]), np.array([[0.6, 0.6]]),
                           mask, 0.25)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_deposits_match_scalar_loop(self, seed):
        # midpoints on a coarse dyadic lattice, so equal distances are common
        rng = np.random.default_rng(seed)
        n, h = 12, 1 / 12
        mask = rng.random((n, n)) < 0.6
        hosts = rng.integers(0, n, size=(400, 2))
        mid = (hosts + rng.integers(0, 5, size=(400, 2)) / 4.0) * h
        ok = np.array([mask[i, j] or any(
            0 <= i + di < n and 0 <= j + dj < n and mask[i + di, j + dj]
            for di in (-1, 0, 1) for dj in (-1, 0, 1))
            for i, j in hosts])
        hosts, mid = hosts[ok], mid[ok]
        ref = reference_deposit_cells(hosts, mid, mask, h)
        assert (~mask[hosts[:, 0], hosts[:, 1]]).sum() > 50
        assert_bitwise_equal([_deposit_cells(hosts, mid, mask, h)], [ref])

    @settings(max_examples=200, deadline=None)
    @given(mask=arrays(bool, st.tuples(st.integers(1, 7), st.integers(1, 7))),
           periodic=st.booleans())
    def test_connectivity_matches_flood_fill(self, mask, periodic):
        assert mask_connected(mask, periodic=periodic) \
            == reference_connected(mask, periodic)

    def test_wrap_joins_opposite_edges(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[:, 0] = mask[:, 4] = True
        assert not mask_connected(mask)
        assert mask_connected(mask, periodic=True)


def reference_diffusion_matrix(grid, dt):
    """The backward-Euler matrix as the micro operator once built it inline."""
    n, h = grid.n, grid.h
    mask = grid.mask
    A = grid.config.suite.A
    tx = A * (mask[:-1, :] & mask[1:, :])
    ty = A * (mask[:, :-1] & mask[:, 1:])
    lam = dt / h**2
    N = n * n
    ids = np.arange(N).reshape(n, n)
    diag = np.ones(N)
    rows, cols, vals = [ids.ravel()], [ids.ravel()], [diag]

    def couple(t, ia, ib):
        w = lam * t.ravel()
        a, b = ia.ravel(), ib.ravel()
        rows.extend([a, b, a, b])
        cols.extend([a, b, b, a])
        vals.extend([w, w, -w, -w])

    couple(tx, ids[:-1, :], ids[1:, :])
    couple(ty, ids[:, :-1], ids[:, 1:])
    M = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    return M.tocsc()


class TestDiffusionMatrix:
    # every default eps of the study, the finest grid included
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32])
    def test_matches_the_inline_construction(self, name, eps):
        cfg = MicroConfig(scenario=get_scenario(name), eps=eps, T=0.5)
        grid = build_micro_grid(cfg)
        got = _diffusion_matrix(grid, cfg.h)
        ref = reference_diffusion_matrix(grid, cfg.h)
        assert got.format == "csc" and got.shape == ref.shape
        assert_bitwise_equal([got.data, got.indices, got.indptr],
                             [ref.data, ref.indices, ref.indptr])
        # splu takes it as it is: no index cast, no sort or duplicate sum
        assert got.indices.dtype == got.indptr.dtype == np.intc
        assert got.has_canonical_format

    def test_assembly_peak(self, traced_peak):
        # the returned arrays plus about half of them in face weights,
        # diagonal and slot maps; no coordinate lists, no CSR copy
        cfg = MicroConfig(scenario=get_scenario("periodic"), eps=1 / 16)
        grid = build_micro_grid(cfg)
        M = _diffusion_matrix(grid, cfg.h)
        nbytes = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        peak = traced_peak(lambda: _diffusion_matrix(grid, cfg.h))
        assert peak <= 1.6 * nbytes
