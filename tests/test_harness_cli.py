"""Tests for the convergence harness and the command line front end.

Oracles: bilinear sampling against an affine field it must reproduce,
an unperforated study whose micro and macro runs solve the same equation
(E at the arithmetic floor), a small perforated study with pinned values,
and byte-level determinism of the CSV writers. CLI handlers run in
process through main(), so exit codes and output files are checked
without spawning interpreters.
"""

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from lphom import cell_problem, cli, harness, micro
from lphom.cell_problem import tensor_field
from lphom.cli import UsageError, load_config_file, main
from lphom.harness import (
    StudyConfig,
    _sample_bilinear,
    convergence_study,
)
from lphom.macro import MacroConfig
from lphom.scenarios import get_scenario


def read_csv(path):
    """Data rows of one of the package's CSV files, as float columns."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line[0].isalpha():
                continue
            rows.append([float(tok) for tok in line.split(",")
                         if tok not in ("true", "false")])
    return rows


class TestNumberParsing:
    def test_fractions_and_decimals(self):
        assert cli._number("1/8") == 0.125
        assert cli._number(" 0.25 ") == 0.25
        assert cli._number("3") == 3.0

    def test_rejects_junk(self):
        with pytest.raises(UsageError):
            cli._number("eps")
        with pytest.raises(UsageError):
            cli._number("1/0")

    def test_eps_list(self):
        assert cli._eps_list("1/4, 1/8") == (0.25, 0.125)
        with pytest.raises(UsageError):
            cli._eps_list(" , ")


class TestConfigFile:
    def test_parses_fractions_and_comments(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_text("# study setup\n"
                     "scenario = periodic\n"
                     "epsilon_list = 1/4, 1/8   # the sweep\n"
                     "r = 0.5\n"
                     "cells_per_eps = 8\n"
                     "\n"
                     "dt_rule = h\n")
        vals = load_config_file(str(p))
        assert vals["scenario"] == "periodic"
        assert vals["epsilon_list"] == (0.25, 0.125)
        assert vals["r"] == 0.5
        assert vals["cells_per_eps"] == 8
        assert vals["dt_rule"] == "h"

    def test_unknown_key_is_rejected_with_the_valid_set(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("scenario=periodic\nepslion=0.1\n")
        with pytest.raises(UsageError, match="unknown key 'epslion'"):
            load_config_file(str(p))
        with pytest.raises(UsageError, match="epsilon_list"):
            load_config_file(str(p))

    def test_syntax_and_type_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just a line\n")
        with pytest.raises(UsageError, match="expected key=value"):
            load_config_file(str(p))
        p.write_text("Nc = many\n")
        with pytest.raises(UsageError, match="must be an integer"):
            load_config_file(str(p))

    def test_missing_file(self):
        with pytest.raises(UsageError, match="cannot read config file"):
            load_config_file("/nonexistent/study.cfg")


class TestExitCodes:
    def test_missing_scenario_is_a_usage_error(self, capsys):
        assert main(["geom"]) == 2
        assert "scenario is required" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["geom", "--scenario", "brick"]) == 2

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("scenario=periodic\nwidth=3\n")
        assert main(["geom", "--config", str(p)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command,csv", [
        (["geom"], "geom.csv"),
        (["check-unfold", "--eps", "1/8"], "check_unfold.csv"),
        (["micro", "--eps", "1/8", "--cells-per-eps", "8", "--T", "0.05"],
         "micro_series.csv")], ids=["geom", "check-unfold", "micro"])
    def test_negative_radius_is_rejected(self, command, csv, tmp_path,
                                         capsys):
        code = main(command + ["--scenario", "periodic", "--a", "-0.3",
                               "--outdir", str(tmp_path)])
        assert code == 2
        assert "error: inclusion radius must be at least 0" \
            in capsys.readouterr().err
        assert not (tmp_path / csv).exists()

    def test_over_budget_dt_rule_exits_2_without_csv(self, tmp_path, capsys,
                                                     monkeypatch):
        # 0.2 exceeds periodic's explicit budget 0.5/3.2: a usage error
        # before the tensor field, not three failed rows
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(harness, "tensor_field", no_solve)
        code = main(["converge", "--scenario", "periodic", "--dt-rule", "0.2",
                     "--outdir", str(tmp_path)])
        assert code == 2
        assert ("error: dt=0.2 exceeds the explicit reaction budget"
                in capsys.readouterr().err)
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (["converge", "--dt-rule", "nan"], "dt_rule must be"),
        (["micro", "--eps", "1/8", "--r", "1.5"], "r must lie in (0, 1)"),
    ], ids=["converge-nan-dt-rule", "micro-r-above-1"])
    def test_bad_run_parameter_exits_2_before_any_solve(
            self, argv, message, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(harness, "tensor_field", no_solve)
        monkeypatch.setattr(micro, "build_micro_grid", no_solve)
        code = main(argv + ["--scenario", "periodic",
                            "--outdir", str(tmp_path)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["converge"], ["macro", "--H", "1/8"],
                                      ["cell"]],
                             ids=["converge", "macro", "cell"])
    def test_coarse_cell_grid_exits_2_before_any_solve(
            self, argv, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(cell_problem, "solve_cell", no_solve)
        monkeypatch.setattr(micro, "build_micro_grid", no_solve)
        code = main(argv + ["--scenario", "periodic", "--Nc", "16",
                            "--outdir", str(tmp_path)])
        assert code == 2
        assert ("error: cell grid too coarse, need N_c >= 32"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_nan_dt_rule_in_a_config_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("scenario=periodic\ndt_rule=nan\n")
        out = tmp_path / "out"
        assert main(["converge", "--config", str(p),
                     "--outdir", str(out)]) == 2
        assert "error: dt_rule must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["converge", "--eps", "abc"], "--eps"),
        (["converge", "--eps", "1/0"], "--eps"),
        (["micro", "--T", "x"], "--T"),
        (["check-unfold", "--eps", ","], "--eps"),
        (["geom", "--r", "nan"], "--r"),
    ], ids=["converge-eps-word", "converge-eps-zero-denominator",
            "micro-T-word", "check-unfold-eps-empty", "geom-r-nan"])
    def test_malformed_number_flag_exits_2(self, argv, flag, tmp_path,
                                           capsys):
        code = main(argv + ["--scenario", "periodic",
                            "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: " in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_number_flag_prints_no_traceback(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "lphom.cli", "converge", "--scenario",
             "periodic", "--eps", "abc", "--outdir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "error: argument --eps: not a number: 'abc'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_single_eps_subcommands_reject_sweeps(self, capsys):
        code = main(["micro", "--scenario", "periodic",
                     "--eps", "1/4,1/8", "--outdir", "/tmp"])
        assert code == 2
        assert "single epsilon" in capsys.readouterr().err


class TestGeomCommand:
    def test_rows_and_determinism(self, tmp_path):
        argv = ["geom", "--scenario", "periodic", "--eps", "1/4", "--r", "0.5"]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(argv + ["--outdir", str(out)]) == 0
            outs.append((out / "geom.csv").read_bytes())
        assert outs[0] == outs[1]
        rows = read_csv(tmp_path / "a" / "geom.csv")
        # side 1/2: a 2x2 covering, each subdomain holding 2x2 cells
        assert len(rows) == 4
        for r in rows:
            assert r[0] == 0.25
            assert r[-2] == 4.0    # interior cells
        header = (tmp_path / "a" / "geom.csv").read_text().splitlines()
        assert header[0] == "# scenario=periodic"


class TestCheckUnfoldCommand:
    def test_identities_hold_at_one_epsilon(self, tmp_path):
        code = main(["check-unfold", "--scenario", "periodic",
                     "--eps", "1/8", "--outdir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "check_unfold.csv").read_text().splitlines()
        data = [ln for ln in text if ln and not ln.startswith("#")
                and not ln.startswith("check_name")]
        assert len(data) == 3
        names = {ln.split(",")[0] for ln in data}
        assert names == {"integration_pwc", "integration_smooth",
                         "boundary_identity"}
        assert all(ln.endswith(",true") for ln in data)
        # the piecewise-constant identity is exact up to roundoff
        pwc = next(ln for ln in data if ln.startswith("integration_pwc"))
        assert float(pwc.split(",")[4]) <= 1e-12

    def test_rotated_lattices_at_two_epsilons(self, tmp_path):
        code = main(["check-unfold", "--scenario", "plywood2d",
                     "--eps", "1/8,1/16", "--outdir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "check_unfold.csv").read_text().splitlines()
        data = [ln.split(",") for ln in text if ln and not ln.startswith("#")
                and not ln.startswith("check_name")]
        assert len(data) == 6
        assert sorted({float(row[1]) for row in data}) == [1 / 16, 1 / 8]
        assert all(row[-1] == "true" for row in data)
        for row in data:
            if row[0] == "integration_pwc":
                assert float(row[4]) <= 1e-12

    @pytest.mark.parametrize("n_gamma", ["0", "-3"])
    def test_bad_n_gamma_is_rejected_before_any_work(self, n_gamma, tmp_path,
                                                      capsys, monkeypatch):
        def no_partition(*args, **kwargs):
            raise AssertionError("a partition was built")

        monkeypatch.setattr(cli, "build_partition", no_partition)
        code = main(["check-unfold", "--scenario", "periodic", "--eps", "1/8",
                     "--n-gamma", n_gamma, "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: n_gamma must be at least 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "check_unfold.csv").exists()

    def test_bad_epsilon_is_rejected_before_any_check(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "check_integration_identity", no_check)
        monkeypatch.setattr(cli, "check_boundary_identity", no_check)
        code = main(["check-unfold", "--scenario", "periodic",
                     "--eps", "1/8,1/2", "--outdir", str(tmp_path)])
        assert code == 2
        assert "cannot hold one full cell" in capsys.readouterr().err
        assert not (tmp_path / "check_unfold.csv").exists()

    def test_failing_check_exits_1_without_csv(self, tmp_path, capsys,
                                               monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boundary quadrature broke")

        monkeypatch.setattr(cli, "check_boundary_identity", broken)
        code = main(["check-unfold", "--scenario", "periodic",
                     "--eps", "1/8,1/16", "--outdir", str(tmp_path)])
        assert code == 1
        assert "error: boundary quadrature broke" in capsys.readouterr().err
        assert not (tmp_path / "check_unfold.csv").exists()

    def test_checks_overlap_on_two_workers(self, tmp_path, monkeypatch):
        # the first integration check waits for a second one to start,
        # which only a second worker can run; the timeout bounds the test
        first, second = threading.Event(), threading.Event()
        met = []
        real = cli.check_integration_identity

        def waiting(*args, **kwargs):
            if first.is_set():
                second.set()
            else:
                first.set()
                met.append(second.wait(timeout=5.0))
            return real(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "check_integration_identity", waiting)
        assert main(["check-unfold", "--scenario", "periodic", "--eps", "1/8",
                     "--outdir", str(tmp_path)]) == 0
        assert met == [True]


GOLDEN = Path(__file__).resolve().parent / "data"


class TestGeomGolden:
    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    def test_output_is_byte_identical(self, name, tmp_path):
        code = main(["geom", "--scenario", name, "--eps", "1/8,1/16,1/32,1/64",
                     "--outdir", str(tmp_path)])
        assert code == 0
        got = (tmp_path / "geom.csv").read_bytes()
        assert got == (GOLDEN / f"geom_{name}.csv").read_bytes()


class TestCellGolden:
    # pinned before the cut-cell geometry and the stiffness became array
    # passes; they must keep every byte
    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    def test_output_is_byte_identical(self, name, tmp_path):
        code = main(["cell", "--scenario", name, "--Nc", "64",
                     "--outdir", str(tmp_path)])
        assert code == 0
        got = (tmp_path / "cell_tensors.csv").read_bytes()
        assert got == (GOLDEN / f"cell_{name}.csv").read_bytes()


class TestCheckUnfoldGolden:
    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    def test_output_is_byte_identical(self, name, tmp_path):
        code = main(["check-unfold", "--scenario", name,
                     "--eps", "1/8,1/16,1/32", "--outdir", str(tmp_path)])
        assert code == 0
        got = (tmp_path / "check_unfold.csv").read_bytes()
        assert got == (GOLDEN / f"check_unfold_{name}.csv").read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    def test_output_does_not_depend_on_the_pool_size(self, name, workers,
                                                     tmp_path, monkeypatch):
        import concurrent.futures

        sizes = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # threads switch often
        try:
            code = main(["check-unfold", "--scenario", name,
                         "--eps", "1/8,1/16,1/32", "--outdir", str(tmp_path)])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0 and sizes == [workers]
        got = (tmp_path / "check_unfold.csv").read_bytes()
        assert got == (GOLDEN / f"check_unfold_{name}.csv").read_bytes()

    def test_no_grid_is_sampled(self, tmp_path, monkeypatch):
        from lphom import unfolding

        sampled = []
        sample_rows = unfolding._sample_rows

        def counting(f, grid):
            sampled.append(grid.shape)
            return sample_rows(f, grid)

        monkeypatch.setattr(unfolding, "_sample_rows", counting)
        assert main(["check-unfold", "--scenario", "plywood2d",
                     "--eps", "1/8,1/16", "--outdir", str(tmp_path)]) == 0
        assert sampled == []
        # the wrapper does count a read of values
        unfolding.grid_function_from_callable(
            lambda X: X[:, 0], np.zeros(2), np.ones(2), 1 / 8).values
        assert sampled == [(8, 8)]


class TestSolverGolden:
    # pinned at the commit before the micro and macro solvers shared one
    # time-stepping driver; the driver must keep every byte
    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    @pytest.mark.parametrize("command, args", [
        ("micro", ["--eps", "1/8", "--cells-per-eps", "8"]),
        ("macro", ["--H", "1/8", "--Nc", "32"]),
    ])
    def test_output_is_byte_identical(self, command, args, name, tmp_path):
        code = main([command, "--scenario", name, *args, "--T", "0.05",
                     "--outdir", str(tmp_path)])
        assert code == 0
        for kind in ("series", "field"):
            name_kind = f"{command}_{kind}"
            got = (tmp_path / f"{name_kind}.csv").read_bytes()
            assert got == (GOLDEN / f"{name_kind}_{name}.csv").read_bytes()


class TestBenchmarkHooks:
    def test_every_hook_finds_its_target(self):
        # perfbench wraps module attributes by name; a renamed attribute
        # would silently drop the metrics that depend on it
        root = Path(__file__).resolve().parents[1]
        code = ("import json\n"
                "from tracing import Tracer, install_lphom_hooks\n"
                "t = Tracer()\n"
                "install_lphom_hooks(t)\n"
                "print(json.dumps({'missing': t.missing,"
                " 'installed': sorted(t.installed)}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["missing"] == []
        assert len(out["installed"]) == 17

    def test_solver_layers_are_attributed(self):
        # a factorization or solve the hooks cannot see (say, through a
        # module-level `from scipy.sparse.linalg import splu`) would drop
        # these metrics silently; every step is one recorded LU solve
        root = Path(__file__).resolve().parents[1]
        code = ("import json\n"
                "from tracing import Tracer, install_lphom_hooks, "
                "layer_metrics\n"
                "t = Tracer()\n"
                "install_lphom_hooks(t)\n"
                "from lphom.harness import StudyConfig, convergence_study\n"
                "from lphom.scenarios import get_scenario\n"
                "study = StudyConfig(get_scenario('periodic'),"
                " eps_list=(1/4, 1/8), cells_per_eps=8, N_c=32, H=1/8,"
                " T=0.5, n_samples=4)\n"
                "with t.span('study'):\n"
                "    rows = convergence_study(study, max_workers=2).rows\n"
                "assert all(r.error is None for r in rows)\n"
                "print(json.dumps({k: v['value'] for k, v in"
                " layer_metrics(t).items()}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in ("micro.factor_s", "macro.fill_nnz", "micro.steps",
                     "macro.steps"):
            assert got.get(name, 0) > 0, name

        def steps(dt):          # n_samples windows of whole sub-steps
            return 4 * math.ceil(0.5 / 4 / dt - 1e-12)

        # dt = h for each micro run, the finest h for the macro run
        assert got["micro.steps"] == steps(1 / 32) + steps(1 / 64)
        assert got["macro.steps"] == steps(1 / 64)


    def test_partition_builds_are_traced(self, tmp_path):
        # perfbench wraps micro.build_partition and cli.build_partition; a
        # covering built past those bindings would drop its span silently
        root = Path(__file__).resolve().parents[1]
        code = ("import json, sys\n"
                "from tracing import Tracer, install_lphom_hooks\n"
                "t = Tracer()\n"
                "install_lphom_hooks(t)\n"
                "from lphom import cli, micro\n"
                "from lphom.scenarios import get_scenario\n"
                "def cells():\n"
                "    return [s['attrs']['lattice_cells'] for s in t.spans\n"
                "            if s['name'] == 'geometry.partition']\n"
                "micro.build_micro_grid(micro.MicroConfig(\n"
                "    get_scenario('plywood2d'), 1 / 8, cells_per_eps=8,"
                " T=0.0))\n"
                "grid = cells()\n"
                "assert cli.main(['check-unfold', '--scenario', 'plywood2d',"
                " '--eps', '1/8,1/16,1/32,1/64,1/128',"
                " '--outdir', sys.argv[1]]) == 0\n"
                "print(json.dumps({'grid': grid,"
                " 'unfold': cells()[len(grid):]}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(got["grid"]) == 1
        assert len(got["unfold"]) == 5
        assert sum(got["unfold"]) == 28022


class TestCellCommand:
    def test_matches_direct_solve_and_roundtrips(self, tmp_path):
        code = main(["cell", "--scenario", "plywood2d",
                     "--points", "0.25,0.5;0.75,0.25", "--Nc", "32",
                     "--outdir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "cell_tensors.csv"
        rows = read_csv(path)
        assert len(rows) == 2

        sc = get_scenario("plywood2d")
        fld = tensor_field(np.array([[0.25, 0.5], [0.75, 0.25]]),
                           sc.suite.A, sc.transform, sc.cell, N_c=32)
        for i, r in enumerate(rows):
            assert np.allclose(r[2:6], fld.tensors[i].ravel(), atol=1e-12)
            assert abs(r[6] - fld.theta[i]) < 1e-12

        back = cli._read_tensor_csv(str(path))
        assert back.N_c == 32
        assert np.allclose(back.tensors, fld.tensors, atol=1e-11)
        assert np.allclose(back.points, fld.points)

    def test_feeds_the_macro_solver(self, tmp_path):
        # the default 8x8 point grid is exactly the macro node set at H=1/8
        assert main(["cell", "--scenario", "periodic", "--Nc", "32",
                     "--outdir", str(tmp_path)]) == 0
        code = main(["macro", "--scenario", "periodic", "--H", "1/8",
                     "--T", "0.05", "--tensors",
                     str(tmp_path / "cell_tensors.csv"),
                     "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "macro_series.csv").exists()
        assert (tmp_path / "macro_field.csv").exists()

    def test_mismatched_tensor_nodes_are_rejected(self, tmp_path, capsys):
        assert main(["cell", "--scenario", "periodic", "--Nc", "32",
                     "--points", "0.5,0.5", "--outdir", str(tmp_path)]) == 0
        code = main(["macro", "--scenario", "periodic", "--H", "1/8",
                     "--T", "0.05", "--tensors",
                     str(tmp_path / "cell_tensors.csv"),
                     "--outdir", str(tmp_path)])
        assert code == 2
        assert "does not cover" in capsys.readouterr().err


class TestMicroCommand:
    def test_series_field_and_determinism(self, tmp_path):
        argv = ["micro", "--scenario", "periodic", "--eps", "1/8",
                "--cells-per-eps", "8", "--T", "0.05"]
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(argv + ["--outdir", str(out)]) == 0
            blobs.append((out / "micro_series.csv").read_bytes()
                         + (out / "micro_field.csv").read_bytes())
        assert blobs[0] == blobs[1]

        rows = read_csv(tmp_path / "a" / "micro_series.csv")
        assert len(rows) == 21            # 20 samples plus t=0
        assert rows[0][0] == 0.0
        assert abs(rows[-1][0] - 0.05) < 1e-12
        fld = read_csv(tmp_path / "a" / "micro_field.csv")
        # one row per fluid cell on the 64^2 grid
        assert 0.7 * 64**2 < len(fld) < 64**2
        assert all(v[2] > 0.0 for v in fld)


class TestConvergeCommand:
    def test_small_study_passes_with_pinned_values(self, tmp_path, capsys):
        code = main(["converge", "--scenario", "periodic",
                     "--eps", "1/4,1/8", "--cells-per-eps", "8",
                     "--Nc", "32", "--H", "1/8", "--T", "0.1",
                     "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        text = (tmp_path / "convergence.csv").read_text().splitlines()
        assert text[-1] == "# verdict=pass"
        rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 2
        E = [r[1] for r in rows]
        assert E[0] > E[1]
        assert abs(E[0] - 3.768372569783e-03) < 1e-9
        assert abs(E[1] - 2.918703893225e-03) < 1e-9
        assert (tmp_path / "convergence.csv").read_bytes() \
            == (GOLDEN / "converge_small.csv").read_bytes()


def row_bits(row):
    """Everything a study row reports, floats as exact hex strings."""
    vals = (row.E, row.energy_micro, row.energy_macro, row.energy_gap,
            row.lts_gap)
    return (row.epsilon, *(float(v).hex() for v in vals), row.passed,
            row.error)


class TestScheduler:
    @pytest.fixture(scope="class")
    def study(self):
        return StudyConfig(scenario=get_scenario("epithelial"),
                           eps_list=(1 / 4, 1 / 8, 1 / 16), cells_per_eps=8,
                           N_c=32, H=1 / 8, T=0.1)

    @pytest.fixture(scope="class")
    def serial(self, study):
        return convergence_study(study, max_workers=1)

    def test_rows_do_not_depend_on_pool_size(self, study, serial):
        threaded = convergence_study(study, max_workers=3)
        assert [r.epsilon for r in serial.rows] == list(study.eps_list)
        assert all(r.passed for r in serial.rows)
        assert [row_bits(r) for r in threaded.rows] \
            == [row_bits(r) for r in serial.rows]

    def test_micro_factorizations_run_one_at_a_time(self, study, serial,
                                                    monkeypatch):
        # the first factorization waits for a second one to start, which
        # only the set-up lock keeps out; its timeout bounds the test
        intervals = []
        first, second = threading.Event(), threading.Event()

        def recording_splu(A, *args, **kwargs):
            start = time.perf_counter()
            if first.is_set():
                second.set()
            else:
                first.set()
                second.wait(timeout=1.0)
            lu = spla.splu(A, *args, **kwargs)
            intervals.append((start, time.perf_counter()))
            return lu

        monkeypatch.setattr(micro, "spla", SimpleNamespace(splu=recording_splu))
        threaded = convergence_study(study, max_workers=2)
        spans = sorted(intervals)
        assert len(spans) == 3
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
        assert [row_bits(r) for r in threaded.rows] \
            == [row_bits(r) for r in serial.rows]

    def test_serial_order_is_macro_then_finest_first(self, study,
                                                     monkeypatch):
        calls = []
        real_field, real_micro = harness.tensor_field, harness.run_micro

        def field(*args, **kwargs):
            calls.append("tensor_field")
            return real_field(*args, **kwargs)

        def micro(cfg, *args, **kwargs):
            calls.append(cfg.eps)
            return real_micro(cfg, *args, **kwargs)

        monkeypatch.setattr(harness, "tensor_field", field)
        monkeypatch.setattr(harness, "run_micro", micro)
        convergence_study(study, max_workers=1)
        assert calls == ["tensor_field", 1 / 16, 1 / 8, 1 / 4]

    def test_macro_failure_marks_every_row(self, study, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("factorization broke")

        monkeypatch.setattr(harness, "run_macro", broken)
        rep = convergence_study(study, max_workers=3)
        assert [r.error for r in rep.rows] \
            == ["macro run failed: factorization broke"] * 3
        assert rep.macro_run is None and not rep.passed

    def test_micro_failure_stays_in_its_row(self, study, serial,
                                            monkeypatch):
        real_micro = harness.run_micro

        def flaky(cfg, *args, **kwargs):
            if cfg.eps == 1 / 8:
                raise RuntimeError("grid broke")
            return real_micro(cfg, *args, **kwargs)

        monkeypatch.setattr(harness, "run_micro", flaky)
        rep = convergence_study(study, max_workers=3)
        assert rep.rows[1].error == "micro run failed: grid broke"
        assert math.isnan(rep.rows[1].E) and not rep.passed
        for k in (0, 2):
            assert row_bits(rep.rows[k]) == row_bits(serial.rows[k])


class TestUnperforatedStudy:
    def test_micro_equals_macro_to_roundoff(self):
        # no perforations and A = I: both solvers integrate the same heat
        # equation from the same initial state; with one shared dt the
        # relative distance sits at the arithmetic floor
        sc = get_scenario("periodic", a=0.0)
        study = StudyConfig(scenario=sc, eps_list=(1 / 4, 1 / 8),
                            cells_per_eps=8, N_c=32, H=1 / 8, T=0.05,
                            dt_rule="0.005")
        rep = convergence_study(study)
        for row in rep.rows:
            assert row.error is None
            assert row.E <= 1e-10
            assert row.lts_gap <= 1e-10


class TestStudyConfigValidation:
    def test_bad_epsilon_lists(self):
        sc = get_scenario("periodic")
        with pytest.raises(ValueError, match="must not be empty"):
            StudyConfig(scenario=sc, eps_list=())
        with pytest.raises(ValueError, match="strictly decreasing"):
            StudyConfig(scenario=sc, eps_list=(1 / 8, 1 / 8))
        with pytest.raises(ValueError, match="lie in"):
            StudyConfig(scenario=sc, eps_list=(2.0, 1 / 8))

    def test_bad_dt_rule(self):
        sc = get_scenario("periodic")
        with pytest.raises(ValueError, match="dt_rule"):
            StudyConfig(scenario=sc, dt_rule="fast")
        with pytest.raises(ValueError, match="positive"):
            StudyConfig(scenario=sc, dt_rule="-0.01")
        for rule in ("nan", "inf", "-inf", None):
            with pytest.raises(ValueError, match="finite positive"):
                StudyConfig(scenario=sc, dt_rule=rule)

    @pytest.mark.parametrize("key,value,message", [
        ("T", math.nan, "final time"), ("T", math.inf, "final time"),
        ("r", math.nan, "r must lie"), ("r", 1.5, "r must lie")])
    def test_non_finite_or_out_of_range_parameters(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            StudyConfig(scenario=get_scenario("periodic"), **{key: value})

    def test_over_budget_dt_rule(self):
        sc = get_scenario("periodic")
        assert sc.suite.bulk_lipschitz == 3.2
        with pytest.raises(ValueError, match="explicit reaction budget"):
            StudyConfig(scenario=sc, dt_rule="0.2")
        StudyConfig(scenario=sc, dt_rule="0.15")
        # a study with no steps checks no budget, as imex.schedule
        StudyConfig(scenario=sc, dt_rule="0.2", T=0.0)

    def test_coarse_cell_grid(self):
        sc = get_scenario("periodic")
        with pytest.raises(ValueError, match="N_c >= 32"):
            StudyConfig(scenario=sc, N_c=16)
        with pytest.raises(ValueError, match="N_c >= 32"):
            MacroConfig(sc, H=1 / 8, N_c=16)
        StudyConfig(scenario=sc, N_c=32)

    def test_bad_sample_count(self):
        with pytest.raises(ValueError, match="n_samples"):
            StudyConfig(scenario=get_scenario("periodic"), n_samples=0)

    def test_dt_rules_resolve(self):
        sc = get_scenario("periodic")
        s = StudyConfig(scenario=sc, eps_list=(1 / 4, 1 / 8), cells_per_eps=8)
        assert s.micro_dt(1 / 4) == 1 / 32
        assert s.macro_dt() == 1 / 64       # finest micro dt in the sweep
        s2 = StudyConfig(scenario=sc, eps_list=(1 / 4,), cells_per_eps=8,
                         dt_rule="0.01")
        assert s2.micro_dt(1 / 4) == 0.01
        assert s2.macro_dt() == 0.01


class TestBilinearSampling:
    def test_reproduces_affine_fields(self):
        H = 0.25
        c = (np.arange(4) + 0.5) * H
        X, Y = np.meshgrid(c, c, indexing="ij")
        vals = 2.0 + 3.0 * X - Y
        rng = np.random.default_rng(3)
        pts = rng.uniform(H / 2, 1 - H / 2, size=(40, 2))
        out = _sample_bilinear(vals, H, pts)
        ref = 2.0 + 3.0 * pts[:, 0] - pts[:, 1]
        assert np.max(np.abs(out - ref)) < 1e-13

    def test_constant_extension_outside_the_centers(self):
        H = 0.25
        c = (np.arange(4) + 0.5) * H
        X, Y = np.meshgrid(c, c, indexing="ij")
        vals = 2.0 + 3.0 * X - Y
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.5]])
        out = _sample_bilinear(vals, H, pts)
        assert abs(out[0] - vals[0, 0]) < 1e-14
        assert abs(out[1] - vals[3, 3]) < 1e-14
        # clamps only the wall-normal coordinate
        assert abs(out[2] - (2.0 + 3.0 * H / 2 - 0.5)) < 1e-13
