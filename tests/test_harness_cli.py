"""Tests for the convergence harness and the command line front end.

Oracles: bilinear sampling against an affine field it must reproduce,
an unperforated study whose micro and macro runs solve the same equation
(E at the arithmetic floor), a small perforated study with pinned values,
and byte-level determinism of the CSV writers. CLI handlers run in
process through main(), so exit codes and output files are checked
without spawning interpreters.
"""

import importlib.util
import json
import math
import operator
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

from lphom import cell_problem, cli, harness, macro, micro
from lphom.cell_problem import EffectiveTensorField, tensor_field
from lphom.cli import UsageError, load_config_file, main
from lphom.harness import (
    StudyConfig,
    _bilinear_plan,
    _sample_bilinear,
    convergence_study,
)
from lphom.imex import N_SAMPLES, step_of
from lphom.macro import MacroConfig, macro_nodes
from lphom.scenarios import CoefficientSuite, get_scenario


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


def write_tensor_file(path, H, theta=1.0):
    """A tensor CSV as the cell command writes it: the identity tensor and
    the porosity theta at every macro node of spacing H."""
    nodes = macro_nodes(MacroConfig(get_scenario("periodic"), H=H))
    P = len(nodes)
    fld = EffectiveTensorField(points=nodes,
                               tensors=np.tile(np.eye(2), (P, 1, 1)),
                               theta=np.full(P, theta),
                               residual=np.zeros(P), N_c=32,
                               errors=[None] * P)
    path.write_text("\n".join(cli._tensor_csv_lines({}, fld)) + "\n")


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

    def test_rejects_numbers_beyond_the_float_range(self):
        # float(Fraction("1e400")) raises OverflowError, not ValueError
        with pytest.raises(UsageError, match="not a number: '1e400'"):
            cli._number("1e400")

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

    def test_number_beyond_the_float_range_on_a_flag_exits_2(self, tmp_path,
                                                             capsys):
        code = main(["geom", "--scenario", "periodic", "--r", "1e400",
                     "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --r: not a number: '1e400'" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_number_beyond_the_float_range_in_a_config_exits_2(
            self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(harness, "tensor_field", no_solve)
        monkeypatch.setattr(micro, "build_micro_grid", no_solve)
        p = tmp_path / "c.cfg"
        p.write_text("scenario = periodic\nT = 1e400\n")
        out = tmp_path / "out"
        assert main(["converge", "--config", str(p),
                     "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: not a number: '1e400'" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("scenario,a,message", [
        ("plywood2d", "0.36", "elliptical inclusion leaves the unit cell"),
        ("radius-gradient", "0.34", "scaled perforation leaves the unit cell"),
    ])
    def test_inclusion_beyond_the_cell_is_rejected(self, scenario, a, message,
                                                   tmp_path, capsys):
        # K stretches the disk by 1.4 (plywood2d) and by up to 1.5
        # (radius-gradient), so a radius below 1/2 can still leave the cell
        code = main(["geom", "--scenario", scenario, "--a", a,
                     "--outdir", str(tmp_path)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "geom.csv").exists()

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
        (["micro", "--eps", "1/8", "--dt-rule", "nan"], "dt_rule must be"),
        (["macro", "--H", "1/8", "--dt-rule", "nan"], "dt_rule must be"),
        (["micro", "--eps", "1/8", "--r", "1.5"], "r must lie in (0, 1)"),
    ], ids=["converge-nan-dt-rule", "micro-nan-dt-rule", "macro-nan-dt-rule",
            "micro-r-above-1"])
    def test_bad_run_parameter_exits_2_before_any_solve(
            self, argv, message, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(harness, "tensor_field", no_solve)
        monkeypatch.setattr(cell_problem, "solve_cell", no_solve)
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

    def test_coarse_cell_grid_with_a_tensor_file_exits_2_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        # the file brings the tensors, yet a coarse Nc is still rejected
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(macro, "assemble_macro", no_solve)
        monkeypatch.setattr(macro, "run_macro", no_solve)
        path = tmp_path / "tensors.csv"
        write_tensor_file(path, 1 / 8)
        out = tmp_path / "out"
        code = main(["macro", "--scenario", "periodic", "--H", "1/8",
                     "--Nc", "16", "--tensors", str(path),
                     "--outdir", str(out)])
        assert code == 2
        assert ("error: cell grid too coarse, need N_c >= 32"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("theta", [0.0, -0.5, math.nan, 1.5])
    def test_porosity_outside_0_1_exits_2_before_any_solve(
            self, theta, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(macro.MacroOperator, "factor", no_solve)
        path = tmp_path / "tensors.csv"
        write_tensor_file(path, 1 / 8, theta=theta)
        out = tmp_path / "out"
        code = main(["macro", "--scenario", "periodic", "--H", "1/8",
                     "--T", "0.05", "--tensors", str(path),
                     "--outdir", str(out)])
        assert code == 2
        assert (f"error: porosity at node 0 must lie in (0, 1], "
                f"got {theta!r}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["df", "db"])
    @pytest.mark.parametrize("argv", [
        ["micro", "--eps", "1/4", "--T", "0.01"],
        ["macro", "--H", "1/8", "--T", "0.01"],
        ["converge"]], ids=["micro", "macro", "converge"])
    def test_zero_decay_rate_exits_2_before_any_solve(
            self, argv, rate, tmp_path, capsys, monkeypatch):
        # the receptor bound divides by the decay rates
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(harness, "tensor_field", no_solve)
        monkeypatch.setattr(cell_problem, "solve_cell", no_solve)
        monkeypatch.setattr(micro, "build_micro_grid", no_solve)
        p = tmp_path / "c.cfg"
        p.write_text(f"{rate}=0\n")
        out = tmp_path / "out"
        code = main(argv + ["--scenario", "periodic", "--config", str(p),
                            "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"error: decay rate {rate} must be finite and positive, "
                f"got 0.0") in err
        assert "Traceback" not in err
        assert not out.exists()

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

    # pinned down to the benchmark's finest eps before the integration
    # check weighted its samples in place; they must keep every byte
    @pytest.mark.parametrize("name", ["periodic", "epithelial", "plywood2d",
                                      "radius-gradient"])
    def test_fine_output_is_byte_identical(self, name, tmp_path):
        code = main(["check-unfold", "--scenario", name,
                     "--eps", "1/8,1/16,1/32,1/64,1/128",
                     "--outdir", str(tmp_path)])
        assert code == 0
        got = (tmp_path / "check_unfold.csv").read_bytes()
        assert got == (GOLDEN / f"check_unfold_{name}_fine.csv").read_bytes()

    def test_pool_is_sized_without_sched_getaffinity(self, tmp_path,
                                                      monkeypatch):
        # os.sched_getaffinity is missing on macOS and Windows; the pool
        # then takes the CPU count
        import concurrent.futures

        sizes = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        code = main(["check-unfold", "--scenario", "periodic",
                     "--eps", "1/8,1/16,1/32", "--outdir", str(tmp_path)])
        assert code == 0 and sizes == [3]
        got = (tmp_path / "check_unfold.csv").read_bytes()
        assert got == (GOLDEN / "check_unfold_periodic.csv").read_bytes()

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
        from lphom.unfolding import GridFunction

        built = []
        init = GridFunction.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GridFunction, "__init__", counting)
        assert main(["check-unfold", "--scenario", "plywood2d",
                     "--eps", "1/8,1/16", "--outdir", str(tmp_path)]) == 0
        assert built == []


class TestSolverGolden:
    # pinned at the commit before the micro and macro solvers shared one
    # time-stepping driver; the driver must keep every byte. The micro
    # headers have stated the run's eps since
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

    def test_hooks_install_in_process_and_are_restored(self):
        # the same check in this process: every hook target exists, and
        # putting back what install_lphom_hooks replaced leaves the
        # modules as they were for the tests that follow
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", root / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        modules = (cell_problem, cli, harness, micro, spla)
        before = [dict(vars(m)) for m in modules]
        tracer = tracing.Tracer()
        try:
            tracing.install_lphom_hooks(tracer)
        finally:
            patched = set()
            for m, attrs in zip(modules, before):
                for name, value in attrs.items():
                    if getattr(m, name) is not value:
                        patched.add(f"{m.__name__}.{name}")
                        setattr(m, name, value)
        assert tracer.missing == []
        assert {"lphom.harness.run_micro", "lphom.harness.tensor_field",
                "scipy.sparse.linalg.splu"} <= patched
        assert len(patched) == 13       # 12 lphom attributes and splu
        for m, attrs in zip(modules, before):
            assert all(getattr(m, k) is v for k, v in attrs.items())

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
                " T=0.5)\n"
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

        def steps(dt):          # N_SAMPLES windows of whole sub-steps
            return N_SAMPLES * math.ceil(0.5 / N_SAMPLES / dt - 1e-12)

        # dt = h for each micro run, the finest h for the macro run
        assert got["micro.steps"] == steps(1 / 32) + steps(1 / 64)
        assert got["macro.steps"] == steps(1 / 64)

    def test_benchmark_selftest_passes(self):
        # the benchmark's own check of its worker and tracing on tiny
        # workloads, run as its docstring says, from the repository root
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                              cwd=root, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "selftest passed"

    def test_partition_builds_are_traced(self, tmp_path):
        # perfbench wraps micro.build_partition and cli.build_partition, and
        # the check-unfold checks through their lphom.cli bindings; a
        # covering or check run past those bindings would drop its span
        # silently
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
                "spans = [s['name'] for s in t.spans]\n"
                "print(json.dumps({'grid': grid,"
                " 'unfold': cells()[len(grid):],"
                " 'checks': {k: spans.count('unfolding.' + k) for k in"
                " ('pwc_field', 'integration', 'boundary')}}))\n")
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
        # per eps: one piecewise-constant field, three integration checks
        # (piecewise constant, smooth at m_y = 4 and 8), one boundary check
        assert got["checks"] == {"pwc_field": 5, "integration": 15,
                                 "boundary": 5}


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

    def test_headers_state_the_tensor_files_Nc(self, tmp_path):
        # the tensors come from the file, so its N_c, not the flag's, is
        # the field's
        assert main(["cell", "--scenario", "periodic", "--Nc", "32",
                     "--outdir", str(tmp_path)]) == 0
        code = main(["macro", "--scenario", "periodic", "--H", "1/8",
                     "--T", "0.05", "--Nc", "96", "--tensors",
                     str(tmp_path / "cell_tensors.csv"),
                     "--outdir", str(tmp_path)])
        assert code == 0
        for kind in ("series", "field"):
            text = (tmp_path / f"macro_{kind}.csv").read_text()
            header = [ln for ln in text.splitlines() if ln.startswith("#")]
            assert "# Nc=32" in header and "# Nc=96" not in header

    def test_headers_state_the_default_Nc(self, tmp_path):
        # with neither --tensors nor --Nc the field is computed at N_c = 64
        code = main(["macro", "--scenario", "periodic", "--H", "1/8",
                     "--T", "0.01", "--outdir", str(tmp_path)])
        assert code == 0
        for kind in ("series", "field"):
            text = (tmp_path / f"macro_{kind}.csv").read_text()
            header = [ln for ln in text.splitlines() if ln.startswith("#")]
            assert header[-1] == "# Nc=64"
            assert [ln for ln in header if ln.startswith("# Nc=")] \
                == ["# Nc=64"]

    def test_a_tensor_file_with_two_Nc_is_rejected(self, tmp_path, capsys):
        # half the rows of an N_c = 32 file edited to N_c = 128
        assert main(["cell", "--scenario", "periodic", "--Nc", "32",
                     "--outdir", str(tmp_path)]) == 0
        path = tmp_path / "cell_tensors.csv"
        lines = path.read_text().splitlines()
        rows = [i for i, ln in enumerate(lines)
                if not ln.startswith(("#", "x1"))]
        for i in rows[len(rows) // 2:]:
            assert lines[i].endswith(",32")
            lines[i] = lines[i][:-len("32")] + "128"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["macro", "--scenario", "periodic", "--H", "1/8",
                     "--T", "0.05", "--tensors", str(path),
                     "--outdir", str(out)])
        assert code == 2
        assert "mixes N_c 32 and 128" in capsys.readouterr().err
        assert not (out / "macro_series.csv").exists()

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

    ARGV = ["micro", "--scenario", "periodic", "--eps", "1/8",
            "--cells-per-eps", "8", "--T", "0.01"]

    def csv_lines(self, argv, out):
        assert main(self.ARGV + argv + ["--outdir", str(out)]) == 0
        return [(out / f"micro_{kind}.csv").read_text().splitlines()
                for kind in ("series", "field")]

    def test_dt_rule_h_runs_as_no_rule(self, tmp_path):
        # both step with the grid width; the given rule is stated
        plain = self.csv_lines([], tmp_path / "plain")
        h = self.csv_lines(["--dt-rule", "h"], tmp_path / "h")
        for got, want in zip(h, plain):
            at = want.index("# T=0.01") + 1
            assert got == want[:at] + ["# dt_rule=h"] + want[at:]

    def test_dt_prefix_sets_the_dt_rule(self, tmp_path):
        # argparse reads --dt as the prefix of --dt-rule. The step 1e-4 is
        # below the grid width and the 5e-4 sampling window, so the series
        # rows differ from the default's
        dt = self.csv_lines(["--dt", "0.0001"], tmp_path / "dt")
        assert "# dt_rule=0.0001" in dt[0] and "# dt_rule=0.0001" in dt[1]
        assert dt == self.csv_lines(["--dt-rule", "0.0001"],
                                    tmp_path / "rule")
        [plain, _] = self.csv_lines([], tmp_path / "plain")
        assert dt[0][-1] != plain[-1]


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

    def test_keys_left_out_take_the_study_defaults(self, tmp_path,
                                                   monkeypatch):
        studies = []

        def stop(study, *args, **kwargs):
            studies.append(study)
            raise RuntimeError("stopped before the solves")

        monkeypatch.setattr(harness, "convergence_study", stop)
        assert main(["converge", "--scenario", "periodic", "--eps", "1/4,1/8",
                     "--Nc", "64", "--n-gamma", "8",
                     "--outdir", str(tmp_path)]) == 1
        [study] = studies
        assert study == StudyConfig(study.scenario, eps_list=(1 / 4, 1 / 8),
                                    N_c=64, n_gamma=8)


# every subcommand's options as (option strings, dest), in declaration
# order, after the options all of them share
COMMON_OPTIONS = [(["-h", "--help"], "help"), (["--config"], "config"),
                  (["--scenario"], "scenario"), (["--a"], "a"),
                  (["--outdir"], "outdir")]
SUBCOMMAND_OPTIONS = {
    "geom": [(["--eps"], "epsilon_list"), (["--r"], "r")],
    "check-unfold": [(["--eps"], "epsilon_list"), (["--r"], "r"),
                     (["--n-gamma"], "nGamma")],
    "cell": [(["--points"], "points"), (["--Nc"], "Nc")],
    "micro": [(["--eps"], "epsilon_list"), (["--r"], "r"),
              (["--cells-per-eps"], "cells_per_eps"), (["--T"], "T"),
              (["--dt-rule"], "dt_rule")],
    "macro": [(["--H"], "H"), (["--T"], "T"), (["--dt-rule"], "dt_rule"),
              (["--n-gamma"], "nGamma"), (["--Nc"], "Nc"),
              (["--tensors"], "tensors")],
    "converge": [(["--eps"], "epsilon_list"), (["--r"], "r"),
                 (["--cells-per-eps"], "cells_per_eps"), (["--Nc"], "Nc"),
                 (["--H"], "H"), (["--n-gamma"], "nGamma"), (["--T"], "T"),
                 (["--dt-rule"], "dt_rule")],
}


class TestParserLayout:
    def test_every_subcommand_keeps_its_options_in_order(self):
        [sub] = [a for a in cli.build_parser()._actions
                 if a.dest == "command"]
        assert list(sub.choices) == list(SUBCOMMAND_OPTIONS)
        for name, parser in sub.choices.items():
            got = [(a.option_strings, a.dest) for a in parser._actions]
            assert got == COMMON_OPTIONS + SUBCOMMAND_OPTIONS[name], name


# (command, config key, flag, value in the file, value on the flag, the
# config attribute they set, what the file value and the flag value read
# there). micro and macro read the step from dt_rule: "h" sets none, and
# the run steps with its model's width
KEY_CASES = [
    ("micro", "scenario", "--scenario", "epithelial", "plywood2d",
     "scenario.name", "epithelial", "plywood2d"),
    ("micro", "a", "--a", "0.2", "0.3", "scenario.cell.a", 0.2, 0.3),
    ("micro", "epsilon_list", "--eps", "1/8", "1/4", "eps", 0.125, 0.25),
    ("micro", "r", "--r", "0.4", "0.6", "r", 0.4, 0.6),
    ("micro", "cells_per_eps", "--cells-per-eps", "9", "11",
     "cells_per_eps", 9, 11),
    ("micro", "T", "--T", "0.2", "0.3", "T", 0.2, 0.3),
    ("micro", "dt_rule", "--dt-rule", "0.01", "0.02", "dt", 0.01, 0.02),
    ("micro", "dt_rule", "--dt-rule", "0.01", "h", "dt", 0.01, None),
    ("macro", "scenario", "--scenario", "epithelial", "plywood2d",
     "scenario.name", "epithelial", "plywood2d"),
    ("macro", "a", "--a", "0.2", "0.3", "scenario.cell.a", 0.2, 0.3),
    ("macro", "H", "--H", "1/8", "1/16", "H", 0.125, 0.0625),
    ("macro", "T", "--T", "0.2", "0.3", "T", 0.2, 0.3),
    ("macro", "dt_rule", "--dt-rule", "0.01", "0.02", "dt", 0.01, 0.02),
    ("macro", "dt_rule", "--dt-rule", "h", "0.01", "dt", None, 0.01),
    ("macro", "nGamma", "--n-gamma", "8", "12", "n_gamma", 8, 12),
    ("converge", "scenario", "--scenario", "epithelial", "plywood2d",
     "scenario.name", "epithelial", "plywood2d"),
    ("converge", "a", "--a", "0.2", "0.3", "scenario.cell.a", 0.2, 0.3),
    ("converge", "epsilon_list", "--eps", "1/4,1/8", "1/8,1/16", "eps_list",
     (0.25, 0.125), (0.125, 0.0625)),
    ("converge", "r", "--r", "0.4", "0.6", "r", 0.4, 0.6),
    ("converge", "cells_per_eps", "--cells-per-eps", "9", "11",
     "cells_per_eps", 9, 11),
    ("converge", "Nc", "--Nc", "32", "96", "N_c", 32, 96),
    ("converge", "H", "--H", "1/8", "1/16", "H", 0.125, 0.0625),
    ("converge", "nGamma", "--n-gamma", "8", "12", "n_gamma", 8, 12),
    ("converge", "T", "--T", "0.2", "0.3", "T", 0.2, 0.3),
    ("converge", "dt_rule", "--dt-rule", "0.01", "0.02", "dt_rule",
     "0.01", "0.02"),
]


class TestKeysReachTheHeaders:
    """Every key a run command takes, set by its flag or in a --config
    file, is named in the header of every CSV the command writes. The
    coefficient keys have no flag and go in the file."""

    # a tiny run's value of each key; outdir is where the CSVs go
    VALUES = {"scenario": "periodic", "a": "0.25", "epsilon_list": "1/8",
              "r": "0.5", "cells_per_eps": "8", "H": "1/8", "T": "0.01",
              "dt_rule": "0.005", "nGamma": "8", "Nc": "32"}
    OUTPUTS = {"micro": ("micro_series.csv", "micro_field.csv"),
               "macro": ("macro_series.csv", "macro_field.csv"),
               "cell": ("cell_tensors.csv",)}

    @pytest.mark.parametrize("by", ["flag", "file"])
    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_every_key_given_is_named(self, command, by, tmp_path):
        keys = [k for k in cli._COMMON + cli._COMMANDS[command][2]
                if k in cli._KEYS and k != "outdir"]
        suite = CoefficientSuite()
        text = "".join(f"{k} = {getattr(suite, k)!r}\n"
                       for k in cli.COEFF_KEYS)
        argv = [command, "--outdir", str(tmp_path)]
        if by == "flag":
            for k in keys:
                argv += [cli._KEYS[k].flag, self.VALUES[k]]
        else:
            text += "".join(f"{k} = {self.VALUES[k]}\n" for k in keys)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert main(argv + ["--config", str(path)]) == 0
        for name in self.OUTPUTS[command]:
            named = {line[2:].partition("=")[0]
                     for line in (tmp_path / name).read_text().splitlines()
                     if line.startswith("# ")}
            missing = [k for k in (*keys, *cli.COEFF_KEYS) if k not in named]
            assert not missing, (name, missing)


class TestKeysReachTheConfig:
    """A key set by its flag or in a --config file reaches the command's
    config object alike, and the flag wins; the solvers are stubbed out,
    so no solve runs."""

    @staticmethod
    def config_of(command, argv, text, tmp_path, monkeypatch):
        seen = []

        def stop(config, *args, **kwargs):
            seen.append(config)
            raise RuntimeError("stopped before the solve")

        monkeypatch.setattr(micro, "run_micro", stop)
        monkeypatch.setattr(cell_problem, "tensor_field",
                            lambda *args, **kwargs: None)
        # the macro config reaches the run through its operator
        monkeypatch.setattr(macro, "assemble_macro", stop)
        monkeypatch.setattr(harness, "convergence_study", stop)
        if text is not None:
            path = tmp_path / "c.cfg"
            path.write_text(text)
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "out"
        assert main([command, *argv, "--outdir", str(out)]) == 1
        assert not out.exists()
        [config] = seen
        return config

    @pytest.mark.parametrize(
        "command,key,flag,file_value,flag_value,attr,from_file,from_flag",
        KEY_CASES, ids=[f"{c[0]}-{c[1]}" + ("-h" if "h" in c[3:5] else "")
                        for c in KEY_CASES])
    def test_flag_and_file_agree_and_the_flag_wins(
            self, command, key, flag, file_value, flag_value, attr,
            from_file, from_flag, tmp_path, monkeypatch):
        def read(argv, text):
            base = [] if key == "scenario" else ["--scenario", "periodic"]
            config = self.config_of(command, base + argv, text, tmp_path,
                                    monkeypatch)
            return operator.attrgetter(attr)(config)

        assert read([flag, file_value], None) == from_file
        assert read([], f"{key} = {file_value}\n") == from_file
        assert read([flag, flag_value], f"{key} = {file_value}\n") \
            == from_flag

    @pytest.mark.parametrize("argv,text,N_c", [
        (["--Nc", "32"], None, 32), ([], "Nc = 32\n", 32),
        (["--Nc", "96"], "Nc = 32\n", 96), ([], None, 64)],
        ids=["flag", "file", "flag-wins", "default"])
    def test_macro_nc_reaches_the_tensor_field(self, argv, text, N_c,
                                               tmp_path, monkeypatch):
        # Nc is no field of MacroConfig: it sets the cell grid of the
        # tensor field the macro command computes, 64 unless given
        seen = []

        def stop(*args, N_c):
            seen.append(N_c)
            raise RuntimeError("stopped before the solve")

        monkeypatch.setattr(cell_problem, "tensor_field", stop)
        if text is not None:
            path = tmp_path / "c.cfg"
            path.write_text(text)
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "out"
        assert main(["macro", "--scenario", "periodic", *argv,
                     "--outdir", str(out)]) == 1
        assert not out.exists()
        assert seen == [N_c]

    @pytest.mark.parametrize("command", ["micro", "macro", "converge"])
    def test_coefficient_keys_reach_the_suite(self, command, tmp_path,
                                              monkeypatch):
        coeffs = {k: 0.5 + 0.01 * i for i, k in enumerate(cli.COEFF_KEYS)}
        text = "".join(f"{k} = {v}\n" for k, v in coeffs.items())
        config = self.config_of(command, ["--scenario", "periodic"], text,
                                tmp_path, monkeypatch)
        suite = config.scenario.suite
        assert {k: getattr(suite, k) for k in coeffs} == coeffs

    def test_outdir_flag_wins_over_the_file(self, tmp_path):
        (tmp_path / "c.cfg").write_text(
            f"scenario = periodic\noutdir = {tmp_path / 'file'}\n")
        assert main(["geom", "--config", str(tmp_path / "c.cfg")]) == 0
        assert main(["geom", "--config", str(tmp_path / "c.cfg"),
                     "--outdir", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "file" / "geom.csv").read_bytes() \
            == (tmp_path / "flag" / "geom.csv").read_bytes()


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

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_do_not_depend_on_pool_size(self, study, serial, workers):
        threaded = convergence_study(study, max_workers=workers)
        assert [r.epsilon for r in serial.rows] == list(study.eps_list)
        assert all(r.passed for r in serial.rows)
        assert [row_bits(r) for r in threaded.rows] \
            == [row_bits(r) for r in serial.rows]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_macro_job_waits_for_the_finest_set_up(self, study, serial,
                                                   workers, monkeypatch):
        # the tensor field starts once the finest (largest) factorization
        # has returned, and at most two runs are in progress at any time
        order, live, most = [], set(), [0]
        lock = threading.Lock()
        real_micro = harness.run_micro
        real_field, real_macro = harness.tensor_field, harness.run_macro

        def note(event, start=None, end=None):
            with lock:
                order.append(event)
                live.add(start)
                live.discard(end)
                most[0] = max(most[0], len(live - {None}))

        def recording_splu(A, *args, **kwargs):
            lu = spla.splu(A, *args, **kwargs)
            note(("factored", A.shape[0]))
            return lu

        def run_micro(cfg, *args, **kwargs):
            note(("micro", cfg.eps), start=cfg.eps)
            try:
                return real_micro(cfg, *args, **kwargs)
            finally:
                note(("micro done", cfg.eps), end=cfg.eps)

        def field(*args, **kwargs):
            note("tensor_field", start="macro")
            return real_field(*args, **kwargs)

        def run_macro(*args, **kwargs):
            try:
                return real_macro(*args, **kwargs)
            finally:
                note("macro done", end="macro")

        monkeypatch.setattr(micro, "spla", SimpleNamespace(splu=recording_splu))
        monkeypatch.setattr(harness, "run_micro", run_micro)
        monkeypatch.setattr(harness, "tensor_field", field)
        monkeypatch.setattr(harness, "run_macro", run_macro)
        rep = convergence_study(study, max_workers=workers)
        factored = [e for e in order if e[0] == "factored"]
        assert len(factored) == 3
        assert order.index(max(factored)) < order.index("tensor_field")
        assert most[0] <= 2
        assert [row_bits(r) for r in rep.rows] \
            == [row_bits(r) for r in serial.rows]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_micro_factorizations_never_overlap(self, study, workers,
                                                monkeypatch):
        # lane B starts after the finest factorization has returned and
        # runs its jobs one after another, so no two factorizations share
        # the process at once
        intervals = []
        lock = threading.Lock()

        def recording_splu(A, *args, **kwargs):
            start = time.perf_counter()
            lu = spla.splu(A, *args, **kwargs)
            with lock:
                intervals.append((start, time.perf_counter()))
            return lu

        monkeypatch.setattr(micro, "spla", SimpleNamespace(splu=recording_splu))
        convergence_study(study, max_workers=workers)
        spans = sorted(intervals)
        assert len(spans) == len(study.eps_list)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_lane_b_runs_the_coarser_micro_runs_before_the_macro_job(
            self, study, workers, monkeypatch):
        # lane B's largest set-up, the next-finest run, comes first, so no
        # other job's leftover heap sits under its peak
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
        convergence_study(study, max_workers=workers)
        assert calls == [1 / 16, 1 / 8, 1 / 4, "tensor_field"]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("target", ["build_micro_grid", "run_micro"])
    def test_failed_finest_set_up_releases_the_other_lane(
            self, study, serial, workers, target, monkeypatch):
        # a finest run that fails in its grid build, or before its set-up
        # starts, must not leave the macro job and coarser runs waiting
        module = micro if target == "build_micro_grid" else harness
        real = getattr(module, target)

        def broken(cfg, *args, **kwargs):
            if cfg.eps == study.eps_list[-1]:
                raise RuntimeError("grid broke")
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(module, target, broken)
        done = []
        worker = threading.Thread(target=lambda: done.append(
            convergence_study(study, max_workers=workers)), daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert done, "the study did not finish"
        rows = done[0].rows
        assert rows[2].error == "micro run failed: grid broke"
        assert math.isnan(rows[2].E) and not done[0].passed
        assert [row_bits(r) for r in rows[:2]] \
            == [row_bits(r) for r in serial.rows[:2]]

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

    def test_macro_failure_stops_the_finest_run(self, study, monkeypatch):
        # the finest run's first step waits until the macro job has failed,
        # and each later step gives lane B time to record the failure
        failed = threading.Event()
        finest, times = study.eps_list[-1], []
        real_step = micro.MicroGrid.step

        def broken(*args, **kwargs):
            failed.set()
            raise RuntimeError("factorization broke")

        def held_step(grid, st, lu, dt):
            if grid.config.eps != finest:
                return real_step(grid, st, lu, dt)
            if times:
                time.sleep(0.02)
            else:
                failed.wait(timeout=60)
            out = real_step(grid, st, lu, dt)
            times.append(out[0].t)
            return out

        monkeypatch.setattr(harness, "run_macro", broken)
        monkeypatch.setattr(micro.MicroGrid, "step", held_step)
        rep = convergence_study(study, max_workers=2)
        assert failed.is_set() and times
        assert times[-1] < study.T * (1 - 1 / N_SAMPLES)
        assert [r.error for r in rep.rows] \
            == ["macro run failed: factorization broke"] * 3

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


class TestCoefficientSuite:
    @pytest.mark.parametrize("value", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("rate", ["df", "db"])
    def test_decay_rates_must_be_finite_and_positive(self, rate, value):
        with pytest.raises(ValueError, match=f"decay rate {rate} must be"):
            CoefficientSuite(**{rate: value})

    def test_other_zero_coefficients_stay_valid(self):
        s = CoefficientSuite(alpha=0.0, beta=0.0, mu1=0.0, dl=0.0, l0=0.0,
                             rf0=0.0, rb0=0.0)
        assert s.receptor_bound == 10.0


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
            tensor_field(macro_nodes(MacroConfig(sc, H=1 / 8)), sc.suite.A,
                         sc.transform, sc.cell, N_c=16)
        StudyConfig(scenario=sc, N_c=32)

    def test_dt_rules_resolve(self):
        sc = get_scenario("periodic")
        s = StudyConfig(scenario=sc, eps_list=(1 / 4, 1 / 8), cells_per_eps=8)
        # under "h" a micro run sets no step, so imex.schedule takes its
        # grid width, and the macro run steps with the finest micro width
        assert s.micro_config(1 / 4).dt is None
        assert s.micro_config(1 / 4).h == 1 / 32
        assert s.macro_config().dt == 1 / 64
        s2 = StudyConfig(scenario=sc, eps_list=(1 / 4,), cells_per_eps=8,
                         dt_rule="0.01")
        assert s2.micro_config(1 / 4).dt == 0.01
        assert s2.macro_config().dt == 0.01

    @pytest.mark.parametrize("rule,dt", [("h", None), ("0.01", 0.01),
                                         ("2e-3", 0.002)])
    def test_step_of_parses_a_rule(self, rule, dt):
        assert step_of(rule) == dt

    @pytest.mark.parametrize("rule", ["fast", "", "0", "-0.01", "nan",
                                      "inf", "1e400", None])
    def test_step_of_rejects_anything_else(self, rule):
        with pytest.raises(ValueError, match="^dt_rule must be 'h' or a "
                                             "finite positive number, got "):
            step_of(rule)


def sample_per_point(values, H, pts):
    """Bilinear sampling as _compare formed it at every sample before the
    plan: corners and weights from the points, then the field."""
    n = values.shape[0]
    u = pts / H - 0.5
    i0 = np.clip(np.floor(u[:, 0]).astype(int), 0, max(n - 2, 0))
    j0 = np.clip(np.floor(u[:, 1]).astype(int), 0, max(n - 2, 0))
    if n == 1:
        return np.full(len(pts), values[0, 0])
    fx = np.clip(u[:, 0] - i0, 0.0, 1.0)
    fy = np.clip(u[:, 1] - j0, 0.0, 1.0)
    f00 = values[i0, j0]
    f10 = values[i0 + 1, j0]
    f01 = values[i0, j0 + 1]
    f11 = values[i0 + 1, j0 + 1]
    return ((1 - fx) * (1 - fy) * f00 + fx * (1 - fy) * f10
            + (1 - fx) * fy * f01 + fx * fy * f11)


def sample(values, H, pts):
    return _sample_bilinear(values, _bilinear_plan(values.shape[0], H, pts),
                            len(pts))


class TestBilinearSampling:
    def test_reproduces_affine_fields(self):
        H = 0.25
        c = (np.arange(4) + 0.5) * H
        X, Y = np.meshgrid(c, c, indexing="ij")
        vals = 2.0 + 3.0 * X - Y
        rng = np.random.default_rng(3)
        pts = rng.uniform(H / 2, 1 - H / 2, size=(40, 2))
        out = sample(vals, H, pts)
        ref = 2.0 + 3.0 * pts[:, 0] - pts[:, 1]
        assert np.max(np.abs(out - ref)) < 1e-13

    def test_constant_extension_outside_the_centers(self):
        H = 0.25
        c = (np.arange(4) + 0.5) * H
        X, Y = np.meshgrid(c, c, indexing="ij")
        vals = 2.0 + 3.0 * X - Y
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.5]])
        out = sample(vals, H, pts)
        assert abs(out[0] - vals[0, 0]) < 1e-14
        assert abs(out[1] - vals[3, 3]) < 1e-14
        # clamps only the wall-normal coordinate
        assert abs(out[2] - (2.0 + 3.0 * H / 2 - 0.5)) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    def test_one_plan_matches_the_per_sample_formula_bit_for_bit(self, n):
        # the plan's weights multiply the corner values in the order the
        # per-sample formula did, at every sample of one point set; the
        # points reach past the outer centers, where the clamps act
        H = 1.0 / n
        rng = np.random.default_rng(n)
        pts = rng.uniform(-0.05, 1.05, size=(5000, 2))
        plan = _bilinear_plan(n, H, pts)
        for _ in range(4):
            vals = rng.standard_normal((n, n)) * rng.uniform(0.1, 1e3)
            got = _sample_bilinear(vals, plan, len(pts))
            assert got.tobytes() == sample_per_point(vals, H, pts).tobytes()


class TestSampleTimes:
    def test_a_stretched_macro_time_axis_is_rejected(self):
        # 4e-6 relative is 2e-6 at t = 0.5: far above the 1e-12 the check
        # allows, but inside numpy's default rtol of 1e-5
        t = np.linspace(0.0, 0.5, 21)
        mic = SimpleNamespace(observables={"t": t})
        mac = SimpleNamespace(observables={"t": t * (1.0 + 4e-6)})
        with pytest.raises(RuntimeError, match="sample times diverged"):
            harness._compare(mic, mac)
