"""Fast check of the benchmark's own code on tiny workloads.

    python3 perfbench/selftest.py

Run from the repository root. It builds its reference outputs from the
checkout itself. It then checks that a timed run and a traced run emit
every metric BENCHMARK.json names, that correct outputs pass, that a wrong
reference E or lhs counts as a failure, and that a hook whose target is
gone leaves its metrics out. Takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import types

import run

TINY_STUDY = {"eps_list": ["1/8", "1/16"], "N_c": 32}
TINY_UNFOLD = ["check-unfold", "--scenario", "periodic", "--eps", "1/8"]


def expect(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def tiny_specs(root: str, outdir: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from lphom.cli import main
    from lphom.harness import StudyConfig, convergence_study
    from lphom.scenarios import get_scenario
    from worker import study_value

    study = StudyConfig(get_scenario("periodic"),
                        **{k: study_value(v) for k, v in TINY_STUDY.items()})
    report = convergence_study(study)
    rows = [{"epsilon": r.epsilon, "E": r.E, "energy_gap": r.energy_gap,
             "lts_gap": r.lts_gap, "pass": r.passed} for r in report.rows]
    converge = {"kind": "converge", "scenario": "periodic",
                "study": TINY_STUDY,
                "reference": {"verdict": "pass" if report.passed else "fail",
                              "rows": rows}}
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as tmp:
        code = main(TINY_UNFOLD + ["--outdir", tmp])
        with open(os.path.join(tmp, "check_unfold.csv"),
                  encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if ln and not ln.startswith("#")][1:]
    checks = []
    for ln in lines:
        name, eps, lhs, rhs, _gap, ok = ln.split(",")
        checks.append({"name": name, "epsilon": float(eps),
                       "lhs": float(lhs), "rhs": float(rhs),
                       "pass": ok == "true"})
    unfold = {"kind": "unfold", "argv": TINY_UNFOLD,
              "reference": {"exit_code": code, "checks": checks}}
    return {"converge": converge, "unfold": unfold}


def check_missing_hook() -> None:
    """A hook whose target is gone drops its metrics instead of crashing."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.wrap(types.ModuleType("gone"), "run_micro", "micro.run")
    expect(tracer.missing == ["gone.run_micro"], tracer.missing)
    with tracer.span("harness.study"):
        pass
    metrics = layer_metrics(tracer)
    expect("micro.run_s" not in metrics and "harness.self_s" in metrics,
           sorted(metrics))


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    outdir = os.path.join(root, ".perfbench-out", "selftest")
    check_missing_hook()
    specs = tiny_specs(root, outdir)

    for kind, spec in specs.items():
        res = run.measure(root, kind, spec, 0.0, False, outdir)
        expect(res["failed"] == 0 and res["attempted"] > 0, res)
        expect(set(res["metrics"]) == end_to_end, sorted(res["metrics"]))

        res = run.measure(root, kind, spec, 0.0, True, outdir)
        expect(res["failed"] == 0, res)
        expect(set(res["metrics"]) == per_layer,
               sorted(per_layer ^ set(res["metrics"])))
        expect(not res["missing"], res["missing"])
        busy = ("micro.run_s", "cell_problem.solves") if kind == "converge" \
            else ("geometry.partition_s", "unfolding.checks")
        expect(all(res["metrics"][m]["value"] > 0 for m in busy), busy)

    wrong = copy.deepcopy(specs["converge"])
    wrong["reference"]["rows"][1]["E"] *= 1 + 1e-9
    res = run.measure(root, "wrong-E", wrong, 0.0, False, outdir)
    expect(res["failed"] == 1 and res["attempted"] == 2, res)

    wrong = copy.deepcopy(specs["unfold"])
    wrong["reference"]["checks"][0]["lhs"] += 1e-3
    res = run.measure(root, "wrong-lhs", wrong, 0.0, False, outdir)
    expect(res["failed"] == 1 and res["attempted"] == 3, res)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
