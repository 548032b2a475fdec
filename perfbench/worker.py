"""One call of an lphom entry point in a fresh process, timed and checked.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
single-threaded BLAS. It sets up (imports, scenario, config validation),
makes one call, checks the outputs against the workload's reference and
writes one JSON object to ``--out``:

    setup_s      process start (the parent's clock reading just before it
                 started this process) to the call
    wall_s       the call, including the CSV it writes
    cpu_s        user + system CPU time of the call, all threads
    peak_rss_mb  peak resident memory of the process
    attempted, failed, notes   output check
    layers, spans, missing     with --trace, from tracing.py

With --setup-only it stops before the call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

REL_TOL = 1e-10          # "E unchanged" tolerance of the project roadmap


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL_TOL * abs(ref)


def study_value(v):
    if isinstance(v, list):
        return tuple(study_value(e) for e in v)
    if isinstance(v, str):
        return float(Fraction(v))
    return v


def _converge(spec: dict, outdir: str):
    from lphom.harness import (StudyConfig, convergence_study,
                               write_convergence_csv)
    from lphom.scenarios import get_scenario

    study = StudyConfig(get_scenario(spec["scenario"]),
                        **{k: study_value(v)
                           for k, v in spec.get("study", {}).items()})
    workers = min(3, len(os.sched_getaffinity(0)))
    csv_path = os.path.join(outdir, "convergence.csv")

    def call():
        report = convergence_study(study, max_workers=workers)
        write_convergence_csv(report, csv_path)
        return report

    def check(report):
        ref = spec["reference"]
        verdict = "pass" if report.passed else "fail"
        with open(csv_path, encoding="utf-8") as fh:
            last = fh.read().splitlines()[-1]
        study_notes = []
        if verdict != ref["verdict"]:
            study_notes.append(f"verdict {verdict} != {ref['verdict']}")
        if last != f"# verdict={ref['verdict']}":
            study_notes.append(f"CSV ends with {last!r}")
        if len(report.rows) != len(ref["rows"]):
            study_notes.append(f"{len(report.rows)} rows, expected "
                               f"{len(ref['rows'])}")
        notes, failed = [], 0
        for want, got in zip(ref["rows"], report.rows):
            bad = list(study_notes)
            if got.error is not None:
                bad.append(got.error)
            if got.epsilon != want["epsilon"]:
                bad.append(f"epsilon {got.epsilon!r}")
            for key in ("E", "energy_gap", "lts_gap"):
                if not _close(getattr(got, key), want[key]):
                    bad.append(f"{key} {getattr(got, key)!r} != "
                               f"{want[key]!r}")
            if got.passed != want["pass"]:
                bad.append(f"pass {got.passed}")
            if bad:
                failed += 1
                notes.append(f"eps={want['epsilon']!r}: " + "; ".join(bad))
        failed += max(0, len(ref["rows"]) - len(report.rows))
        return failed, notes, 0

    return call, check, "harness.study", len(spec["reference"]["rows"])


def _unfold(spec: dict, outdir: str):
    from lphom.cli import main

    argv = list(spec["argv"]) + ["--outdir", outdir]
    csv_path = os.path.join(outdir, "check_unfold.csv")

    def call():
        return main(argv)

    def check(code):
        ref = spec["reference"]
        with open(csv_path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if ln and not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        code_note = ([] if code == ref["exit_code"]
                     else [f"exit code {code} != {ref['exit_code']}"])
        notes, failed = [], 0
        for k, want in enumerate(ref["checks"]):
            bad = list(code_note)
            if k >= len(rows) or len(rows[k]) != 6:
                bad.append("row missing")
            else:
                name, eps, lhs, rhs, _gap, ok = rows[k]
                if name != want["name"] or float(eps) != want["epsilon"]:
                    bad.append(f"row is {name} at eps={eps}")
                for key, text in (("lhs", lhs), ("rhs", rhs)):
                    if not _close(float(text), want[key]):
                        bad.append(f"{key} {text} != {want[key]!r}")
                if ok != ("true" if want["pass"] else "false"):
                    bad.append(f"pass={ok}")
            if bad:
                failed += 1
                notes.append(f"{want['name']} eps={want['epsilon']!r}: "
                             + "; ".join(bad))
        return failed, notes, len(rows)

    return call, check, "cli.main", len(spec["reference"]["checks"])


KINDS = {"converge": _converge, "unfold": _unfold}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spec", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawn-t", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    import lphom
    src = os.path.join(os.getcwd(), "src", "lphom")
    if os.path.dirname(os.path.abspath(lphom.__file__)) != src:
        print(f"lphom imported from {lphom.__file__}, not {src}",
              file=sys.stderr)
        return 2
    call, check, root_span, n_ops = KINDS[spec["kind"]](spec, args.outdir)
    tracer = None
    if args.trace:
        from tracing import Tracer, install_lphom_hooks
        tracer = Tracer()
        install_lphom_hooks(tracer)
    result = {"setup_s": time.monotonic() - args.spawn_t}
    if not args.setup_only:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                out = call()
            else:
                with tracer.span(root_span):
                    out = call()
            error = None
        except Exception:                           # noqa: BLE001
            error = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["peak_rss_mb"] = (   # ru_maxrss is in KiB on Linux
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        result["attempted"] = n_ops
        checks = 0      # identity checks the command reported
        if error is None:
            try:
                failed, notes, checks = check(out)
            except (OSError, ValueError, IndexError):
                failed, notes = n_ops, [traceback.format_exc()]
        else:
            failed, notes = n_ops, [error]
        result["failed"] = failed
        result["notes"] = notes
        if tracer is not None:
            from tracing import layer_metrics
            layers = layer_metrics(tracer)
            layers["unfolding.checks"] = {"value": checks, "unit": "count"}
            result["layers"] = layers
            result["missing"] = tracer.missing
            result["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
