"""Benchmark of lphom's public entry points, run from the repository root.

    python3 perfbench/run.py --workload converge-periodic --seed 1 \
        --seconds 35 --trace 0

Every call runs in a fresh worker process (worker.py) with single-threaded
BLAS, so that set-up time and peak memory belong to that call alone. A run
makes calls one after another (a closed loop with one client) and reports
medians. It makes at least the workload's min_calls, and then starts
another call only if a call as long as the last one would end within
--seconds of the first call's start. Set-up time is also sampled by
set-up-only processes started before the calls.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of one traced call,
and the spans go to .perfbench-out/trace-<workload>-seed<seed>.json. The
line before it holds the machine and library versions the result belongs
to. No workload draws random input; --seed is recorded only.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2            # set-up-only processes per timed run
RUN_LIMIT_S = 170.0         # a run ends within this, worker timeouts included


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def machine_info(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "git_commit": commit}


def code_key(root: str) -> str:
    """Digest of the library and benchmark sources, to key stored timings."""
    h = hashlib.sha1()
    files = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                             recursive=True))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    files.append(os.path.join(HERE, "workloads.json"))
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class Session:
    """Worker processes of one run of one workload, and their tally.

    A worker that breaks (non-zero exit, timeout, no result) counts every
    operation of its call as failed.
    """

    def __init__(self, root: str, name: str, spec: dict, outdir: str):
        self.root = root
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.n_ops = len(spec["reference"].get(
            "rows", spec["reference"].get("checks", [])))
        self.attempted = self.failed = self.n = 0
        self.workdir = os.path.join(outdir, f"{name}-{os.getpid()}")
        self.walls_path = os.path.join(
            outdir, f"untraced-{name}-{code_key(root)}.jsonl")
        os.makedirs(self.workdir, exist_ok=True)
        self.spec_path = os.path.join(self.workdir, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1",
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, trace: bool = False, setup_only: bool = False):
        """One worker process; its result dict, or None if it broke."""
        self.n += 1
        out = os.path.join(self.workdir, f"result{self.n}.json")
        calldir = os.path.join(self.workdir, f"call{self.n}")
        os.makedirs(calldir)
        cmd = [sys.executable, WORKER, "--spec", self.spec_path,
               "--outdir", calldir, "--out", out]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        result = None
        try:
            proc = subprocess.run(
                cmd + ["--spawn-t", repr(time.monotonic())], cwd=self.root,
                env=self.env, capture_output=True, text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0))
            if proc.returncode == 0 and os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    result = json.load(fh)
            else:
                print(f"worker exited with {proc.returncode}:\n"
                      f"{proc.stderr[-4000:]}", file=sys.stderr)
        except subprocess.TimeoutExpired:
            print("worker timed out", file=sys.stderr)
        if setup_only:
            return result
        if result is None:
            self.attempted += self.n_ops
            self.failed += self.n_ops
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for note in result["notes"]:
            print(f"check failed: {note}", file=sys.stderr)
        return result

    def record_wall(self, wall_s: float):
        with open(self.walls_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(wall_s) + "\n")

    def untraced_walls(self) -> list:
        """wall_s of earlier untraced calls of this code in this checkout."""
        if not os.path.exists(self.walls_path):
            return []
        with open(self.walls_path, encoding="utf-8") as fh:
            return [float(line) for line in fh if line.strip()]

    def tally(self, **extra) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, **extra}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(session: Session, seconds: float, min_calls: int) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        r = session.spawn(setup_only=True)
        if r is not None:
            setups.append(r["setup_s"])
    calls = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        r = session.spawn()
        if r is None:
            break
        calls.append(r)
        session.record_wall(r["wall_s"])
        now = time.monotonic()
        # the next call would take about as long as this one; one that
        # would outlast the run's time limit is not started at all
        next_end = now + (now - began)
        if next_end > session.deadline or (
                len(calls) >= min_calls and next_end > start + seconds):
            break
    if not calls:
        return session.tally(metrics=None)
    setups += [c["setup_s"] for c in calls]

    def med(key):
        return statistics.median(c[key] for c in calls)

    return session.tally(calls=len(calls), metrics={
        "wall_s": _metric(med("wall_s"), "s"),
        "cpu_s": _metric(med("cpu_s"), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(med("peak_rss_mb"), "MB")})


def traced_run(session: Session, spec: dict) -> dict:
    """One traced call; its overhead is taken against the untraced median.

    The median is over the untraced calls this checkout has already timed
    for the same sources, or over one untraced call made here if none.
    """
    base = session.untraced_walls()
    if not base:
        plain = session.spawn()
        if plain is None:
            return session.tally(metrics=None)
        base = [plain["wall_s"]]
    traced = session.spawn(trace=True)
    if traced is None:
        return session.tally(metrics=None)
    metrics = dict(traced["layers"])
    untraced = statistics.median(base)
    metrics["trace.overhead_frac"] = _metric(
        traced["wall_s"] / untraced - 1.0, "1")
    drift = {}
    for name, want in spec.get("counts", {}).items():
        got = metrics.get(name, {}).get("value")
        if got != want:
            drift[name] = {"expected": want, "got": got}
            print(f"count {name} = {got}, seed value {want}",
                  file=sys.stderr)
    for target in traced["missing"]:
        print(f"hook target {target} is gone; its metrics are missing",
              file=sys.stderr)
    return session.tally(metrics=metrics, spans=traced["spans"],
                         missing=traced["missing"], count_drift=drift,
                         untraced_wall_s=untraced, untraced_calls=len(base))


def measure(root: str, name: str, spec: dict, seconds: float, trace: bool,
            outdir: str) -> dict:
    """Run one workload; the result dict, with "metrics" None on breakage."""
    session = Session(root, name, spec, outdir)
    try:
        if trace:
            return traced_run(session, spec)
        return timed_run(session, seconds, spec.get("min_calls", 1))
    finally:
        shutil.rmtree(session.workdir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lphom", "__init__.py")):
        print("run from the repository root: src/lphom is missing",
              file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench-out")
    res = measure(root, args.workload, workloads[args.workload],
                  args.seconds, bool(args.trace), outdir)
    if res["metrics"] is None:
        print("no call of the workload completed", file=sys.stderr)
        return 1
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "machine": machine_info(root)}
    if args.trace:
        path = os.path.join(
            outdir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**info, **{k: res[k] for k in (
                "metrics", "missing", "count_drift", "untraced_wall_s",
                "untraced_calls", "spans")}}, fh)
        info["trace_file"] = os.path.relpath(path, root)
    else:
        info["calls"] = res["calls"]
    print(json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
