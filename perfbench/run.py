#!/usr/bin/env python3
"""Layered benchmark of ocr_suite_ray on the host it runs on.

Run from the repository root:

    python3 perfbench/run.py --workload extract_cold --seed 1 --seconds 14 --trace 0

Workloads (see workloads.py and NOTES.md): extract_cold and search, which
BENCHMARK.json lists, and extract_incremental and curate. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` makes a separate traced run and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.

Each run starts one fresh child process with its own Ray session and gives
it a hard timeout; a run that times out counts as failed. Inputs and stores
live in ``.pbtmp/`` inside the checkout and are removed when the run ends.
A traced run also writes its spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("extract_cold", "extract_incremental", "search", "curate")
CHILD_TIMEOUT_S = 150   # a run must end within 180 s, cleanup included


def _psutil():
    import ray  # noqa: F401  Ray bundles psutil and puts it on sys.path
    import psutil

    return psutil


def _descendants(pid: int) -> list:
    psutil = _psutil()
    try:
        return psutil.Process(pid).children(recursive=True)
    except psutil.Error:
        return []


def _stop_all(procs: list) -> None:
    """Stop every process the child started (Ray's raylet, GCS and workers
    can outlive a killed child) and wait until each has ended."""
    psutil = _psutil()

    def running(p) -> bool:
        # a zombie has ended; only its reaping by init is outstanding
        try:
            return p.is_running() and p.status() != psutil.STATUS_ZOMBIE
        except psutil.Error:  # exited between the two calls
            return False

    alive = [p for p in procs if running(p)]
    for p in alive:
        try:
            p.kill()
        except psutil.Error:
            pass
    _, still = psutil.wait_procs(alive, timeout=10)
    if still:
        print(f"perfbench: processes still running: {[p.pid for p in still]}",
              file=sys.stderr)


def _run_child(argv: list, env: dict, cwd: str) -> tuple[int | None, float]:
    """Run the workload process; returns (exit code or None on timeout, s)."""
    t0 = time.monotonic()
    child = subprocess.Popen(argv, env=env, cwd=cwd, stdout=sys.stderr,
                             stderr=sys.stderr, start_new_session=True)
    seen: dict = {}
    rc = None
    while time.monotonic() - t0 < CHILD_TIMEOUT_S:
        for p in _descendants(child.pid):
            seen[p.pid] = p
        try:
            rc = child.wait(timeout=0.5)
            break
        except subprocess.TimeoutExpired:
            continue
    if rc is None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    _stop_all(list(seen.values()))
    return rc, time.monotonic() - t0


def _check_declared(root: str, out: dict, trace: int) -> None:
    """A result must carry exactly the metrics BENCHMARK.json declares for
    its mode; a missing or extra metric fails the run."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    res = out["result"]
    got = set(res["metrics"])
    res["attempted"] += 1
    if got != want:
        res["failed"] += 1
        res["correct"] = False
        print(f"perfbench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - got)}, extra {sorted(got - want)}", file=sys.stderr)


def _print_report(out: dict, wall_s: float) -> None:
    rep = out["report"]
    res = out["result"]
    print(f"# perfbench {rep['workload']} seed={rep['seed']} trace={int(rep['trace'])} "
          f"run_wall_s={wall_s:.1f}")
    print("# host " + json.dumps(rep.get("host", {}), sort_keys=True))
    print("# input " + json.dumps(rep.get("input", {}), sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ops_share {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']}/{res['attempted']})")
    if "layer_sum" in rep and rep["layer_sum"]["flagged"]:
        print("# FLAG layer sum: pipelines.extract.unaccounted_s exceeds "
              f"{rep['layer_sum']['limit_share']:.0%} of wall_s")
    detail = {k: v for k, v in rep.items()
              if k not in ("workload", "seed", "trace", "host", "input")}
    print("# report " + json.dumps(detail, sort_keys=True, default=str))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "ocr_suite_ray", "__init__.py")):
        print(f"perfbench: no ocr_suite_ray package under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2

    work = os.path.join(root, ".pbtmp", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--work", work, "--result", result_path]
    try:
        rc, wall_s = _run_child(argv, env, root)
        out = None
        if rc == 0 and os.path.isfile(result_path):
            with open(result_path) as fh:
                out = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's scratch directory is still there

    if rc is None:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if out is None:
        print(f"perfbench: workload process exited with code {rc}", file=sys.stderr)
        return rc or 1

    if a.trace:
        trace_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"trace-{a.workload}-seed{a.seed}.json")
        with open(path, "w") as fh:
            json.dump(out["spans"], fh)
    _check_declared(root, out, a.trace)
    _print_report(out, wall_s)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
