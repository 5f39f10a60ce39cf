"""Machinery shared by the workloads: spans, operation accounting, memory
sampling, the Ray session, the host block and the tail statistic.

Everything here runs in the benchmark's child process. The program under
test gets no instrumentation: spans wrap calls into its public functions
from the outside.
"""

from __future__ import annotations

import contextlib
import logging
import os
import platform
import subprocess
import threading
import time
import traceback

import pyarrow
import ray  # also puts the psutil that Ray bundles on sys.path
import psutil

# Ray puts sockets under its temp dir and refuses AF_UNIX paths longer than
# 107 bytes; "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store" adds
# up to 64 to the temp dir's path.
_MAX_RAY_TMP_LEN = 107 - 64

_NULL = contextlib.nullcontext()

# span around work only the traced run does (reading Dataset.stats())
TRACE_ONLY_SPAN = "trace.dataset_stats"


class Tracer:
    """In-memory spans recorded around calls into the program.

    Each span keeps its name, start, end, parent span and the run id. Spans
    stay in memory until the run ends. When disabled, ``span`` returns a
    shared no-op context, so untraced runs pay nothing."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def overhead_s(self) -> float:
        """Time this run spent in tracing code: the recorded spans times the
        cost of one span, plus the spans around work that only the traced
        run does. This is what separates a traced run from an untraced one;
        timing it directly avoids comparing two noisy runs."""
        probe = Tracer(True, "calibration")
        t0 = time.perf_counter()
        for _ in range(1000):
            with probe.span("x"):
                pass
        per_span = (time.perf_counter() - t0) / 1000
        extra = sum(s["end"] - s["start"] for s in self.spans
                    if s["name"] == TRACE_ONLY_SPAN and s["end"] is not None)
        return len(self.spans) * per_span + extra

    def self_times(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}; self time is a span's
        duration minus the time its child spans cover."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            dur = s["end"] - s["start"]
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_s[s["id"]]
        return out


class Ops:
    """Counts attempted and failed operations. Every call into the program
    and every correctness check is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` and return ``(result, seconds)``; a raised exception
        counts as a failed operation and returns ``(None, seconds)``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing call is a measured outcome
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc()
            out = None
        return out, time.perf_counter() - t0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return ok


class RssSampler:
    """Peak of the summed resident set size of this process and all of its
    descendants (the Ray raylet, GCS and worker processes), sampled on a
    background thread."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> int:
        me = psutil.Process()
        total = 0
        for p in [me, *me.children(recursive=True)]:
            try:
                total += p.memory_info().rss
            except psutil.Error:  # exited between listing and reading
                pass
        return total

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, self._sample())
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_bytes = max(self.peak_bytes, self._sample())


def logical_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, unless
    OMP_NUM_THREADS caps them. Ray gets this many logical CPUs."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def start_ray(work_dir: str) -> float:
    """Start a local Ray session with one logical CPU per usable core;
    returns the seconds ``ray.init`` took."""
    kwargs = dict(
        address="local",
        num_cpus=logical_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=256 * 1024 * 1024,
    )
    tmp = os.path.join(os.path.abspath(work_dir), "r")
    if len(tmp) <= _MAX_RAY_TMP_LEN:
        kwargs["_temp_dir"] = tmp
    t0 = time.perf_counter()
    ray.init(**kwargs)
    init_s = time.perf_counter() - t0
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return init_s


def host_block() -> dict:
    return {
        "nproc": logical_cpus(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": round(psutil.virtual_memory().total / 2**20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
    }


def tail(values: list[float]) -> dict:
    """Latency at the highest percentile with at least ten samples beyond it.
    When that percentile would not lie above the median (fewer than 21
    samples), the maximum is reported instead; ``percentile`` and ``beyond``
    say which sample it is."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11
    if k <= (n - 1) // 2:
        k = n - 1
    return {
        "value": xs[k],
        "percentile": round(100.0 * (k + 1) / n, 1),
        "beyond": n - 1 - k,
        "samples": n,
    }
