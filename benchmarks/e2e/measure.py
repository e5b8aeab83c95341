"""Timing, spans, scratch directories and the child-process protocol.

The benchmark measures every layer from outside, by timing calls into
its public functions; nothing here imports ``repro``. A run is a parent
(``run.py``) that starts one fresh child per round; the child sets up,
makes a fixed number of timed passes, verifies, and prints one JSON
object as the last line of its standard output.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: Environment a child never inherits: each would change what is measured.
_SCRUBBED = ("REPRO_TRACE_DIR", "REPRO_SCALE", "REPRO_ENGINE", "REPRO_JOBS",
             "REPRO_NO_CACHE", "REPRO_CACHE_DISK", "REPRO_CACHE_MEM")


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; with few samples it is the maximum."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- spans ------------------------------------------------------------------


class Tracer:
    """In-memory spans around calls into each layer.

    A span records name, start, end, the span that caused it and free
    attributes (workload, op). Spans stay in memory; the parent writes
    them out when the run ends, and the program's own tracer
    (``REPRO_TRACE_DIR``) stays off.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "parent": stack[-1] if stack else None,
                  **attrs}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def timed(self, name: str, fn, **attrs):
        """Run ``fn`` under a span; returns ``(result, milliseconds)``."""
        start = time.perf_counter()
        with self.span(name, **attrs):
            result = fn()
        return result, (time.perf_counter() - start) * 1e3


def self_times_ms(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the children's."""
    child_total: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] = (child_total.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
    totals: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_total.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own * 1e3
    return totals


def durations_ms(spans: list[dict], name: str) -> list[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == name]


# -- timing -----------------------------------------------------------------


def time_ms(fn, inner: int = 1) -> float:
    """Milliseconds per call of ``fn``, over ``inner`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - start) * 1e3 / inner


class HostReference:
    """Fixed spins that run none of the program under test.

    This VM's speed drifts by 10-30 % over tens of seconds, more for
    Python-object-heavy code than for NumPy kernels, and the latency of
    waking a thread on the other vCPU moves on its own. Every child
    runs the spins its workload follows (``spec.Workload.reference``)
    between its passes; ``run.summarize`` divides the child's timings by
    the spins' slowdown against ``spec.REFERENCE_NOMINAL_MS``.
    """

    def __init__(self, kinds) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.big = rng.random(1 << 18)
        self.index = rng.integers(0, self.big.size, size=1 << 15)
        self.kinds = tuple(kinds)
        if "wakeup" in self.kinds:
            self.near, far = socket.socketpair()
            threading.Thread(target=self._echo, args=(far,),
                             daemon=True).start()
        self.last = 0.0
        #: Seconds spent spinning, so a pass can leave them out.
        self.spent = 0.0
        self.samples: dict[str, list[float]] = {k: [] for k in self.kinds}
        self.spin()  # first-call costs of the spins: not kept
        self.samples = {k: [] for k in self.kinds}

    @staticmethod
    def _echo(sock) -> None:
        while data := sock.recv(64):
            sock.sendall(data)

    def python(self) -> int:
        """Object churn: dicts, tuples, strings, a sort, a JSON round trip."""
        rows = [{"k": i % 97, "v": (i, str(i))} for i in range(3000)]
        rows.sort(key=lambda r: r["k"])
        return sum(r["k"] for r in json.loads(json.dumps(rows[:800])))

    def numpy(self) -> float:
        """Scan, scatter, sort and a small matmul over a 2 MB array."""
        import numpy as np

        big, index = self.big, self.index
        total = np.cumsum(big)
        np.add.at(total, index[:8000], 1.0)
        order = np.argsort(big[index])
        product = big.reshape(512, 512) @ big[:512 * 64].reshape(512, 64)
        return float(total[-1]) + int(order[0]) + float(product[0, 0])

    def wakeup(self) -> None:
        """100 round trips to an echo thread: cross-thread wake latency."""
        for _ in range(100):
            self.near.sendall(b"ping")
            self.near.recv(64)

    def spawn(self) -> None:
        """Start and reap a bare interpreter: exec, mmap, page-cache reads."""
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)

    def spin(self) -> None:
        """Three back-to-back samples of every kind."""
        start = time.perf_counter()
        for kind in self.kinds:
            fn = getattr(self, kind)
            for _ in range(3):
                self.samples[kind].append(time_ms(fn))
        self.last = time.perf_counter()
        self.spent += self.last - start


class Recorder:
    """What a workload's pass reports into: op samples and failures."""

    #: Longest stretch of a pass without a host-reference spin.
    SPIN_EVERY_S = 0.25

    def __init__(self, tracer: Tracer, workload: str,
                 reference: HostReference | None = None) -> None:
        self.tracer = tracer
        self.workload = workload
        self.reference = reference
        self.ops: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        #: Samples that lasted less than ``spec.MIN_SAMPLE_MS`` in all.
        self.short = 0

    def spin(self) -> None:
        """Sample the host reference if the last sample has gone stale."""
        ref = self.reference
        if (ref is not None
                and time.perf_counter() - ref.last > self.SPIN_EVERY_S):
            ref.spin()

    def sample(self, op: str, fn, inner: int = 1):
        """Time ``inner`` calls of ``fn`` as one sample of ``op``.

        An op that raises counts as failed and contributes no sample.
        Returns the last call's result (``None`` on failure).
        """
        self.attempted += 1
        self.spin()
        result = None
        start = time.perf_counter()
        try:
            with self.tracer.span(op, workload=self.workload, inner=inner):
                for _ in range(inner):
                    result = fn()
        except Exception:
            self.fail(f"{op}: {traceback.format_exc(limit=3)}")
            return None
        elapsed = (time.perf_counter() - start) * 1e3
        self.short += elapsed < spec.MIN_SAMPLE_MS
        self.note(op, elapsed / inner, attempted=False)
        return result

    def note(self, op: str, ms: float, attempted: bool = True) -> None:
        """Record a sample the workload timed itself."""
        if attempted:
            self.attempted += 1
        self.ops.setdefault(op, []).append(ms)

    def check(self, ok: bool, message: str) -> None:
        """One verification: counted as attempted, failed when not ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def fail(self, message: str) -> None:
        self.failures.append(message)


# -- the child --------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_workload(workload, seed: int, passes: int, spawned: float,
                 trace: bool) -> dict:
    """The child's phases: set-up, timed passes, verification.

    ``workload`` is a ``workloads.Workload`` instance. With ``trace``
    the passes alternate untraced and traced, so the tracing overhead
    is measured inside one process on one set of inputs.
    """
    settings = spec.WORKLOADS[workload.name]
    tracer = Tracer(enabled=False)
    reference = HostReference(settings.reference)
    rec = Recorder(tracer, workload.name, reference)
    warm = Recorder(tracer, workload.name)
    try:
        workload.setup(seed)
        for index in range(-settings.warmups, 0):
            workload.run_pass(index, warm)  # first-call costs sit in setup_s
        gc.collect()
        setup_s = time.time() - spawned
        pass_ms: list[float] = []
        traced_ms: list[float] = []
        for index in range(passes):
            tracer.enabled = trace and index % 2 == 1
            reference.spin()
            start, spun = time.perf_counter(), reference.spent
            with tracer.span("pass", workload=workload.name, index=index):
                workload.run_pass(index, rec)
            elapsed = (time.perf_counter() - start
                       - (reference.spent - spun)) * 1e3
            (traced_ms if tracer.enabled else pass_ms).append(elapsed)
            gc.collect()
        reference.spin()
        tracer.enabled = False
        digests = workload.verify(rec)
    finally:
        workload.close()
    rec.failures[:0] = warm.failures
    return {
        "workload": workload.name,
        "setup_s": setup_s,
        "pass_ms": pass_ms,
        "traced_pass_ms": traced_ms,
        "ops": rec.ops,
        "short_samples": rec.short,
        "rss_mb": peak_rss_mb(),
        "attempted": rec.attempted + warm.attempted,
        "failures": rec.failures,
        "digests": digests,
        "reference_ms": reference.samples,
        "spans": tracer.spans,
    }


# -- the parent -------------------------------------------------------------


class Scratch:
    """One run's scratch tree under ``benchmarks/e2e/out``.

    Children create files only below it, and it is removed on success,
    failure and SIGTERM alike. It sits inside the checkout because the
    driver's contract forbids writing anywhere else.
    """

    def __init__(self) -> None:
        self.root = OUT / f"tmp-{os.getpid()}"
        self._children: set[subprocess.Popen] = set()
        self._count = 0

    def __enter__(self) -> "Scratch":
        self.root.mkdir(parents=True, exist_ok=True)
        self._previous = signal.signal(signal.SIGTERM, self._on_term)
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in list(self._children):
            self._kill(proc)
        signal.signal(signal.SIGTERM, self._previous)
        shutil.rmtree(self.root, ignore_errors=True)

    @staticmethod
    def _on_term(signum, _frame):
        raise SystemExit(128 + signum)

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        # The child leads its own session, so this also takes the CLI
        # subprocesses and dispatch workers it may have started.
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def run_child(self, what: str, seed: int, passes: int = 1,
                  trace: bool = False, timeout: float = 150.0) -> dict:
        """Start ``run.py --child <what>`` fresh; return its JSON result.

        ``what`` is a workload name or ``layers``. A workload without
        ``disk_cache`` keeps the program's cache in memory
        (``REPRO_CACHE_DISK=0``): this VM's disk takes 0.3-1.5 s for the
        ~150 small files of one cold sweep, whatever the code does.
        """
        self._count += 1
        work = self.root / f"{self._count:03d}-{what}"
        work.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
        env.update(
            PYTHONPATH=str(SRC),
            REPRO_CACHE_DIR=str(work / "cache"),
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            # NumPy madvises large arrays into transparent huge pages;
            # the kernel's compaction then stalls single calls by
            # 100-600 ms (TTM, SDDMM, TTV outputs), so it is off.
            NUMPY_MADVISE_HUGEPAGE="0",
            E2E_SCRATCH=str(work),
        )
        if what in spec.WORKLOADS and not spec.WORKLOADS[what].disk_cache:
            env["REPRO_CACHE_DISK"] = "0"
        argv = [sys.executable, str(HERE / "run.py"), "--child", what,
                "--seed", str(seed), "--passes", str(passes),
                *(["--trace"] if trace else []),
                "--spawned", repr(time.time())]
        proc = subprocess.Popen(argv, env=env, cwd=str(REPO),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        self._children.add(proc)
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            self._kill(proc)
            self._children.discard(proc)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"child {what} exited {proc.returncode}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def scratch_dir() -> Path:
    """The directory the parent gave this child (``E2E_SCRATCH``)."""
    return Path(os.environ["E2E_SCRATCH"])
