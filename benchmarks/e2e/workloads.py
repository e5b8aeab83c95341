"""The seven workloads: set-up, one pass of ops, verification.

Each runs inside a fresh child process (``measure.run_workload``). Ops
call ``repro``'s public functions only. A pass runs the workload's whole
op list once; ops faster than ``spec.MIN_SAMPLE_MS`` repeat a fixed
``inner`` count per sample. Verification is untimed and compares with
``references.py`` or with an in-process render, never with the output
of the path being timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np

import references
import spec
from measure import Recorder


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def operands_of(kernel_name: str, tensors: dict) -> dict:
    """A kernel's input tensors as plain reference operands.

    Sparse operands become coordinate triples read from the storage
    arrays, dense ones arrays, scalars floats (see ``references.coo``).
    """
    from repro.kernels import KERNELS
    from repro.tensor.storage import unpack

    operands = {}
    for ts in KERNELS[kernel_name].tensor_specs:
        tensor = tensors[ts.name]
        if ts.role == "sparse":
            coords, vals = unpack(tensor.storage)
            operands[ts.name] = references.coo(coords, vals, tensor.shape)
        elif ts.role == "dense":
            operands[ts.name] = tensor.to_dense()
        elif ts.role == "scalar":
            operands[ts.name] = tensor.scalar_value()
    return operands


def plausible_seconds(seconds: dict) -> bool:
    """Finite positive predictions with Ideal <= HBM2E <= DDR4."""
    if not all(math.isfinite(s) and s > 0 for s in seconds.values()):
        return False
    return (seconds["Capstan (Ideal)"] <= seconds["Capstan (HBM2E)"]
            <= seconds["Capstan (DDR4)"])


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        """Imports, datasets and warm caches (untimed, inside setup_s)."""

    def run_pass(self, index: int, rec: Recorder) -> None:
        """Run the op list once; ``index`` is negative for warm-up passes."""
        raise NotImplementedError

    def verify(self, rec: Recorder) -> dict[str, str]:
        """Check outputs; returns digests that must agree across rounds."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever set-up started."""


class CompileNocache(Workload):
    name = "compile_nocache"

    def setup(self, seed):
        from repro import api

        self.api = api
        self.requests = {
            k: api.CompileRequest(kernel=k, scale=spec.COMPILE_SCALE,
                                  seed=seed) for k in spec.KERNELS}
        for request in self.requests.values():
            api.load_dataset(request)  # the dataset stage stays warm
        self.results: dict[str, list] = {k: [] for k in spec.KERNELS}

    def run_pass(self, index, rec):
        api = self.api
        for kernel, request in self.requests.items():
            pair = rec.sample(
                kernel,
                lambda: (api.compile(request, use_cache=False),
                         api.evaluate(request, use_cache=False)),
                inner=spec.COMPILE_INNER)
            if pair is not None and index >= 0:
                self.results[kernel].append(pair)

    def verify(self, rec):
        digests = {}
        for kernel, pairs in self.results.items():
            texts = [c.to_json() + e.to_json() for c, e in pairs]
            rec.check(bool(texts) and all(t == texts[0] for t in texts),
                      f"{kernel}: to_json differs between passes")
            rec.check(all(plausible_seconds(e.seconds) for _, e in pairs),
                      f"{kernel}: implausible predicted seconds")
            if texts:
                digests[kernel] = sha256(texts[0])
        return digests


class Exec(Workload):
    """``run_engine("numpy")`` on the 13 kernels at one set of scales."""

    def __init__(self, name, scale, scales, inner, inner_default) -> None:
        self.name = name
        self.scales = {k: scales.get(k, scale) for k in spec.KERNELS}
        self.inner = {k: inner.get(k, inner_default) for k in spec.KERNELS}

    def setup(self, seed):
        from repro import api

        self.kernels = {
            k: api.build(api.CompileRequest(kernel=k, scale=s, seed=seed))
            for k, s in self.scales.items()}
        self.outputs: dict[str, np.ndarray] = {}

    def run_pass(self, index, rec):
        for name, kernel in self.kernels.items():
            out = rec.sample(name, lambda: kernel.run_engine("numpy"),
                             inner=self.inner[name])
            if out is not None:
                self.outputs[name] = out

    def verify(self, rec):
        from repro.backends.numpy_exec import NumpyExecutor

        for name, kernel in self.kernels.items():
            expected = references.KERNEL_REFERENCES[name](
                operands_of(name, kernel.tensors))
            got = self.outputs.get(name)
            rec.check(got is not None and references.close(
                expected.reshape(np.shape(got)), got, spec.RTOL),
                f"{name}: output differs from the reference")
            executor = NumpyExecutor(kernel.stmt)
            executor.run()
            rec.check(not executor.fell_back,
                      f"{name}: numpy engine fell back to the cpu walker")
        return {}


class SweepCold(Workload):
    name = "sweep_cold"

    def setup(self, seed):
        import repro.pipeline as pipeline

        if pipeline.disk_cache_dir() is not None:
            raise RuntimeError("sweep_cold needs REPRO_CACHE_DISK=0: with a "
                               "disk layer only its first pass is cold")
        self.pipeline = pipeline
        self.texts: list[str] = []
        self.cells: list[dict] = []

    def run_pass(self, index, rec):
        p = self.pipeline
        p.default_cache().clear_memory()  # the child has no disk layer
        # Each cell runs from the previous stamp's second entry to this
        # stamp's first; the host-reference spin sits between the two.
        stamps = [(0.0, time.perf_counter())]

        def stamp(*_):
            ended = time.perf_counter()
            rec.spin()
            stamps.append((ended, time.perf_counter()))

        with rec.tracer.span("sweep", workload=self.name):
            results = p.run_jobs(
                p.artifact_jobs("table6", spec.SWEEP_SCALE), max_workers=1,
                on_result=stamp)
            for res, (_, start), (end, _) in zip(results, stamps, stamps[1:]):
                if res.ok:
                    rec.note(str(res.job), (end - start) * 1e3)
                else:
                    rec.check(False, f"{res.job}: {res.error}")
            if all(res.ok for res in results):
                self.cells = [res.value.seconds for res in results]
                self.texts.append(p.format_artifact(
                    "table6", p.assemble_artifact("table6", results)))

    def verify(self, rec):
        rec.check(len(set(self.texts)) == 1,
                  "table6 text differs between passes")
        rec.check(bool(self.cells)
                  and all(map(plausible_seconds, self.cells)),
                  "table6 holds implausible predicted seconds")
        return {"table6": sha256(self.texts[0])} if self.texts else {}


class ServeMixed(Workload):
    name = "serve_mixed"

    def setup(self, seed):
        from repro import api
        from repro.service.server import ServeConfig, ServiceThread

        # Waking a thread on the other vCPU costs 5 or 40 us on this VM,
        # flipping for minutes at a time, and a hit makes ~30 wake-ups.
        # On one vCPU a closed loop always has a runnable thread, so the
        # CPU never idles and the wake-up mode stops mattering.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.affinity)})
        self.api = api
        self.seed = seed
        self.service = ServiceThread(
            ServeConfig(port=0, pool=spec.SERVE_POOL)).start()
        # Computing the expected bodies in-process also warms the cache
        # the daemon answers hits from.
        self.hits = []
        for kernel in spec.KERNELS:
            for action in ("compile", "evaluate"):
                request = api.CompileRequest(
                    kernel=kernel, scale=spec.SERVE_SCALE, seed=seed,
                    action=action)
                self.hits.append(("/" + action, self.body(request),
                                  api.execute(request).to_json().encode()))
        self.misses: list[tuple] = []

    @staticmethod
    def body(request) -> bytes:
        return json.dumps({"kernel": request.kernel, "scale": request.scale,
                           "seed": request.seed}).encode()

    def post(self, conn, path: str, body: bytes) -> tuple[int, bytes]:
        conn.request("POST", path, body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.service.port,
                                          timeout=60)

    def client(self, index: int, client: int, out: dict) -> None:
        """One closed-loop client: each request waits for its reply."""
        bad = []
        samples = {}
        start = time.perf_counter()
        conn = self.connect()
        for path, body, expected in self.hits:
            if self.post(conn, path, body) != (200, expected):
                bad.append(f"keep-alive {path} {body!r}")
        conn.close()
        samples["hit_keepalive"] = (time.perf_counter() - start) * 1e3 / len(
            self.hits)
        start = time.perf_counter()
        for path, body, expected in self.hits:
            conn = self.connect()
            if self.post(conn, path, body) != (200, expected):
                bad.append(f"connect {path} {body!r}")
            conn.close()
        samples["hit_connect"] = (time.perf_counter() - start) * 1e3 / len(
            self.hits)
        miss_seed = (1000 * (self.seed + 1)
                     + (index + 1) * spec.SERVE_CLIENTS + client)
        conn = self.connect()
        for action, kernel in (("evaluate", "Plus2"), ("compile", "SpMV")):
            request = self.api.CompileRequest(
                kernel=kernel, scale=spec.SERVE_SCALE, seed=miss_seed,
                action=action)
            start = time.perf_counter()
            status, got = self.post(conn, "/" + action, self.body(request))
            samples["miss_" + action] = (time.perf_counter() - start) * 1e3
            if status != 200:
                bad.append(f"miss {action} {kernel}: status {status}")
            out.setdefault("misses", []).append((request, got))
        conn.close()
        out["samples"], out["bad"] = samples, bad

    def run_pass(self, index, rec):
        outs = [{} for _ in range(spec.SERVE_CLIENTS)]
        threads = [threading.Thread(target=self.client, args=(index, c, out))
                   for c, out in enumerate(outs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for out in outs:
            if "samples" not in out:
                rec.check(False, "a client thread died mid-pass")
                continue
            rec.attempted += 2 * len(self.hits) + 2 - len(out["samples"])
            for op, ms in out["samples"].items():
                rec.note(op, ms)
            for message in out["bad"]:
                rec.fail(message)
            if index >= 0:
                self.misses.extend(out["misses"])

    def verify(self, rec):
        for request, got in self.misses:
            expected = self.api.execute(request).to_json().encode()
            rec.check(got == expected,
                      f"miss body differs: {request.canonical_json()}")
        return {}

    def close(self):
        self.service.stop()
        os.sched_setaffinity(0, self.affinity)


def render_in_process(argv: list[str]) -> str:
    """What ``python -m repro <argv>`` prints, rendered in this process."""
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro {argv} returned {code}")
    return out.getvalue()


def stable_cli_text(op: str, text: str) -> str:
    """CLI output without the fields that legitimately vary per run."""
    if op != "batch_shard":
        return text
    manifest = json.loads(text)
    for job in manifest["jobs"]:
        del job["seconds"], job["computed"]
    return json.dumps(manifest, sort_keys=True)


class CliWarm(Workload):
    name = "cli_warm"

    def setup(self, seed):
        # Rendering in-process writes the disk cache the subprocesses
        # read, so it is both the reference and the warm-up (a warm-up
        # pass of four more subprocesses would add 1 s to every round).
        self.expected = {op: stable_cli_text(op, render_in_process(argv))
                         for op, argv in spec.CLI_OPS.items()}
        self.runs: list[tuple[str, subprocess.CompletedProcess]] = []

    def run_pass(self, index, rec):
        for op, argv in spec.CLI_OPS.items():
            done = rec.sample(op, lambda: subprocess.run(
                [sys.executable, "-m", "repro", *argv], capture_output=True,
                text=True, timeout=120))
            if done is not None:
                self.runs.append((op, done))

    def verify(self, rec):
        for op, done in self.runs:
            rec.check(done.returncode == 0,
                      f"{op}: exit {done.returncode}: {done.stderr[-300:]}")
            rec.check(done.returncode == 0 and stable_cli_text(
                op, done.stdout) == self.expected[op],
                f"{op}: stdout differs from the in-process render")
        return {op: sha256(text) for op, text in self.expected.items()}


def partition_reference(kernel: str, dataset: str, scale: float):
    """The unpartitioned product from the dataset's raw coordinates."""
    from repro.data.datasets import load_matrix_coo
    from repro.pipeline.partition import PARTITION_SEED

    dims, coords, vals = load_matrix_coo(dataset, scale, PARTITION_SEED)
    rng = np.random.default_rng(PARTITION_SEED)
    operands = {"A": references.coo(coords, vals, dims)}
    if kernel == "SpMV":
        operands["x"] = rng.random(dims[1])
        return references.spmv(operands), len(vals)
    operands["B"] = rng.random((dims[1], max(4, min(16, dims[0]))))
    return references.spmm(operands), len(vals)


def replay_pipeline(name: str, dataset: str, scale: float, seed: int):
    """Re-run a pipeline's stages one by one; returns (operands, output).

    ``api.pipeline`` reports only a checksum of its final output, so the
    verification rebuilds the leaf operands the way ``run_pipeline``
    does, runs each stage on the numpy engine, and hands back the final
    array together with the leaves as reference operands.
    """
    from repro.core.compiler import compile_stmt
    from repro.data.datasets import load_matrix_coo
    from repro.pipeline.fusion import PIPELINES
    from repro.tensor.storage import unpack

    pipeline = PIPELINES[name]
    dims, coords, vals = load_matrix_coo(dataset, scale, seed)
    env = pipeline.setup(dims, coords, vals, np.random.default_rng([seed, 1]))
    operands = {}
    for key, tensor in env.items():
        if tensor.order == 0:
            operands[key] = tensor.scalar_value()
        elif tensor.format.has_compressed_level:
            operands[key] = references.coo(*unpack(tensor.storage),
                                           tensor.shape)
        else:
            operands[key] = tensor.to_dense()
    got = None
    for stage in pipeline.stages:
        stmt, out = stage.build(env)
        got = compile_stmt(stmt, f"{name}-{stage.name}",
                           cache=False).run_engine("numpy")
        env[stage.output] = out.from_dense(got)
    return operands, got


def output_checksum(array: np.ndarray) -> str:
    """The checksum ``run_pipeline`` reports for a stage output."""
    return sha256(str(array.shape).encode()
                  + np.ascontiguousarray(array, dtype=np.float64).tobytes())


class PartitionFuse(Workload):
    name = "partition_fuse"

    def setup(self, seed):
        from repro import api

        self.api = api
        self.seed = seed
        self.requests = {}
        for kernel, blocks in spec.PARTITION_OPS:
            self.requests[f"partition_{kernel}_p{blocks}"] = (
                api.CompileRequest(kernel=kernel, scale=spec.PARTITION_SCALE,
                                   partition=blocks, action="partition"), 1)
        for name in spec.FUSE_OPS:
            self.requests[f"pipeline_{name}"] = (
                api.CompileRequest(kernel=name, scale=spec.FUSE_SCALE,
                                   seed=seed, engine="numpy",
                                   action="pipeline"), spec.FUSE_INNER)
        self.results = {}

    def run_pass(self, index, rec):
        for op, (request, inner) in self.requests.items():
            result = rec.sample(
                op, lambda: self.api.execute(request, use_cache=False),
                inner=inner)
            if result is not None:
                self.results[op] = result

    def verify(self, rec):
        digests = {}
        for op, (request, _) in self.requests.items():
            result = self.results.get(op)
            if result is None:
                rec.check(False, f"{op}: no result")
                continue
            request = result.request
            if request.action == "partition":
                ok = self._partition_ok(request, result.partition)
                digests[op] = result.partition["sha256"]
            else:
                operands, got = replay_pipeline(
                    request.kernel, request.dataset, request.scale,
                    request.seed)
                expected = references.PIPELINE_REFERENCES[request.kernel](
                    operands)
                ok = (output_checksum(got) == result.pipeline["checksum"]
                      and references.close(expected, got, spec.RTOL))
                digests[op] = result.pipeline["checksum"]
            rec.check(ok, f"{op}: output differs from the reference")
        return digests

    @staticmethod
    def _partition_ok(request, report: dict) -> bool:
        expected, nnz = partition_reference(request.kernel, request.dataset,
                                            request.scale)
        flat = expected.reshape(-1)
        picks = {"first": 0, "mid": flat.size // 2, "last": flat.size - 1}
        got = [float(report["sum"])] + [float(report["samples"][k])
                                        for k in picks]
        want = [float(flat.sum())] + [float(flat[i]) for i in picks.values()]
        return (report["shape"] == list(expected.shape)
                and report["nnz"] == nnz
                and all(abs(g - w) <= spec.RTOL * max(1.0, abs(w))
                        for g, w in zip(got, want)))


def make(name: str) -> Workload:
    if name == "exec_small":
        return Exec(name, spec.EXEC_SMALL_SCALE, {}, spec.EXEC_SMALL_INNER,
                    spec.EXEC_SMALL_INNER_DEFAULT)
    if name == "exec_large":
        return Exec(name, spec.EXEC_LARGE_SCALE, spec.EXEC_LARGE_SCALES,
                    spec.EXEC_LARGE_INNER, 1)
    return {w.name: w for w in (CompileNocache, SweepCold, ServeMixed,
                                CliWarm, PartitionFuse)}[name]()
