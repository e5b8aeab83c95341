"""The ``repro.pipeline`` subsystem: caching + parallel evaluation.

Two orthogonal pieces that the compiler facade, evaluation harness, CLI,
and benchmark drivers all route through:

* :mod:`repro.pipeline.cache` — a content-addressed compilation cache
  (in-memory LRU + optional on-disk store under ``~/.cache/repro``) keyed
  by a stable hash of the index statement, tensor formats, schedule, and
  compiler version.
* :mod:`repro.pipeline.executor` — a batch executor that fans
  (kernel, dataset, platform) jobs out over ``concurrent.futures``
  workers with deterministic result ordering and per-job failure
  isolation.
* :mod:`repro.pipeline.batch` — each paper artefact (Tables 3/5/6,
  Figure 12) expressed as an explicit job list.
* :mod:`repro.pipeline.shard` — deterministic sharding of those job
  lists across workers/hosts, with self-describing JSON manifests and a
  validating merge that reproduces the serial artefacts byte-identically.
* :mod:`repro.pipeline.dispatch` — a fault-tolerant sweep dispatcher
  that leases chunks of a job list to a pool of workers (local
  subprocesses, SSH hosts, or in-process threads), reassigns the chunks
  of dead or hung workers, quarantines persistently failing jobs, and
  folds the collected manifests through the validating merge; it leases
  the heaviest chunk first, by the per-job wall times it recorded.
* :mod:`repro.pipeline.lease` — the one lease loop (retry bound, lease
  expiry) and the ``Transport`` interface every worker pool implements;
  ``dispatch`` and the ``serve`` daemon's queue pool both drive it.
* :mod:`repro.pipeline.fsqueue` — the ``queue:DIR`` elastic transport:
  a filesystem job queue with atomic-rename claim semantics where
  ``repro worker`` processes attach and detach mid-sweep.
"""

import sys
import types

from repro import lazy_exports

_EXPORTS = {
    "ARTIFACT_NAMES": ("repro.pipeline.batch", "ARTIFACT_NAMES"),
    "BatchRun": ("repro.pipeline.batch", "BatchRun"),
    "CacheStats": ("repro.pipeline.cache", "CacheStats"),
    "CompilationCache": ("repro.pipeline.cache", "CompilationCache"),
    "DispatchError": ("repro.pipeline.dispatch", "DispatchError"),
    "DispatchResult": ("repro.pipeline.dispatch", "DispatchResult"),
    "InlineTransport": ("repro.pipeline.dispatch", "InlineTransport"),
    "Job": ("repro.pipeline.executor", "Job"),
    "JobResult": ("repro.pipeline.executor", "JobResult"),
    "LocalTransport": ("repro.pipeline.dispatch", "LocalTransport"),
    "ManifestError": ("repro.pipeline.shard", "ManifestError"),
    "MergeError": ("repro.pipeline.shard", "MergeError"),
    "MergedArtifact": ("repro.pipeline.shard", "MergedArtifact"),
    "QueueTransport": ("repro.pipeline.dispatch", "QueueTransport"),
    "ShardManifest": ("repro.pipeline.shard", "ShardManifest"),
    "ShardSpec": ("repro.pipeline.shard", "ShardSpec"),
    "SshTransport": ("repro.pipeline.dispatch", "SshTransport"),
    "Transport": ("repro.pipeline.dispatch", "Transport"),
    "artifact_jobs": ("repro.pipeline.batch", "artifact_jobs"),
    "assemble_artifact": ("repro.pipeline.batch", "assemble_artifact"),
    "cache_enabled": ("repro.pipeline.cache", "cache_enabled"),
    "compiler_version": ("repro.pipeline.cache", "compiler_version"),
    "default_cache": ("repro.pipeline.cache", "default_cache"),
    "default_jobs": ("repro.pipeline.executor", "default_jobs"),
    "disk_cache_dir": ("repro.pipeline.cache", "disk_cache_dir"),
    "dispatch": ("repro.pipeline.dispatch", "dispatch"),
    "expand_manifest_paths": ("repro.pipeline.shard", "expand_manifest_paths"),
    "fingerprint_stmt": ("repro.pipeline.cache", "fingerprint_stmt"),
    "fingerprint_tensor": ("repro.pipeline.cache", "fingerprint_tensor"),
    "format_artifact": ("repro.pipeline.batch", "format_artifact"),
    "make_key": ("repro.pipeline.cache", "make_key"),
    "memoize_stage": ("repro.pipeline.cache", "memoize_stage"),
    "merge_manifests": ("repro.pipeline.shard", "merge_manifests"),
    "parse_transport": ("repro.pipeline.dispatch", "parse_transport"),
    "run_artifact": ("repro.pipeline.batch", "run_artifact"),
    "run_batch": ("repro.pipeline.batch", "run_batch"),
    "run_jobs": ("repro.pipeline.executor", "run_jobs"),
    "run_shard": ("repro.pipeline.shard", "run_shard"),
    "stage_version": ("repro.pipeline.cache", "stage_version"),
    "worker_loop": ("repro.pipeline.fsqueue", "worker_loop"),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)


class _Package(types.ModuleType):
    """``dispatch`` names a submodule *and* the function it defines.

    Importing the submodule makes the import system bind the module on
    this package, after which ``__getattr__`` is never asked again. A
    data descriptor outranks that binding, so ``repro.pipeline.dispatch``
    is the callable whichever of the two was imported first.
    """

    @property
    def dispatch(self):
        return __getattr__("dispatch")

    @dispatch.setter
    def dispatch(self, _bound):
        pass


sys.modules[__name__].__class__ = _Package
