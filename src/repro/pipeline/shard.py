"""Deterministic sharding of artefact job lists + manifest merge.

Stardust's evaluation is an embarrassingly parallel sweep over (kernel,
dataset, platform) cells; this module distributes one artefact's job list
across independent workers — different processes, CI matrix entries, or
hosts — and folds the pieces back together:

* :class:`ShardSpec` names one slice (``2/8`` = shard 2 of 8, 1-based)
  and selects its jobs by **position** in the artefact's deterministic
  job list, so the partition is stable regardless of worker count or
  which machine runs it: the union of all shards is exactly the full
  list and shards are pairwise disjoint.
* :func:`run_shard` executes one slice and returns a self-describing
  :class:`ShardManifest` — artefact, scale, shard spec, compiler-version
  hash, and per-job results as JSON-safe payloads (floats round-trip
  exactly through JSON's shortest-repr encoding).
* :func:`merge_manifests` validates a set of manifests for compatibility
  (same artefact / scale / compiler hash; no missing, duplicate, or
  failed jobs) and assembles them into **exactly** the structure the
  serial harness produces, so ``repro merge shard*.json`` output is
  byte-identical to ``repro tables``.

Shard workers sharing a ``REPRO_CACHE_DIR`` also share the staged cache
(:func:`repro.pipeline.cache.memoize_stage`): whichever shard generates a
dataset or compiles a kernel first serves the others.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from repro.obs import trace as _trace
from repro.pipeline.batch import UnknownArtifact, resolve_artifact
from repro.pipeline.cache import compiler_version
from repro.pipeline.executor import Job, JobResult, run_jobs

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "ManifestError",
    "MergeError",
    "MergedArtifact",
    "ShardManifest",
    "ShardSpec",
    "expand_manifest_paths",
    "merge_manifests",
    "run_shard",
]

#: The ``format`` field stamped into every manifest file.
MANIFEST_FORMAT = "repro-shard-manifest"

#: Bumped whenever the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


class ManifestError(ValueError):
    """A manifest file is malformed or self-inconsistent."""


class MergeError(ManifestError):
    """A set of manifests cannot be merged (incompatible or incomplete)."""


# ---------------------------------------------------------------------------
# Shard specification
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One slice of a job list: shard ``index`` of ``count`` (1-based),
    the jobs at every ``p`` with ``p % count == index - 1``. Operators
    type this round-robin partition by hand (``--shard 2/8``) and the
    dispatcher cuts its chunks by it."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse ``"2/8"`` into a spec."""
        head, sep, tail = text.partition("/")
        try:
            if not sep:
                raise ValueError
            return cls(int(head), int(tail))
        except ValueError:
            raise ValueError(
                f"invalid shard spec {text!r}; expected I/N with 1 <= I <= N"
            ) from None

    def select(self, jobs: list[Job]) -> list[Job]:
        """This shard's slice of ``jobs``.

        Round-robin (rather than contiguous blocks) balances the slow
        kernels, which cluster at the front of the suite order, across
        shards.
        """
        return [job for pos, job in enumerate(jobs)
                if pos % self.count == self.index - 1]

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ShardManifest:
    """Self-describing record of one shard's run over one artefact."""

    artifact: str
    scale: float
    shard: ShardSpec
    compiler: str
    total_jobs: int
    jobs: list[dict]
    version: int = MANIFEST_VERSION

    def job_keys(self) -> list[tuple]:
        return [tuple(entry["key"]) for entry in self.jobs]

    def failures(self) -> list[dict]:
        return [entry for entry in self.jobs if not entry["ok"]]

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": self.version,
            "artifact": self.artifact,
            "scale": self.scale,
            "shard": {"index": self.shard.index, "count": self.shard.count},
            "compiler": self.compiler,
            "total_jobs": self.total_jobs,
            "jobs": self.jobs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: Any, source: str = "<manifest>") -> "ShardManifest":
        if not isinstance(data, dict):
            raise ManifestError(f"{source}: manifest must be a JSON object")
        if data.get("format") != MANIFEST_FORMAT:
            raise ManifestError(
                f"{source}: not a {MANIFEST_FORMAT} file "
                f"(format={data.get('format')!r})"
            )
        if data.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"{source}: unsupported manifest version "
                f"{data.get('version')!r} (expected {MANIFEST_VERSION})"
            )
        missing = [f for f in ("artifact", "scale", "shard", "compiler",
                               "total_jobs", "jobs") if f not in data]
        if missing:
            raise ManifestError(f"{source}: missing field(s) {missing}")
        try:
            resolve_artifact(data["artifact"])
        except UnknownArtifact as exc:
            raise ManifestError(f"{source}: {exc}") from None
        shard = data["shard"]
        try:
            # Exactly these two keys: a manifest that says more about its
            # slice (an explicit-position chunk of an older checkout) must
            # not be read as the uniform chunk of the same I/N.
            if set(shard) != {"index", "count"}:
                raise ValueError(f"expected index and count, got "
                                 f"{sorted(shard)}")
            spec = ShardSpec(int(shard["index"]), int(shard["count"]))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{source}: bad shard spec: {exc}") from None
        jobs = data["jobs"]
        if not isinstance(jobs, list) or not all(
            isinstance(e, dict) and "key" in e and "ok" in e for e in jobs
        ):
            raise ManifestError(f"{source}: malformed jobs list")
        return cls(
            artifact=data["artifact"],
            scale=data["scale"],
            shard=spec,
            compiler=data["compiler"],
            total_jobs=int(data["total_jobs"]),
            jobs=jobs,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ShardManifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"{path}: cannot read manifest: {exc}") from None
        return cls.from_dict(data, source=str(path))


# ---------------------------------------------------------------------------
# Running one shard
# ---------------------------------------------------------------------------


def run_shard(
    artifact: str,
    scale: float,
    spec: ShardSpec,
    jobs: int | None = None,
    use_cache: bool | None = None,
    on_result=None,
    should_stop=None,
    engine: str | None = None,
) -> ShardManifest:
    """Execute one shard of an artefact's job list into a manifest.

    Failed jobs are captured in the manifest (``ok: false`` with the
    traceback text) rather than raised, so a sweep driver can inspect
    partial shards; :func:`merge_manifests` refuses to fold them.
    ``should_stop`` (a nullary predicate) cancels jobs not yet started —
    the dispatcher revokes an expired in-process lease through it, and
    the cancelled jobs appear as failures in the manifest. ``engine``
    selects the functional-execution engine for cells that run kernels;
    job keys and manifests stay engine-agnostic.
    """
    record = resolve_artifact(artifact)
    all_jobs = record.jobs(scale, use_cache, engine)
    with _trace.span("chunk", artifact=artifact, shard=str(spec)) as chunk_sp:
        results = run_jobs(spec.select(all_jobs), max_workers=jobs,
                           on_result=on_result, should_stop=should_stop)
        chunk_sp.set(jobs=len(results),
                     computed=sum(1 for r in results if r.computed))
    entries = []
    for res in results:
        entry: dict[str, Any] = {
            "key": list(res.job.key),
            "ok": res.ok,
            "seconds": round(res.seconds, 6),
            "computed": res.computed,
        }
        if res.ok:
            # JSON writes floats with ``repr`` (shortest round trip), so
            # every value decodes bit-identically: the byte-identical
            # merge rests on it.
            entry["value"] = record.encode(res.value)
        else:
            entry["error"] = res.error
        entries.append(entry)
    return ShardManifest(
        artifact=artifact,
        scale=scale,
        shard=spec,
        compiler=compiler_version(),
        total_jobs=len(all_jobs),
        jobs=entries,
    )


def expand_manifest_paths(patterns: list[str]) -> list[Path]:
    """Manifest paths from literal names and/or glob patterns.

    ``repro merge 'shards/*.json'`` must work even when the shell did
    not expand the glob (quoted, or run through ``subprocess`` without a
    shell), and an unmatched pattern must surface as "no manifests"
    rather than as an unreadable file named ``shards/*.json``. A name
    that exists on disk is always taken literally — even when it
    contains glob metacharacters (``results[2026]/s1.json``) — and a
    nonexistent literal name passes through so a typo'd filename still
    reports "cannot read" with its name.
    """
    import glob as globlib

    paths: list[Path] = []
    for pattern in patterns:
        path = Path(pattern)
        if path.exists() or not any(ch in pattern for ch in "*?["):
            paths.append(path)
        else:
            paths.extend(sorted(Path(p) for p in globlib.glob(pattern)))
    return paths


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MergedArtifact:
    """The result of folding shard manifests back into one artefact."""

    artifact: str
    scale: float
    data: Any
    text: str


def _check_consistent(manifests: list[ShardManifest]) -> None:
    for field, label in (("artifact", "artefact"), ("scale", "scale"),
                         ("compiler", "compiler hash"),
                         ("total_jobs", "job-list length")):
        values = {getattr(m, field) for m in manifests}
        if len(values) > 1:
            raise MergeError(
                f"manifests disagree on {label}: {sorted(map(str, values))}"
            )
    counts = {m.shard.count for m in manifests}
    if len(counts) > 1:
        raise MergeError(
            f"manifests disagree on shard count: {sorted(counts)}"
        )
    indices = [m.shard.index for m in manifests]
    duplicates = sorted({i for i in indices if indices.count(i) > 1})
    if duplicates:
        raise MergeError(f"duplicate shard index(es): {duplicates}")


def merge_manifests(
    manifests: list[ShardManifest],
    require_current_compiler: bool = True,
    use_cache: bool | None = None,
) -> MergedArtifact:
    """Validate shard manifests and fold them into the serial artefact.

    The merged result is assembled through the exact code path the serial
    harness uses (the record's ``assemble`` over results in canonical job
    order), so its formatted text is byte-identical to ``repro tables``.
    ``use_cache`` governs what the fold itself computes: a partition
    plan's reducing merge stages the full operand for its oracle, and a
    ``--no-cache`` dispatch must not answer that from the cache.

    Raises :class:`MergeError` when the manifests are incompatible (mixed
    artefact / scale / compiler hash, overlapping shards) or incomplete
    (missing, duplicate, or failed jobs).
    """
    if not manifests:
        raise MergeError("no manifests to merge")
    _check_consistent(manifests)
    artifact = manifests[0].artifact
    scale = manifests[0].scale
    record = resolve_artifact(artifact)  # from_dict vetted the name

    if require_current_compiler and manifests[0].compiler != compiler_version():
        raise MergeError(
            f"manifests were produced by compiler {manifests[0].compiler} "
            f"but this checkout is {compiler_version()}; results would not "
            f"be comparable to a serial run (re-run the shards, or pass "
            f"--allow-stale-compiler to merge anyway)"
        )

    # Failures, duplicates, and malformed payloads name the artefact and
    # the originating chunk, so a refused merge in a multi-artefact
    # dispatch is attributable to both the sweep and the worker that
    # produced the offending manifest.
    failed = [(entry, m.shard) for m in manifests for entry in m.failures()]
    if failed:
        keys = [f"{':'.join(map(str, entry['key']))} (chunk {shard})"
                for entry, shard in failed]
        raise MergeError(
            f"cannot merge failed job(s) for artefact {artifact}: {keys}"
        )

    collected: dict[tuple, Any] = {}
    origin: dict[tuple, ShardSpec] = {}
    for manifest in manifests:
        for entry in manifest.jobs:
            key = tuple(entry["key"])
            if key in collected:
                raise MergeError(
                    f"duplicate job {':'.join(map(str, key))} in artefact "
                    f"{artifact} (chunks {origin[key]} and {manifest.shard})"
                )
            try:
                collected[key] = record.decode(entry["value"])
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise MergeError(
                    f"malformed result payload for job "
                    f"{':'.join(map(str, key))} in artefact {artifact} "
                    f"(chunk {manifest.shard}): {exc!r}"
                ) from None
            origin[key] = manifest.shard

    expected = record.jobs(scale, use_cache)
    expected_keys = [job.key for job in expected]
    missing = [k for k in expected_keys if k not in collected]
    if missing:
        raise MergeError(
            f"missing job(s) for artefact {artifact} (incomplete shard "
            f"set?): {[':'.join(map(str, k)) for k in missing]}"
        )
    unexpected = sorted(set(collected) - set(expected_keys))
    if unexpected:
        labels = [":".join(map(str, k)) + f" (chunk {origin[k]})"
                  for k in unexpected]
        raise MergeError(
            f"unexpected job(s) not in the {artifact} job list: {labels}"
        )

    results = [JobResult(job, True, value=collected[job.key])
               for job in expected]
    data = record.assemble(results)
    return MergedArtifact(artifact, scale, data, record.render(data))
