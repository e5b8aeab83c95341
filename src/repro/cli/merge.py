"""``repro merge``: merge shard manifests into the full artefact."""

from __future__ import annotations

from repro.cli import Refusal
from repro.cli.common import add_shared, emit, refusing


def add_arguments(parser) -> None:
    add_shared(parser, "--out")
    parser.add_argument("manifests", nargs="*",
                        help="shard manifest files (or quoted glob "
                             "patterns) written by "
                             "`batch --shard I/N --out ...`")
    parser.add_argument("--allow-stale-compiler", action="store_true",
                        help="merge manifests produced by a different "
                             "compiler version (hashes must still agree "
                             "between shards)")


def run(args) -> int:
    from repro.pipeline.shard import (
        ManifestError,
        ShardManifest,
        expand_manifest_paths,
        merge_manifests,
    )

    paths = expand_manifest_paths(args.manifests)
    if not paths:
        patterns = " ".join(args.manifests) or "(no arguments)"
        raise Refusal(f"merge error: no manifest files matched {patterns}; "
                      f"run `batch <artefact> --shard I/N --out F.json` first")
    with refusing("merge error: ", ManifestError, code=1):
        manifests = [ShardManifest.load(p) for p in paths]
        merged = merge_manifests(
            manifests,
            require_current_compiler=not args.allow_stale_compiler,
        )
    return emit(args, merged.text)
