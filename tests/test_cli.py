"""Tests for the command-line interface (``python -m repro``)."""

import pytest

from repro.__main__ import main
from repro.kernels import FORMAT_KERNEL_ORDER, KERNEL_ORDER


def test_kernels_listing(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "SpMV" in out and "Plus2" in out
    assert "sum_j A(i,j) * x(j)" in out


def test_compile_default_dataset(capsys):
    assert main(["compile", "SpMV", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "Accel {" in out
    assert "Reduce(" in out


def test_compile_with_reports(capsys):
    assert main([
        "compile", "SDDMM", "--scale", "0.02", "--cpu", "--memory-report",
    ]) == 0
    out = capsys.readouterr().out
    assert "Memory analysis" in out
    assert "compute_sddmm" in out  # CPU C code present


def _compile_outputs(capsys, kernel, *flags):
    assert main(["compile", kernel, "--scale", "0.02", *flags]) == 0
    return capsys.readouterr()


@pytest.mark.parametrize("kernel", [*KERNEL_ORDER, *FORMAT_KERNEL_ORDER])
def test_compile_renders_identically_cold_warm_and_uncached(
        kernel, capsys, monkeypatch, fresh_cache):
    """``repro compile`` prints from the memoized ``compile`` stage; what
    it prints must not depend on whether that stage was hit."""
    from repro import api
    from repro.backends.cpu import lower_cpu
    from repro.ir.iteration import LoweringError
    from repro.pipeline import cache as cache_mod

    # The reference is rendered from the CompiledKernel, as the CLI did
    # before it had a hit path.
    built = api.build(api.CompileRequest(kernel=kernel, scale=0.02))
    source = built.source + "\n"
    report = built.memory_report() + "\n\n"
    loc = f"// generated Spatial LoC: {built.spatial_loc}\n"
    flag_sets = [(), ("--memory-report",)]
    try:
        cpu = "\n" + lower_cpu(built.stmt, kernel.lower()) + "\n"
        flag_sets.append(("--cpu",))
    except LoweringError:  # COO-SpMV: the C backend has no singleton merge
        cpu = None
    fresh_cache.clear_memory()

    def all_flag_sets():
        return {flags: _compile_outputs(capsys, kernel, *flags)
                for flags in flag_sets}

    cold = all_flag_sets()
    assert cold[()] == (source, loc)
    assert cold[("--memory-report",)] == (report + source, loc)
    if cpu is not None:
        assert cold[("--cpu",)] == (source + cpu, loc)

    # A new process's view of the warm store: empty memory, entries on disk.
    warm_cache = cache_mod.CompilationCache()
    monkeypatch.setattr(cache_mod, "_default_cache", warm_cache)
    assert all_flag_sets() == cold
    # Every render was a compile-stage hit; only --cpu unpickled the kernel.
    hits = {"compile": len(flag_sets)} | ({"build": 1} if cpu else {})
    assert warm_cache.stats.stage_hits == hits
    assert warm_cache.stats.stage_misses == {}

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert all_flag_sets() == cold


def test_simulate(capsys):
    assert main(["simulate", "SpMV", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Capstan (HBM2E)" in out
    assert "128-Thread CPU" in out
    assert "1.00x" in out


@pytest.mark.parametrize("argv, line", [
    (["compile", "NoSuch"],
     "compile error: unknown kernel 'NoSuch'; choose from ["),
    (["simulate", "Plus3", "--dataset", "bcsstk30"],
     "simulate error: unknown dataset 'bcsstk30' for Plus3; choose from ["),
    (["convert", "csr", "nosuch"],
     "unknown format name 'nosuch'; choose from ["),
])
def test_unknown_name_is_one_error_line_and_exit_2(argv, line, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(line) and captured.err.count("\n") == 1


def test_tables_artifact(capsys):
    assert main(["tables", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out


def test_formats_listing(capsys):
    assert main(["formats"]) == 0
    out = capsys.readouterr().out
    assert "csr" in out and "coo" in out and "bcsr" in out
    assert "singleton" in out and "block[4]" in out


def test_formats_json(capsys):
    import json

    assert main(["formats", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {entry["name"]: entry for entry in payload}
    assert by_name["coo"]["levels"][1]["kind"] == "singleton"
    assert by_name["bcsr"]["levels"][2]["size"] == 4
    assert by_name["csc"]["mode_ordering"] == [1, 0]
    assert all("full" in lvl for e in payload for lvl in e["levels"])


def test_convert_plan_only(capsys):
    assert main(["convert", "csr", "bcsr", "--dataset", "random-1pct",
                 "--scale", "0.05", "--plan"]) == 0
    out = capsys.readouterr().out
    assert "block" in out and "pack" in out


def test_convert_with_verify(capsys):
    assert main(["convert", "csr", "coo", "--dataset", "random-1pct",
                 "--scale", "0.05", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "verify: dense round-trip matches" in out


def test_convert_unknown_format_rejected(capsys):
    assert main(["convert", "csr", "nosuch"]) == 2


def test_kernels_listing_includes_format_kernels(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "COO-SpMV" in out and "BCSR-SpMV" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_merge_unmatched_glob_one_line_error(tmp_path, capsys):
    """An unexpanded/unmatched glob is a clear one-line error, never a
    traceback or a complaint about a file literally named ``*.json``."""
    pattern = str(tmp_path / "shards" / "shard*.json")
    assert main(["merge", pattern]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "no manifest files matched" in err
    assert pattern in err


def test_merge_no_arguments_one_line_error(capsys):
    assert main(["merge"]) == 2
    err = capsys.readouterr().err
    assert "no manifest files matched" in err


def test_merge_expands_quoted_glob(tmp_path, capsys, monkeypatch):
    """A quoted glob (no shell expansion) matches manifests itself."""
    from repro.pipeline.shard import ShardSpec, run_shard

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for i in (1, 2):
        run_shard("table3", 0.02, ShardSpec(i, 2)).save(
            tmp_path / f"shard{i}.json")
    assert main(["merge", str(tmp_path / "shard*.json")]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_merge_literal_missing_file_still_named(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["merge", missing]) == 1
    err = capsys.readouterr().err
    assert "cannot read manifest" in err and "nope.json" in err


def test_merge_literal_path_with_brackets(tmp_path, capsys, monkeypatch):
    """An existing path containing glob metacharacters is taken
    literally, not parsed as a character class that matches nothing."""
    from repro.pipeline.shard import ShardSpec, run_shard

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    bracketed = tmp_path / "results[2026]"
    bracketed.mkdir()
    paths = [str(run_shard("table3", 0.02, ShardSpec(i, 2)).save(
        bracketed / f"s{i}.json")) for i in (1, 2)]
    assert main(["merge", *paths]) == 0
    assert "Table 3" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["tables", "table3", "--scale", "0"],
    ["batch", "table3", "--scale", "nan"],
    ["dispatch", "table3", "--workers", "local:2", "--scale", "-1"],
    ["dispatch", "partition:SpMV:bcsstk30:p2:row", "--scale", "0"],
    ["spmm-dist", "SpMV", "--serial", "--scale", "0"],
    ["pipeline", "attention", "--scale", "0"],
    ["convert", "csr", "coo", "--scale", "-0.5"],
    ["compile", "SpMV", "--scale", "0"],
    ["simulate", "SpMV", "--scale", "nan"],
    ["tables", "table3", "--scale", "big"],
], ids=lambda argv: " ".join(argv))
def test_scale_is_validated_at_parse_time(argv, capsys, monkeypatch):
    """Every ``--scale`` refuses a non-positive or NaN value with
    argparse's error and exit 2, before anything runs: no traceback, no
    job at the generators' floor size, no worker started."""
    from repro.pipeline.dispatch import SlotTransport

    launched: list = []
    monkeypatch.setattr(SlotTransport, "submit",
                        lambda self, *task: launched.append(task))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: argument --scale: scale must be a positive number, "
            f"got {argv[-1]!r}") in captured.err.splitlines()[-1]
    assert launched == []


def _two_shards(tmp_path, monkeypatch) -> list[str]:
    from repro.pipeline.shard import ShardSpec, run_shard

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return [str(run_shard("table3", 0.02, ShardSpec(i, 2)).save(
        tmp_path / f"shard{i}.json")) for i in (1, 2)]


def test_out_creates_missing_parent_directories(tmp_path, capsys,
                                                monkeypatch):
    out = tmp_path / "missing" / "dir" / "t3.txt"
    assert main(["merge", *_two_shards(tmp_path, monkeypatch),
                 "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_out_is_written_even_when_stdout_closes_early(tmp_path, monkeypatch):
    """``merge ... --out F | head``: the reader closing stdout must not
    cost the file (``__main__`` turns the BrokenPipeError into exit 0)."""
    import sys

    class ClosedPipe:
        def write(self, _text):
            raise BrokenPipeError

        def flush(self):
            pass

    out = tmp_path / "t3.txt"
    shards = _two_shards(tmp_path, monkeypatch)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["merge", *shards, "--out", str(out)])
    assert "Table 3" in out.read_text()


def test_unwritable_out_still_shows_the_finished_artefact(tmp_path, capsys,
                                                          monkeypatch):
    """A failure to write ``--out`` is reported after the text has been
    printed, as one error line and exit 1, never a traceback that loses
    a completed sweep."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "t3.txt"  # its parent is a file
    assert main(["merge", *_two_shards(tmp_path, monkeypatch),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Table 3" in captured.out
    assert captured.err.startswith(f"merge error: cannot write --out {out}: ")
    assert captured.err.count("\n") == 1
