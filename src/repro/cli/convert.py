"""``repro convert``: convert a matrix dataset between formats."""

from __future__ import annotations

from repro.cli import Refusal
from repro.cli.common import add_shared, refusing


def add_arguments(parser) -> None:
    add_shared(parser, "--dataset --scale --seed",
               dataset={"default": "Trefethen_20000",
                        "help": "matrix dataset name (default: "
                                "Trefethen_20000)"},
               scale={"default": 0.05})
    parser.add_argument("source", help="source format name (see `formats`)")
    parser.add_argument("target", help="target format name (see `formats`)")
    parser.add_argument("--plan", action="store_true",
                        help="print the synthesized plan without running it")
    parser.add_argument("--verify", action="store_true",
                        help="round-trip back to the source format and "
                             "check dense equality")


def run(args) -> int:
    import time

    import numpy as np

    from repro.convert import (
        ConversionError,
        plan_conversion,
        staged_matrix_storage,
    )
    from repro.data import DATASETS, DATASETS_BY_NAME
    from repro.formats import format_of
    from repro.tensor.storage import to_dense

    try:
        src_fmt = format_of(args.source)
        dst_fmt = format_of(args.target)
    except KeyError as exc:
        raise Refusal(exc.args[0]) from None
    if args.plan:
        # The plan is a function of the two formats alone; skip dataset
        # generation entirely.
        with refusing("conversion error: ", ConversionError, code=1):
            print(plan_conversion(src_fmt, dst_fmt).describe())
        return 0
    matrices = [d.name for d in DATASETS if d.kind == "matrix"]
    flat_order = src_fmt.order - sum(mf.is_block for mf in src_fmt.mode_formats)
    if args.dataset not in matrices or flat_order != 2:
        what = (f"{args.dataset!r} is not a matrix dataset"
                if args.dataset not in matrices else
                f"source format {args.source!r} is not a matrix format "
                f"(order {flat_order})")
        raise Refusal(f"convert error: {what}; the matrix datasets are "
                      f"{matrices}")
    dims = DATASETS_BY_NAME[args.dataset].scaled_dims(args.scale)
    with refusing("conversion error: ", ConversionError, code=1):
        source = staged_matrix_storage(args.dataset, args.scale, args.seed,
                                       args.source)
        plan = plan_conversion(source.fmt, dst_fmt,
                               dims if dst_fmt.order == len(dims) else None)
    print(plan.describe())
    start = time.perf_counter()
    converted = plan.run(source)
    seconds = time.perf_counter() - start
    print(f"{args.dataset} (scale {args.scale}): "
          f"{source.nnz} stored -> {converted.nnz} stored, "
          f"{source.bytes_total() / 1024:.1f} KiB -> "
          f"{converted.bytes_total() / 1024:.1f} KiB in {seconds * 1e3:.2f} ms")
    if args.verify:
        # Convert back to the source format and compare densified values.
        back = plan_conversion(converted.fmt, source.fmt, dims).run(converted)
        if np.allclose(to_dense(back), to_dense(source)):
            print("verify: dense round-trip matches")
        else:
            raise Refusal("verify: MISMATCH", 1)
    return 0
