"""``repro kernels``: list the evaluation kernels and their datasets."""

from __future__ import annotations


def add_arguments(parser) -> None:
    pass


def run(args) -> int:
    from repro.data import datasets_for
    from repro.kernels import FORMAT_KERNEL_ORDER, KERNEL_ORDER, KERNELS

    print(f"{'kernel':14s}{'expression':50s}datasets")
    for name in (*KERNEL_ORDER, *FORMAT_KERNEL_ORDER):
        spec = KERNELS[name]
        ds = ", ".join(d.name for d in datasets_for(name))
        print(f"{name:14s}{spec.expression:50s}{ds}")
    return 0
