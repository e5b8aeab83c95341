"""Sparse tensor substrate: level storage, bit vectors, and the Tensor API."""

from repro.tensor.bitvector import BitVector, gen_bitvector
from repro.tensor.ops import evaluate_dense, infer_dimensions
from repro.tensor.storage import (
    CompressedLevel,
    DenseLevel,
    TensorStorage,
    from_dense,
    pack,
    to_dense,
    unpack,
)
from repro.tensor.tensor import Tensor, scalar, vector

__all__ = [
    "BitVector",
    "CompressedLevel",
    "DenseLevel",
    "Tensor",
    "TensorStorage",
    "evaluate_dense",
    "from_dense",
    "gen_bitvector",
    "infer_dimensions",
    "pack",
    "scalar",
    "to_dense",
    "unpack",
    "vector",
]
