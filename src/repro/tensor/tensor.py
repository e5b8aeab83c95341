"""The user-facing :class:`Tensor`: format-aware sparse/dense tensor.

Mirrors the Stardust C++ API of Figure 5::

    Tensor<int> A({N, N}, csr_off);   ->  Tensor("A", (N, N), CSR(offChip))
    Tensor<int> ws(on);               ->  Tensor("ws", (), memory=onChip)

Tensors participate in index notation via indexing: ``A[i, j]`` builds an
:class:`~repro.ir.index_notation.Access` and ``A[i, j] = B[i, j] * c[j]``
records an :class:`~repro.ir.index_notation.Assignment` on ``A``, retrieved
with :meth:`Tensor.get_assignment` (the paper's ``getAssignment()``).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np

from repro.formats.format import DENSE_VECTOR, Format
from repro.formats.levels import dense as dense_level
from repro.formats.memory import MemoryRegion
from repro.ir.index_notation import (
    Access,
    Add,
    Assignment,
    IndexVar,
    Sub,
    to_expr,
)
from repro.tensor import storage as storage_mod
from repro.tensor.storage import TensorStorage, pack

_name_counter = itertools.count()


def _default_format(order: int, memory: MemoryRegion) -> Format:
    return Format([dense_level] * order, None, memory)


class Tensor:
    """A named tensor with a shape, a format, and (optionally) data.

    Args:
        name: identifier used in generated code. Auto-generated if omitted.
        shape: dimension sizes; ``()`` declares a scalar.
        fmt: storage format. Defaults to all-dense in the given region.
        memory: shorthand to override only the memory region of ``fmt``
            (used for workspace tensors: ``Tensor("ws", (), memory=onChip)``).
    """

    def __init__(
        self,
        name: str | None = None,
        shape: Sequence[int] = (),
        fmt: Format | None = None,
        memory: MemoryRegion | None = None,
    ) -> None:
        self.name = name if name is not None else f"T{next(_name_counter)}"
        self.shape = tuple(int(d) for d in shape)
        if fmt is None:
            fmt = _default_format(len(self.shape), memory or MemoryRegion.OFF_CHIP)
        elif memory is not None:
            fmt = fmt.with_memory(memory)
        if fmt.order != len(self.shape):
            raise ValueError(
                f"format order {fmt.order} does not match shape {self.shape}"
            )
        self.format = fmt
        self._storage: TensorStorage | None = None
        self._pending: list[tuple[tuple[int, ...], float]] = []
        self._draw: Callable[[], np.ndarray] | None = None
        self._assignment: Assignment | None = None

    # -- basic properties ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def is_scalar(self) -> bool:
        return self.order == 0

    @property
    def is_on_chip(self) -> bool:
        return self.format.is_on_chip

    @property
    def storage(self) -> TensorStorage:
        """Packed storage: a pending draw is drawn and inserted entries
        are packed on demand."""
        draw = self._draw
        if draw is not None:
            array = np.asarray(draw(), dtype=np.float64)
            self._check_shape(array)
            # Install before dropping the draw: a concurrent reader sees
            # one or the other, never an empty tensor. Two racing readers
            # both draw, and get the same bytes.
            self._storage = storage_mod.wrap_dense(array, self.format)
            self._draw = None
        if self._storage is None or self._pending:
            self._pack_pending()
        assert self._storage is not None
        return self._storage

    @property
    def nnz(self) -> int:
        return self.storage.nnz

    # -- data ingestion -----------------------------------------------------

    def insert(self, coords: Sequence[int], value: float) -> None:
        """Queue one entry for packing (TACO's ``insert``)."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.order:
            raise ValueError(f"expected {self.order} coordinates, got {coords}")
        self._pending.append((coords, float(value)))

    def install(self, storage: TensorStorage) -> "Tensor":
        """Hold ``storage`` as this tensor's data, as it is (no copy),
        dropping queued inserts and a pending draw."""
        self._storage = storage
        self._draw = None
        self._pending.clear()
        return self

    def from_coo(self, coords: np.ndarray, vals: np.ndarray) -> "Tensor":
        """Pack COO arrays directly (bulk ingestion)."""
        return self.install(
            pack(np.asarray(coords), np.asarray(vals), self.shape, self.format))

    def from_dense(self, array: np.ndarray) -> "Tensor":
        """Pack a copy of ``array``; the tensor never aliases it."""
        array = np.asarray(array, dtype=np.float64)
        self._check_shape(array)
        return self.install(storage_mod.from_dense(array, self.format))

    def from_draw(self, draw: Callable[[], np.ndarray]) -> "Tensor":
        """Defer this tensor's values to ``draw()``, called on the first
        read of :attr:`storage`.

        ``draw`` takes no arguments and returns a fresh array of
        :attr:`shape`; the tensor owns it, so an all-dense format holds
        it without a copy (:func:`~repro.tensor.storage.wrap_dense`). A
        tensor with a pending draw pickles the draw, not the array.
        """
        self._storage = None
        self._pending.clear()
        self._draw = draw
        return self

    def _check_shape(self, array: np.ndarray) -> None:
        if array.shape != self.shape:
            raise ValueError(f"array shape {array.shape} != tensor shape {self.shape}")

    def _pack_pending(self) -> None:
        if self._pending:
            coords = np.array([c for c, _ in self._pending], dtype=np.int64)
            vals = np.array([v for _, v in self._pending], dtype=np.float64)
        else:
            coords = np.zeros((0, self.order), dtype=np.int64)
            vals = np.zeros(0, dtype=np.float64)
        base = self._storage
        if base is not None and base.nnz:
            old_coords, old_vals = storage_mod.unpack(base)
            coords = np.concatenate([old_coords, coords.reshape(-1, self.order)])
            vals = np.concatenate([old_vals, vals])
        self._storage = pack(coords, vals, self.shape, self.format)
        self._pending.clear()

    def from_scipy(self, matrix) -> "Tensor":
        """Pack a ``scipy.sparse`` matrix (2-D tensors only)."""
        if self.order != 2:
            raise TypeError("from_scipy applies to matrices")
        coo = matrix.tocoo()
        if coo.shape != self.shape:
            raise ValueError(f"matrix shape {coo.shape} != {self.shape}")
        coords = np.stack([coo.row, coo.col], axis=1)
        return self.from_coo(coords, coo.data)

    def to_scipy(self):
        """The tensor as a ``scipy.sparse.csr_matrix`` (2-D only)."""
        if self.order != 2:
            raise TypeError("to_scipy applies to matrices")
        import scipy.sparse as sp

        coords, vals = storage_mod.unpack(self.storage)
        return sp.coo_matrix(
            (vals, (coords[:, 0], coords[:, 1])), shape=self.shape
        ).tocsr()

    def to_dense(self) -> np.ndarray:
        return storage_mod.to_dense(self.storage)

    def scalar_value(self) -> float:
        if not self.is_scalar:
            raise TypeError(f"{self.name} is not a scalar")
        return float(self.storage.vals[0])

    # -- index notation -----------------------------------------------------

    def _as_indices(self, key) -> tuple[IndexVar, ...]:
        if key is None or (isinstance(key, tuple) and len(key) == 0):
            key = ()
        elif not isinstance(key, tuple):
            key = (key,)
        if not all(isinstance(v, IndexVar) for v in key):
            raise TypeError(
                f"tensor {self.name} must be indexed with IndexVars, got {key!r}"
            )
        return key

    def __getitem__(self, key) -> Access:
        return Access(self, self._as_indices(key))

    def __call__(self, *ivars: IndexVar) -> Access:
        """Paper-style access syntax: ``A(i, j)``."""
        return Access(self, ivars)

    def __setitem__(self, key, expr) -> None:
        lhs = Access(self, self._as_indices(key))
        rhs = to_expr(expr)
        # Recognise `A[i,j] += e`, which Python desugars to
        # `A[i,j] = A[i,j] + e`: peel a top-level self-access addend.
        accumulate = False
        if isinstance(rhs, (Add, Sub)) and rhs.a.equals(lhs):
            if isinstance(rhs, Add):
                rhs = rhs.b
                accumulate = True
        self._assignment = Assignment(lhs, rhs, accumulate)

    def get_assignment(self) -> Assignment:
        """The assignment last recorded on this tensor (Figure 5, line 16)."""
        if self._assignment is None:
            raise ValueError(f"no assignment has been defined for {self.name}")
        return self._assignment

    def get_index_stmt(self):
        """The assignment as a schedulable :class:`IndexStmt` (CIN)."""
        from repro.schedule.stmt import IndexStmt  # local: avoids import cycle

        return IndexStmt.from_assignment(self.get_assignment())

    # -- misc ---------------------------------------------------------------

    def copy_structure(self, name: str | None = None) -> "Tensor":
        """A new empty tensor with the same shape and format, named
        ``name`` (default: this tensor's name)."""
        return Tensor(self.name if name is None else name, self.shape,
                      self.format)

    def __repr__(self) -> str:
        return (
            f"Tensor({self.name!r}, shape={self.shape}, format={self.format})"
        )


def scalar(name: str, memory: MemoryRegion = MemoryRegion.OFF_CHIP) -> Tensor:
    """A scalar tensor (order 0)."""
    return Tensor(name, (), None, memory)


def vector(
    name: str, n: int, fmt: Format | None = None, memory: MemoryRegion | None = None
) -> Tensor:
    """A vector tensor; dense by default."""
    return Tensor(name, (n,), fmt or DENSE_VECTOR(memory or MemoryRegion.OFF_CHIP))
