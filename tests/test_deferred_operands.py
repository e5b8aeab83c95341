"""Dense operands held as generator state and drawn on first read.

``data.load`` hands each dense operand a :class:`~repro.data.datasets.DenseDraw`
instead of an array, and :attr:`Tensor.storage` draws it when something
first reads the values. A Table 6 evaluation never does: the Capstan
model reads shapes, ``pos`` and ``crd`` only. The bytes drawn are the
eager ones (``tests/golden/datasets.json`` hashes every drawn operand).
"""

import pickle
import threading

import numpy as np
import pytest

from repro import api
from repro.data import datasets, datasets_for, load
from repro.formats import DENSE_MATRIX, offChip
from repro.kernels import KERNEL_ORDER, KERNELS
from repro.pipeline.cache import fingerprint_tensor
from repro.tensor import Tensor


def _sddmm_factor(cache) -> Tensor:
    """SDDMM's rank-256 row-major factor, still pending.

    ``load`` shares its tensors while their generation lives, so the
    ``fresh_cache`` memory layer is cleared first: each call reads the
    generation back from disk and gets tensors of its own.
    """
    cache.clear_memory()
    tensor = load("SDDMM", "bcsstk30", scale=0.05)["C"]
    assert tensor._draw is not None
    return tensor


def test_table6_evaluation_draws_no_dense_operand(fresh_cache, monkeypatch):
    loaded, original = [], datasets.load

    def recording_load(*args, **kwargs):
        tensors = original(*args, **kwargs)
        loaded.append((args[0], tensors))
        return tensors

    monkeypatch.setattr(datasets, "load", recording_load)
    for kernel in KERNEL_ORDER:
        for dspec in datasets_for(kernel):
            api.evaluate(api.CompileRequest(kernel=kernel, dataset=dspec.name,
                                            scale=0.05))
    assert len(loaded) == sum(len(datasets_for(k)) for k in KERNEL_ORDER)
    dense = [(kernel, name, tensors[name]) for kernel, tensors in loaded
             for name in (ts.name for ts in KERNELS[kernel].of_role("dense"))]
    assert len(dense) > 20
    drawn = [f"{kernel}.{name}" for kernel, name, t in dense
             if t._draw is None]
    assert drawn == []


def test_pickled_pending_tensor_is_small_and_draws_the_same_bytes(fresh_cache):
    tensor = _sddmm_factor(fresh_cache)
    blob = pickle.dumps(tensor)
    assert len(blob) < 2048
    again = pickle.loads(blob)
    assert again._draw is not None
    assert again.storage.vals.tobytes() == tensor.storage.vals.tobytes()
    assert len(pickle.dumps(tensor)) > 100 * len(blob)  # drawn: the array


def test_fingerprint_is_the_same_before_and_after_the_draw(fresh_cache):
    tensor = _sddmm_factor(fresh_cache)
    before = fingerprint_tensor(tensor)
    assert tensor._draw is None  # hashing drew it
    fresh = _sddmm_factor(fresh_cache)
    fresh.storage
    assert fingerprint_tensor(fresh) == before
    assert fingerprint_tensor(tensor) == before


def test_concurrent_first_reads_see_one_storage_never_an_empty_one(fresh_cache):
    for _ in range(50):
        tensor = _sddmm_factor(fresh_cache)
        barrier = threading.Barrier(2)
        got = [None, None]

        def read(slot):
            barrier.wait()
            got[slot] = tensor.storage.vals.tobytes()

        threads = [threading.Thread(target=read, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got[0] == got[1]
        assert len(got[0]) == 8 * np.prod(tensor.shape)


def test_a_drawn_array_is_held_without_a_copy(rng):
    array = rng.random((3, 4))
    drawn = Tensor("D", (3, 4), DENSE_MATRIX(offChip)).from_draw(lambda: array)
    assert np.shares_memory(drawn.storage.vals, array)
    packed = Tensor("P", (3, 4), DENSE_MATRIX(offChip)).from_dense(array)
    assert not np.shares_memory(packed.storage.vals, array)
    assert np.array_equal(drawn.to_dense(), packed.to_dense())


def test_installing_storage_drops_a_pending_draw(fresh_cache):
    tensor = _sddmm_factor(fresh_cache)
    zeros = np.zeros(tensor.shape)
    tensor.from_dense(zeros)
    assert tensor._draw is None
    assert not tensor.storage.vals.any()


def test_a_draw_of_the_wrong_shape_is_refused():
    tensor = Tensor("D", (3, 4), DENSE_MATRIX(offChip))
    tensor.from_draw(lambda: np.zeros((4, 3)))
    with pytest.raises(ValueError, match="shape"):
        tensor.storage
