"""Synthetic sparse tensor generators.

The paper's datasets (Table 4) come from the SuiteSparse collection and
the facebook interaction tensor; neither is reachable offline, so this
module generates structural stand-ins with identical dimensions and
densities (see DESIGN.md's substitution table). The kernels' cost
behaviour depends on dimensions, nnz, and the row-length distribution,
which each generator matches to its original's character:

* ``banded_symmetric`` — FEM stiffness structure (bcsstk30): a dense-ish
  band around the diagonal;
* ``circuit`` — circuit simulation structure (ckt11752_dc_1): diagonal
  plus a few power-law-distributed off-diagonals per row;
* ``trefethen`` — diagonal plus |i−j| ∈ {powers of two and primes} within
  a budget, Trefethen's construction;
* ``uniform_matrix`` / ``uniform_tensor3`` — i.i.d. random fill at a
  target density (the paper's ``random`` datasets);
* ``hub_tensor3`` — power-law mode skew (facebook-like interactions);
* ``rotate_columns`` / ``rotate_even_coords`` — the paper's derived
  datasets for Plus3/Plus2/InnerProd.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.storage import (_strictly_sorted, sort_dedupe,
                                  sorted_run_starts)


def _dedupe(coords: np.ndarray) -> np.ndarray:
    """Unique rows in lexicographic (row-major storage) order; rows that
    already arrive that way come back as they are."""
    order = tuple(range(coords.shape[1]))
    if _strictly_sorted(coords, order):
        return coords
    perm, starts = sort_dedupe(coords, order)
    return np.take(coords, perm[starts], axis=0)


def _dedupe_flat(flat: np.ndarray) -> np.ndarray:
    """Sorted unique values of a 1-D array of linearised coordinates."""
    return _dedupe(flat[:, None])[:, 0]


def uniform_matrix(
    n_rows: int, n_cols: int, density: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random sparse matrix as (coords, vals)."""
    nnz = int(round(n_rows * n_cols * density))
    nnz = max(1, min(nnz, n_rows * n_cols))
    if density > 0.05:
        mask = rng.random((n_rows, n_cols)) < density
        coords = np.argwhere(mask)
    else:
        flat = rng.choice(n_rows * n_cols, size=nnz, replace=False) if (
            n_rows * n_cols < 1 << 31
        ) else _dedupe_flat(
            rng.integers(0, n_rows * n_cols, size=int(nnz * 1.05)))
        coords = np.stack([flat // n_cols, flat % n_cols], axis=1)
    vals = rng.random(len(coords)) + 0.1
    return coords, vals


def banded_symmetric(
    n: int, density: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """FEM-stiffness-like structure: a dense band around the diagonal."""
    per_row = max(1, int(round(n * density)))
    half = max(1, per_row // 2)
    rows = np.repeat(np.arange(n), 2 * half + 1)
    offsets = np.tile(np.arange(-half, half + 1), n)
    cols = rows + offsets
    keep = (cols >= 0) & (cols < n)
    coords = _dedupe(np.stack([rows[keep], cols[keep]], axis=1))
    vals = rng.random(len(coords)) + 0.1
    return coords, vals


def circuit(
    n: int, density: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Circuit-matrix structure: diagonal + power-law off-diagonals."""
    target = int(round(n * n * density))
    diag = np.stack([np.arange(n), np.arange(n)], axis=1)
    extra = max(0, target - n)
    # Power-law row weights: a few hub rows, many near-empty rows.
    weights = rng.pareto(1.5, size=n) + 1.0
    weights /= weights.sum()
    rows = rng.choice(n, size=extra, p=weights)
    cols = rng.integers(0, n, size=extra)
    coords = _dedupe(np.concatenate([diag, np.stack([rows, cols], axis=1)]))
    vals = rng.random(len(coords)) + 0.1
    return coords, vals


def _primes_up_to(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


def trefethen(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Trefethen-style matrix: diagonal plus |i-j| in powers of two and a
    prime budget chosen to land near the published density (1.39e-3)."""
    offsets = [0]
    k = 1
    while k < n:
        offsets.append(k)
        k *= 2
    primes = _primes_up_to(min(n - 1, 64))
    offsets.extend(int(p) for p in primes)
    # Each row's columns in order: the row plus every signed offset,
    # ascending, clipped to the matrix; sorted and unique as built.
    signed = np.array(sorted({s * off for off in offsets for s in (1, -1)}))
    rows = np.repeat(np.arange(n), len(signed))
    cols = rows + np.tile(signed, n)
    keep = (cols >= 0) & (cols < n)
    coords = np.stack([rows[keep], cols[keep]], axis=1)
    vals = rng.random(len(coords)) + 0.1
    return coords, vals


def uniform_tensor3(
    dims: tuple[int, int, int], density: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random 3-tensor as (coords, vals)."""
    total = dims[0] * dims[1] * dims[2]
    nnz = max(1, int(round(total * density)))
    if density > 0.05:
        mask = rng.random(dims) < density
        coords = np.argwhere(mask)
    else:
        flat = _dedupe_flat(
            rng.integers(0, total, size=int(nnz * 1.05)))[:nnz]
        c0 = flat // (dims[1] * dims[2])
        rem = flat % (dims[1] * dims[2])
        coords = np.stack([c0, rem // dims[2], rem % dims[2]], axis=1)
    vals = rng.random(len(coords)) + 0.1
    return coords, vals


def hub_tensor3(
    dims: tuple[int, int, int], nnz: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Power-law-skewed 3-tensor (facebook-interaction-like structure)."""
    w0 = rng.pareto(1.2, size=dims[0]) + 1.0
    w1 = rng.pareto(1.2, size=dims[1]) + 1.0
    c0 = rng.choice(dims[0], size=nnz, p=w0 / w0.sum())
    c1 = rng.choice(dims[1], size=nnz, p=w1 / w1.sum())
    c2 = rng.integers(0, dims[2], size=nnz)
    coords = _dedupe(np.stack([c0, c1, c2], axis=1))
    vals = rng.random(len(coords)) + 0.1
    return coords, vals


def rotate_columns(
    coords: np.ndarray, vals: np.ndarray, n_cols: int, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a matrix's columns right by ``shift`` (Plus3 derived data)."""
    out = coords.copy()
    out[:, 1] = (out[:, 1] + shift) % n_cols
    # A rotation is a bijection on columns: every run has one row.
    perm, _ = sort_dedupe(out, (0, 1))
    return np.take(out, perm, axis=0), vals[perm]


def rotate_even_coords(
    coords: np.ndarray, vals: np.ndarray, last_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate even coordinates of the last mode by one (Plus2/InnerProd
    derived datasets)."""
    # Even c -> c + 1 is c | 1; only an odd last_dim's last coordinate
    # (even) wraps around to 0.
    last = coords[:, -1] | 1
    if last_dim % 2:
        last[last == last_dim] = 0
    # Rotation can collide coordinates; keep the first of each. Inside a
    # fiber of sorted input, c -> c | 1 keeps the order and a collision
    # sits next to its twin: only the wrap or unsorted input needs a sort.
    columns = [coords[:, m] for m in range(coords.shape[1] - 1)] + [last]
    keep = sorted_run_starts(columns)
    if keep is None:
        out = coords.copy()
        out[:, -1] = last
        perm, starts = sort_dedupe(out, range(out.shape[1]))
        keep = perm[starts]
    out = np.take(coords, keep, axis=0)
    out[:, -1] = last[keep]
    return out, vals[keep]
