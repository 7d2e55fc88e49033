"""CSR matrix kernels: scipy.sparse in production, pure numpy as the oracle.

The hot loops of structure evaluation are sparse matrix products (chains of
per-relation adjacency matrices) and elementwise products of the per-path
score matrices.  ``spgemm`` and ``hadamard`` hand both to ``scipy.sparse``;
``spgemm_numpy`` and ``hadamard_numpy`` are a vectorized expand/sort/reduce
reference that the tests check the production kernels against.  ``BACKEND``
names the production path.

``scipy.sparse`` is imported on the first product, not with this module:
ingest (``SparseMatrix.from_triplets``, ``transpose``), the split and the
``translate`` and ``neighbors`` subcommands run on numpy alone, and loading
scipy would add about a tenth of a second to each of them.

All kernels take raw CSR components (indptr/indices/data with int64 indices
and float64 values, column indices sorted within each row) and return the
same. ``sparse.SparseMatrix`` is the friendly wrapper.
"""

from __future__ import annotations

import numpy as np

BACKEND = "scipy"


def _empty_csr(n_rows: int):
    return (
        np.zeros(n_rows + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def spgemm_flops(a_indptr, a_indices, b_indptr):
    """Number of scalar products a CSR*CSR multiply would perform.

    Cheap to compute up front; used to refuse runaway chain products before
    any memory is allocated.
    """
    if a_indices.shape[0] == 0:
        return 0
    counts = b_indptr[a_indices + 1] - b_indptr[a_indices]
    return int(counts.sum())


# ---------------------------------------------------------------------------
# pure numpy implementations
# ---------------------------------------------------------------------------


def spgemm_numpy(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_rows, n_cols):
    """CSR product via fully vectorized expand -> lexsort -> segment-reduce."""
    if a_indices.shape[0] == 0 or b_indices.shape[0] == 0:
        return _empty_csr(n_rows)
    counts = b_indptr[a_indices + 1] - b_indptr[a_indices]
    total = int(counts.sum())
    if total == 0:
        return _empty_csr(n_rows)

    a_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(a_indptr))
    out_i = np.repeat(a_rows, counts)
    lefts = np.repeat(a_data, counts)
    seg_ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_ends - counts, counts)
    pos = np.repeat(b_indptr[a_indices], counts) + within
    out_j = b_indices[pos]
    prods = lefts * b_data[pos]

    order = np.lexsort((out_j, out_i))
    out_i = out_i[order]
    out_j = out_j[order]
    prods = prods[order]

    head = np.empty(total, dtype=bool)
    head[0] = True
    head[1:] = (out_i[1:] != out_i[:-1]) | (out_j[1:] != out_j[:-1])
    starts = np.flatnonzero(head)

    data = np.add.reduceat(prods, starts)
    indices = out_j[starts]
    rows = out_i[starts]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
    return indptr, indices, data


def hadamard_numpy(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_rows, n_cols):
    """Elementwise product of two same-shape CSR matrices."""
    if a_indices.shape[0] == 0 or b_indices.shape[0] == 0:
        return _empty_csr(n_rows)
    a_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(a_indptr))
    b_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(b_indptr))
    a_keys = a_rows * n_cols + a_indices
    b_keys = b_rows * n_cols + b_indices
    common, ia, ib = np.intersect1d(a_keys, b_keys, assume_unique=True, return_indices=True)
    if common.shape[0] == 0:
        return _empty_csr(n_rows)
    data = a_data[ia] * b_data[ib]
    rows = common // n_cols
    indices = common % n_cols
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
    return indptr, indices, data


# ---------------------------------------------------------------------------
# scipy implementations
# ---------------------------------------------------------------------------


def _to_scipy(indptr, indices, data, n_rows, n_cols):
    from scipy import sparse

    return sparse.csr_array((data, indices, indptr), shape=(n_rows, n_cols))


def _from_scipy(matrix):
    # scipy keeps int32 indices when they fit and may leave columns unsorted
    matrix.sort_indices()
    return (
        matrix.indptr.astype(np.int64),
        matrix.indices.astype(np.int64),
        matrix.data.astype(np.float64, copy=False),
    )


def spgemm(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_rows, n_cols):
    """CSR product via ``scipy.sparse``."""
    a = _to_scipy(a_indptr, a_indices, a_data, n_rows, b_indptr.shape[0] - 1)
    b = _to_scipy(b_indptr, b_indices, b_data, b_indptr.shape[0] - 1, n_cols)
    return _from_scipy(a @ b)


def hadamard(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_rows, n_cols):
    """Elementwise product of two same-shape CSR matrices via ``scipy.sparse``."""
    a = _to_scipy(a_indptr, a_indices, a_data, n_rows, n_cols)
    b = _to_scipy(b_indptr, b_indices, b_data, n_rows, n_cols)
    return _from_scipy(a.multiply(b))
