"""CSR matrix kernels backed by scipy.sparse.

The hot loops of structure evaluation are sparse matrix products (chains of
per-relation adjacency matrices), dot products of the rows of two such
products, and elementwise products of the per-path reads.  ``spgemm``,
``row_dots`` and ``hadamard`` hand them to ``scipy.sparse``; the tests check
them against a pure numpy reference of their own.
``BACKEND`` names the production path.

``scipy.sparse`` is imported on the first product, not with this module:
ingest (``SparseMatrix.from_pairs``, ``transpose``), the split and the
``translate`` and ``neighbors`` subcommands run on numpy alone, and loading
scipy would add about a tenth of a second to each of them.

All kernels take raw CSR components (indptr/indices/data with int64 indices
and float64 values, column indices sorted within each row) and return the
same. ``sparse.SparseMatrix`` is the friendly wrapper.
"""

from __future__ import annotations

import numpy as np

BACKEND = "scipy"


def spgemm_flops(a_indptr, a_indices, b_indptr):
    """Number of scalar products a CSR*CSR multiply would perform.

    Cheap to compute up front; used to refuse runaway chain products before
    any memory is allocated.
    """
    if a_indices.shape[0] == 0:
        return 0
    counts = b_indptr[a_indices + 1] - b_indptr[a_indices]
    return int(counts.sum())


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


def row_dots(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_cols, a_rows, b_rows):
    """Dot product of row ``a_rows[k]`` of A with row ``b_rows[k]`` of B for
    every k, via ``scipy.sparse``; A and B have ``n_cols`` columns."""
    a = _to_scipy(a_indptr, a_indices, a_data, a_indptr.shape[0] - 1, n_cols)[a_rows]
    b = _to_scipy(b_indptr, b_indices, b_data, b_indptr.shape[0] - 1, n_cols)[b_rows]
    return np.asarray(a.multiply(b).sum(axis=1), dtype=np.float64).reshape(-1)


def hadamard(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_rows, n_cols):
    """Elementwise product of two same-shape CSR matrices via ``scipy.sparse``."""
    a = _to_scipy(a_indptr, a_indices, a_data, n_rows, n_cols)
    b = _to_scipy(b_indptr, b_indices, b_data, n_rows, n_cols)
    return _from_scipy(a.multiply(b))
