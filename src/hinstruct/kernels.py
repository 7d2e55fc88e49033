"""The sparse layer's backend name and its flop estimate.

``sparse.SparseMatrix`` runs every product on ``scipy.sparse`` itself. This
module stays because the benchmark reads its names: ``bench/workload.py``
records ``BACKEND`` with each run, and ``bench/tracer.py`` counts the flops
of every chain product by wrapping ``spgemm_flops``, which
``SparseMatrix.matmul`` calls through this module.
"""

from __future__ import annotations

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
