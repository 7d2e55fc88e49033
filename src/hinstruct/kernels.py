"""The sparse layer's backend name and its flop estimate.

``sparse.SparseMatrix`` runs every product on ``scipy.sparse`` itself. This
module stays because the benchmark reads its names: ``bench/workload.py``
records ``BACKEND`` with each run, and ``bench/tracer.py`` counts the flops
of every chain product by wrapping ``spgemm_flops``, which
``SparseMatrix.matmul`` calls through this module.
"""

from __future__ import annotations

import numpy as np

BACKEND = "scipy"


def spgemm_flops(a_indptr, a_indices, b_indptr):
    """Number of scalar products a CSR*CSR multiply would perform.

    Cheap to compute up front; used to refuse runaway chain products before
    any memory is allocated. Each row length fits the operands' index width,
    but their sum may not, so it is taken in int64. The gather goes through an
    intp copy of ``a_indices``: numpy gathers through an int32 index about
    twice as slowly, and the copy is freed before the product starts.
    """
    if a_indices.shape[0] == 0:
        return 0
    return int(np.diff(b_indptr)[a_indices.astype(np.intp)].sum(dtype=np.int64))
