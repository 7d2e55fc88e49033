"""Minimal CSR sparse matrix used for adjacency and score matrices.

Values are nonnegative float64; indices int64, with column indices sorted
within each row. Matrices are immutable after construction and safe to share
between threads.

``SparseMatrix`` is the one owner of the CSR format: construction, selection,
transposition and matrix-vector products run on numpy, and the three
products (``matmul``, ``hadamard``, ``row_dots``) hand a CSR view of their
operands to ``scipy.sparse`` and convert its result back. The tests check the
products against a pure numpy reference of their own. ``scipy.sparse`` is
imported on the first product, not with this module: ingest (``from_pairs``,
``transpose``), the split and the ``translate`` and ``neighbors`` subcommands
run on numpy alone, and loading scipy would add about a tenth of a second to
each of them.

:mod:`hinstruct.kernels` keeps only what the benchmark reads: the backend
name and ``spgemm_flops``, the flop estimate ``matmul`` checks its budget
with and the benchmark's tracer wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


class MatrixBlowupError(RuntimeError):
    """Raised when a chain product, or a chunk of row dots, would exceed ``FLOP_BUDGET``."""


# scalar multiplies one product may take, and entries one chunk of
# ``row_dots`` may gather; read on every call
FLOP_BUDGET = 50_000_000
# stored entries ``row_dots`` gathers per chunk, so its working memory stays
# bounded however many rows it is asked for. The seed-0 demo search's largest
# call gathers 183,802 entries and peaks at 5.86 MiB under tracemalloc, about
# 33 bytes per entry, so a full chunk holds about 35 MB.
DOT_CHUNK = 1 << 20


@dataclass(frozen=True)
class SparseMatrix:
    rows: int
    cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, rows, cols, pairs):
        """The 0/1 matrix with a 1 at each (row, col) pair of the ``(n, 2)``
        int64 array ``pairs``; a pair given more than once counts once."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs[:, 0].min() < 0 or pairs[:, 0].max() >= rows):
            raise ValueError(f"row index out of range for {rows}x{cols} matrix")
        if pairs.size and (pairs[:, 1].min() < 0 or pairs[:, 1].max() >= cols):
            raise ValueError(f"column index out of range for {rows}x{cols} matrix")
        # a sort and an adjacent-difference mask; np.unique, which hashes, is
        # over fifty times slower on edge lists
        keys = np.sort(pairs[:, 0] * cols + pairs[:, 1])
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        indptr = np.searchsorted(keys, np.arange(rows + 1, dtype=np.int64) * cols)
        return cls(rows, cols, indptr, keys % cols, np.ones(keys.size))

    # -- views ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry, in stored order."""
        return np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))

    def pick(self, pairs):
        """Values at the given (row, col) pairs; absent cells read 0."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        # an out-of-range column would alias a cell of the next row
        if pairs.size and (pairs.min() < 0 or pairs[:, 0].max() >= self.rows or pairs[:, 1].max() >= self.cols):
            raise ValueError(f"pair index out of range for {self.rows}x{self.cols} matrix")
        out = np.zeros(pairs.shape[0], dtype=np.float64)
        if self.nnz == 0:
            return out
        keys = self.row_ids() * self.cols + self.indices
        wanted = pairs[:, 0] * self.cols + pairs[:, 1]
        pos = np.minimum(np.searchsorted(keys, wanted), self.nnz - 1)
        hit = keys[pos] == wanted
        out[hit] = self.data[pos[hit]]
        return out

    def select(self, rows, keep=None) -> "SparseMatrix":
        """The given rows, in the given order, with only the entries whose
        column is marked in the boolean array ``keep`` (all entries without
        it); columns keep their ids and their sorted order within each row."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.rows):
            raise ValueError(f"row index out of range for {self.rows}x{self.cols} matrix")
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        # stored position of every entry of the chosen rows, row after row
        pos = np.arange(indptr[-1], dtype=np.int64) + np.repeat(starts - indptr[:-1], lengths)
        if keep is not None:
            keep = np.asarray(keep, dtype=bool)
            if keep.shape != (self.cols,):
                raise ValueError(f"column mask of shape {keep.shape} for {self.rows}x{self.cols} matrix")
            kept = keep[self.indices[pos]]
            indptr = np.concatenate(([0], np.cumsum(kept, dtype=np.int64)))[indptr]
            pos = pos[kept]
        return SparseMatrix(rows.size, self.cols, indptr, self.indices[pos], self.data[pos])

    # -- algebra ---------------------------------------------------------

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        flops = kernels.spgemm_flops(self.indptr, self.indices, other.indptr)
        if flops > FLOP_BUDGET:
            raise MatrixBlowupError(
                f"matrix blowup: product needs {flops} multiplies, budget {FLOP_BUDGET}"
            )
        return SparseMatrix._from_scipy(self._scipy() @ other._scipy())

    def hadamard(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch for elementwise product")
        return SparseMatrix._from_scipy(self._scipy().multiply(other._scipy()))

    def matvec(self, vector) -> np.ndarray:
        """This matrix times the dense ``vector``; each row sums its products
        in column order."""
        return np.bincount(self.row_ids(), weights=self.data * vector[self.indices], minlength=self.rows)

    def row_dots(self, other: "SparseMatrix", rows, other_rows) -> np.ndarray:
        """Dot product of row ``rows[k]`` of this matrix with row
        ``other_rows[k]`` of ``other``, for every k.

        The rows are taken in chunks that gather about ``DOT_CHUNK`` stored
        entries each; a chunk over ``FLOP_BUDGET`` raises before it is gathered.
        """
        if self.cols != other.cols:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.cols}")
        rows = np.asarray(rows, dtype=np.int64)
        other_rows = np.asarray(other_rows, dtype=np.int64)
        out = np.zeros(rows.size, dtype=np.float64)
        if rows.size == 0:
            return out
        gathered = np.cumsum(np.diff(self.indptr)[rows] + np.diff(other.indptr)[other_rows])
        starts = np.concatenate(([0], np.flatnonzero(np.diff(gathered // DOT_CHUNK)) + 1))
        for lo, hi in zip(starts.tolist(), np.append(starts[1:], rows.size).tolist()):
            entries = int(gathered[hi - 1] - (gathered[lo - 1] if lo else 0))
            if entries > FLOP_BUDGET:
                raise MatrixBlowupError(
                    f"matrix blowup: row dots gather {entries} entries, budget {FLOP_BUDGET}"
                )
            if entries:
                products = self._scipy()[rows[lo:hi]].multiply(other._scipy()[other_rows[lo:hi]])
                out[lo:hi] = np.asarray(products.sum(axis=1), dtype=np.float64).reshape(-1)
        return out

    def row_normalize(self) -> "SparseMatrix":
        """Scale each row to sum to 1; all-zero rows stay zero."""
        if self.nnz == 0:
            return self
        return self.divide_rows(self.matvec(np.ones(self.cols)))

    def divide_rows(self, sums) -> "SparseMatrix":
        """Each row divided by its entry of ``sums`` through ``row_divisors``."""
        data = self.data / row_divisors(sums)[self.row_ids()]
        return SparseMatrix(self.rows, self.cols, self.indptr, self.indices, data)

    def transpose(self) -> "SparseMatrix":
        row_ids = self.row_ids()
        order = np.lexsort((row_ids, self.indices))
        new_rows = self.indices[order]
        indptr = np.zeros(self.cols + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(new_rows, minlength=self.cols))
        return SparseMatrix(self.cols, self.rows, indptr, row_ids[order], self.data[order])

    # -- scipy.sparse ------------------------------------------------------

    def _scipy(self):
        """This matrix as a ``scipy.sparse.csr_array``."""
        from scipy import sparse

        return sparse.csr_array((self.data, self.indices, self.indptr), shape=(self.rows, self.cols))

    @staticmethod
    def _from_scipy(matrix) -> "SparseMatrix":
        # scipy keeps int32 indices when they fit and may leave columns unsorted
        matrix.sort_indices()
        return SparseMatrix(
            *matrix.shape,
            matrix.indptr.astype(np.int64),
            matrix.indices.astype(np.int64),
            matrix.data.astype(np.float64, copy=False),
        )


def row_divisors(sums) -> np.ndarray:
    """What ``row_normalize`` divides each row by: its sum, or 1 where the sum
    is 0, so an all-zero row stays zero."""
    return np.where(sums == 0.0, 1.0, sums)
