"""Minimal CSR sparse matrix used for adjacency and score matrices.

Values are nonnegative float64, with column indices sorted within each row.
``indptr`` and ``indices`` share one width, fixed by the constructor: int32
while the rows, the columns and the stored entries all number below 2**31,
int64 otherwise. That is the width ``scipy.sparse`` picks itself, so a product
hands scipy its operands' arrays without a copy and keeps the arrays scipy
returns. Counts that can pass 2**31 (flop estimates, row-dot totals, ``pick``
keys, ``row_ids``) are computed in int64. Matrices are immutable after
construction and safe to share between threads.

``SparseMatrix`` is the one owner of the CSR format: construction, selection,
transposition and matrix-vector products run on numpy, and the three
products (``matmul``, ``hadamard``, ``row_dots``) hand a CSR view of their
operands to ``scipy.sparse`` and convert its result back. The tests check the
products against a pure numpy reference of their own. ``scipy.sparse`` is
imported on the first product, not with this module: ingest (``from_pairs``,
``transpose``), the split and the ``translate`` and ``neighbors`` subcommands
run on numpy alone. Importing ``scipy.sparse`` after this package costs about
a tenth of a second and 16 MB of RSS (0.11-0.14 s on a 2-core Xeon), which
each of them would pay.

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
# bounded however many rows it is asked for. Under tracemalloc a chunk costs
# about 33 bytes per gathered entry, so a full one holds about 2 MB: a call
# gathering 4.2 M entries peaks at 2.3 MiB, and no call of the seed-0 demo
# search peaks above 1.72 MiB (5.86 MiB in chunks of 2**20).
DOT_CHUNK = 1 << 16


@dataclass(frozen=True)
class SparseMatrix:
    rows: int
    cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        # the one index-width rule; an array already that wide is kept as is
        width = np.int32 if max(self.rows, self.cols, self.indices.shape[0]) < 2**31 else np.int64
        object.__setattr__(self, "indptr", self.indptr.astype(width, copy=False))
        object.__setattr__(self, "indices", self.indices.astype(width, copy=False))

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
        """The row of every stored entry, in stored order, as int64, so keys
        built from it do not wrap."""
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
        indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
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

        The rows are taken in chunks; a chunk gathers at most ``DOT_CHUNK``
        stored entries plus those of its largest pair. A chunk over
        ``FLOP_BUDGET`` raises before any chunk is gathered.
        """
        if self.cols != other.cols:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.cols}")
        rows = np.asarray(rows, dtype=np.int64)
        other_rows = np.asarray(other_rows, dtype=np.int64)
        out = np.zeros(rows.size, dtype=np.float64)
        if rows.size == 0:
            return out
        # entries gathered up to each pair, in int64: two int32 row lengths
        # can sum past 2**31
        gathered = np.cumsum(np.diff(self.indptr)[rows].astype(np.int64) + np.diff(other.indptr)[other_rows])
        ends = np.append(np.flatnonzero(np.diff(gathered // DOT_CHUNK)) + 1, rows.size)
        totals = np.diff(gathered[ends - 1], prepend=0)
        over = np.flatnonzero(totals > FLOP_BUDGET)
        if over.size:
            raise MatrixBlowupError(
                f"matrix blowup: row dots gather {totals[over[0]]} entries, budget {FLOP_BUDGET}"
            )
        left, right = self._scipy(), other._scipy()
        for lo, hi, entries in zip(np.append(0, ends[:-1]).tolist(), ends.tolist(), totals.tolist()):
            if entries:
                products = left[rows[lo:hi]].multiply(right[other_rows[lo:hi]])
                out[lo:hi] = np.asarray(products.sum(axis=1), dtype=np.float64).reshape(-1)
        return out

    def row_normalize(self) -> "SparseMatrix":
        """Scale each row to sum to 1; all-zero rows stay zero."""
        if self.nnz == 0:
            return self
        return self.divide_rows(self.matvec(np.ones(self.cols)))

    def divide_rows(self, sums) -> "SparseMatrix":
        """Each row divided by its entry of ``sums`` through ``row_divisors``."""
        data = self.data / np.repeat(row_divisors(sums), np.diff(self.indptr))
        return SparseMatrix(self.rows, self.cols, self.indptr, self.indices, data)

    def transpose(self) -> "SparseMatrix":
        # entries are stored row after row, so a stable sort by column keeps
        # each column's rows ascending; the row of each entry fits the index width
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(self.rows, dtype=self.indices.dtype), np.diff(self.indptr))[order]
        indptr = np.zeros(self.cols + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(self.indices, minlength=self.cols))
        return SparseMatrix(self.cols, self.rows, indptr, rows, self.data[order])

    # -- scipy.sparse ------------------------------------------------------

    def _scipy(self):
        """This matrix as a ``scipy.sparse.csr_array``."""
        from scipy import sparse

        return sparse.csr_array((self.data, self.indices, self.indptr), shape=(self.rows, self.cols))

    @staticmethod
    def _from_scipy(matrix) -> "SparseMatrix":
        # scipy may leave columns unsorted
        matrix.sort_indices()
        return SparseMatrix(
            *matrix.shape, matrix.indptr, matrix.indices, matrix.data.astype(np.float64, copy=False)
        )


def row_divisors(sums) -> np.ndarray:
    """What ``row_normalize`` divides each row by: its sum, or 1 where the sum
    is 0, so an all-zero row stays zero."""
    return np.where(sums == 0.0, 1.0, sums)
