"""Minimal CSR sparse matrix used for adjacency and score matrices.

Values are nonnegative float64; indices int64. Matrices are immutable after
construction and safe to share between threads. Heavy operations dispatch to
:mod:`hinstruct.kernels`, which runs them on ``scipy.sparse``.
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
# bounded however many rows it is asked for
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
    def from_triplets(cls, rows, cols, triplets, collapse=False):
        """Build from (row, col, value) triplets.

        Duplicate coordinates are an error unless ``collapse`` is set, in
        which case each duplicated cell collapses to value 1 (used when
        ingesting edge lists where repeated interactions count once).
        Zero-valued entries are dropped.
        """
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        trips = list(triplets)
        if not trips:
            return cls.zeros(rows, cols)
        r = np.asarray([t[0] for t in trips], dtype=np.int64)
        c = np.asarray([t[1] for t in trips], dtype=np.int64)
        v = np.asarray([t[2] for t in trips], dtype=np.float64)
        if r.size and (r.min() < 0 or r.max() >= rows):
            raise ValueError(f"row index out of range for {rows}x{cols} matrix")
        if c.size and (c.min() < 0 or c.max() >= cols):
            raise ValueError(f"column index out of range for {rows}x{cols} matrix")
        if np.any(v < 0):
            raise ValueError("negative values not allowed")
        keys = r * cols + c
        order = np.argsort(keys, kind="stable")
        keys, r, c, v = keys[order], r[order], c[order], v[order]
        dup = keys[1:] == keys[:-1]
        if np.any(dup):
            if not collapse:
                raise ValueError("duplicate (row, col) coordinate")
            keep = np.concatenate(([True], ~dup))
            r, c = r[keep], c[keep]
            v = np.ones(r.shape[0], dtype=np.float64)
        nz = v != 0.0
        r, c, v = r[nz], c[nz], v[nz]
        indptr = np.zeros(rows + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(r, minlength=rows))
        return cls(rows, cols, indptr, c.copy(), v.copy())

    @classmethod
    def zeros(cls, rows, cols):
        return cls(
            rows,
            cols,
            np.zeros(rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    # -- views ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def pick(self, pairs):
        """Values at the given (row, col) pairs; absent cells read 0."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        # an out-of-range column would alias a cell of the next row
        if pairs.size and (pairs.min() < 0 or pairs[:, 0].max() >= self.rows or pairs[:, 1].max() >= self.cols):
            raise ValueError(f"pair index out of range for {self.rows}x{self.cols} matrix")
        out = np.zeros(pairs.shape[0], dtype=np.float64)
        if self.nnz == 0:
            return out
        row_ids = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))
        keys = row_ids * self.cols + self.indices
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
        indptr, indices, data = kernels.spgemm(
            self.indptr, self.indices, self.data,
            other.indptr, other.indices, other.data,
            self.rows, other.cols,
        )
        return SparseMatrix(self.rows, other.cols, indptr, indices, data)

    def hadamard(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch for elementwise product")
        indptr, indices, data = kernels.hadamard(
            self.indptr, self.indices, self.data,
            other.indptr, other.indices, other.data,
            self.rows, self.cols,
        )
        return SparseMatrix(self.rows, self.cols, indptr, indices, data)

    def matvec(self, vector) -> np.ndarray:
        """This matrix times the dense ``vector``; each row sums its products
        in column order."""
        row_ids = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))
        return np.bincount(row_ids, weights=self.data * vector[self.indices], minlength=self.rows)

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
                out[lo:hi] = kernels.row_dots(
                    self.indptr, self.indices, self.data,
                    other.indptr, other.indices, other.data,
                    self.cols, rows[lo:hi], other_rows[lo:hi],
                )
        return out

    def row_normalize(self) -> "SparseMatrix":
        """Scale each row to sum to 1; all-zero rows stay zero."""
        if self.nnz == 0:
            return self
        row_ids = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))
        sums = np.bincount(row_ids, weights=self.data, minlength=self.rows)
        denom = np.where(sums == 0.0, 1.0, sums)
        return SparseMatrix(self.rows, self.cols, self.indptr, self.indices, self.data / denom[row_ids])

    def transpose(self) -> "SparseMatrix":
        row_ids = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))
        order = np.lexsort((row_ids, self.indices))
        new_rows = self.indices[order]
        indptr = np.zeros(self.cols + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(new_rows, minlength=self.cols))
        return SparseMatrix(self.cols, self.rows, indptr, row_ids[order], self.data[order])
