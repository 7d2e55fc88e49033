import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hinstruct
from conftest import from_dense, hadamard_numpy, row_dots_numpy, spgemm_numpy, to_dense, triplets
from hinstruct import kernels, sparse
from hinstruct.sparse import MatrixBlowupError, SparseMatrix


def random_sparse(rng, rows, cols, density=0.25):
    dense = (rng.random((rows, cols)) < density) * rng.random((rows, cols))
    return from_dense(dense), dense


def with_empty_rows(rng, rows, cols):
    """Random matrix whose even rows are all zero."""
    dense = (rng.random((rows, cols)) < 0.5) * rng.random((rows, cols))
    dense[::2] = 0.0
    return from_dense(dense)


def oracle_args(a, b):
    """``a`` and ``b`` as the arguments of the numpy oracles in conftest."""
    return (a.indptr, a.indices, a.data, b.indptr, b.indices, b.data, a.rows, b.cols)


def assert_agrees(got, want, rows, cols):
    """``got`` has shape (rows, cols) and the oracle's (indptr, indices, data)
    ``want``, in canonical CSR: int64 indices, float64 values, columns
    strictly increasing within each row."""
    assert (got.rows, got.cols) == (rows, cols)
    assert got.indptr.dtype == np.int64
    assert got.indices.dtype == np.int64
    assert got.data.dtype == np.float64
    assert np.array_equal(got.indptr, want[0])
    assert np.array_equal(got.indices, want[1])
    assert np.allclose(got.data, want[2], rtol=1e-13)
    row_ids = np.repeat(np.arange(rows), np.diff(got.indptr))
    same_row = row_ids[1:] == row_ids[:-1]
    assert np.all(np.diff(got.indices)[same_row] > 0)


def copies(*matrices):
    return [(m.indptr.copy(), m.indices.copy(), m.data.copy()) for m in matrices]


def assert_unchanged(matrices, before):
    for m, arrays in zip(matrices, before):
        for now, then in zip((m.indptr, m.indices, m.data), arrays):
            assert now.dtype == then.dtype
            assert np.array_equal(now, then)


class TestConstruction:
    def test_from_pairs_roundtrip(self):
        m = SparseMatrix.from_pairs(3, 4, np.array([(0, 1), (2, 3), (0, 0)]))
        assert m.nnz == 3
        assert sorted(triplets(m)) == [(0, 0, 1.0), (0, 1, 1.0), (2, 3, 1.0)]

    def test_collapse_mode_collapses_to_one(self):
        m = SparseMatrix.from_pairs(2, 2, [(0, 1), (1, 0), (0, 1), (0, 1)])
        assert m.nnz == 2
        assert to_dense(m).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_out_of_range_rejected(self):
        for pair in [(2, 0), (-1, 0), (0, 2), (0, -1)]:
            with pytest.raises(ValueError, match="out of range"):
                SparseMatrix.from_pairs(2, 2, [(0, 0), pair])

    def test_from_dense_matches_from_pairs(self):
        rng = np.random.default_rng(11)
        denses = [(rng.random(rng.integers(1, 9, 2)) < 0.3).astype(np.float64) for _ in range(20)]
        denses[0][::2] = 0.0
        denses += [np.zeros((4, 3)), np.zeros((0, 5)), np.zeros((3, 0))]
        for dense in denses:
            got = from_dense(dense)
            pairs = np.argwhere(dense)
            want = SparseMatrix.from_pairs(*dense.shape, np.concatenate([pairs, pairs[::-1]]))
            assert (got.rows, got.cols) == (want.rows, want.cols)
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(to_dense(got), dense)
        with pytest.raises(ValueError, match="negative"):
            from_dense([[0.0, -1.0]])


class TestMatmul:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rows, inner, cols = rng.integers(1, 12, size=3)
            a, da = random_sparse(rng, rows, inner)
            b, db = random_sparse(rng, inner, cols)
            assert np.allclose(to_dense(a.matmul(b)), da @ db, rtol=1e-13)

    def test_backends_agree(self):
        rng = np.random.default_rng(7)
        pairs = [(random_sparse(rng, 9, 11)[0], random_sparse(rng, 11, 5)[0]) for _ in range(20)]
        pairs.append((with_empty_rows(rng, 9, 11), random_sparse(rng, 11, 5)[0]))
        pairs.append((random_sparse(rng, 9, 11)[0], from_dense(np.zeros((11, 5)))))
        for a, b in pairs:
            before = copies(a, b)
            assert_agrees(a.matmul(b), spgemm_numpy(*oracle_args(a, b)), a.rows, b.cols)
            assert_unchanged((a, b), before)

    def test_empty_operands(self):
        z = from_dense(np.zeros((3, 4)))
        assert z.matmul(from_dense(np.zeros((4, 2)))).nnz == 0
        m = from_dense([[1.0, 0, 0, 0]])
        assert m.matmul(from_dense(np.zeros((4, 2)))).nnz == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            from_dense(np.zeros((2, 3))).matmul(from_dense(np.zeros((2, 3))))

    def test_flop_budget_blowup(self, monkeypatch):
        rng = np.random.default_rng(3)
        a, _ = random_sparse(rng, 20, 20, density=0.5)
        monkeypatch.setattr(sparse, "FLOP_BUDGET", 10)
        with pytest.raises(MatrixBlowupError, match="matrix blowup"):
            a.matmul(a)
        monkeypatch.undo()
        assert a.matmul(a).rows == 20


class TestElementwise:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, da = random_sparse(rng, 8, 7)
            b, db = random_sparse(rng, 8, 7)
            assert np.allclose(to_dense(a.hadamard(b)), da * db)

    def test_backends_agree(self):
        rng = np.random.default_rng(11)
        pairs = [(random_sparse(rng, 10, 10)[0], random_sparse(rng, 10, 10)[0]) for _ in range(20)]
        pairs.append((with_empty_rows(rng, 10, 10), random_sparse(rng, 10, 10)[0]))
        pairs.append((random_sparse(rng, 10, 10)[0], from_dense(np.zeros((10, 10)))))
        for a, b in pairs:
            before = copies(a, b)
            assert_agrees(a.hadamard(b), hadamard_numpy(*oracle_args(a, b)), a.rows, a.cols)
            assert_unchanged((a, b), before)

    def test_disjoint_patterns_empty(self):
        a = from_dense([[1.0, 0], [0, 0]])
        b = from_dense([[0, 1.0], [0, 0]])
        assert a.hadamard(b).nnz == 0


class TestRowDots:
    def cases(self, rng, integer=False):
        def one(rows):
            m, dense = random_sparse(rng, rows, 9, density=0.4)
            if integer:
                dense = np.ceil(dense * 4)
                m = from_dense(dense)
            return m, dense

        cases = [(one(7), one(5)) for _ in range(15)]
        cases.append(((with_empty_rows(rng, 7, 9), None), one(5)))
        cases.append((one(7), (from_dense(np.zeros((5, 9))), None)))
        return cases

    def test_backends_agree(self):
        rng = np.random.default_rng(23)
        for (a, _), (b, _) in self.cases(rng):
            rows = rng.integers(0, a.rows, size=40)
            other_rows = rng.integers(0, b.rows, size=40)
            before = copies(a, b)
            want = row_dots_numpy(*oracle_args(a, b)[:6], a.cols, rows, other_rows)
            got = a.row_dots(b, rows, other_rows)
            assert got.dtype == np.float64 and got.shape == (40,)
            assert np.allclose(got, want, rtol=1e-13, atol=0)
            assert_unchanged((a, b), before)

    def test_integer_values_exact_in_chunks(self, monkeypatch):
        rng = np.random.default_rng(29)
        for (a, da), (b, db) in self.cases(rng, integer=True)[:15]:
            rows = rng.integers(0, a.rows, size=60)
            other_rows = rng.integers(0, b.rows, size=60)
            want = (da[rows] * db[other_rows]).sum(axis=1)
            assert np.array_equal(a.row_dots(b, rows, other_rows), want)
            monkeypatch.setattr(sparse, "DOT_CHUNK", 7)
            assert np.array_equal(a.row_dots(b, rows, other_rows), want)
            monkeypatch.undo()

    def test_chunk_over_budget_raises(self, monkeypatch):
        a = from_dense(np.ones((2, 6)))
        assert np.array_equal(a.row_dots(a, [0, 1], [1, 1]), [6.0, 6.0])
        monkeypatch.setattr(sparse, "FLOP_BUDGET", 11)
        with pytest.raises(MatrixBlowupError, match="row dots gather 12 entries"):
            a.row_dots(a, [0], [1])

    def test_no_rows_and_mismatch(self):
        a = from_dense(np.ones((2, 3)))
        assert a.row_dots(a, [], []).shape == (0,)
        with pytest.raises(ValueError, match="dimension mismatch"):
            a.row_dots(from_dense(np.ones((2, 4))), [0], [0])


class TestMatvec:
    def test_matches_dense(self):
        rng = np.random.default_rng(31)
        for m, dense in [random_sparse(rng, 6, 8) for _ in range(10)] + [(from_dense(np.zeros((3, 4))), np.zeros((3, 4)))]:
            vector = rng.random(m.cols)
            assert np.allclose(m.matvec(vector), dense @ vector, rtol=1e-13)
            assert m.matvec(vector).shape == (m.rows,)


class TestRowNormalize:
    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(9)
        m, _ = random_sparse(rng, 12, 6, density=0.3)
        sums = to_dense(m.row_normalize()).sum(axis=1)
        assert all(abs(s - 1.0) < 1e-12 or s == 0.0 for s in sums)

    def test_values(self):
        m = from_dense([[1.0, 3.0], [0.0, 0.0]]).row_normalize()
        assert np.allclose(to_dense(m), [[0.25, 0.75], [0, 0]])

    def test_divide_rows_leaves_rows_of_zero_sum(self):
        m = from_dense([[1.0, 3.0], [2.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(to_dense(m.divide_rows(np.array([4.0, 0.0, 0.0]))), [[0.25, 0.75], [2.0, 0], [0, 0]])
        assert np.array_equal(sparse.row_divisors(np.array([2.0, 0.0])), [2.0, 1.0])


class TestTransposePick:
    def test_transpose(self):
        rng = np.random.default_rng(13)
        m, dense = random_sparse(rng, 6, 9)
        assert np.allclose(to_dense(m.transpose()), dense.T)

    def test_pick(self):
        m = from_dense([[0, 2.0], [3.0, 0]])
        got = m.pick([(0, 1), (1, 0), (0, 0), (1, 1)])
        assert np.allclose(got, [2.0, 3.0, 0.0, 0.0])

        rng = np.random.default_rng(17)
        cases = [random_sparse(rng, 7, 5)[0] for _ in range(10)]
        cases.append(from_dense(np.zeros((7, 5))))
        for m in cases:
            r = rng.integers(0, 7, size=30)
            c = rng.integers(0, 5, size=30)
            assert np.array_equal(m.pick(list(zip(r.tolist(), c.tolist()))), to_dense(m)[r, c])
        assert m.pick([]).shape == (0,)
        for bad in [(0, 5), (7, 0), (-1, 0)]:
            with pytest.raises(ValueError, match="out of range"):
                cases[0].pick([bad])

    def test_select(self):
        rng = np.random.default_rng(19)
        cases = [random_sparse(rng, 7, 5)[0] for _ in range(10)] + [with_empty_rows(rng, 7, 5)]
        cases.append(from_dense(np.zeros((7, 5))))
        for m in cases:
            rows = rng.integers(0, 7, size=int(rng.integers(0, 9)))
            keep = rng.random(5) < 0.6
            got = m.select(rows, keep)
            assert (got.rows, got.cols) == (rows.size, 5)
            assert np.array_equal(to_dense(got), to_dense(m)[rows] * keep)
            assert np.array_equal(to_dense(m.select(rows)), to_dense(m)[rows])
            for r in range(got.rows):  # columns sorted within each row
                cols = got.indices[got.indptr[r]:got.indptr[r + 1]]
                assert np.all(cols[1:] > cols[:-1])
        for bad in [7, -1]:
            with pytest.raises(ValueError, match="out of range"):
                cases[0].select([0, bad], np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="column mask"):
            cases[0].select([0], np.ones(4, dtype=bool))

    def test_flop_estimate(self):
        a = from_dense([[1.0, 1.0], [0.0, 1.0]])
        # row products: a has 3 nonzeros; each hits the matching row of b
        b = from_dense([[1.0, 0.0], [1.0, 1.0]])
        assert kernels.spgemm_flops(a.indptr, a.indices, b.indptr) == 1 + 2 + 2


class TestDeferredScipyImport:
    def test_setup_runs_without_scipy(self, planted_dir, tmp_path):
        # setting up a search (imports, graph, split) must not load scipy.sparse;
        # the first product does
        from hinstruct.synth import write_demo_config

        config = tmp_path / "config.json"
        write_demo_config(config, planted_dir, tmp_path / "out")
        script = f"""
import sys
from hinstruct import cli
graph, split, _ = cli.build_task(cli.RunConfig.load({str(config)!r}))
assert "scipy.sparse" not in sys.modules, "set-up imported scipy.sparse"
adjacency = graph.adjacency_of(0)
adjacency.matmul(adjacency.transpose())
assert "scipy.sparse" in sys.modules, "matmul did not load scipy.sparse"
"""
        src = str(Path(hinstruct.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
