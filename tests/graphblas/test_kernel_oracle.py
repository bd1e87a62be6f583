"""Serial kernels against a pure-Python oracle.

Every compute kernel on the hot path (expansion SpGEMM and its row-tiled
fallback, the SciPy plus_times repair pass, SpMV, row-reduce, the dirty-row
merge) is checked element-for-element against a dictionary implementation
of the GraphBLAS definition, and dtype-for-dtype against the dtype the
kernel promises.  Workloads include empty rows, annihilating sums (products
cancelling to exactly zero, which GraphBLAS must keep), single-row and
single-column matrices, and arbitrary (huge, unsorted) group ids.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.graphblas import monoid as mon
from repro.graphblas import semiring as sem
from repro.graphblas._kernels import freeze, reduce as red, spgemm, spmv
from repro.graphblas._kernels.coo import canonicalize_matrix
from repro.graphblas._kernels.csr import indptr_from_rows

MATRICES = {
    # name -> (nrows, ncols, nnz): empty-row stretches, skew, tiny shapes
    "dense-ish": (60, 50, 900),
    "sparse-empty-rows": (400, 80, 300),
    "single-row": (1, 64, 40),
    "single-col": (64, 1, 40),
}

# name -> (add over a list, mult of a pair): the definitions, not the kernels
ADD = {"plus": sum, "min": min, "lor": any}
MULT = {"times": lambda x, y: x * y, "second": lambda x, y: y, "land": lambda x, y: x and y}


def rand_coo(rng, nrows, ncols, nnz, lo=-3, hi=4, dtype=np.int64):
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.integers(lo, hi, nnz).astype(dtype)
    r, c, v = canonicalize_matrix(rows, cols, vals, nrows, ncols, dup_op=mon.plus_monoid.op)
    return (r, c, v, nrows, ncols)


def as_dict(rows, cols, vals):
    return {(int(r), int(c)): v.item() for r, c, v in zip(rows, cols, vals)}


def oracle_mxm(a, b, add, mult):
    b_rows = defaultdict(list)
    for (k, j), v in as_dict(*b[:3]).items():
        b_rows[k].append((j, v))
    terms = defaultdict(list)
    for (i, k), x in as_dict(*a[:3]).items():
        for j, y in b_rows[k]:
            terms[(i, j)].append(MULT[mult](x, y))
    return {key: ADD[add](ts) for key, ts in terms.items()}


def assert_canonical_equals(got, want: dict, dtype):
    rows, cols, vals = got[:3]
    keys = list(zip(rows.tolist(), cols.tolist()))
    assert keys == sorted(want), "structure or order differs"
    assert vals.dtype == dtype, (vals.dtype, dtype)
    assert [v.item() for v in vals] == [want[k] for k in keys]


def row_flops(a, b):
    """Per-row product count of A x B (the quantity FLOP_LIMIT bounds)."""
    b_len = np.bincount(b[0], minlength=b[3])
    return np.bincount(a[0], weights=b_len[a[1]], minlength=a[3]).astype(np.int64)


def set_tiling(monkeypatch, a, b, tiling):
    """Force generic_mxm onto the row-tiled path; returns the expected
    minimum number of expansion blocks."""
    flops = row_flops(a, b)
    total, worst = int(flops.sum()), int(flops.max())
    limit = {"untiled": None, "coarse": max(worst, total // 3), "per-row": worst}[tiling]
    if limit is None:
        return 1
    monkeypatch.setattr(spgemm, "FLOP_LIMIT", limit)
    return 2 if total > limit else 1


class TestMxm:
    @pytest.mark.parametrize("tiling", ["untiled", "coarse", "per-row"])
    @pytest.mark.parametrize("shape", sorted(MATRICES))
    @pytest.mark.parametrize("semiring", ["plus_times", "min_second", "lor_land"])
    def test_matches_oracle(self, monkeypatch, tiling, shape, semiring):
        rng = np.random.default_rng(7)
        nr, nc, nnz = MATRICES[shape]
        dtype = np.bool_ if semiring == "lor_land" else np.int64
        a = rand_coo(rng, nr, nc, nnz, lo=0, hi=2, dtype=dtype)
        b = rand_coo(rng, nc, 70, 800, lo=0, hi=2, dtype=dtype)
        blocks = []
        real_expand = spgemm._expand_block
        monkeypatch.setattr(
            spgemm, "_expand_block", lambda *args: blocks.append(1) or real_expand(*args)
        )
        min_blocks = set_tiling(monkeypatch, a, b, tiling)
        got = spgemm.generic_mxm(a, b, sem.get(semiring))
        assert len(blocks) >= min_blocks
        add, mult = semiring.split("_")
        assert_canonical_equals(got, oracle_mxm(a, b, add, mult), dtype)

    @pytest.mark.parametrize("path", ["generic", "generic-tiled", "scipy"])
    def test_annihilating_sum_kept(self, monkeypatch, path):
        """Products cancelling to exactly 0 keep their entry on every path
        (GraphBLAS structural semantics)."""
        # rows [1, -1] times B rows that collide on the same output column
        a = canonicalize_matrix(
            np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([1, -1, 2, -2]), 2, 2
        )
        b = canonicalize_matrix(np.array([0, 1]), np.array([0, 0]), np.array([5, 5]), 2, 1)
        a, b = (*a, 2, 2), (*b, 2, 1)
        if path == "scipy":
            got = spgemm.scipy_plus_times_mxm(a, b)
        else:
            if path == "generic-tiled":
                monkeypatch.setattr(spgemm, "FLOP_LIMIT", 2)
            got = spgemm.generic_mxm(a, b, sem.get("plus_times"))
        assert got[0].tolist() == [0, 1] and got[1].tolist() == [0, 0]
        assert got[2].tolist() == [0, 0]  # annihilated but present

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_scipy_repair_matches_oracle(self, dtype):
        rng = np.random.default_rng(3)
        a = rand_coo(rng, 80, 60, 700, dtype=dtype)
        b = rand_coo(rng, 60, 90, 700, dtype=dtype)
        compute = np.float64 if dtype == np.float64 else np.int64
        want = oracle_mxm(a, b, "plus", "times")
        assert any(v == 0 for v in want.values())  # the repair pass has work
        assert_canonical_equals(spgemm.scipy_plus_times_mxm(a, b), want, compute)


def oracle_mxv(a, u, add, mult):
    u_map = dict(zip(u[0].tolist(), (v.item() for v in u[1])))
    terms = defaultdict(list)
    for (i, j), x in as_dict(*a[:3]).items():
        if j in u_map:
            terms[i].append(MULT[mult](x, u_map[j]))
    return {i: ADD[add](ts) for i, ts in terms.items()}


def assert_vector_equals(got, want: dict, dtype):
    idx, vals = got
    assert idx.tolist() == sorted(want)
    assert vals.dtype == dtype, (vals.dtype, dtype)
    assert [v.item() for v in vals] == [want[i] for i in idx.tolist()]


class TestMxv:
    @pytest.mark.parametrize("density", ["quarter", "half", "full"])
    @pytest.mark.parametrize("shape", sorted(MATRICES))
    @pytest.mark.parametrize("semiring", ["plus_times", "min_second"])
    def test_matches_oracle(self, density, shape, semiring):
        rng = np.random.default_rng(13)
        nr, nc, nnz = MATRICES[shape]
        a = rand_coo(rng, nr, nc, nnz)
        k = {"quarter": max(1, nc // 4), "half": max(1, nc // 2), "full": nc}[density]
        u_idx = np.sort(rng.choice(nc, size=k, replace=False)).astype(np.int64)
        u = (u_idx, rng.integers(1, 6, u_idx.size), nc)
        add, mult = semiring.split("_")
        got = spmv.mxv(a, u, sem.get(semiring))
        assert_vector_equals(got, oracle_mxv(a, u, add, mult), np.int64)

    @pytest.mark.parametrize("u_cols", [[0], [], [1]])
    def test_rows_whose_columns_miss_u(self, u_cols):
        """Rows whose columns all miss u contribute nothing, without
        disturbing dtype or order."""
        # rows 0..9 hit column 0; rows 100..109 hit column 1
        rows = np.concatenate([np.arange(10), np.arange(100, 110)]).astype(np.int64)
        cols = np.concatenate([np.zeros(10), np.ones(10)]).astype(np.int64)
        vals = np.arange(20, dtype=np.int64)
        a = (rows, cols, vals, 200, 2)
        u = (np.array(u_cols, dtype=np.int64), np.full(len(u_cols), 3, dtype=np.int64), 2)
        got = spmv.mxv(a, u, sem.get("plus_times"))
        assert_vector_equals(got, oracle_mxv(a, u, "plus", "times"), np.int64)


class TestReduce:
    @pytest.mark.parametrize("ids", ["rows", "huge-ids", "shuffled-groups"])
    @pytest.mark.parametrize("shape", sorted(MATRICES))
    @pytest.mark.parametrize("monoid", ["plus", "min", "lor"])
    def test_matches_oracle(self, ids, shape, monoid):
        rng = np.random.default_rng(17)
        nr, nc, nnz = MATRICES[shape]
        dtype = np.bool_ if monoid == "lor" else np.int64
        rows, _, vals, _, _ = rand_coo(rng, nr, nc, nnz, lo=0, hi=2, dtype=dtype)
        m = mon.MONOIDS[monoid]
        if ids == "rows":
            got = red.reduce_rows(rows, vals, m)
        elif ids == "huge-ids":  # sorted but far beyond any indptr's reach
            rows = rows * np.int64(10**12)
            got = red.reduce_rows(rows, vals, m)
        else:
            perm = rng.permutation(rows.size)
            got = red.reduce_groups(rows[perm], vals[perm], m)
        terms = defaultdict(list)
        for r, v in zip(rows.tolist(), vals):
            terms[r].append(v.item())
        assert_vector_equals(got, {r: ADD[monoid](ts) for r, ts in terms.items()}, dtype)


def oracle_merge(rows, cols, vals, dirty, d_rows, d_cols, d_vals):
    dirty_set = set(dirty.tolist())
    out = {k: v for k, v in as_dict(rows, cols, vals).items() if k[0] not in dirty_set}
    out.update(as_dict(d_rows, d_cols, d_vals))
    return out


def check_merge(rows, cols, vals, nr, dirty, d_rows, d_cols, d_vals):
    indptr = indptr_from_rows(rows, nr)
    got = freeze.merge_dirty_rows(rows, cols, vals, indptr, nr, dirty, d_rows, d_cols, d_vals)
    want = oracle_merge(rows, cols, vals, dirty, d_rows, d_cols, d_vals)
    assert_canonical_equals(got[:3], want, vals.dtype)
    assert np.array_equal(got[3], indptr_from_rows(got[0], nr))


class TestMergeDirtyRows:
    @pytest.mark.parametrize("n_dirty", [5, 30, 150])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle(self, n_dirty, seed):
        rng = np.random.default_rng(seed)
        nr, nc = 150, 40
        rows, cols, vals, _, _ = rand_coo(rng, nr, nc, 800)
        dirty = np.sort(rng.choice(nr, size=n_dirty, replace=False)).astype(np.int64)
        reps = []
        for r in dirty.tolist():
            k = int(rng.integers(0, 6))  # some dirty rows become empty
            cset = np.unique(rng.integers(0, nc, k))
            reps.append(
                (
                    np.full(cset.size, r, dtype=np.int64),
                    cset.astype(np.int64),
                    rng.integers(1, 9, cset.size),
                )
            )
        d_rows = np.concatenate([x[0] for x in reps])
        d_cols = np.concatenate([x[1] for x in reps])
        d_vals = np.concatenate([x[2] for x in reps])
        check_merge(rows, cols, vals, nr, dirty, d_rows, d_cols, d_vals)

    @pytest.mark.parametrize("case", ["first-and-last", "all-rows", "all-rows-emptied"])
    def test_boundary_rows(self, case):
        """Dirty sets covering row 0 and the last row exercise the zero
        prev boundary and the absent tail."""
        nr = 40
        rows = np.repeat(np.arange(nr, dtype=np.int64), 2)
        cols = np.tile(np.array([0, 3], dtype=np.int64), nr)
        vals = np.arange(2 * nr, dtype=np.int64)
        dirty = np.array([0, nr - 1]) if case == "first-and-last" else np.arange(nr)
        dirty = dirty.astype(np.int64)
        d_rows = np.zeros(0, np.int64) if case == "all-rows-emptied" else dirty.copy()
        d_cols = np.ones(d_rows.size, dtype=np.int64)
        d_vals = np.full(d_rows.size, 7, dtype=np.int64)
        check_merge(rows, cols, vals, nr, dirty, d_rows, d_cols, d_vals)


def test_row_work_prefix_counts_every_row():
    rows = np.array([1, 1, 3, 5, 5, 5], dtype=np.int64)
    weights = np.array([2, 0, 7, 1, 1, 4], dtype=np.int64)
    prefix = spgemm._row_work_prefix(rows, weights, 7)
    assert prefix.dtype == np.int64
    assert prefix.tolist() == [0, 0, 2, 2, 9, 9, 15, 15]
