"""The row-blocked distance profile and ball integrals against dense references.

The references below sort and integrate every row at once, on whole
(P, P) arrays.  The library works on blocks of rows with the same
ufuncs in the same order, so every array and every value must match
exactly, with no tolerance.  The profile is stored on its index set,
so it must also be freed with it.
"""
from __future__ import annotations

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthomm as om
from orthomm.functionals import _integral_rows, _profile, _row_blocks, _subgradient_row

MIB = 1 << 20


def ref_profile(index: om.IndexSet) -> tuple[np.ndarray, np.ndarray]:
    """(order, seg) of the whole distance matrix in one stable sort."""
    pts = index.points
    dist = np.abs(pts[None, :] - pts[:, None])
    order = np.argsort(dist, axis=1, kind="stable")
    sq = np.sqrt(np.take_along_axis(dist, order, axis=1))
    seg = np.empty_like(sq)
    seg[:, :-1] = sq[:, 1:] - sq[:, :-1]
    seg[:, -1] = math.sqrt(index.diameter) - sq[:, -1]
    return order, seg


def ref_integral_rows(measure: om.DiscreteMeasure) -> np.ndarray:
    order, seg = ref_profile(measure.index_set)
    w = measure.weights
    if w.size == 1:
        return np.zeros(1)
    cum = np.cumsum(w[order], axis=1)
    vals = (seg * np.maximum(cum, 1e-300) ** -0.5).sum(axis=1)
    vals[w == 0.0] = math.inf
    return vals


def ref_subgradient_row(measure: om.DiscreteMeasure, row: int) -> np.ndarray:
    order, seg = (a[row] for a in ref_profile(measure.index_set))
    cum = np.maximum(np.cumsum(measure.weights[order]), 1e-150)
    suffix = np.cumsum((-0.5 * seg * cum ** -1.5)[::-1])[::-1]
    g = np.empty_like(suffix)
    g[order] = suffix
    return g


def power_set(n: int) -> om.IndexSet:
    if n == 1:
        return om.IndexSet(points=np.array([0.0]), scale=1.0, raw_total=0.0)
    return om.build_index_set(om.CoefficientSequence.power(1.0, n - 1))


def measures(index: om.IndexSet, seed: int) -> list[om.DiscreteMeasure]:
    """Uniform, Dirichlet and sparse (about a third of the weights zero)."""
    n = len(index)
    rng = np.random.default_rng(seed)
    sparse = rng.dirichlet(np.full(n, 0.3)) * (rng.random(n) < 0.7)
    sparse[-1] += 0.5  # keep some mass whatever the draw
    return [om.DiscreteMeasure.uniform(index),
            om.DiscreteMeasure.explicit(index, rng.dirichlet(np.ones(n))),
            om.DiscreteMeasure.explicit(index, sparse / sparse.sum())]


def assert_matches_reference(index: om.IndexSet, seed: int) -> None:
    order, seg = ref_profile(index)
    prof = _profile(index)
    assert prof.order.dtype == order.dtype
    np.testing.assert_array_equal(prof.order, order)
    np.testing.assert_array_equal(prof.seg, seg)
    n = len(index)
    for m in measures(index, seed):
        vals = _integral_rows(m)
        np.testing.assert_array_equal(vals, ref_integral_rows(m))
        assert np.all(np.isinf(vals[m.weights == 0.0]) == (n > 1))
        for row in {0, n // 2, n - 1}:
            np.testing.assert_array_equal(_subgradient_row(m, row),
                                          ref_subgradient_row(m, row))


# Up to 256 points one block holds every row; these larger sizes end on a
# short block or on a full one.
BLOCK_SPLITS = {257: [255, 2], 511: [128] * 3 + [127], 512: [128] * 4,
                513: [127] * 4 + [5]}


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 67, 257, 511, 512, 513])
def test_blocks_match_dense_reference(n):
    assert [len(range(n)[rows]) for rows in _row_blocks(n)] == BLOCK_SPLITS.get(n, [n])
    index = power_set(n)
    assert_matches_reference(index, seed=n)
    if n > 2:
        sparse = measures(index, seed=n)[2]
        assert np.any(sparse.weights == 0.0)


def test_tied_distances_put_the_left_point_first():
    # spacing 2^-7: every distance is exact, so the two neighbours of an
    # interior point tie and the stable sort keeps the smaller index first
    pts = np.arange(67) / 128.0
    index = om.IndexSet(points=pts, scale=1.0, raw_total=float(pts[-1]))
    assert_matches_reference(index, seed=5)
    order = _profile(index).order
    rows = np.arange(1, 66)
    np.testing.assert_array_equal(order[rows, 0], rows)
    np.testing.assert_array_equal(order[rows, 1], rows - 1)
    np.testing.assert_array_equal(order[rows, 2], rows + 1)


@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                max_size=80),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_point_sets_match_dense_reference(values, seed):
    pts = np.unique(np.asarray([0.0] + values, dtype=float))
    index = om.IndexSet(points=pts, scale=1.0, raw_total=float(pts[-1]))
    assert_matches_reference(index, seed)


def test_profile_is_freed_with_its_index_set():
    index = power_set(65)
    om.strong_functional(om.DiscreteMeasure.uniform(index))
    assert _profile(index) is _profile(index)
    ref = weakref.ref(index)
    del index
    gc.collect()
    assert ref() is None


def _peak_above_start(call) -> int:
    """Traced peak of ``call()`` above the traced memory it started with."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_integral_rows_work_in_bounded_memory():
    # the dense form allocated about six (P, P) float arrays per call,
    # 96 MB at P = 2049; a block of rows needs a few 512 KiB arrays
    index = power_set(2049)
    m = om.DiscreteMeasure.uniform(index)
    cold = _peak_above_start(lambda: _integral_rows(m))
    prof = _profile(index)
    assert cold <= prof.order.nbytes + prof.seg.nbytes + 4 * MIB
    warm = _peak_above_start(lambda: _integral_rows(m))
    assert warm <= 4 * MIB
