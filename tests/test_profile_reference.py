"""The row-blocked distance profile and ball integrals against dense references.

The references below sort and integrate every row at once, on whole
(P, P) arrays.  The library works on blocks of rows, and splits the
integrals into one share of rows per core, with the same ufuncs in the
same order, so every array and every value must match exactly, with no
tolerance, whatever the core count.  The profile is stored on its index set
and the integrals on their measure, so each must be freed with its owner.
"""
from __future__ import annotations

import concurrent.futures
import gc
import math
import os
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthomm as om
from orthomm import series
from orthomm.functionals import _subgradient_row
from orthomm.series import _row_blocks

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


def ref_integral_rows(measure: om.DiscreteMeasure, order: np.ndarray,
                      seg: np.ndarray) -> np.ndarray:
    """Every point's integral on whole (P, P) arrays, from ``ref_profile``."""
    w = measure.weights
    if w.size == 1:
        return np.zeros(1)
    cum = np.cumsum(w[order], axis=1)
    vals = (seg * np.maximum(cum, 1e-300) ** -0.5).sum(axis=1)
    vals[w == 0.0] = math.inf
    return vals


def ref_subgradient_row(measure: om.DiscreteMeasure, row: int, order: np.ndarray,
                        seg: np.ndarray) -> np.ndarray:
    order, seg = order[row], seg[row]
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
    prof = index.profile
    assert prof.order.dtype == np.min_scalar_type(len(index) - 1)
    np.testing.assert_array_equal(prof.order, order)
    np.testing.assert_array_equal(prof.seg, seg)
    n = len(index)
    for m in measures(index, seed):
        vals = m.integrals
        np.testing.assert_array_equal(vals, ref_integral_rows(m, order, seg))
        assert np.all(np.isinf(vals[m.weights == 0.0]) == (n > 1))
        for row in {0, n // 2, n - 1}:
            np.testing.assert_array_equal(_subgradient_row(m, row),
                                          ref_subgradient_row(m, row, order, seg))


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


def spy_shares(monkeypatch) -> list[tuple[int, int]]:
    """Record the (start, stop) rows of every share an integral pass sums."""
    shares = []
    integrate = series._integrate_rows

    def spy(prof, w, out, start, stop):
        shares.append((start, stop))
        integrate(prof, w, out, start, stop)

    monkeypatch.setattr(series, "_integrate_rows", spy)
    return shares


# Full row blocks, which cap the share count: 257 rows make one full block
# and a 2-row stub, 513 rows four full blocks and a 5-row stub.
FULL_BLOCKS = {257: 1, 513: 4, 2049: 66}


@pytest.mark.parametrize("n", [257, 513, 2049])
def test_integrals_do_not_depend_on_the_core_count(n, monkeypatch):
    # shares are balanced by rows, so at 513 rows a share of two or three
    # ends inside a block
    index = power_set(n)
    shares = spy_shares(monkeypatch)
    for cores in (1, 2, 3):
        monkeypatch.setattr(series, "_cores", lambda: cores)
        shares.clear()
        assert_matches_reference(index, seed=n)
        k = min(cores, FULL_BLOCKS[n])
        for measure in range(3):
            split = sorted(shares[k * measure:k * (measure + 1)])
            assert [a for a, _ in split[1:]] == [b for _, b in split[:-1]]
            assert (split[0][0], split[-1][1]) == (0, n)
            assert max(b - a for a, b in split) - min(b - a for a, b in split) <= 1
        assert len(shares) == 3 * k


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_tiny_and_zero_weights_keep_the_clamp(cores, monkeypatch):
    # a row whose own weight is below 1e-300 needs the clamp, so its block
    # keeps it; on one core the block of rows 381..507 has none and skips it
    index = power_set(513)
    w = np.full(513, 1.0 / 508)
    w[[5, 300, 302]] = 1e-310
    w[[130, 510]] = 0.0
    m = om.DiscreteMeasure(index, w)
    monkeypatch.setattr(series, "_cores", lambda: cores)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero row without the clamp would divide by zero
        vals = m.integrals
    np.testing.assert_array_equal(vals, ref_integral_rows(m, *ref_profile(index)))
    assert np.all(np.isfinite(vals[[5, 300, 302]]))


@pytest.mark.parametrize("n, cores", [(65, None), (65, 3), (256, 3), (257, 3), (300, 2),
                                      (2049, 1)])
def test_one_share_starts_no_thread(n, cores, monkeypatch):
    # up to 256 points (the default pipeline has 65) one block holds every
    # row; below 362 points one block is full and the other is shorter; and
    # a process on one core sums every block itself
    index = power_set(n)
    index.profile
    if cores is not None:
        monkeypatch.setattr(series, "_cores", lambda: cores)

    def no_pool(*args, **kwargs):
        raise AssertionError("an executor was constructed")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    m = om.DiscreteMeasure.uniform(index)
    assert m.integrals.shape == (n,)
    assert threading.active_count() == before


def test_core_count_without_affinity_call_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert series._cores() == (os.cpu_count() or 1)


def test_failing_share_reaches_the_caller_after_every_share_ends(monkeypatch):
    index = power_set(513)
    index.profile
    monkeypatch.setattr(series, "_cores", lambda: 3)
    integrate = series._integrate_rows
    ended = []

    def share(prof, w, out, start, stop):
        if start == 171:
            raise RuntimeError("share failed")
        if start == 342:
            time.sleep(0.2)
        integrate(prof, w, out, start, stop)
        ended.append(start)

    monkeypatch.setattr(series, "_integrate_rows", share)
    before = threading.active_count()
    m = om.DiscreteMeasure.uniform(index)
    with pytest.raises(RuntimeError, match="share failed"):
        m.integrals
    assert sorted(ended) == [0, 342]
    assert threading.active_count() == before
    assert "integrals" not in vars(m)


def test_tied_distances_put_the_left_point_first():
    # spacing 2^-7: every distance is exact, so the two neighbours of an
    # interior point tie and the stable sort keeps the smaller index first
    pts = np.arange(67) / 128.0
    index = om.IndexSet(points=pts, scale=1.0, raw_total=float(pts[-1]))
    assert_matches_reference(index, seed=5)
    order = index.profile.order
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
    assert index.profile is index.profile
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
    cold = _peak_above_start(lambda: m.integrals)
    prof = index.profile
    assert prof.order.nbytes + prof.seg.nbytes == 10 * 2049 ** 2
    assert cold <= prof.order.nbytes + prof.seg.nbytes + 4 * MIB
    # a fresh measure on the same set reuses the profile but not the
    # integrals, so this is a whole pass over the rows
    fresh = om.DiscreteMeasure.uniform(index)
    warm = _peak_above_start(lambda: fresh.integrals)
    assert "integrals" in vars(fresh)
    assert warm <= 4 * MIB


def test_integrals_are_read_only_and_freed_with_their_measure():
    m = om.DiscreteMeasure.uniform(power_set(65))
    assert m.integrals is m.integrals
    with pytest.raises(ValueError, match="read-only"):
        m.integrals[0] = 0.0
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None
