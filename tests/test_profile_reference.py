"""The distance profile and ball integrals against dense references.

The references below sort and integrate every row at once, on whole
(P, P) arrays.  The library builds the profile in blocks of rows and
integrates it in blocks of steps, adding each row's running masses in the
same order and summing its steps in numpy's pairwise order, so every
array and every value must match exactly, with no tolerance.  The profile
is stored on its index set and the integrals on their measure, so each
must be freed with its owner.  The integrand seg / sqrt(m) uses only
correctly rounded operations, so its bits do not depend on the CPU, and
it is checked against exact and extended-precision values.
"""
from __future__ import annotations

import concurrent.futures
import decimal
import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthomm as om
from orthomm import series
from orthomm.functionals import _dyadic_rows
from orthomm.series import _pairwise_columns, _row_blocks, _step_integrands

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
    vals = (seg / np.sqrt(np.maximum(cum, 1e-300))).sum(axis=1)
    vals[w == 0.0] = math.inf
    return vals


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
    assert prof.order.flags.f_contiguous and prof.seg.flags.f_contiguous
    np.testing.assert_array_equal(prof.order, order)
    np.testing.assert_array_equal(prof.seg, seg)
    n = len(index)
    for m in measures(index, seed):
        vals = m.integrals
        np.testing.assert_array_equal(vals, ref_integral_rows(m, order, seg))
        assert np.all(np.isinf(vals[m.weights == 0.0]) == (n > 1))


# Up to 256 points one block holds every row; these larger sizes end on a
# short block or on a full one.
BLOCK_SPLITS = {257: [255, 2], 511: [128] * 3 + [127], 512: [128] * 4,
                513: [127] * 4 + [5], 2049: [31] * 66 + [3]}

# A pass reads blocks of a multiple of 8 steps, so 257, 511, 513 and 2049
# steps end on a short block.  numpy sums a row of up to 128 entries in one
# leaf and splits longer ones, so 7-9, 127-129 and 255-257 steps end a leaf
# or a group of 8 partway.
STEP_SPLITS = {257: [248, 9], 511: [128] * 3 + [127], 512: [128] * 4,
               513: [120] * 4 + [33], 2049: [24] * 85 + [9]}


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 32, 33, 67, 127, 128, 129, 255, 256,
                               257, 511, 512, 513, 2049])
def test_blocks_match_dense_reference(n):
    assert [len(range(n)[rows]) for rows in _row_blocks(n)] == BLOCK_SPLITS.get(n, [n])
    index = power_set(n)
    uniform = om.DiscreteMeasure.uniform(index)
    blocks = list(_step_integrands(index.profile, uniform.weights))
    assert [len(block) for block in blocks] == STEP_SPLITS.get(n, [n])
    # each block is written over the one before
    assert all(np.shares_memory(a, b) for a, b in zip(blocks, blocks[1:]))
    assert_matches_reference(index, seed=n)
    if n > 2:
        sparse = measures(index, seed=n)[2]
        assert np.any(sparse.weights == 0.0)


@pytest.mark.parametrize("n", [513, 2049])
def test_pass_reads_only_what_it_wrote(n, nan_empty):
    # with every np.empty of the pass NaN-filled, an entry read before it
    # is written turns some integral NaN
    index = power_set(n)
    expected = [m.integrals.tobytes() for m in measures(index, seed=n)]
    nan_empty(series)
    assert [m.integrals.tobytes() for m in measures(index, seed=n)] == expected


def test_pass_sums_rows_in_numpys_pairwise_order():
    # numpy sums a contiguous row pairwise; the pass sums each point's steps
    # the same way, fed in blocks of 8, 24 and n steps.  A numpy release that
    # changes its summation order fails here, not in a report.
    rng = np.random.default_rng(7)
    wrong = []
    for n in list(range(1, 301)) + [1025, 2049, 4097]:
        x = rng.random((6, n)) * 10.0 ** rng.integers(-8, 9, size=(6, n))
        steps = np.ascontiguousarray(x.T)
        expected = x.sum(axis=1).tobytes()
        for size in (8, 24, n):
            out = np.empty(6)
            _pairwise_columns((steps[a:a + size] for a in range(0, n, size)), n, out)
            if out.tobytes() != expected:
                wrong.append((n, size))
    assert wrong == []


@pytest.mark.parametrize("tiny", [1, 2, 3])
def test_tiny_and_zero_weights_keep_the_clamp(tiny):
    # a point whose own weight is below 1e-300 needs the clamp, so every
    # block of the pass takes it; the first 1, 2 or 3 of points 5, 300 and
    # 302 get such a weight (300 and 302 tie as neighbours of 301)
    index = power_set(513)
    w = np.full(513, 1.0 / (511 - tiny))
    small = [5, 300, 302][:tiny]
    w[small] = 1e-310
    w[[130, 510]] = 0.0
    m = om.DiscreteMeasure(index, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero row without the clamp would divide by zero
        vals = m.integrals
    np.testing.assert_array_equal(vals, ref_integral_rows(m, *ref_profile(index)))
    assert np.all(np.isfinite(vals[small]))


@pytest.mark.parametrize("n, passes", [(65, None), (65, 3), (256, 3), (257, 3), (300, 2),
                                       (2049, 1)])
def test_one_share_starts_no_thread(n, passes, monkeypatch):
    # a pass is one share of every point, summed on the calling thread: one
    # row block up to 256 points (the default pipeline has 65), several
    # above.  With ``passes`` None the profile is built inside the check
    # too; otherwise it is built first and that many measures take a pass.
    index = power_set(n)
    chosen = [om.DiscreteMeasure.uniform(index)]
    if passes is not None:
        index.profile
        chosen = measures(index, seed=n)[:passes]

    def no_pool(*args, **kwargs):
        raise AssertionError("an executor was constructed")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    for m in chosen:
        assert m.integrals.shape == (n,)
    assert "profile" in vars(index)
    assert threading.active_count() == before


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


def exact_rows(m: om.DiscreteMeasure) -> bytes:
    """The integrals and the dyadic rows of ``m``."""
    return m.integrals.tobytes() + _dyadic_rows(m).tobytes()


def test_integrals_do_not_depend_on_numpys_cpu_dispatch():
    # numpy picks a SIMD kernel per CPU (AVX-512 ones among them); its power
    # kernels disagree in the last bit, while sqrt, divide and add round
    # correctly in every kernel.  So a process barred from every dispatch
    # target this CPU enables computes the same bytes, for the integrals and
    # for the dyadic rows beside them.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    build = ("om.make_measure(om.build_index_set(om.CoefficientSequence.power(1.0, 512)),"
             " {'kind': 'dirichlet_random', 'seed': 5})")
    script = (
        "import sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "import orthomm as om\n"
        "from test_profile_reference import exact_rows\n"
        f"assert not any(__cpu_features__[t] for t in {enabled!r})\n"
        f"sys.stdout.write(exact_rows({build}).hex())\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(enabled))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(om.__file__)), os.path.dirname(__file__),
        env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 512))
    m = om.make_measure(index, {"kind": "dirichlet_random", "seed": 5})
    assert bytes.fromhex(out) == exact_rows(m)


@pytest.mark.parametrize("n", [65, 513])
def test_integrands_lie_within_one_and_a_half_ulps(n):
    # sqrt(m) is off by at most half an ulp of itself, which moves
    # seg / sqrt(m) by less than one ulp of the quotient, and the division
    # adds half an ulp.  Checked on sampled entries of every block against
    # the exact quotient of the same running mass m (below 1.5 ulps is all
    # that holds: about 0.6% of entries lie between 1 and 1.31 ulps).
    index = power_set(n)
    w = measures(index, seed=n)[1].weights
    prof = index.profile
    cum = np.cumsum(w[prof.order], axis=1)  # the pass's running masses
    rng = np.random.default_rng(n)
    worst, k0 = 0.0, 0
    with decimal.localcontext(prec=60) as ctx:
        for block in _step_integrands(prof, w):
            for k, t in zip(rng.integers(0, len(block), 400), rng.integers(0, n, 400)):
                exact = decimal.Decimal(prof.seg[t, k0 + k]) / ctx.sqrt(
                    decimal.Decimal(cum[t, k0 + k]))
                err = abs(decimal.Decimal(block[k, t]) - exact)
                worst = max(worst, float(err / decimal.Decimal(math.ulp(float(exact)))))
            k0 += len(block)
    assert k0 == n
    assert worst < 1.5


@pytest.mark.parametrize("n", [513, 2049])
def test_integrals_match_an_extended_precision_sum(n):
    # each point's integrand summed in np.longdouble from the same running
    # masses; the pass's sum of n rounded terms stays within 1e-15 relative
    index = power_set(n)
    prof = index.profile
    for m in measures(index, seed=n)[:2]:
        ref = np.empty(n, dtype=np.longdouble)
        for rows in _row_blocks(n):
            cum = np.cumsum(m.weights[prof.order[rows]], axis=1)
            ref[rows] = (prof.seg[rows] / np.sqrt(cum.astype(np.longdouble))).sum(axis=1)
        assert np.max(np.abs((m.integrals - ref) / ref)) <= 1e-15
