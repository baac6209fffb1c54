"""Skeleton laws, bridge leaves, adversarial sampling, and MC verification."""
from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import orthomm as om
from orthomm import checks, processes
from orthomm.processes import (
    _bridge_covariance,
    _build_bridge,
    _partial_sum_extremes,
    _slot_blocks,
    _slots,
    _stream,
)

PATHS = 40_000


def draw(seed: int, paths: int, kind: int, count: int, normal: bool = False):
    """Every block of the slot reader over the streams (seed, kind, j), j <
    count, stacked: uniforms, or normals if ``normal``.

    Each block is copied, since the reader reads the next one over it."""
    streams = [_stream(seed, kind, j) for j in range(count)]
    blocks = [(start, stop, V.copy()) for start, stop, V in
              _slot_blocks(streams, paths, processes._block_paths(paths, count), normal)]
    assert [b[:2] for b in blocks] == \
        [(a, min(a + processes._PATH_BLOCK, paths))
         for a in range(0, paths, processes._PATH_BLOCK)]
    return np.vstack([V for _, _, V in blocks])


def explicit_set(*values: float) -> om.IndexSet:
    return om.build_index_set(om.CoefficientSequence.explicit(values))


def uniform_setup(count: int, depth: int | None = None):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, count))
    u = om.make_measure(index, "uniform")
    sep = index.partition.separation_depth
    return index, u, sep if depth is None else min(depth, sep)


def mc_close(samples: np.ndarray, target: float, sigmas: float = 3.0) -> bool:
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    return abs(samples.mean() - target) <= sigmas * se + 1e-9


# ---------------------------------------------------------------------------
# pinned skeleton


def test_s_skeleton_examples():
    assert np.array_equal(om.s_skeleton(np.ones(4)), np.zeros(5))
    S = om.s_skeleton(np.array([1.0, -1.0, 1.0, -1.0]))
    assert np.array_equal(S, [0.0, 1.0, 0.0, 1.0, 0.0])


def test_s_skeleton_batches_and_validates():
    z = np.ones((3, 2, 4))
    assert om.s_skeleton(z).shape == (3, 2, 5)
    with pytest.raises(ValueError, match="four increments"):
        om.s_skeleton(np.ones(3))


def test_s_skeleton_pins_both_ends():
    rng = np.random.default_rng(0)
    S = om.s_skeleton(rng.standard_normal((100, 4)))
    assert np.allclose(S[:, 0], 0.0)
    assert np.allclose(S[:, 4], 0.0, atol=1e-12)


def test_s_skeleton_increment_identity_exhaustive():
    outcomes = [om.s_skeleton(np.array(signs, dtype=float))
                for signs in itertools.product((1.0, -1.0), repeat=4)]
    stack = np.stack(outcomes)
    for l in range(5):
        for m in range(5):
            second = float(np.mean((stack[:, l] - stack[:, m]) ** 2))
            gap = abs(l - m)
            assert second == pytest.approx(gap * (1.0 - gap / 4.0), abs=1e-12)


# ---------------------------------------------------------------------------
# skeleton variables


def test_skeleton_variables_even_pair_example():
    sk = om.build_skeleton_variables([0.4, 0.1, 0.4, 0.1], {0})
    assert sk.n == 3
    assert sk.pair == (0, 2)
    assert sk.x == pytest.approx(math.sqrt(1.25), abs=1e-15)
    assert sk.y == pytest.approx(-math.sqrt(1.25), abs=1e-15)
    assert sk.v == pytest.approx(0.25 * math.sqrt(0.2), abs=1e-15)


def test_skeleton_variables_half_half_example():
    sk = om.build_skeleton_variables([0.5, 0.0, 0.5, 0.0], {2})
    assert (sk.n, sk.pair, sk.x, sk.y, sk.v) == (3, (0, 2), 1.0, -1.0, 0.125)


def test_skeleton_variables_odd_pair_flips_signs():
    sk = om.build_skeleton_variables([0.1, 0.4, 0.1, 0.4], {1})
    assert sk.n == 2
    assert sk.pair == (1, 3)
    assert sk.x == pytest.approx(-math.sqrt(1.25), abs=1e-15)
    assert sk.y == pytest.approx(math.sqrt(1.25), abs=1e-15)
    assert sk.v == pytest.approx(0.25 * math.sqrt(0.2), abs=1e-15)


def test_skeleton_variables_even_pair_takes_precedence():
    sk = om.build_skeleton_variables([0.25, 0.25, 0.25, 0.25], {1, 2})
    assert sk.pair == (0, 2)
    assert sk.n == 3


def test_skeleton_variables_no_good_children():
    sk = om.build_skeleton_variables([0.25, 0.25, 0.25, 0.25], set())
    assert sk.n is None
    assert sk.pair == ()
    assert sk.v == 0.0


def test_skeleton_variables_degenerate_pair_falls_back():
    with pytest.warns(RuntimeWarning, match="zero-probability atom"):
        sk = om.build_skeleton_variables([0.5, 0.25, 0.0, 0.25], {0})
    assert sk.n is None
    assert sk.v == 0.0


def test_skeleton_variables_validation():
    with pytest.raises(ValueError, match="four child masses"):
        om.build_skeleton_variables([0.5, 0.5], set())
    with pytest.raises(ValueError, match="nonnegative"):
        om.build_skeleton_variables([0.5, -0.1, 0.3, 0.3], set())
    with pytest.raises(ValueError, match="vanish"):
        om.build_skeleton_variables([0.0, 0.0, 0.0, 0.0], set())
    with pytest.raises(ValueError, match="child positions"):
        om.build_skeleton_variables([0.25] * 4, {4})


def test_skeleton_variables_rejects_bad_selector_laws():
    with pytest.raises(ValueError, match="four atoms"):
        om.SkeletonVariables(probs=[0.5, 0.5], n=None, x=0.0, y=0.0, pair=(), v=0.0)
    for probs in ([0.5, 0.5, 0.5, 0.5], [1.5, -0.5, 0.0, 0.0]):
        with pytest.raises(ValueError, match="probability vector"):
            om.SkeletonVariables(probs=probs, n=None, x=0.0, y=0.0, pair=(), v=0.0)


@pytest.mark.parametrize("masses, good, n, x, y", [
    ([0.5, 0.0, 0.5, 0.0], {0}, 3, 1.0, -1.0),
    ([0.0, 0.5, 0.0, 0.5], {3}, 2, -1.0, 1.0),
    ([0.25, 0.0, 0.75, 0.0], {0, 1}, 3, math.sqrt(3.0), -math.sqrt(1.0 / 3.0)),
], ids=["even", "odd", "even-over-empty-odd"])
def test_skeleton_variables_zero_atoms_outside_the_good_pair(masses, good, n, x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only a zero atom inside the pair warns
        sk = om.build_skeleton_variables(masses, good)
    assert (sk.n, sk.pair) == (n, (3 - n, 5 - n))
    assert (sk.x, sk.y) == pytest.approx((x, y), abs=1e-15)


def test_enumerate_outcomes_skips_zero_probability_selectors():
    sk = om.build_skeleton_variables([0.5, 0.0, 0.5, 0.0], {0})
    outcomes = sk.enumerate_outcomes()
    assert {tau for _, tau, _ in outcomes} == {0, 2}
    assert len(outcomes) == 2 * 2 ** 3  # two atoms times the free signs of three slots
    assert sum(p for p, _, _ in outcomes) == 1.0


def enumeration_moments(sk: om.SkeletonVariables):
    outcomes = sk.enumerate_outcomes()
    total = sum(p for p, _, _ in outcomes)
    mean = sum(p * z for p, _, z in outcomes)
    second = sum(p * z ** 2 for p, _, z in outcomes)
    return total, mean, second


@pytest.mark.parametrize("seed", range(25))
def test_skeleton_increments_centered_unit_variance(seed):
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(4))
    flags = om.good_children(masses)
    good = {j for j in range(4) if flags[j]}
    if seed % 3 == 1:
        good = {0} if masses[2] > 0 else good
    elif seed % 3 == 2:
        good = {1} if masses[3] > 0 else good
    sk = om.build_skeleton_variables(masses, good)
    total, mean, second = enumeration_moments(sk)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(mean, 0.0, atol=1e-12)
    assert np.allclose(second, 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_skeleton_guarantee_matches_negative_part(seed):
    rng = np.random.default_rng(1000 + seed)
    masses = rng.dirichlet(np.ones(4))
    good = {0} if seed % 2 == 0 else {1}
    sk = om.build_skeleton_variables(masses, good)
    assert sk.n is not None
    neg_part = sum(p * max(-z[sk.n], 0.0) for p, _, z in sk.enumerate_outcomes())
    assert sk.v == pytest.approx(0.25 * neg_part, abs=1e-12)


def test_skeleton_sampling_matches_law():
    # the five uniform slots one level of the adversarial sampler reads: the
    # child by inverse CDF, then the free signs, +1 below one half
    sk = om.build_skeleton_variables([0.4, 0.1, 0.4, 0.1], {0})
    U = draw(5, 20_000, 0, 5)
    cdf = np.cumsum(sk.probs)
    tau = np.minimum(np.searchsorted(cdf / cdf[-1], U[:, 0], side="right"), 3)
    z = sk.increments(tau, np.where(U[:, 1:] < 0.5, 1.0, -1.0))
    freq = np.bincount(tau, minlength=4) / tau.size
    err = 5.0 * np.sqrt(sk.probs * (1 - sk.probs) / tau.size)
    assert np.all(np.abs(freq - sk.probs) <= err + 1e-12)
    pinned = z[:, sk.n]
    assert np.all(np.isin(pinned[tau == 0], [sk.x]))
    assert np.all(np.isin(pinned[tau == 2], [sk.y]))
    assert np.all(pinned[(tau == 1) | (tau == 3)] == 0.0)
    free = np.delete(z, sk.n, axis=1)
    assert set(np.unique(free)) == {-1.0, 1.0}


def test_skeleton_increments_returns_a_copy():
    sk = om.build_skeleton_variables([0.25] * 4, set())
    free = np.ones(4)
    z = sk.increments(np.asarray(0), free)
    z[0] = 99.0
    assert free[0] == 1.0


# ---------------------------------------------------------------------------
# one-level second-moment oracle


def oracle_instance(seed: int):
    rng = np.random.default_rng(seed)
    level = int(rng.integers(1, 4))
    parent = int(rng.integers(0, 4 ** (level - 1)))
    masses = rng.dirichlet(np.ones(4))
    flags = om.good_children(masses)
    sk = om.build_skeleton_variables(masses, {j for j in range(4) if flags[j]})
    width = 4.0 ** (-(level - 1))
    left = parent * width
    return sk, level, parent, left, width


@pytest.mark.parametrize("seed", range(20))
def test_oracle_matches_closed_form(seed):
    sk, level, parent, left, width = oracle_instance(seed)
    rng = np.random.default_rng(10_000 + seed)
    for s, t in rng.uniform(left, left + width, size=(8, 2)):
        d = abs(s - t)
        want = d * (1.0 - 4.0 ** (level - 1) * d)
        got = om.second_moment_oracle(sk, level, parent, float(s), float(t))
        assert got == pytest.approx(want, abs=1e-12)


def test_oracle_parent_endpoints_are_identified():
    sk, level, parent, left, width = oracle_instance(3)
    assert om.second_moment_oracle(sk, level, parent, left, left + width) == \
        pytest.approx(0.0, abs=1e-12)
    assert om.second_moment_oracle(sk, level, parent, left, left) == 0.0


def test_oracle_same_child_pairs():
    sk = om.build_skeleton_variables([0.25] * 4, {0, 1, 2, 3})
    s, t = 0.26, 0.30
    d = abs(s - t)
    got = om.second_moment_oracle(sk, 1, 0, s, t)
    assert got == pytest.approx(d * (1.0 - d), abs=1e-12)


def test_oracle_rejects_bad_arguments():
    sk = om.build_skeleton_variables([0.25] * 4, set())
    with pytest.raises(ValueError, match="level 1 or deeper"):
        om.second_moment_oracle(sk, 0, 0, 0.1, 0.2)
    with pytest.raises(om.DomainError, match="outside the parent"):
        om.second_moment_oracle(sk, 2, 0, 0.1, 0.5)


# ---------------------------------------------------------------------------
# bridge leaves


def bridge_covariance(b) -> np.ndarray:
    """The leaf's closed-form covariance over its positive-coordinate points."""
    return _bridge_covariance(b.local[:, None], b.local, b.level)


def test_bridge_factorization_and_covariance():
    index, _, _ = uniform_setup(12)
    starts, keys = index.partition.cell_arrays(1)
    for key, start, stop in zip(keys, starts, np.r_[starts[1:], len(index)]):
        b = _build_bridge(1, int(key), index.points, int(start), int(stop))
        cov = bridge_covariance(b)
        # the recursion's implied factor, L[k, j] = sigma[j] a[j+1] ... a[k]
        factor = b.values(np.eye(b.dim)).T
        assert np.array_equal(np.tril(factor), factor)
        assert np.array_equal(np.diag(factor), b.sigma)
        assert np.allclose(factor @ factor.T, cov, atol=1e-10)
        assert np.all(b.sigma > 0.0)  # distinct points: no degenerate step
        assert np.all(np.diag(cov) >= -1e-15)


def test_bridge_pins_left_endpoint_points():
    index = explicit_set(0.5)
    starts, keys = index.partition.cell_arrays(1)
    assert (starts[0], starts[1], keys[0]) == (0, 1, 0)
    b = _build_bridge(1, 0, index.points, 0, 1)
    assert b.positions.tolist() == [] and b.dim == 0
    rng = np.random.default_rng(0)
    draws = b.values(rng.standard_normal((50, b.dim)))
    assert draws.shape == (50, 0)


def test_bridge_sample_varies_at_interior_points():
    index = explicit_set(0.1, 0.1, 0.1)
    assert index.partition.cell_arrays(0)[0].tolist() == [0]
    b = _build_bridge(0, 0, index.points, 0, len(index))
    assert b.positions.tolist() == [1, 2, 3]  # point 0, on the left endpoint, is pinned
    rng = np.random.default_rng(1)
    draws = b.values(rng.standard_normal((200, b.dim)))
    assert draws.shape == (200, 3)
    assert np.all(draws.std(axis=0) > 0)


def test_bridge_duplicated_coordinates_get_equal_values():
    # duplicated coordinates make the covariance exactly singular; the
    # recursion takes a step of zero variance and copies the value
    points = np.array([0.0, 0.2, 0.2, 0.3])
    b = _build_bridge(0, 0, points, 0, 4)
    assert (b.sigma[1], b.a[1]) == (0.0, 1.0)
    assert b.sigma[0] > 0.0 and b.sigma[2] > 0.0
    draws = b.values(np.random.default_rng(5).standard_normal((200, b.dim)))
    assert draws[:, 0].tobytes() == draws[:, 1].tobytes()
    factor = b.values(np.eye(b.dim)).T
    assert np.allclose(factor @ factor.T, bridge_covariance(b), atol=1e-10)


def test_bridge_leaves_store_one_number_per_point():
    # a dense dim x dim factor would hold dim**2 numbers
    index, u, depth = uniform_setup(64, depth=3)
    w = np.random.default_rng(2).dirichlet(np.full(len(index), 0.5))
    w[::5] = 0.0
    for m, base_depth in ((u, depth), (u, 1), (om.DiscreteMeasure.explicit(index, w), 2)):
        adv = om.AdversarialSampler(m, base_depth)
        assert max(b.dim for b in adv.bridges) > 1
        for b in adv.bridges:
            for arr in vars(b).values():  # the leaf's fields
                if isinstance(arr, np.ndarray):
                    assert arr.ndim == 1 and arr.size == b.dim
            assert b.a.size == b.sigma.size == b.local.size == b.dim


def test_bridge_empirical_covariance():
    points = np.array([0.0, 0.05, 0.11, 0.18])
    b = _build_bridge(0, 0, points, 0, 4)
    rng = np.random.default_rng(7)
    draws = b.values(rng.standard_normal((PATHS, b.dim)))
    emp = draws.T @ draws / PATHS
    assert np.allclose(emp, bridge_covariance(b), atol=4.0 / math.sqrt(PATHS))


def test_bridge_values_do_not_depend_on_the_row_count():
    # one 41-point bridge, as in the default pipeline's largest leaf; a
    # BLAS product rounds rows differently for different row counts
    points = np.r_[0.0, np.sort(np.random.default_rng(3).random(41))]
    b = _build_bridge(0, 0, points, 0, points.size)
    assert b.dim == 41
    z = np.random.default_rng(4).standard_normal((b.dim, 5_000)).T
    full = b.values(z)
    assert np.allclose(full, z @ np.linalg.cholesky(bridge_covariance(b)).T, rtol=0, atol=1e-12)
    for n in [*range(1, 70), 128, 1000, 4096]:
        assert b.values(z[:n]).tobytes() == full[:n].tobytes()
        assert b.values(np.ascontiguousarray(z[-n:])).tobytes() == full[-n:].tobytes()


# ---------------------------------------------------------------------------
# adversarial sampler


def test_adversarial_value_at_zero_is_zero():
    index, u, depth = uniform_setup(9, depth=2)
    sampler = om.build_adversarial_process(u, depth)
    vals = sampler.sample(500, 3)
    assert vals.shape == (500, index.points.size)
    assert np.array_equal(vals[:, 0], np.zeros(500))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_adversarial_increment_second_moments(depth):
    index, u, depth = uniform_setup(9, depth=depth)
    sampler = om.build_adversarial_process(u, depth)
    vals = sampler.sample(PATHS, 11)
    rng = np.random.default_rng(5)
    pts = index.points
    for _ in range(8):
        i, j = rng.choice(pts.size, size=2, replace=False)
        sq = (vals[:, i] - vals[:, j]) ** 2
        assert mc_close(sq, sampler.second_moment(pts[i], pts[j]))


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("lift", [False, True])
def test_adversarial_sampler_reads_only_what_it_wrote(depth, lift, nan_empty):
    # the root level writes every point of a block without a zero fill;
    # with every np.empty of the sampler NaN-filled, a point it missed
    # would turn NaN.  Zero weights leave cells that no path reaches.
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 40))
    w = np.random.default_rng(3).dirichlet(np.full(len(index), 0.5))
    w[::7] = 0.0
    sampler = om.AdversarialSampler(om.DiscreteMeasure.explicit(index, w), depth)
    if lift:
        sampler = om.OrthogonalLift(sampler)
    expected = sampler.sample(300, 4).tobytes()
    nan_empty(processes)
    assert sampler.sample(300, 4).tobytes() == expected


def test_adversarial_build_reads_the_array_law_only(monkeypatch):
    # each level's law comes from one _skeleton_law call over its reached rows
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 40))
    w = np.random.default_rng(3).dirichlet(np.full(len(index), 0.5))
    w[::7] = 0.0
    m = om.DiscreteMeasure.explicit(index, w)
    expected = om.AdversarialSampler(m, 5).sample(300, 4).tobytes()

    def refuse(*args):
        raise AssertionError("the sampler builds no SkeletonVariables")

    monkeypatch.setattr(processes, "build_skeleton_variables", refuse)
    assert om.AdversarialSampler(m, 5).sample(300, 4).tobytes() == expected


def test_adversarial_determinism_across_workers_and_rebuilds():
    _, u, depth = uniform_setup(9, depth=2)
    a = om.build_adversarial_process(u, depth).sample(300, 9)
    b = om.build_adversarial_process(u, depth).sample(300, 9)
    assert np.array_equal(a, b)
    c = om.build_adversarial_process(u, depth).sample(300, 10)
    assert not np.array_equal(a, c)


def test_adversarial_seed_and_path_validation():
    _, u, depth = uniform_setup(4, depth=1)
    sampler = om.build_adversarial_process(u, depth)
    with pytest.raises(TypeError, match="seed"):
        sampler.sample(100)
    with pytest.raises(ValueError, match="nonnegative seed"):
        sampler.sample(100, -1)
    with pytest.raises(ValueError, match="path"):
        sampler.sample(0, seed=1)
    with pytest.raises(ValueError, match="path"):  # at the call, with no stream to read
        _slot_blocks([], 0, 1, False)


def test_adversarial_depth_clip_warning():
    _, u, sep = uniform_setup(4)
    with pytest.warns(RuntimeWarning, match="exceeds partition depth"):
        sampler = om.build_adversarial_process(u, sep + 2)
    assert sampler.base_depth == sep


def test_adversarial_point_mass_measure():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    sampler = om.build_adversarial_process(pm, 1)
    vals = sampler.sample(PATHS, 2)
    assert np.array_equal(vals[:, 0], np.zeros(PATHS))
    assert mc_close(vals[:, 1] ** 2, 0.25 * (1.0 - 0.25))


@pytest.mark.parametrize("depth", [512, 537])
def test_adversarial_past_float_levels(depth):
    # one node per level: 537 levels once overflowed the recursion limit,
    # 4.0**512 the bridge covariance and keys past 2**1024 the endpoints
    index = om.IndexSet(points=[0.0, 5e-324, 1e-310, 0.5], scale=1.0, raw_total=0.5)
    u = om.make_measure(index, "uniform")
    sampler = om.build_adversarial_process(u, depth)
    assert sampler.base_depth == depth
    vals = sampler.sample(2_000, 3)
    assert vals.shape == (2_000, 4) and np.all(np.isfinite(vals))
    assert np.array_equal(vals[:, 0], np.zeros(2_000))
    pts = index.points
    for i, j in ((0, 3), (1, 3), (2, 3)):
        sq = (vals[:, i] - vals[:, j]) ** 2
        assert mc_close(sq, sampler.second_moment(pts[i], pts[j]))


def test_adversarial_sample_keeps_one_segment_temporary():
    # the root segment spans every point; building it in place keeps one
    # paths x points temporary beside the value matrix, not two
    _, u, _ = uniform_setup(64)
    sampler = om.build_adversarial_process(u, 3)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        vals = sampler.sample(20_000, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 4.2 * vals.nbytes


# ---------------------------------------------------------------------------
# orthogonal lift


def test_lift_pairs_paths_with_inner_sampler():
    index, u, depth = uniform_setup(9, depth=2)
    inner = om.build_adversarial_process(u, depth)
    lift = om.OrthogonalLift(inner)
    assert lift.n_normal_slots == inner.n_normal_slots + 1
    X = lift.sample(1_000, 21)
    Y = inner.sample(1_000, 21)
    diff = X - Y
    pts = index.points
    ratio = diff[:, 1:] / pts[None, 1:]
    assert np.allclose(ratio, ratio[:, :1], atol=1e-10)
    assert np.array_equal(diff[:, 0], np.zeros(1_000))


def test_lift_term_is_not_the_gaussian_generators_first_term():
    # pipeline gives its chaining and lower-bound checks one seed, so the
    # lift's linear term must not be phi_1 of the Gaussian partial sums
    index, u, _ = uniform_setup(8)
    inner = om.build_adversarial_process(u, 3)
    lift = om.OrthogonalLift(inner)
    term = (lift.sample(6, 11) - inner.sample(6, 11))[:, -1] / index.points[-1]
    phi_1 = om.OrthonormalGenerator("gaussian").sample_matrix(8, 6, 11)[:, 0]
    assert not np.isclose(term, phi_1).any()
    assert np.allclose(term, _stream(11, 3, 0).standard_normal(6))


def test_lift_increment_second_moments():
    index, u, depth = uniform_setup(9, depth=2)
    lift = om.OrthogonalLift(om.build_adversarial_process(u, depth))
    vals = lift.sample(PATHS, 22)
    pts = index.points
    rng = np.random.default_rng(6)
    for _ in range(8):
        i, j = rng.choice(pts.size, size=2, replace=False)
        sq = (vals[:, i] - vals[:, j]) ** 2
        assert lift.second_moment(pts[i], pts[j]) == abs(pts[i] - pts[j])
        assert mc_close(sq, abs(pts[i] - pts[j]))


def test_lift_dominates_inner_supremum():
    _, u, depth = uniform_setup(9, depth=2)
    inner = om.build_adversarial_process(u, depth)
    lift = om.OrthogonalLift(inner)
    X = lift.sample(PATHS, 23)
    Y = inner.sample(PATHS, 23)
    paired = X.max(axis=1) - Y.max(axis=1)
    se = paired.std(ddof=1) / math.sqrt(paired.size)
    assert paired.mean() >= -3.0 * se


# ---------------------------------------------------------------------------
# variate streams


def test_draws_do_not_depend_on_path_count():
    for kind, count, normal in ((0, 3, False), (1, 4, True), (4, 3, False)):
        V = draw(17, 9_000, kind, count, normal)
        assert np.array_equal(V, draw(17, 20_000, kind, count, normal)[:9_000])


def test_extra_slots_keep_existing_columns():
    for kind, normal in ((0, False), (1, True), (4, False)):
        V = draw(17, 500, kind, 3, normal)
        assert np.array_equal(V, draw(17, 500, kind, 3 + 5, normal)[:, :3])


def test_each_slot_reads_its_own_stream():
    U, Z, W = draw(17, 500, 0, 2), draw(17, 500, 1, 2, True), draw(17, 500, 4, 2)

    def stream(*key):
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))

    for j in range(2):
        assert np.array_equal(U[:, j], stream(17, 0, j).random(500))
        assert np.array_equal(Z[:, j], stream(17, 1, j).standard_normal(500))
        assert np.array_equal(W[:, j], stream(17, 4, j).random(500))
        # the kinds of slot j are not one stream read twice
        assert not np.array_equal(U[:, j], stream(17, 1, j).random(500))
    U2, Z2, W2 = draw(18, 500, 0, 2), draw(18, 500, 1, 2, True), draw(18, 500, 4, 2)
    assert not np.any(U == U2) and not np.any(Z == Z2) and not np.any(W == W2)
    cols = np.hstack([U, Z, W])
    assert len({c.tobytes() for c in cols.T}) == 6


def test_slot_columns_coarse_moments():
    paths = 20_000
    U, Z = draw(29, paths, 0, 32), draw(29, paths, 1, 32, True)
    std = np.hstack([(U - 0.5) * math.sqrt(12.0), Z])
    assert std.shape == (paths, 64)
    assert np.all(np.abs(std.mean(axis=0)) <= 5.0 / math.sqrt(paths))
    corr = np.corrcoef(std, rowvar=False)
    off = np.abs(corr[~np.eye(64, dtype=bool)])
    assert off.max() < 5.0 / math.sqrt(paths)


def test_stream_read_in_chunks_equals_one_bulk_read():
    for method in ("random", "standard_normal"):
        bulk = getattr(_stream(23, 1, 4), method)(10_000)
        g = _stream(23, 1, 4)
        parts = [getattr(g, method)(n) for n in (1, 7, 64, 4096, 5832)]
        assert np.concatenate(parts).tobytes() == bulk.tobytes()


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_block_reader_equals_bulk_streams(monkeypatch, block):
    monkeypatch.setattr(processes, "_PATH_BLOCK", block)
    U, Z = draw(31, 300, 0, 2), draw(31, 300, 1, 3, True)
    for j in range(2):
        assert U[:, j].tobytes() == _stream(31, 0, j).random(300).tobytes()
    for j in range(3):
        assert Z[:, j].tobytes() == _stream(31, 1, j).standard_normal(300).tobytes()


def test_seed_sequence_pads_keys_and_splits_wide_seeds():
    # why _stream refuses seeds outside [0, 2**32): SeedSequence pads a key
    # to four words with zeros and splits an integer into 32-bit words
    def state(*key):
        return np.random.SeedSequence(key).generate_state(4).tolist()

    assert state(11, 1, 5) == state(11, 1, 5, 0)
    assert state(2 ** 32 + 5, 1, 3) == state(5, 1, 1, 3)


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 2 ** 32 + 5])
def test_seeds_outside_32_bits_are_refused(seed):
    _, u, depth = uniform_setup(4, depth=1)
    lift = om.OrthogonalLift(om.build_adversarial_process(u, depth))
    # base depth 0 on a one-point set opens no stream at all
    point = om.AdversarialSampler(om.make_measure(om.IndexSet([0.0], 1.0, 0.0), "uniform"), 0)
    for call in (lambda: _stream(seed, 0, 0),
                 lambda: _slots(seed, 0, 0),
                 lambda: lift.sample(10, seed),
                 lambda: om.AdversarialSampler(u, 0).sample(10, seed),
                 lambda: point.sample(10, seed),
                 lambda: om.lower_bound_report(u, 1, 10, seed),
                 lambda: om.verify_chaining_bound(u, om.OrthonormalGenerator(), 10, seed),
                 lambda: om.OrthonormalGenerator().sample_matrix(2, 10, seed)):
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            call()
    assert _stream(2 ** 32 - 1, 0, 0).random() >= 0.0


def test_stream_keys_of_a_deep_pipeline_run_are_distinct(monkeypatch, tmp_path):
    # geometric(0.5, 40) separates at a depth past 16, where cell keys need
    # two 32-bit words; every key the run reads must seed its own state
    from orthomm import cli

    keys = set()
    original = processes._stream

    def recording(seed, kind, *key):
        keys.add((seed, kind, *key))
        return original(seed, kind, *key)

    monkeypatch.setattr(processes, "_stream", recording)
    coeffs = '{"kind": "geometric", "ratio": 0.5, "count": 40}'
    # the lift's linear term is kind 3, the non-Gaussian generators' uniforms kind 4
    for generator, kinds in (("gaussian", {0, 1, 2, 3}), ("rademacher", {0, 2, 3, 4}),
                             ("trig", {0, 2, 3, 4})):
        keys.clear()
        assert cli.main(["pipeline", "--coeffs", coeffs, "--seed", str(2 ** 32 - 1),
                         "--paths", "300", "--adversarial-depth", "40",
                         "--generator", generator, "--out", str(tmp_path / "r.json")]) == 0
        bridge_keys = [k for k in keys if k[1] == 2]
        assert max(k[2] for k in bridge_keys) >= 2 ** 32
        assert {k[1] for k in keys} == kinds
        states = {np.random.SeedSequence(k).generate_state(4).tobytes() for k in keys}
        assert len(states) == len(keys)


@pytest.mark.parametrize("generator", ["gaussian", "rademacher", "trig"])
def test_pipeline_checks_read_disjoint_streams(monkeypatch, tmp_path, generator):
    # pipeline runs its chaining check and its lower-bound check from one
    # seed; they are independent only if they share no stream
    from orthomm import cli

    stage, keys = [None], {"chaining": set(), "lower_bound": set()}
    original = processes._stream

    def recording(seed, kind, *key):
        keys[stage[0]].add((seed, kind, *key))
        return original(seed, kind, *key)

    def labelled(name, check):
        def run(*args):
            stage[0] = name
            return check(*args)
        return run

    monkeypatch.setattr(processes, "_stream", recording)
    monkeypatch.setattr(cli, "verify_chaining_bound",
                        labelled("chaining", cli.verify_chaining_bound))
    monkeypatch.setattr(cli, "lower_bound_report",
                        labelled("lower_bound", cli.lower_bound_report))
    assert cli.main(["pipeline", "--seed", "11", "--paths", "200", "--generator", generator,
                     "--out", str(tmp_path / "r.json")]) == 0
    assert keys["chaining"] and keys["lower_bound"]
    assert not keys["chaining"] & keys["lower_bound"]


# ---------------------------------------------------------------------------
# path blocks


def sparse_measure(count: int = 40, seed: int = 2) -> om.DiscreteMeasure:
    index = om.build_index_set(om.CoefficientSequence.power(1.0, count))
    w = np.random.default_rng(seed).dirichlet(np.full(len(index), 0.5))
    w[::7] = 0.0  # some cells of zero mass, which no path enters
    return om.DiscreteMeasure.explicit(index, w)


def chaining_stats(paths: int, seed: int) -> list[bytes]:
    a = om.CoefficientSequence.power(1.0, 12).values
    return [np.maximum(hi ** 2, lo ** 2).tobytes()
            for hi, lo in (_partial_sum_extremes(a, om.OrthonormalGenerator(kind), paths, seed)
                           for kind in ("gaussian", "rademacher", "trigonometric"))]


def test_values_do_not_depend_on_the_block_size(monkeypatch):
    lift = om.OrthogonalLift(om.AdversarialSampler(sparse_measure(), 4))
    runs = []
    for block in (1, 7, processes._PATH_BLOCK):
        monkeypatch.setattr(processes, "_PATH_BLOCK", block)
        runs.append((lift.inner.sample(600, 13).tobytes(), lift.sample(600, 13).tobytes(),
                     chaining_stats(600, 13)))
    assert runs[0] == runs[1] == runs[2]


def test_values_do_not_depend_on_a_block_set_by_the_entries_budget(monkeypatch):
    # 300 entries make blocks of 7 paths for 41 points and of 25 for 12
    # terms, far below the path cap; the lift still reads its normal slot in
    # the adversarial sampler's blocks, though its own slots would allow more
    lift = om.OrthogonalLift(om.AdversarialSampler(sparse_measure(), 4))
    whole = (lift.inner.sample(600, 13).tobytes(), lift.sample(600, 13).tobytes(),
             chaining_stats(600, 13))
    monkeypatch.setattr(processes, "_BLOCK_ENTRIES", 300)
    assert lift._block(600) == lift.inner._block(600) == 7
    assert processes._block_paths(600, 12) == 25
    assert (lift.inner.sample(600, 13).tobytes(), lift.sample(600, 13).tobytes(),
            chaining_stats(600, 13)) == whole


def test_first_paths_do_not_depend_on_the_path_count():
    lift = om.OrthogonalLift(om.AdversarialSampler(sparse_measure(), 4))
    n = processes._PATH_BLOCK + 905  # the 2n run splits the n paths differently
    short, long = lift.sample(n, 5), lift.sample(2 * n, 5)
    assert short.tobytes() == long[:n].tobytes()
    assert chaining_stats(n, 5) == [s[:8 * n] for s in chaining_stats(2 * n, 5)]


def test_lower_bound_statistic_is_the_lift_supremum(monkeypatch):
    m = sparse_measure()
    seen = []
    from_samples = om.MCEstimate.from_samples.__func__
    monkeypatch.setattr(om.MCEstimate, "from_samples", classmethod(
        lambda cls, samples, seed: seen.append(samples) or from_samples(cls, samples, seed)))
    rep = om.lower_bound_report(m, 3, 5_000, 7)
    lift = om.OrthogonalLift(om.build_adversarial_process(m, 3))
    assert seen[0].tobytes() == ((lift.sample(5_000, 7) ** 2).max(axis=1)).tobytes()
    assert rep.estimate.paths == 5_000


def path_major_rows(kind: str, terms: int, paths: int, seed: int) -> np.ndarray:
    """phi of every path, one row per path, from the stacked blocks."""
    if kind == "gaussian":
        return draw(seed, paths, 1, terms, True)
    # the Rademacher and trigonometric generators read uniform slots of kind 4
    U = draw(seed, paths, 4, om.OrthonormalGenerator(kind).uniform_slots(terms))
    if kind == "rademacher":
        return np.where(U[:, :terms] < 0.5, 1.0, -1.0)
    freq = np.arange(1, terms + 1)
    return math.sqrt(2.0) * np.cos(2.0 * math.pi * U[:, :1] * freq[None, :])


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize("terms", [1, 40, 64])
@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "trigonometric"])
def test_running_extremes_match_path_major_partial_sums(monkeypatch, kind, terms, block):
    monkeypatch.setattr(processes, "_PATH_BLOCK", block)
    a = om.CoefficientSequence.power(1.0, terms).values
    partial = np.cumsum(path_major_rows(kind, terms, 300, 3) * a, axis=1)
    hi, lo = _partial_sum_extremes(a, om.OrthonormalGenerator(kind), 300, 3)
    assert np.maximum(hi ** 2, lo ** 2).tobytes() == (partial ** 2).max(axis=1).tobytes()
    top = np.maximum(partial.max(axis=1), 0.0)
    bottom = np.minimum(partial.min(axis=1), 0.0)
    assert ((hi - lo) ** 2).tobytes() == ((top - bottom) ** 2).tobytes()


def test_running_extremes_include_zero():
    # the paths whose signs all agree have partial sums of one sign only
    a = np.array([0.5, 0.25, 0.125])
    phi = path_major_rows("rademacher", 3, 400, 9)
    hi, lo = _partial_sum_extremes(a, om.OrthonormalGenerator("rademacher"), 400, 9)
    neg, pos = (phi < 0).all(axis=1), (phi > 0).all(axis=1)
    assert neg.any() and pos.any()
    assert np.all(hi[neg] == 0.0) and np.all(lo[neg] == -0.875)
    assert np.all(lo[pos] == 0.0) and np.all(hi[pos] == 0.875)


def test_sampler_blocks_map_columns_to_paths(monkeypatch):
    monkeypatch.setattr(processes, "_PATH_BLOCK", 97)
    adv = om.AdversarialSampler(sparse_measure(), 3)
    values = adv.sample(600, 13)
    blocks = 0
    for start, stop, vals, order in adv._blocks(600, 13):
        assert np.array_equal(np.sort(order), np.arange(stop - start))
        assert vals.T.tobytes() == values[start:stop][order].tobytes()
        blocks += 1
    assert blocks == 7


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_monte_carlo_checks_hold_no_paths_by_points_matrix():
    # the default pipeline's sizes: P = 65 points, 100k paths
    seq = om.CoefficientSequence.power(1.0, 64)
    index = om.build_index_set(seq)
    m = om.make_measure(index, "uniform")
    matrix = 100_000 * len(index) * 8  # 52 MB
    lower = traced_peak(lambda: om.lower_bound_report(m, 3, 100_000, 11))
    chain = traced_peak(lambda: om.verify_chaining_bound(
        m, om.OrthonormalGenerator(), 100_000, 11))
    # a few blocks of 4096 rows and the per-path statistics: about 12 and 7 MB
    assert lower < matrix / 3 and chain < matrix / 3


def test_bridge_suite_memory_grows_only_with_its_increments():
    # P = 257: 4096 more paths would add 8 MB of paths x points matrix, but
    # only 20 squared increments per path, 0.6 MB, to the suite
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 256))
    m = om.make_measure(index, "uniform")
    short, long = (traced_peak(lambda: checks.suite_bridge(m, paths, 11))
                   for paths in (4096, 8192))
    assert long - short < 4096 * len(index) * 8 / 4


@pytest.mark.parametrize("count", [256, 2048])
def test_monte_carlo_memory_is_bounded_in_the_point_count(count):
    # a block holds at most _BLOCK_ENTRIES entries of its widest row (8 MiB),
    # so each stage holds a few block arrays whatever P, plus its per-path
    # statistics; 4096-path blocks of 2049 points took 255 MB for the lower
    # bound and 128 MB for the cosine partial sums
    index = om.build_index_set(om.CoefficientSequence.power(1.0, count))
    m = om.make_measure(index, "uniform")
    paths = 4096
    block, stats = 8 * processes._BLOCK_ENTRIES, 8 * paths
    assert traced_peak(lambda: om.lower_bound_report(m, 3, paths, 11)) < 3 * block + 4 * stats
    # 20 squared increments a path, one sampler's at a time
    assert traced_peak(lambda: checks.suite_bridge(m, paths, 11)) < 3 * block + 20 * stats
    for kind in ("gaussian", "rademacher", "trigonometric"):
        assert traced_peak(lambda: _partial_sum_extremes(
            index.coeffs.values, om.OrthonormalGenerator(kind), paths, 11)) < 2 * block + 4 * stats


def test_bridge_suite_holds_one_samplers_increments_at_a_time():
    # each sampler's (pairs, paths) squared increments are reduced to their
    # means and standard errors before the next sampler fills its own
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    m = om.make_measure(index, "uniform")
    paths, pairs = 100_000, 10
    peak = traced_peak(lambda: checks.suite_bridge(m, paths, 11, pairs=pairs))
    assert peak < 2 * pairs * paths * 8


# ---------------------------------------------------------------------------
# orthonormal generators


def test_generator_kinds_and_aliases():
    assert om.OrthonormalGenerator("trig").kind == "trigonometric"
    assert om.OrthonormalGenerator("iid_gaussian").kind == "gaussian"
    with pytest.raises(ValueError, match="unknown generator kind"):
        om.OrthonormalGenerator("fourier")


def test_generator_slot_counts():
    assert om.OrthonormalGenerator("gaussian").normal_slots(6) == 6
    assert om.OrthonormalGenerator("gaussian").uniform_slots(6) == 0
    assert om.OrthonormalGenerator("rademacher").uniform_slots(6) == 6
    assert om.OrthonormalGenerator("trigonometric").uniform_slots(6) == 1


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "trigonometric"])
def test_generator_rows_are_orthonormal(kind):
    gen = om.OrthonormalGenerator(kind)
    phi = gen.sample_matrix(6, PATHS, seed=11)
    gram = phi.T @ phi / PATHS
    assert np.allclose(gram, np.eye(6), atol=5.0 / math.sqrt(PATHS))


def test_rademacher_rows_are_signs():
    phi = om.OrthonormalGenerator("rademacher").sample_matrix(4, 200, seed=0)
    assert set(np.unique(phi)) == {-1.0, 1.0}


def test_trigonometric_rows_shared_frequency():
    phi = om.OrthonormalGenerator("trigonometric").sample_matrix(3, 500, seed=0)
    w = np.arccos(np.clip(phi[:, 0] / math.sqrt(2.0), -1.0, 1.0)) / (2 * math.pi)
    for n in (2, 3):
        expect = math.sqrt(2.0) * np.cos(2 * math.pi * n * w)
        assert np.allclose(np.abs(phi[:, n - 1]), np.abs(expect), atol=1e-8)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "trigonometric"])
def test_sample_matrix_keeps_every_block(monkeypatch, kind):
    # the block reader reads each block over the previous one
    monkeypatch.setattr(processes, "_PATH_BLOCK", 7)
    phi = om.OrthonormalGenerator(kind).sample_matrix(3, 30, seed=4)
    assert phi.tobytes() == path_major_rows(kind, 3, 30, seed=4).tobytes()


# ---------------------------------------------------------------------------
# supremum simulation and bound checks


def test_mc_estimate_from_samples():
    est = om.MCEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]), seed=1)
    assert est.mean == 2.5
    assert est.stderr == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0, abs=1e-15)
    assert est.paths == 4


@pytest.mark.parametrize("n", [0, 1])
def test_mc_estimate_needs_two_samples(n):
    with pytest.raises(ValueError, match="at least two samples"):
        om.MCEstimate.from_samples(np.ones(n), seed=1)


def chaining_sup_square(values, kind: str, paths: int, seed: int) -> om.MCEstimate:
    """The chaining report's E max_m (a_1 phi_1 + ... + a_m phi_m)**2 for coefficients ``values``."""
    u = om.make_measure(explicit_set(*values), "uniform")
    return om.verify_chaining_bound(u, om.OrthonormalGenerator(kind), paths, seed).sup_square


def test_chaining_sup_square_two_sign_example():
    est = chaining_sup_square([0.5, 0.5], "rademacher", paths=PATHS, seed=4)
    assert abs(est.mean - 0.625) <= 3.0 * est.stderr


def test_chaining_sup_square_single_rademacher_term_is_exact():
    est = chaining_sup_square([1.0], "rademacher", paths=500, seed=4)
    assert est.mean == 1.0
    assert est.stderr == 0.0


@pytest.mark.parametrize("kind", ["gaussian", "trigonometric"])
def test_chaining_sup_square_single_term_unit_mean(kind):
    est = chaining_sup_square([1.0], kind, paths=PATHS, seed=8)
    assert abs(est.mean - 1.0) <= 3.0 * est.stderr


def test_chaining_sup_square_needs_paths():
    with pytest.raises(ValueError, match="at least two samples"):
        chaining_sup_square([1.0], "gaussian", paths=1, seed=0)


def test_verify_chaining_bound_two_points():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    rep = om.verify_chaining_bound(u, om.OrthonormalGenerator("gaussian"),
                                   paths=PATHS, seed=6)
    assert not rep.skipped
    # seg / sqrt(m) = 0.5 / sqrt(0.5), 1 ulp below the correctly rounded 1/sqrt(2)
    assert rep.strong_value == 0.5 / math.sqrt(0.5)
    assert abs(rep.strong_value - math.sqrt(0.5)) <= math.ulp(math.sqrt(0.5))
    assert rep.bound == om.CHAINING_CONSTANT * rep.strong_value ** 2
    assert rep.margin == 3.0 * rep.estimate.stderr
    assert abs(rep.estimate.mean - 0.25) <= 3.0 * rep.estimate.stderr
    assert rep.passed
    doc = rep.to_json()
    assert doc["passed"] is True and doc["skipped"] is False


def test_verify_chaining_bound_fails_with_a_tiny_constant(monkeypatch):
    monkeypatch.setattr("orthomm.processes.CHAINING_CONSTANT", 1e-9)
    u = om.make_measure(explicit_set(0.5), "uniform")
    rep = om.verify_chaining_bound(u, om.OrthonormalGenerator("gaussian"),
                                   paths=2_000, seed=6)
    assert rep.bound == 1e-9 * rep.strong_value ** 2
    assert not rep.skipped and not rep.passed
    assert rep.to_json()["passed"] is False


def test_verify_chaining_bound_point_mass_is_skipped():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    rep = om.verify_chaining_bound(pm, om.OrthonormalGenerator(),
                                   paths=200, seed=1)
    assert rep.skipped and rep.passed
    assert math.isinf(rep.bound)
    assert rep.to_json()["bound"] is None


def test_adversarial_sampler_rejects_a_negative_base_depth():
    _, u, _ = uniform_setup(4, depth=1)
    with pytest.raises(ValueError, match="base depth must be nonnegative"):
        om.AdversarialSampler(u, -1)


def test_verify_chaining_bound_needs_coefficients():
    index = om.IndexSet(points=np.array([0.0, 0.25]), scale=1.0, raw_total=0.25)
    u = om.make_measure(index, "uniform")
    with pytest.raises(ValueError, match="index set built from coefficients"):
        om.verify_chaining_bound(u, om.OrthonormalGenerator(), paths=200, seed=1)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "trigonometric"])
def test_chaining_report_carries_the_sup_square_of_its_paths(kind):
    seq = om.CoefficientSequence.power(1.0, 9)
    u = om.make_measure(om.build_index_set(seq), "uniform")
    gen = om.OrthonormalGenerator(kind)
    rep = om.verify_chaining_bound(u, gen, paths=5000, seed=4)
    partial = np.cumsum(gen.sample_matrix(len(seq), 5000, 4) * seq.values, axis=1)
    assert rep.sup_square == om.MCEstimate.from_samples((partial ** 2).max(axis=1), 4)
    assert "sup_square" not in rep.to_json()


def test_lower_bound_report_uniform_four_grid():
    index = explicit_set(0.5, 0.5, 0.5)
    u = om.make_measure(index, "uniform")
    rep = om.lower_bound_report(u, base_depth=1, paths=5_000, seed=3)
    assert rep.filtered_sum == 1.0
    assert rep.threshold == om.LOWER_BOUND_FACTOR * math.sqrt(rep.estimate.mean) \
        + 3.0 * rep.estimate.stderr
    assert rep.passed
    assert rep.base_depth == 1


def test_lower_bound_report_fails_with_a_tiny_factor(monkeypatch):
    monkeypatch.setattr("orthomm.processes.LOWER_BOUND_FACTOR", 1e-9)
    index = explicit_set(0.5, 0.5, 0.5)
    u = om.make_measure(index, "uniform")
    rep = om.lower_bound_report(u, base_depth=1, paths=5_000, seed=3)
    assert rep.filtered_sum == 1.0
    assert rep.threshold == 1e-9 * math.sqrt(rep.estimate.mean) \
        + 3.0 * rep.estimate.stderr
    assert not rep.passed
    assert rep.to_json()["passed"] is False


def test_lower_bound_report_clips_depth_with_warning():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    with pytest.warns(RuntimeWarning, match="clipping"):
        rep = om.lower_bound_report(u, base_depth=4, paths=2_000, seed=5)
    assert rep.base_depth == index.partition.separation_depth


def test_lower_bound_report_requires_positive_depth():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    with pytest.raises(ValueError, match="at least 1"):
        om.lower_bound_report(u, base_depth=0, paths=2_000, seed=5)
