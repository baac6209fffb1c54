"""Measure optimization: equalization descent, weak ascent, duality report."""
from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

import orthomm as om
from orthomm import optimize

ROOT_HALF = math.sqrt(2.0) / 2.0


def explicit_set(*values: float) -> om.IndexSet:
    return om.build_index_set(om.CoefficientSequence.explicit(values))


def two_point_grid_minimum(samples: int = 2_000_001) -> tuple[float, float]:
    """Dense-grid oracle for the two-point minimax problem.

    On T = {0, t} the strong functional of (w, 1-w) is
    sqrt(D) * min(w, 1-w) ** -0.5, minimized at w = 1/2.
    """
    w = np.linspace(1e-9, 1 - 1e-9, samples)
    f = 0.5 * np.minimum(w, 1 - w) ** -0.5
    i = int(f.argmin())
    return float(f[i]), float(w[i])


BAD_OPTIONS = [({"max_iters": 0}, "max_iters must be at least 1"),
               ({"tol": 0.0}, "tol must lie in (0, 1)"),
               ({"tol": 1.0}, "tol must lie in (0, 1)"),
               ({"restarts": 0}, "restarts must be at least 1")]


def test_options_validation():
    # each optimizer checks the options it reads, before its one-point return
    singleton = om.IndexSet(points=np.array([0.0]), scale=1.0,
                            raw_total=0.0, merged_duplicates=0)
    for index in (singleton, explicit_set(0.5)):
        for options, message in BAD_OPTIONS:
            optimizers = [om.maximize_weak, om.duality_gap_report]
            if "restarts" not in options:
                optimizers.append(om.minimize_strong)
            for optimizer in optimizers:
                with pytest.raises(ValueError, match=re.escape(message)):
                    optimizer(index, **options)


def test_duality_report_checks_restarts_before_the_strong_side(monkeypatch):
    def ran(*args, **kwargs):
        pytest.fail("minimize_strong ran")
    monkeypatch.setattr(optimize, "minimize_strong", ran)
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        om.duality_gap_report(explicit_set(0.5), restarts=0)


@pytest.mark.parametrize("options", [{"seed": 0}, {"restarts": 2}, {"restarts": 2, "seed": 0}])
def test_minimize_takes_no_option_it_does_not_read(options):
    with pytest.raises(TypeError, match="unexpected keyword"):
        om.minimize_strong(explicit_set(0.5), **options)


@pytest.mark.parametrize("optimizer", [om.minimize_strong, om.maximize_weak,
                                       om.duality_gap_report])
def test_options_are_keyword_only(optimizer):
    with pytest.raises(TypeError, match="positional"):
        optimizer(explicit_set(0.5), 10)


# ---------------------------------------------------------------------------
# minimize_strong


def test_minimize_two_points_matches_grid_oracle():
    grid_value, grid_w = two_point_grid_minimum()
    res = om.minimize_strong(explicit_set(0.5))
    assert res.converged
    assert res.value == pytest.approx(grid_value, abs=1e-6)
    assert res.value == pytest.approx(ROOT_HALF, abs=1e-9)
    assert abs(res.measure.weights - np.array([grid_w, 1 - grid_w])).sum() < 1e-4


def test_minimize_singleton_is_zero():
    index = om.IndexSet(points=np.array([0.0]), scale=1.0,
                        raw_total=0.0, merged_duplicates=0)
    res = om.minimize_strong(index)
    assert res.value == 0.0
    assert res.converged
    assert np.array_equal(res.measure.weights, [1.0])


@pytest.mark.parametrize("count", [3, 8, 16])
def test_minimize_never_worse_than_uniform(count):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, count))
    uniform_value, _ = om.strong_functional(om.make_measure(index, "uniform"))
    res = om.minimize_strong(index)
    assert res.value <= uniform_value + 1e-9


def test_minimize_equalizes_point_integrals():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    res = om.minimize_strong(index)
    vals = res.measure.integrals
    spread = (vals.max() - vals.min()) / vals.max()
    assert spread < 1e-6


def test_minimize_trace_is_monotone_best_so_far():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    res = om.minimize_strong(index)
    trace = np.asarray(res.trace)
    assert np.all(np.diff(trace) <= 1e-15)
    assert res.value == pytest.approx(trace[-1], rel=1e-12)


@pytest.mark.parametrize("count", [1, 64, 256])
def test_minimize_value_is_the_strong_functional_of_its_measure(count):
    # P = count + 1 points; the value is the best iterate's row maximum,
    # which strong_functional recomputes bit for bit
    index = om.build_index_set(om.CoefficientSequence.power(1.0, count))
    assert len(index) == count + 1
    res = om.minimize_strong(index)
    assert res.value == om.strong_functional(res.measure)[0]


def test_minimize_result_json_shape():
    res = om.minimize_strong(explicit_set(0.5))
    doc = res.to_json()
    assert set(doc) >= {"value", "iterations", "converged", "weights"}
    assert doc["converged"] is True
    assert doc["weights"] == [float(v) for v in res.measure.weights]


# ---------------------------------------------------------------------------
# maximize_weak


def test_maximize_two_points_finds_uniform():
    res = om.maximize_weak(explicit_set(0.5), seed=0)
    assert res.value == pytest.approx(ROOT_HALF, abs=1e-9)
    assert abs(res.measure.weights - 0.5).max() < 1e-6


def test_maximize_at_least_uniform_start():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 12))
    uniform_weak = om.weak_functional(om.make_measure(index, "uniform"))
    res = om.maximize_weak(index, seed=3)
    assert res.value >= uniform_weak - 1e-9


@pytest.mark.parametrize("seq", [
    om.CoefficientSequence.explicit([0.5]),
    om.CoefficientSequence.power(1.0, 64),
    om.CoefficientSequence.power(1.0, 256),
    om.CoefficientSequence.power(0.75, 128),
    om.CoefficientSequence.geometric(0.5, 40),
    om.CoefficientSequence.geometric(0.9, 256),
], ids=lambda seq: f"{seq.family}{len(seq)}")
def test_maximize_value_is_the_weak_functional_of_its_measure(seq):
    # the best iterate's weighted row sum, which weak_functional
    # recomputes bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        index = om.build_index_set(seq)
    res = om.maximize_weak(index, seed=0)
    assert res.value == om.weak_functional(res.measure)


def test_maximize_requires_seed_for_restarts():
    with pytest.raises(ValueError, match="seed required"):
        om.maximize_weak(explicit_set(0.5, 0.5), restarts=4)


def test_maximize_singleton_is_zero():
    index = om.IndexSet(points=np.array([0.0]), scale=1.0,
                        raw_total=0.0, merged_duplicates=0)
    res = om.maximize_weak(index)
    assert res.value == 0.0


# ---------------------------------------------------------------------------
# subgradient


def interior_measure(index: om.IndexSet, seed: int) -> om.DiscreteMeasure:
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(index.points.size)) + 0.05
    return om.DiscreteMeasure.explicit(index, w / w.sum())


def stable_argmax_direction(measure: om.DiscreteMeasure, seed: int,
                            h: float) -> np.ndarray | None:
    """A zero-sum direction along which the strong argmax does not switch."""
    rng = np.random.default_rng(seed)
    n = measure.weights.size
    for _ in range(32):
        v = rng.standard_normal(n)
        v -= v.mean()
        v /= np.abs(v).max()
        args = []
        for shift in (-h, 0.0, h):
            w = measure.weights + shift * v
            m = om.DiscreteMeasure.explicit(measure.index_set, w)
            args.append(om.strong_functional(m)[1])
        if args[0] == args[1] == args[2]:
            return v
    return None


@pytest.mark.parametrize("seed", range(5))
def test_subgradient_matches_central_difference(seed, strong_subgradient):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 10))
    m = interior_measure(index, seed)
    h = 1e-6
    v = stable_argmax_direction(m, seed + 100, h)
    assert v is not None
    g = strong_subgradient(m)

    def value(shift: float) -> float:
        w = m.weights + shift * v
        return om.strong_functional(om.DiscreteMeasure.explicit(index, w / w.sum()))[0]

    fd = (value(h) - value(-h)) / (2 * h)
    analytic = float(g @ v)
    assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_subgradient_undefined_on_infinite_functional(strong_subgradient):
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    with pytest.raises(ValueError, match="infinite"):
        strong_subgradient(pm)


@pytest.mark.parametrize("seed", range(5))
def test_strong_value_midpoint_convexity(seed):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 10))
    a = interior_measure(index, seed)
    b = interior_measure(index, seed + 50)
    mid = om.DiscreteMeasure.explicit(index, 0.5 * (a.weights + b.weights))
    fa, _ = om.strong_functional(a)
    fb, _ = om.strong_functional(b)
    fm, _ = om.strong_functional(mid)
    assert fm <= 0.5 * (fa + fb) + 1e-12


# ---------------------------------------------------------------------------
# duality report


def test_duality_two_points_is_tight():
    rep = om.duality_gap_report(explicit_set(0.5), seed=0)
    assert rep.upper.value == pytest.approx(ROOT_HALF, abs=1e-9)
    assert rep.lower.value == pytest.approx(ROOT_HALF, abs=1e-9)
    assert rep.ratio == pytest.approx(1.0, abs=1e-8)


def test_duality_singleton_ratio_is_none():
    index = om.IndexSet(points=np.array([0.0]), scale=1.0,
                        raw_total=0.0, merged_duplicates=0)
    rep = om.duality_gap_report(index)
    assert rep.upper.value == 0.0
    assert rep.lower.value == 0.0
    assert rep.ratio is None


def test_duality_ratio_near_one_and_measures_consistent():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    rep = om.duality_gap_report(index, seed=1)
    assert rep.ratio == rep.upper.value / rep.lower.value
    assert rep.ratio == pytest.approx(1.0, abs=0.05)
    for res in (rep.upper, rep.lower):
        weak = om.weak_functional(res.measure)
        strong, _ = om.strong_functional(res.measure)
        assert weak <= strong + 1e-10


# ---------------------------------------------------------------------------
# integrals owned by the measure


@pytest.mark.parametrize("optimizer", [om.minimize_strong, om.maximize_weak])
def test_optimizers_return_a_measure_holding_its_integrals(optimizer, count_builds):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    calls = count_builds(om.DiscreteMeasure, "integrals")
    options = {} if optimizer is om.minimize_strong else {"seed": 1, "restarts": 2}
    res = optimizer(index, **options)
    assert "integrals" in vars(res.measure)
    # one pass per iteration, so the returned measure was one of them
    assert len(calls) == res.iterations
    assert any(m is res.measure for m in calls)


def test_duality_report_adds_no_integral_pass(count_builds):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    calls = count_builds(om.DiscreteMeasure, "integrals")
    rep = om.duality_gap_report(index, seed=1)
    assert len(calls) == rep.upper.iterations + rep.lower.iterations
