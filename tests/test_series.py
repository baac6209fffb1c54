"""Index sets, partitions, and measures built from coefficient sequences."""
from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import orthomm as om
from orthomm.series import SCALE_CEILING, _hurwitz_zeta, check_measure_spec


def explicit_set(*values: float) -> om.IndexSet:
    return om.build_index_set(om.CoefficientSequence.explicit(values))


# ---------------------------------------------------------------------------
# coefficient sequences


def test_explicit_values_roundtrip():
    seq = om.CoefficientSequence.explicit([0.5, 0.25])
    assert np.allclose(seq.values, [0.5, 0.25])
    again = om.CoefficientSequence.from_json(json.loads(json.dumps(seq.to_json())))
    assert np.array_equal(again.values, seq.values)


def test_power_family_values():
    seq = om.CoefficientSequence.power(1.0, 4)
    assert np.allclose(seq.values, [1.0, 0.5, 1.0 / 3.0, 0.25])


def test_geometric_family_squares_to_ratio_powers():
    seq = om.CoefficientSequence.geometric(0.5, 6)
    assert np.allclose(np.asarray(seq.values) ** 2, 0.5 ** np.arange(1, 7))


def test_empty_coefficients_rejected():
    with pytest.raises(om.InvalidCoefficientError,
                       match="at least one coefficient required"):
        om.CoefficientSequence.explicit([])


@pytest.mark.parametrize("bad", [[0.5, 0.0], [0.5, -1.0], [0.5, math.inf], [0.5, math.nan]])
def test_nonpositive_or_nonfinite_coefficients_rejected(bad):
    with pytest.raises(om.InvalidCoefficientError):
        om.CoefficientSequence.explicit(bad)


def test_tail_mass_power_is_hurwitz_zeta():
    seq = om.CoefficientSequence.power(1.0, 64)
    assert seq.tail_mass() == pytest.approx(float(zeta(2.0, 65.0)), rel=1e-12)


ZETA_EXPONENTS = (0.55, 0.6, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
ZETA_COUNTS = (1, 2, 3, 7, 16, 64, 100, 1000, 2048, 10000, 100000)


@pytest.mark.parametrize("p", ZETA_EXPONENTS)
def test_hurwitz_zeta_matches_scipy(p):
    for count in ZETA_COUNTS:
        expected = float(zeta(2.0 * p, count + 1.0))
        assert _hurwitz_zeta(2.0 * p, count + 1.0) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("count", [64, 2048])
def test_tail_mass_power_is_bit_equal_to_scipy(count):
    # the default pipeline and the benchmark's P = 2049 set report these bytes
    seq = om.CoefficientSequence.power(1.0, count)
    assert seq.tail_mass() == float(zeta(2.0, count + 1.0))


def test_tail_mass_power_with_an_underflowing_tail_is_zero():
    assert om.CoefficientSequence.power(1e300, 1).tail_mass() == 0.0


def test_tail_mass_power_divergent():
    assert math.isinf(om.CoefficientSequence.power(0.5, 8).tail_mass())


def test_tail_mass_geometric_closed_form():
    seq = om.CoefficientSequence.geometric(0.5, 64)
    assert seq.tail_mass() == pytest.approx(0.5 ** 65 / 0.5, rel=1e-12)


def test_tail_mass_explicit_is_unknown():
    assert om.CoefficientSequence.explicit([0.5]).tail_mass() is None


@pytest.mark.parametrize("ratio", [1.0, 2.0])
def test_tail_mass_geometric_divergent(ratio):
    assert om.CoefficientSequence.geometric(ratio, 8).tail_mass() == math.inf


@pytest.mark.parametrize("make, args, message", [
    (om.CoefficientSequence.power, (1.0, 0), "at least one coefficient required"),
    (om.CoefficientSequence.geometric, (0.5, 0), "at least one coefficient required"),
    (om.CoefficientSequence.geometric, (0.0, 4), "geometric ratio must be positive"),
    (om.CoefficientSequence.from_json, ([0.5],), "coefficient input must be a JSON object"),
    (om.CoefficientSequence.from_json, ({"kind": "bogus"},),
     "unknown coefficient kind: 'bogus'"),
    (om.CoefficientSequence.from_json,
     ({"kind": "power", "exponent": 1.0, "count": 4, "ratio": 0.5},),
     r"unknown keys in coefficient input: \['ratio'\]"),
    (om.CoefficientSequence.from_json, ({"kind": "explicit"},),
     "explicit coefficients need 'values'"),
    (om.CoefficientSequence.from_json, ({"kind": "power", "exponent": 1.0},),
     "power coefficients need 'count'"),
    (om.CoefficientSequence.from_json, ({"kind": "geometric"},),
     "geometric coefficients need 'ratio'"),
    (om.CoefficientSequence.from_json, ({"kind": ["power"]},),
     r"unknown coefficient kind: \['power'\]"),
    (om.CoefficientSequence.from_json, ({"kind": "power", "exponent": 1.0, "count": None},),
     "invalid power coefficient input: 'NoneType' object given for 'count'"),
    (om.CoefficientSequence.from_json, ({"kind": "geometric", "ratio": 0.5,
                                         "count": math.inf},),
     "invalid geometric coefficient input: 'float' object given for 'count'"),
    (om.CoefficientSequence.from_json, ({"kind": "explicit", "values": 5},),
     "invalid explicit coefficient input: 'int' object given for 'values'"),
], ids=["power-count", "geometric-count", "geometric-ratio", "json-list",
        "json-kind", "json-keys", "json-values", "json-no-count", "json-first-missing",
        "json-list-kind", "json-null-count", "json-infinite-count", "json-number-values"])
def test_coefficient_input_rejections(make, args, message):
    with pytest.raises(om.InvalidCoefficientError, match=message):
        make(*args)


# ---------------------------------------------------------------------------
# index sets


def test_two_halves_index_set():
    index = explicit_set(0.5, 0.5)
    assert np.array_equal(index.points, [0.0, 0.25, 0.5])
    assert index.scale == 1.0
    assert index.raw_total == 0.5
    assert index.merged_duplicates == 0
    assert index.diameter == 0.5


def test_unit_coefficient_hits_scale_ceiling():
    index = explicit_set(1.0)
    assert index.scale == SCALE_CEILING == 1.0 - 2.0 ** -32
    assert np.array_equal(index.points, [0.0, SCALE_CEILING])


def test_points_strictly_increasing_and_gaps_exact():
    values = [0.3, 0.2, 0.4, 0.1]
    index = explicit_set(*values)
    assert index.scale == 1.0
    gaps = np.diff(index.points)
    assert np.all(gaps > 0)
    assert np.allclose(gaps, np.asarray(values) ** 2, rtol=0, atol=1e-15)


def test_geometric_collision_merge():
    seq = om.CoefficientSequence.geometric(0.5, 64)
    with pytest.warns(RuntimeWarning, match="merged 11 coefficient partial sums"):
        index = om.build_index_set(seq)
    assert index.points.size == 54
    assert index.merged_duplicates == 11
    assert index.raw_total == 1.0
    assert index.scale == SCALE_CEILING
    assert index.points[-1] < 1.0


def test_index_set_position_and_json():
    index = explicit_set(0.5, 0.5)
    assert index.position(0.25) == 1
    with pytest.raises(om.DomainError):
        index.position(0.1)
    doc = index.to_json()
    assert doc["points"] == [0.0, 0.25, 0.5]
    assert doc["merged_duplicates"] == 0


@given(st.lists(st.floats(min_value=1e-3, max_value=0.9), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_index_set_inside_unit_interval(values):
    index = explicit_set(*values)
    assert index.points[0] == 0.0
    assert index.points[-1] < 1.0
    assert np.all(np.diff(index.points) > 0)


@pytest.mark.parametrize("points, message", [
    ([], "index set must start at 0"),
    ([0.25, 0.5], "index set must start at 0"),
    ([0.0, 0.5, 0.5], "index set points must strictly increase"),
    ([0.0, 1.0], "index set points must stay below 1"),
    ([0.0, math.nan], "index set points must be finite"),
    ([0.0, 0.5, math.inf], "index set points must be finite"),
], ids=["empty", "no-zero", "repeat", "one", "nan", "inf"])
def test_index_set_rejects_bad_points(points, message):
    with pytest.raises(om.InvalidCoefficientError, match=message):
        om.IndexSet(points=np.array(points), scale=1.0, raw_total=1.0)


@pytest.mark.parametrize("values", [[1e200], [1e200, 1.0], [1e154, 1e154]],
                         ids=["one", "first", "sum"])
def test_index_set_of_overflowing_squares_is_rejected(values):
    # a_n^2 or their sum overflow to inf, which scaled to [0, 1) gave NaN points
    with pytest.raises(om.InvalidCoefficientError,
                       match="the coefficient squares must have a finite sum"):
        om.build_index_set(om.CoefficientSequence.explicit(values))


def test_index_set_keeps_the_coefficients_it_was_built_from():
    seq = om.CoefficientSequence.power(1.0, 8)
    assert om.build_index_set(seq).coeffs is seq
    index = om.IndexSet(points=np.array([0.0, 0.25]), scale=1.0, raw_total=0.25)
    assert index.coeffs is None
    # only build_index_set pairs coefficients with the points they produce
    with pytest.raises(TypeError, match="coeffs"):
        om.IndexSet(points=np.array([0.0, 0.25]), scale=1.0, raw_total=0.25,
                    coeffs=seq)


# ---------------------------------------------------------------------------
# partitions


def cell_counts(tree: om.PartitionTree, k: int) -> np.ndarray:
    starts, _ = tree.cell_arrays(k)
    return np.diff(np.r_[starts, tree.points.size])


def test_partition_of_two_points():
    tree = om.build_partition(explicit_set(0.5))
    assert tree.separation_depth == 1
    counts = cell_counts(tree, 1)
    assert counts.sum() == 2
    assert counts.max() == 1


def test_partition_four_grid_splits_at_level_one():
    tree = om.build_partition(explicit_set(0.5, 0.5, 0.5))
    assert np.array_equal(tree.points, [0.0, 0.25, 0.5, 0.75])
    assert tree.separation_depth == 1
    assert cell_counts(tree, 1).tolist() == [1, 1, 1, 1]
    assert tree.cell_arrays(1)[1].tolist() == [0, 1, 2, 3]


def test_singleton_partition_has_depth_zero():
    index = om.IndexSet(points=np.array([0.0]), scale=1.0,
                        raw_total=0.0, merged_duplicates=0)
    tree = om.build_partition(index)
    assert tree.separation_depth == 0
    assert cell_counts(tree, 0).tolist() == [1]


def test_level_cells_partition_the_points():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    tree = om.build_partition(index)
    for k in range(tree.separation_depth + 1):
        starts, keys = tree.cell_arrays(k)
        assert starts[0] == 0
        assert np.all(np.diff(starts) > 0)
        assert cell_counts(tree, k).sum() == index.points.size
        # every point of a cell has the cell's key, and neighbours differ
        own = np.repeat(keys, cell_counts(tree, k))
        assert np.array_equal(own, np.floor(index.points * 4.0 ** k))
        assert np.all(np.diff(keys) > 0)


def test_children_refine_parent():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    tree = om.build_partition(index)
    for k in range(tree.separation_depth):
        starts, keys = tree.cell_arrays(k)
        kid_starts, kid_keys = tree.cell_arrays(k + 1)
        assert np.all(np.isin(starts, kid_starts))
        parent = np.searchsorted(starts, kid_starts, side="right") - 1
        assert np.array_equal(kid_keys // 4, keys[parent])
        kids_per_parent = np.add.reduceat(cell_counts(tree, k + 1),
                                          np.searchsorted(kid_starts, starts))
        assert np.array_equal(kids_per_parent, cell_counts(tree, k))


def test_level_cells_beyond_stored_depth():
    tree = om.build_partition(explicit_set(0.5))
    deep = cell_counts(tree, tree.separation_depth + 3)
    assert deep.sum() == 2
    assert deep.max() == 1


def test_cell_arrays_reject_negative_levels():
    with pytest.raises(ValueError, match="level must be nonnegative"):
        explicit_set(0.5).partition.cell_arrays(-1)


def test_cell_masses_sum_to_one():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    tree = om.build_partition(index)
    measure = om.make_measure(index, "uniform")
    for k in range(tree.separation_depth + 1):
        starts, _ = tree.cell_arrays(k)
        masses = np.add.reduceat(measure.weights, starts)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_partition_is_built_once_per_index_set(monkeypatch):
    calls = []
    build = om.series.build_partition

    def counting(index_set):
        calls.append(index_set)
        return build(index_set)

    monkeypatch.setattr("orthomm.series.build_partition", counting)
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    assert index.partition is index.partition
    assert not any(a.flags.writeable for a in index.partition.levels + index.partition.keys)
    m = om.make_measure(index, "uniform")
    om.evaluate_functionals(m)
    om.dyadic_sup_bound(m)
    om.lower_bound_report(m, base_depth=2, paths=200, seed=1)
    assert len(calls) == 1 and calls[0] is index


def test_profile_is_built_once_per_index_set(count_builds):
    calls = count_builds(om.IndexSet, "profile")
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    assert index.profile is index.profile
    m = om.make_measure(index, "uniform")
    om.evaluate_functionals(m)
    om.minimize_strong(index, max_iters=5)
    assert len(calls) == 1 and calls[0] is index


def test_index_set_is_freed_with_its_partition_and_profile():
    # without the cycle collector, only a reference cycle keeps it alive
    gc.disable()
    try:
        index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
        om.evaluate_functionals(om.make_measure(index, "uniform"))
        assert {"partition", "profile"} <= set(vars(index))
        ref = weakref.ref(index)
        del index
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# measures


def test_uniform_and_point_mass_measures():
    index = explicit_set(0.5, 0.5)
    u = om.make_measure(index, "uniform")
    assert np.allclose(u.weights, [1 / 3, 1 / 3, 1 / 3])
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.25})
    assert np.array_equal(pm.weights, [0.0, 1.0, 0.0])


def test_explicit_measure_normalizes():
    index = explicit_set(0.5, 0.5)
    m = om.make_measure(index, {"kind": "explicit", "weights": [2.0, 1.0, 1.0]})
    assert np.allclose(m.weights, [0.5, 0.25, 0.25])


def test_dirichlet_measure_deterministic_per_seed():
    index = explicit_set(0.5, 0.5)
    a = om.make_measure(index, {"kind": "dirichlet_random", "seed": 7})
    b = om.make_measure(index, {"kind": "dirichlet_random", "seed": 7})
    c = om.make_measure(index, {"kind": "dirichlet_random", "seed": 8})
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    assert a.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_measure_spec_rejects_unknown_keys():
    index = explicit_set(0.5)
    for spec in ({"kind": "uniform", "bogus": 1}, {"kind": "no_such_kind"}):
        with pytest.raises(om.InvalidMeasureError):
            om.make_measure(index, spec)
        with pytest.raises(om.InvalidMeasureError):
            check_measure_spec(spec)  # needs no index set


@pytest.mark.parametrize("spec, message", [
    (3, "measure input must be a name or JSON object"),
    ({"kind": "point_mass"}, "point_mass measure needs 'at'"),
    ({"kind": "explicit"}, "explicit measure needs 'weights'"),
    ({"kind": "dirichlet_random"}, "dirichlet_random measure needs 'seed'"),
], ids=["number", "point-mass", "explicit", "dirichlet"])
def test_measure_spec_rejects_incomplete_input(spec, message):
    with pytest.raises(om.InvalidMeasureError, match=message):
        om.make_measure(explicit_set(0.5), spec)
    with pytest.raises(om.InvalidMeasureError, match=message):
        check_measure_spec(spec)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "explicit", "weights": 5}, "invalid explicit measure input: 'int' object"),
    ({"kind": "dirichlet_random", "seed": None}, "invalid dirichlet_random measure input"),
    ({"kind": "dirichlet_random", "seed": math.inf}, "invalid dirichlet_random measure input"),
    ({"kind": "point_mass", "at": None}, "invalid point_mass measure input"),
], ids=["number-weights", "null-seed", "infinite-seed", "null-point"])
def test_measure_spec_rejects_wrong_typed_values(spec, message):
    with pytest.raises(om.InvalidMeasureError, match=message):
        om.make_measure(explicit_set(0.5), spec)


def test_measure_spec_check_passes_complete_input_through():
    assert check_measure_spec("uniform") == {"kind": "uniform"}
    spec = {"kind": "point_mass", "at": 0.25}
    assert check_measure_spec(spec) is spec


COUNT = "weight count must match index set size"
FINITE = "weights must be finite and nonnegative"
SUM = "weights must sum to 1 within 1e-12"


@pytest.mark.parametrize("weights, message, explicit_message", [
    ([1.0], COUNT, COUNT),
    ([math.nan, 1.0], FINITE, FINITE),
    ([-0.5, 1.5], FINITE, FINITE),
    ([0.5, 0.4], SUM, None),   # explicit normalizes any positive total
    ([0.0, 0.0], SUM, "weights must have positive total"),
], ids=["count", "nan", "negative", "sum", "zero"])
def test_measure_constructor_rejects_bad_weights(weights, message, explicit_message):
    index = explicit_set(0.5)
    with pytest.raises(om.InvalidMeasureError, match=message):
        om.DiscreteMeasure(index, np.array(weights))
    if explicit_message is None:
        assert om.DiscreteMeasure.explicit(index, weights).weights.tolist() == \
            pytest.approx([5 / 9, 4 / 9], abs=1e-15)
        return
    with pytest.raises(om.InvalidMeasureError, match=explicit_message):
        om.DiscreteMeasure.explicit(index, weights)


def test_measure_rejects_bad_weights():
    index = explicit_set(0.5)
    with pytest.raises(om.InvalidMeasureError):
        om.make_measure(index, {"kind": "explicit", "weights": [0.0, 0.0]})
    with pytest.raises(om.InvalidMeasureError):
        om.make_measure(index, {"kind": "explicit", "weights": [1.0, -0.5]})
    with pytest.raises(om.InvalidMeasureError):
        om.make_measure(index, {"kind": "explicit", "weights": [1.0]})


def test_point_mass_requires_a_point_of_the_set():
    index = explicit_set(0.5)
    with pytest.raises(om.DomainError):
        om.make_measure(index, {"kind": "point_mass", "at": 0.1})


# ---------------------------------------------------------------------------
# ball masses


def test_ball_mass_two_point_examples():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    assert om.ball_mass(u, 0.0, 0.1) == 0.5
    assert om.ball_mass(u, 0.0, 0.25) == 1.0
    assert om.ball_mass(u, 0.0, 2.0) == 1.0


def test_ball_mass_is_closed_at_the_radius():
    index = explicit_set(0.5, 0.5)
    u = om.make_measure(index, "uniform")
    assert om.ball_mass(u, 0.25, 0.25) == pytest.approx(1.0, abs=1e-15)


def test_ball_mass_rejects_bad_arguments():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    with pytest.raises(ValueError):
        om.ball_mass(u, 0.0, -0.1)
    with pytest.raises(om.DomainError):
        om.ball_mass(u, 0.1, 0.1)


@given(st.integers(min_value=0, max_value=4), st.floats(min_value=0, max_value=1))
@settings(max_examples=60, deadline=None)
def test_ball_mass_monotone_in_radius(pos, frac):
    index = explicit_set(0.3, 0.2, 0.4, 0.1)
    u = om.make_measure(index, "uniform")
    t = float(index.points[pos])
    r = frac * index.diameter
    small = om.ball_mass(u, t, r)
    big = om.ball_mass(u, t, r + 0.05)
    assert small <= big + 1e-15
    assert om.ball_mass(u, t, index.diameter) == pytest.approx(1.0, abs=1e-15)
