"""Strong, weak, dyadic, and filtered functionals against independent oracles."""
from __future__ import annotations

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import orthomm as om
from orthomm import checks, functionals
from orthomm.functionals import _dyadic_rows

L = om.FILTER_WEIGHT
FILTERED_FLOOR = L / (1.0 - L / 2.0)


def explicit_set(*values: float) -> om.IndexSet:
    return om.build_index_set(om.CoefficientSequence.explicit(values))


def strong_at(measure: om.DiscreteMeasure, t: float) -> float:
    """The ball integral f(t) of a point t of T."""
    return float(measure.integrals[measure.index_set.position(t)])


def quad_strong_at(measure: om.DiscreteMeasure, t: float, ball_mass) -> float:
    """Adaptive quadrature of r -> ball-mass(t, r^2)^(-1/2) on [0, sqrt(D)].

    Independent of the closed-form evaluator: integrates the piecewise
    constant integrand numerically with the jump radii passed as
    breakpoints.
    """
    pts = measure.index_set.points
    top = math.sqrt(measure.index_set.diameter)
    breaks = sorted({math.sqrt(abs(p - t)) for p in pts if 0 < abs(p - t) <= top ** 2})

    def integrand(r: float) -> float:
        return ball_mass(measure, t, r * r) ** -0.5

    val, err = integrate.quad(integrand, 0.0, top, points=breaks, limit=200)
    assert err < 1e-9
    return val


def dirichlet_measure(index: om.IndexSet, seed: int) -> om.DiscreteMeasure:
    return om.make_measure(index, {"kind": "dirichlet_random", "seed": seed})


# ---------------------------------------------------------------------------
# strong functional


def test_strong_uniform_two_points():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    value, argmax = om.strong_functional(u)
    # the integrand seg / sqrt(m) gives 0.5 / sqrt(0.5), 1 ulp below the
    # correctly rounded 1/sqrt(2) = sqrt(0.5)
    assert value == 0.5 / math.sqrt(0.5)
    assert abs(value - math.sqrt(0.5)) <= math.ulp(math.sqrt(0.5))
    assert argmax == 0.0


def test_strong_skewed_two_points():
    index = explicit_set(0.5)
    m = om.make_measure(index, {"kind": "explicit", "weights": [0.9, 0.1]})
    assert strong_at(m, 0.0) == pytest.approx(0.5 / math.sqrt(0.9), abs=1e-15)
    assert strong_at(m, 0.0) == 0.5270462766947299
    value, argmax = om.strong_functional(m)
    assert value == 1.5811388300841895
    assert argmax == 0.25


def test_strong_point_mass_is_root_diameter_at_atom():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    assert strong_at(pm, 0.0) == pytest.approx(math.sqrt(index.diameter))
    assert math.isinf(strong_at(pm, 0.25))
    value, _ = om.strong_functional(pm)
    assert math.isinf(value)


def test_strong_singleton_is_zero():
    index = om.IndexSet(points=np.array([0.0]), scale=1.0,
                        raw_total=0.0, merged_duplicates=0)
    u = om.make_measure(index, "uniform")
    assert strong_at(u, 0.0) == 0.0
    assert om.strong_functional(u) == (0.0, 0.0)


def test_strong_argmax_tie_takes_smallest_point():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    _, argmax = om.strong_functional(u)
    assert argmax == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_strong_matches_quadrature(seed, ball_mass):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 9))
    m = dirichlet_measure(index, seed)
    for t in index.points[::3]:
        exact = strong_at(m, float(t))
        assert exact == pytest.approx(quad_strong_at(m, float(t), ball_mass), abs=1e-8)


def test_strong_at_requires_point_of_set():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    with pytest.raises(om.DomainError):
        strong_at(u, 0.1)


def test_mixing_mass_toward_a_point_lowers_its_integral():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 9))
    base = dirichlet_measure(index, 3)
    t = float(index.points[4])
    spike = om.DiscreteMeasure.point_mass(index, t)
    for delta in (0.1, 0.5, 0.9):
        mixed = om.DiscreteMeasure.explicit(
            index, (1 - delta) * base.weights + delta * spike.weights)
        assert strong_at(mixed, t) <= strong_at(base, t) + 1e-12


# ---------------------------------------------------------------------------
# weak functional


def test_weak_uniform_two_points():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    value = om.weak_functional(u)
    assert value == 0.5 / math.sqrt(0.5)  # as in test_strong_uniform_two_points
    assert abs(value - math.sqrt(0.5)) <= math.ulp(math.sqrt(0.5))


def test_weak_skewed_two_points():
    index = explicit_set(0.5)
    m = om.make_measure(index, {"kind": "explicit", "weights": [0.9, 0.1]})
    assert om.weak_functional(m) == pytest.approx(0.5 * (math.sqrt(0.9) + math.sqrt(0.1)),
                                                  abs=1e-15)
    assert om.weak_functional(m) == 0.6324555320336759


def test_weak_point_mass_skips_zero_weights():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    assert om.weak_functional(pm) == 0.5


@pytest.mark.parametrize("seed", range(8))
def test_weak_never_exceeds_strong(seed):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 12))
    m = dirichlet_measure(index, seed)
    value, _ = om.strong_functional(m)
    assert om.weak_functional(m) <= value + 1e-12


# ---------------------------------------------------------------------------
# dyadic bound


def test_dyadic_uniform_two_points():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    assert om.dyadic_bound(u) == 1.4142135623730951


def test_dyadic_point_mass_two_points():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    assert om.dyadic_bound(pm) == 1.0


def test_dyadic_uniform_four_grid():
    index = explicit_set(0.5, 0.5, 0.5)
    u = om.make_measure(index, "uniform")
    assert om.dyadic_bound(u) == 2.0


@pytest.mark.parametrize("seed", range(4))
def test_dyadic_tail_matches_brute_force(seed):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    tree = index.partition
    m = dirichlet_measure(index, seed)
    sep = tree.separation_depth
    head = 0.0
    for k in range(1, sep + 1):
        starts, _ = tree.cell_arrays(k)
        head += 2.0 ** -k * np.sqrt(np.add.reduceat(m.weights, starts)).sum()
    brute_tail = sum(2.0 ** -k for k in range(sep + 1, sep + 200)) \
        * np.sqrt(m.weights[m.weights > 0]).sum()
    assert om.dyadic_bound(m) == pytest.approx(head + brute_tail, rel=1e-12)


def exact_level_sums(measure: om.DiscreteMeasure, tree: om.PartitionTree,
                     max_level: int) -> list[Decimal]:
    """sum_cells sqrt(m(cell)) per level 1..max_level, to 60 digits.

    Each cell mass is the correctly rounded sum of its weights.
    """
    w = measure.weights

    def bounds(k):
        starts, _ = tree.cell_arrays(k)
        return zip(starts, np.r_[starts[1:], w.size])

    with localcontext() as ctx:
        ctx.prec = 60
        return [sum(Decimal(math.fsum(w[a:b])).sqrt() for a, b in bounds(k))
                for k in range(1, max_level + 1)]


@pytest.mark.parametrize("family, seed", [
    (om.CoefficientSequence.geometric(0.5, 40), 3),
    (om.CoefficientSequence.geometric(0.5, 40), 7),
    (om.CoefficientSequence.power(1.0, 64), 5),
])
def test_level_sums_keep_light_cells_precise(family, seed):
    # cell masses taken as differences of one running prefix sum lost up
    # to 1.7e-9 relative in a level sum on these sparse measures
    index = om.build_index_set(family)
    tree = index.partition
    w = np.random.default_rng(seed).dirichlet(np.full(len(index), 0.2))
    m = om.DiscreteMeasure.explicit(index, w)
    sep = tree.separation_depth
    exact = exact_level_sums(m, tree, sep + 1)
    table = om.classify_good_indices(m)
    for lv, ref in zip(table.levels, exact):
        assert lv.full_sum == pytest.approx(float(ref), rel=1e-14)
    with localcontext() as ctx:
        ctx.prec = 60
        dyadic = sum(Decimal(2) ** -k * ref for k, ref in enumerate(exact[:sep], 1))
        dyadic += Decimal(2) ** -sep * sum(Decimal(float(x)).sqrt() for x in m.weights)
    assert om.dyadic_bound(m) == pytest.approx(float(dyadic), rel=1e-14)


def ref_dyadic_loop(measure: om.DiscreteMeasure) -> float:
    """The dyadic sum with its own cell masses: one ``reduceat`` per level
    1..K, then the tail 2^-K sum_t sqrt(w_t), K the separation depth."""
    tree = measure.index_set.partition
    sep = tree.separation_depth
    w = measure.weights
    total = 0.0
    for k in range(1, sep + 1):
        masses = np.add.reduceat(w, tree.cell_arrays(k)[0])
        total += 2.0 ** -k * float(np.sqrt(masses).sum())
    total += 2.0 ** -sep * float(np.sqrt(w).sum())
    return total


def _dyadic_measures():
    power = om.build_index_set(om.CoefficientSequence.power(1.0, 64))
    geometric = om.build_index_set(om.CoefficientSequence.geometric(0.9, 256))
    # 533 levels: the keys past level 511 are Python integers
    deep = explicit_set(1e-160, 1e-160, 1e-160, 0.5)
    point = om.IndexSet(points=np.array([0.0]), scale=1.0, raw_total=0.0)
    sparse = np.random.default_rng(4).dirichlet(np.ones(len(geometric)))
    sparse[::3] = 0.0
    return {
        "power_uniform": om.DiscreteMeasure.uniform(power),
        "power_dirichlet": om.DiscreteMeasure.dirichlet_random(power, 1),
        "geometric_uniform": om.DiscreteMeasure.uniform(geometric),
        "geometric_dirichlet": om.DiscreteMeasure.dirichlet_random(geometric, 2),
        "one_point": om.DiscreteMeasure.uniform(point),
        "power_point_mass": om.DiscreteMeasure.point_mass(power, float(power.points[5])),
        "geometric_zero_weights": om.DiscreteMeasure.explicit(geometric, sparse),
        "deep_uniform": om.DiscreteMeasure.uniform(deep),
        "deep_zero_weights": om.DiscreteMeasure.explicit(deep, [0.5, 0.0, 0.25, 0.0, 0.25]),
    }


@pytest.mark.parametrize("name", list(_dyadic_measures()))
def test_dyadic_sum_from_the_filter_table_keeps_its_bits(name):
    m = _dyadic_measures()[name]
    ref = ref_dyadic_loop(m)
    assert om.dyadic_bound(m).hex() == ref.hex()
    assert om.evaluate_functionals(m).dyadic_value.hex() == ref.hex()


class _CountingAdd:
    """``np.add``, counting the calls of its ``reduceat``."""

    def __init__(self):
        self.reduceat_calls = 0

    def __getattr__(self, name):
        return getattr(np.add, name)

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def reduceat(self, *args, **kwargs):
        self.reduceat_calls += 1
        return np.add.reduceat(*args, **kwargs)


class _CountingNumpy:
    """numpy, but ``add.reduceat`` counts its calls: one per level summed."""

    def __init__(self):
        self.add = _CountingAdd()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("family", [om.CoefficientSequence.power(1.0, 64),
                                    om.CoefficientSequence.geometric(0.9, 64)],
                         ids=["power", "geometric"])
def test_each_measure_sums_its_levels_once(family, monkeypatch):
    # the dyadic and the filtered sums read one table of levels 1..K+1
    index = om.build_index_set(family)
    levels = index.partition.separation_depth + 1
    counting = _CountingNumpy()
    monkeypatch.setattr(functionals, "np", counting)
    om.evaluate_functionals(om.DiscreteMeasure.uniform(index))
    assert counting.add.reduceat_calls == levels
    counting.add.reduceat_calls = 0
    checks.suite_inequalities(index, random_measures=3, seed=1)
    assert counting.add.reduceat_calls == 3 * levels


@pytest.mark.parametrize("seed", range(6))
def test_weak_never_exceeds_dyadic(seed):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    m = dirichlet_measure(index, seed)
    assert om.weak_functional(m) <= om.dyadic_bound(m) + 1e-12


# ---------------------------------------------------------------------------
# pointwise dyadic bound


def sparse_geometric_measures() -> list[om.DiscreteMeasure]:
    """Sparse Dirichlet(0.2) measures on geometric(0.5, 40), separation depth 20."""
    index = om.build_index_set(om.CoefficientSequence.geometric(0.5, 40))
    alpha = np.full(len(index), 0.2)
    return [om.DiscreteMeasure.explicit(
                index, np.random.default_rng(seed).dirichlet(alpha))
            for seed in range(12)]


def dirichlet_power_measures() -> list[om.DiscreteMeasure]:
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    return [dirichlet_measure(index, seed) for seed in range(8)]


def test_dyadic_sup_uniform_two_points():
    index = explicit_set(0.5)
    u = om.make_measure(index, "uniform")
    # 2 * (0.5 / sqrt(0.5)) in correctly rounded steps, one ulp below the
    # rounded sqrt(2)
    assert om.dyadic_sup_bound(u) == 1.414213562373095


def test_dyadic_sup_uniform_four_grid():
    index = explicit_set(0.5, 0.5, 0.5)
    u = om.make_measure(index, "uniform")
    assert om.dyadic_sup_bound(u) == 2.0


def test_dyadic_sup_point_mass_is_infinite():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = om.dyadic_sup_bound(pm)
    assert math.isinf(value)


def test_dyadic_sup_singleton_is_one():
    index = om.IndexSet(points=np.array([0.0]), scale=1.0,
                        raw_total=0.0, merged_duplicates=0)
    u = om.make_measure(index, "uniform")
    assert om.dyadic_sup_bound(u) == 1.0
    assert om.dyadic_bound(u) == 1.0


@pytest.mark.parametrize("family", [dirichlet_power_measures, sparse_geometric_measures])
def test_strong_never_exceeds_dyadic_sup(family):
    for m in family():
        rows = _dyadic_rows(m)
        for pos, t in enumerate(m.index_set.points):
            assert strong_at(m, float(t)) <= rows[pos]
        strong, _ = om.strong_functional(m)
        assert strong <= om.dyadic_sup_bound(m)


def test_dyadic_bound_is_mass_average_of_sup_rows():
    for m in dirichlet_power_measures():
        rows = _dyadic_rows(m)
        assert float(np.dot(m.weights, rows)) == pytest.approx(
            om.dyadic_bound(m), rel=1e-12)


# ---------------------------------------------------------------------------
# good indices and the filtered bound


def test_good_children_validates_input():
    with pytest.raises(ValueError):
        om.good_children([0.5, 0.5])
    assert om.good_children([0.0, 0.0, 0.0, 0.0]) == (False, False, False, False)


def test_good_children_uniform_parent():
    assert om.good_children([0.25, 0.25, 0.25, 0.25]) == (True, True, True, True)


def test_good_children_bounds_are_non_strict():
    # exactly 1/32 of the parent and exactly half the parity pair both qualify
    masses = [1.0 / 32.0, 0.0, 1.0 / 32.0, 30.0 / 32.0]
    flags = om.good_children(masses)
    assert flags[0] and flags[2]


def test_good_indices_four_grid_all_good_at_level_one():
    index = explicit_set(0.5, 0.5, 0.5)
    u = om.make_measure(index, "uniform")
    table = om.classify_good_indices(u)
    assert table.levels[0].level == 1
    assert table.levels[0].good == (0, 1, 2, 3)
    assert table.levels[0].filtered_sum == 2.0


def test_good_indices_point_mass_has_none():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    table = om.classify_good_indices(pm)
    assert all(lvl.good == () for lvl in table.levels)


@pytest.mark.parametrize("seed", range(5))
def test_good_indices_empty_past_separation(seed):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 12))
    tree = index.partition
    m = dirichlet_measure(index, seed)
    sep = tree.separation_depth
    table = om.classify_good_indices(m, max_level=sep + 4)
    for lvl in table.levels:
        if lvl.level >= sep + 1:
            assert lvl.good == ()
            assert lvl.filtered_sum == 0.0


def test_filtered_bound_uniform_four_grid_closed_form():
    index = explicit_set(0.5, 0.5, 0.5)
    u = om.make_measure(index, "uniform")
    value = om.filtered_bound(u)
    assert value == (L + 1.0) / (1.0 - L / 2.0)
    assert value == 23.83611624891225
    assert value == pytest.approx(23.8367, abs=1e-3)


def test_filtered_bound_point_mass_floor():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    value = om.filtered_bound(pm)
    assert value == FILTERED_FLOOR
    assert value == 15.224077499274834
    assert value == pytest.approx(15.2267, abs=5e-3)


def test_filter_weight_value():
    assert L == math.sqrt(2.0) * 5.0 / 4.0
    assert L == 1.7677669529663689


@pytest.mark.parametrize("seed", range(6))
def test_weak_never_exceeds_filtered(seed):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 16))
    m = dirichlet_measure(index, seed)
    assert om.weak_functional(m) <= om.filtered_bound(m) + 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_filtered_bound_at_least_floor(seed):
    index = explicit_set(0.3, 0.2, 0.4)
    m = dirichlet_measure(index, seed)
    assert om.filtered_bound(m) >= FILTERED_FLOOR - 1e-12


# ---------------------------------------------------------------------------
# coefficient-side bound and constants


def test_rademacher_menchov_two_term_example():
    seq = om.CoefficientSequence.explicit([math.sqrt(0.5), 0.5])
    rm = om.rademacher_menchov(seq)
    assert rm == pytest.approx(
        0.5 * math.log(2.0) ** 2 + 0.25 * math.log(3.0) ** 2, abs=1e-15)
    assert rm == 0.5419637471622463


def test_rademacher_menchov_single_term():
    rm = om.rademacher_menchov(om.CoefficientSequence.explicit([1.0]))
    assert rm == pytest.approx(math.log(2.0) ** 2, abs=1e-15)
    assert rm == 0.4804530139182014


def test_rademacher_menchov_vanishes_with_coefficients():
    values = [om.rademacher_menchov(
        om.CoefficientSequence.explicit([eps])) for eps in (1e-2, 1e-4, 1e-6)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-11


def test_chaining_constant_formula():
    assert om.CHAINING_CONSTANT == 16.0 * 5.0 ** 2.5
    assert om.CHAINING_CONSTANT == 894.4271909999159
    assert om.LOWER_BOUND_FACTOR == 64.0


# ---------------------------------------------------------------------------
# combined report


def test_evaluate_functionals_uniform_four_grid():
    index = explicit_set(0.5, 0.5, 0.5)
    u = om.make_measure(index, "uniform")
    rep = om.evaluate_functionals(u)
    assert rep.strong_value == 1.4763966378857263
    assert rep.strong_argmax == 0.0
    assert rep.dyadic_value == 2.0
    assert rep.filtered_value == 23.83611624891225
    assert rep.weak_value <= rep.strong_value
    assert rep.per_level[0] == (1, 2.0, 2.0, 4)
    doc = rep.to_json()
    assert doc["infinite"] is False
    assert doc["strong"] == rep.strong_value
    assert doc["chaining_constant"] == om.CHAINING_CONSTANT
    assert doc["per_level"][0] == {"k": 1, "full_sum": 2.0,
                                   "filtered_sum": 2.0, "good_count": 4}


def test_evaluate_functionals_reads_the_coefficients_of_the_index_set():
    seq = om.CoefficientSequence.power(1.0, 8)
    u = om.make_measure(om.build_index_set(seq), "uniform")
    assert om.evaluate_functionals(u).rm_value == om.rademacher_menchov(seq)
    points = om.IndexSet(points=u.index_set.points, scale=1.0, raw_total=1.0)
    rep = om.evaluate_functionals(om.make_measure(points, "uniform"))
    assert rep.rm_value is None and rep.to_json()["rademacher_menchov"] is None
    assert rep.strong_value == om.evaluate_functionals(u).strong_value


def test_evaluate_functionals_point_mass_reports_infinity():
    index = explicit_set(0.5)
    pm = om.make_measure(index, {"kind": "point_mass", "at": 0.0})
    rep = om.evaluate_functionals(pm)
    assert math.isinf(rep.strong_value)
    assert rep.weak_value == 0.5
    doc = rep.to_json()
    assert doc["infinite"] is True
    assert doc["strong"] is None
