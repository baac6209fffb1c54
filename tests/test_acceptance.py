"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion asserts its stated tolerance and runtime budget; the
verdict line is printed before the assertion so the outcome is visible
in captured output either way.
"""
from __future__ import annotations

import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest

import orthomm as om
from orthomm import checks, cli
from orthomm.optimize import strong_subgradient


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _interior(index: om.IndexSet, seed: int) -> om.DiscreteMeasure:
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(index.points.size)) + 0.05
    return om.DiscreteMeasure.explicit(index, w / w.sum())


def test_criterion_01_skeleton_identity():
    start = time.perf_counter()
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    S = om.s_skeleton(signs)
    worst = 0.0
    for l in range(5):
        for m in range(5):
            measured = float(((S[:, l] - S[:, m]) ** 2).mean())
            gap = abs(l - m)
            worst = max(worst, abs(measured - gap * (1.0 - gap / 4.0)))
    elapsed = time.perf_counter() - start
    _verdict(1, "skeleton increment identity", worst <= 1e-12 and elapsed < 1.0)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_pinned_increment_law():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_moment = worst_v = 0.0
    for trial in range(200):
        masses = rng.dirichlet(np.ones(4))
        flags = om.good_children(masses)
        good = [{j for j in range(4) if flags[j]}, {0}, {1}][trial % 3]
        sk = om.build_skeleton_variables(masses, good)
        outcomes = sk.enumerate_outcomes()
        mean = sum(p * z for p, _, z in outcomes)
        second = sum(p * z ** 2 for p, _, z in outcomes)
        worst_moment = max(worst_moment, float(np.abs(mean).max()),
                           float(np.abs(second - 1.0).max()))
        if sk.n is None:
            worst_v = max(worst_v, abs(sk.v))
        else:
            pa, pb = float(sk.probs[sk.pair[0]]), float(sk.probs[sk.pair[1]])
            closed = 0.25 * math.sqrt(pa * pb / (pa + pb))
            worst_v = max(worst_v, abs(sk.v - closed))
    elapsed = time.perf_counter() - start
    ok = worst_moment <= 1e-12 and worst_v <= 1e-12 and elapsed < 1.0
    _verdict(2, "pinned increments centered, unit variance, guarantee", ok)
    assert worst_moment <= 1e-12
    assert worst_v <= 1e-12
    assert elapsed < 1.0


def test_criterion_03_one_level_second_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        level = int(rng.integers(1, 4))
        parent = int(rng.integers(0, 4 ** (level - 1)))
        masses = rng.dirichlet(np.ones(4))
        flags = om.good_children(masses)
        sk = om.build_skeleton_variables(masses, {j for j in range(4) if flags[j]})
        width = 4.0 ** (-(level - 1))
        left = parent * width
        pts = np.sort(rng.uniform(left, left + width, size=int(rng.integers(2, 17))))
        pts[0], pts[-1] = left, left + width
        for s, t in zip(pts[:-1], pts[1:]):
            d = abs(s - t)
            got = om.second_moment_oracle(sk, level, parent, float(s), float(t))
            worst = max(worst, abs(got - d * (1.0 - 4.0 ** (level - 1) * d)))
        s, t = rng.choice(pts, size=2, replace=False)
        d = abs(s - t)
        got = om.second_moment_oracle(sk, level, parent, float(s), float(t))
        worst = max(worst, abs(got - d * (1.0 - 4.0 ** (level - 1) * d)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict(3, "one-level construction second moments", ok)
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_04_bridge_and_lift_moments():
    start = time.perf_counter()
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 15))
    uniform = om.make_measure(index, "uniform")
    suite = checks.suite_bridge(uniform, paths=100_000, seed=7, pairs=20)
    fact = next(c for c in suite["checks"] if c["name"] == "bridge_factorization")
    elapsed = time.perf_counter() - start
    _verdict(4, "bridge factorization and lift increment moments",
             suite["passed"] and fact["measured"] <= 1e-8 and elapsed < 60.0)
    assert fact["measured"] <= 1e-8
    assert suite["passed"]
    assert elapsed < 60.0


def test_criterion_05_functional_inequalities():
    start = time.perf_counter()
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 63))
    assert index.points.size == 64
    tree = index.partition
    rng = np.random.default_rng(505)
    strong_over_dyadic = weak_over_filtered = tail_terms = 0
    worst_excess = -math.inf
    for s in rng.integers(0, 2 ** 31, size=100):
        m = om.DiscreteMeasure.dirichlet_random(index, seed=int(s))
        strong, _ = om.strong_functional(m)
        sup_bound = om.dyadic_sup_bound(m)
        worst_excess = max(worst_excess, strong - sup_bound)
        if strong > sup_bound:
            strong_over_dyadic += 1
        if om.weak_functional(m) > om.filtered_bound(m):
            weak_over_filtered += 1
        table = om.classify_good_indices(m, max_level=tree.separation_depth + 3)
        tail_terms += sum(lvl.filtered_sum != 0.0 for lvl in table.levels
                          if lvl.level > tree.separation_depth + 1)
    elapsed = time.perf_counter() - start
    ok = (strong_over_dyadic == 0 and weak_over_filtered == 0
          and tail_terms == 0 and elapsed < 60.0)
    _verdict(5, "strong vs dyadic and weak vs filtered inequalities", ok)
    assert weak_over_filtered == 0
    assert tail_terms == 0
    assert strong_over_dyadic == 0, (
        f"strong exceeded the pointwise dyadic bound (dyadic_sup_bound) on "
        f"{strong_over_dyadic} of 100 random measures; largest strong - "
        f"dyadic_sup_bound excess {worst_excess:.3g}"
    )
    assert elapsed < 60.0


def test_criterion_06_chaining_upper_bound():
    start = time.perf_counter()
    families = (om.CoefficientSequence.power(1.0, 64),
                om.CoefficientSequence.geometric(0.5, 64))
    all_pass = True
    for seq in families:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            index = om.build_index_set(seq)
        opt = om.minimize_strong(index)
        for seed in range(10):
            rep = om.verify_chaining_bound(seq, opt.measure,
                                           om.OrthonormalGenerator("gaussian"),
                                           paths=100_000, seed=seed)
            all_pass &= rep.passed and not rep.skipped
    elapsed = time.perf_counter() - start
    ok = all_pass and elapsed < 300.0
    _verdict(6, "simulated supremum within the chaining bound", ok)
    assert all_pass
    assert elapsed < 300.0


def test_criterion_07_adversarial_lower_bound():
    start = time.perf_counter()
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 64))
    rng = np.random.default_rng(707)
    all_pass = True
    for s in rng.integers(0, 2 ** 31, size=50):
        rep = om.lower_bound_report(om.DiscreteMeasure.dirichlet_random(index, seed=int(s)),
                                    base_depth=3, paths=20_000, seed=int(s))
        all_pass &= rep.passed
    elapsed = time.perf_counter() - start
    ok = all_pass and elapsed < 600.0
    _verdict(7, "filtered sum within the simulated lower-bound budget", ok)
    assert all_pass
    assert elapsed < 600.0


def test_criterion_08_two_point_optimizer():
    start = time.perf_counter()
    index = om.build_index_set(om.CoefficientSequence.explicit([0.5]))
    res = om.minimize_strong(index)
    grid = np.linspace(1e-9, 1 - 1e-9, 2_000_001)
    values = 0.5 * np.minimum(grid, 1 - grid) ** -0.5
    grid_value = float(values.min())
    grid_w = float(grid[values.argmin()])
    tv = 0.5 * float(np.abs(res.measure.weights - [grid_w, 1 - grid_w]).sum())
    value_err = abs(res.value - math.sqrt(2.0) / 2.0)
    never_above = True
    for count in (1, 3, 8, 16, 31):
        idx = om.build_index_set(om.CoefficientSequence.power(1.0, count))
        uniform_value, _ = om.strong_functional(om.make_measure(idx, "uniform"))
        never_above &= om.minimize_strong(idx).value <= uniform_value + 1e-9
    elapsed = time.perf_counter() - start
    ok = (tv <= 1e-4 and value_err <= 1e-6
          and abs(res.value - grid_value) <= 1e-6
          and never_above and elapsed < 30.0)
    _verdict(8, "two-point minimizer against the grid oracle", ok)
    assert tv <= 1e-4
    assert value_err <= 1e-6
    assert abs(res.value - grid_value) <= 1e-6
    assert never_above
    assert elapsed < 30.0


def test_criterion_09_convexity_and_subgradient():
    start = time.perf_counter()
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 15))
    worst_gap = -math.inf
    for seed in range(100):
        a = _interior(index, seed)
        b = _interior(index, 10_000 + seed)
        mid = om.DiscreteMeasure.explicit(index, 0.5 * (a.weights + b.weights))
        fa, _ = om.strong_functional(a)
        fb, _ = om.strong_functional(b)
        fm, _ = om.strong_functional(mid)
        worst_gap = max(worst_gap, fm - 0.5 * (fa + fb))

    h = 1e-6
    worst_rel = 0.0
    checked = 0
    rng = np.random.default_rng(909)
    for seed in range(40):
        if checked >= 5:
            break
        m = _interior(index, 20_000 + seed)
        v = rng.standard_normal(index.points.size)
        v -= v.mean()
        v /= np.abs(v).max()
        args = []
        vals = []
        for shift in (-h, h):
            w = m.weights + shift * v
            val, arg = om.strong_functional(
                om.DiscreteMeasure.explicit(index, w / w.sum()))
            vals.append(val)
            args.append(arg)
        if args[0] != args[1] or args[0] != om.strong_functional(m)[1]:
            continue
        fd = (vals[1] - vals[0]) / (2 * h)
        analytic = float(strong_subgradient(m) @ v)
        worst_rel = max(worst_rel, abs(analytic - fd) / max(abs(fd), 1e-12))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = (worst_gap <= 1e-12 and checked >= 5 and worst_rel <= 1e-4
          and elapsed < 60.0)
    _verdict(9, "midpoint convexity and subgradient agreement", ok)
    assert worst_gap <= 1e-12
    assert checked >= 5
    assert worst_rel <= 1e-4
    assert elapsed < 60.0


def test_criterion_10_pipeline_determinism(tmp_path):
    argv = ["pipeline", "--coeffs", '{"kind": "power", "exponent": 1.0, "count": 16}',
            "--paths", "20000", "--seed", "11", "--adversarial-depth", "2",
            "--no-timestamp"]
    outputs = {}
    for workers in (1, 4, 8):
        target = tmp_path / f"workers{workers}.json"
        rc = cli.main(argv + ["--workers", str(workers), "--out", str(target)])
        assert rc == 0
        outputs[workers] = target.read_bytes()
    repeat = tmp_path / "repeat.json"
    rc = cli.main(argv + ["--workers", "1", "--out", str(repeat)])
    assert rc == 0
    identical = (outputs[1] == outputs[4] == outputs[8] == repeat.read_bytes())
    _verdict(10, "pipeline bytes identical across worker counts", identical)
    assert identical
    json.loads(outputs[1])
