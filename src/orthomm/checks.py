"""Verification suites behind ``orthomm verify``.

Each suite returns ``{"suite": name, "checks": [...], "passed": bool}``;
every check carries an ``ok`` flag and the suite passes when all of its
checks do (vacuously when it has none).  ``SUITES`` lists the suites in
the order ``verify --suite all`` runs them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .functionals import (
    _filtered_value,
    classify_good_indices,
    dyadic_bound,
    good_children,
    strong_functional,
    weak_functional,
)
from .processes import (
    AdversarialSampler,
    OrthogonalLift,
    build_skeleton_variables,
    lower_bound_report,
    s_skeleton,
    second_moment_oracle,
    verify_chaining_bound,
)
from .series import DiscreteMeasure

__all__ = [
    "SUITES",
    "suite_skeleton",
    "suite_lemma4",
    "suite_bridge",
    "suite_chaining",
    "suite_lowerbound",
    "suite_inequalities",
]

SUITES = ("skeleton", "lemma4", "bridge", "chaining", "lowerbound",
          "inequalities")


def _suite(name: str, checks: list[dict]) -> dict:
    return {"suite": name, "checks": checks,
            "passed": all(c["ok"] for c in checks)}


def _within(name: str, measured: float, tol: float,
            expected: float | None = None, **extra) -> dict:
    """A check that ``measured`` lies within ``tol`` of ``expected`` (of 0
    when no value is expected, which the check then does not record)."""
    check = {"name": name, "measured": measured, "tol": tol, **extra}
    if expected is not None:
        check["expected"] = expected
    check["ok"] = bool(abs(measured - (expected or 0.0)) <= tol)
    return check


def suite_skeleton() -> dict:
    """Exhaustive sign enumeration of E|S_l - S_m|^2 = |l-m|(1 - |l-m|/4)."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    S = s_skeleton(signs)
    checks = []
    for l in range(5):
        for m in range(5):
            d = abs(l - m)
            checks.append(_within(f"skeleton_{l}_{m}",
                                  float(((S[:, l] - S[:, m]) ** 2).mean()),
                                  1e-12, expected=d * (1.0 - d / 4.0)))
    return _suite("skeleton", checks)


def suite_lemma4(seed: int, instances: int = 50) -> dict:
    """Single-level oracle against d(1 - 4**(k-1) d) on random instances."""
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(instances):
        level = int(rng.integers(1, 5))
        parent = int(rng.integers(0, 4 ** (level - 1)))
        masses = rng.dirichlet(np.ones(4))
        flags = good_children(masses)
        sv = build_skeleton_variables(masses, {j for j in range(4) if flags[j]})
        width = 4.0 ** (-(level - 1))
        left = parent * width
        s, t = (left + width * rng.random(2)).tolist()
        d = abs(s - t)
        checks.append(_within(f"one_level_{i}",
                              second_moment_oracle(sv, level, parent, s, t),
                              1e-12, expected=d * (1.0 - 4.0 ** (level - 1) * d),
                              level=level))
    return _suite("lemma4", checks)


def suite_bridge(measure, paths: int, seed: int, pairs: int = 10) -> dict:
    """Bridge factorization exactness and MC increment second moments."""
    index_set = measure.index_set
    points = index_set.points
    if points.size < 2:
        return _suite("bridge", [])
    adv = AdversarialSampler(measure, min(2, index_set.partition.separation_depth))
    fact_err = 0.0
    for bridge in adv.bridges:
        if bridge.dim:
            rebuilt = bridge.chol @ bridge.chol.T
            fact_err = max(fact_err, float(np.abs(rebuilt - bridge.covariance()).max()))
    checks = [_within("bridge_factorization", fact_err, 1e-8)]
    lift = OrthogonalLift(adv)
    rng = np.random.default_rng(seed)
    idx_pairs = [sorted(rng.choice(points.size, size=2, replace=False).tolist())
                 for _ in range(pairs)]
    for label, sampler in (("bridge", adv), ("lift", lift)):
        vals = sampler.sample(paths, seed)
        for i, j in idx_pairs:
            sq = (vals[:, i] - vals[:, j]) ** 2
            measured = float(sq.mean())
            expected = sampler.second_moment(points[i], points[j])
            se = float(sq.std(ddof=1) / math.sqrt(paths))
            checks.append({
                "name": f"{label}_increment_{i}_{j}",
                "measured": measured,
                "expected": expected,
                "stderr": se,
                "ok": bool(abs(measured - expected) <= 3.0 * se + 1e-9),
            })
    return _suite("bridge", checks)


def suite_chaining(seq, measure, generator, paths: int, seed: int) -> dict:
    """The chaining upper bound of ``verify_chaining_bound``."""
    if seq is None or measure.index_set.points.size < 2:
        return _suite("chaining", [])
    rep = verify_chaining_bound(seq, measure, generator, paths, seed)
    return _suite("chaining", [{
        "name": "chaining_bound",
        "measured": rep.estimate.mean,
        "stderr": rep.estimate.stderr,
        "bound": None if math.isinf(rep.bound) else rep.bound,
        "skipped": rep.skipped,
        "ok": bool(rep.passed),
    }])


def suite_lowerbound(measure, depth: int, paths: int, seed: int) -> dict:
    """The lower-bound budget of ``lower_bound_report``."""
    rep = lower_bound_report(measure, depth, paths, seed)
    return _suite("lowerbound", [{
        "name": "lower_bound",
        "filtered_sum": rep.filtered_sum,
        "threshold": rep.threshold,
        "base_depth": rep.base_depth,
        "ok": bool(rep.passed),
    }])


def suite_inequalities(index_set, random_measures: int, seed: int) -> dict:
    """Functional inequalities on Dirichlet-random measures.

    Checks weak <= strong, weak <= dyadic, weak <= filtered, and that the
    filtered series terminates at separation_depth + 1.
    """
    rng = np.random.default_rng(seed)
    draw_seeds = rng.integers(0, 2 ** 31, size=random_measures)
    names = ("weak_le_strong", "weak_le_dyadic", "weak_le_filtered")
    violations = {n: 0 for n in names}
    excess = {n: 0.0 for n in names}
    last_level = index_set.partition.separation_depth + 1
    max_tail_filtered = 0.0
    for s in draw_seeds:
        m = DiscreteMeasure.dirichlet_random(index_set, seed=int(s))
        weak = weak_functional(m)
        strong, _ = strong_functional(m)
        table = classify_good_indices(m, max_level=last_level)
        bounds = {
            "weak_le_strong": strong,
            "weak_le_dyadic": dyadic_bound(m),
            "weak_le_filtered": _filtered_value(table),
        }
        for n in names:
            gap = weak - bounds[n]
            excess[n] = max(excess[n], gap)
            if gap > 1e-12:
                violations[n] += 1
        max_tail_filtered = max(max_tail_filtered,
                                table.levels[-1].filtered_sum)
    checks = [{
        "name": n,
        "draws": random_measures,
        "violations": violations[n],
        "max_excess": excess[n],
        "ok": violations[n] == 0,
    } for n in names]
    checks.append({
        "name": "filtered_terminates",
        "level": last_level,
        "max_filtered_sum": max_tail_filtered,
        "ok": bool(max_tail_filtered == 0.0),
    })
    return _suite("inequalities", checks)
