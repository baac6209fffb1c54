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
    _dyadic_value,
    _filtered_value,
    classify_good_indices,
    good_children,
    strong_functional,
    weak_functional,
)
from .processes import (
    _bridge_covariance,
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

# the family level of the bridge suite's increment checks: 2 * Phi(-3), the
# level one two-sided 3-sigma test has alone
FAMILY_LEVEL = math.erfc(3.0 / math.sqrt(2.0))


def _suite(name: str, checks: list[dict], **extra) -> dict:
    return {"suite": name, "checks": checks,
            "passed": all(c["ok"] for c in checks), **extra}


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


def suite_lemma4(seed: int) -> dict:
    """Single-level oracle against d(1 - 4**(k-1) d) on 50 random instances."""
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(50):
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


def _sidak_threshold(m: int) -> float:
    """The |z| threshold at which m tests together have level ``FAMILY_LEVEL``.

    Each test runs at 1 - (1 - FAMILY_LEVEL)**(1/m), and Sidak (1967) shows that
    for jointly Gaussian statistics P(all |Z_i| <= c) >= prod P(|Z_i| <= c)
    whatever their correlation, so all m pass together with probability
    at least 1 - FAMILY_LEVEL.
    """
    # imported here, so that only the bridge suite pays the 4 ms import
    from statistics import NormalDist

    per_test = -math.expm1(math.log1p(-FAMILY_LEVEL) / m)
    return NormalDist().inv_cdf(1.0 - per_test / 2.0)


def suite_bridge(measure, paths: int, seed: int, pairs: int = 10) -> dict:
    """Bridge recursion against its covariance and MC increment second moments.

    The 2 * ``pairs`` increment checks share their paths, and their
    Monte Carlo means are asymptotically jointly normal, so they run at
    the Sidak threshold of ``_sidak_threshold`` (3.817 for 20 checks): a
    correct sampler fails any of them with probability at most
    ``FAMILY_LEVEL``, the level of one two-sided 3-sigma test.  Each check
    records its z-score and the suite its threshold.
    """
    threshold = _sidak_threshold(2 * pairs)
    index_set = measure.index_set
    points = index_set.points
    if points.size < 2:
        return _suite("bridge", [], threshold=threshold)
    adv = AdversarialSampler(measure, min(2, index_set.partition.separation_depth))
    fact_err = 0.0
    for b in adv.bridges:
        # the recursion's covariance row by row: Cov(x_k, x_j) = a_k Cov(x_{k-1}, x_j)
        # for j < k and Var(x_k) = a_k**2 Var(x_{k-1}) + sigma_k**2, from x_{-1} = 0
        row = np.zeros(1)
        for k in range(b.dim):
            row = np.append(b.a[k] * row[:k], b.a[k] ** 2 * row[-1] + b.sigma[k] ** 2)
            closed = _bridge_covariance(b.local[k], b.local[:k + 1], b.level)
            fact_err = max(fact_err, float(np.abs(row - closed).max()))
    checks = [_within("bridge_factorization", fact_err, 1e-8)]
    # a base-depth cell without a bridge lies in a zero-mass cell, where the law fails
    skipped = len(adv.bridges) < len(index_set.partition.levels[adv.base_depth])
    rng = np.random.default_rng(seed)
    i, j = np.array([sorted(rng.choice(points.size, size=2, replace=False).tolist())
                     for _ in range(pairs)]).T
    for label, sampler in (("bridge", adv), ("lift", OrthogonalLift(adv))):
        # reduced before the next sampler fills its own (pairs, paths) array
        stats = [(float(inc.mean()), float(inc.std(ddof=1) / math.sqrt(paths)))
                 for inc in sampler.per_path(paths, seed, lambda v: np.square(v[i] - v[j]))]
        for (measured, se), s, t in zip(stats, i.tolist(), j.tolist()):
            expected = sampler.second_moment(points[s], points[t])
            checks.append({
                "name": f"{label}_increment_{s}_{t}",
                "measured": measured,
                "expected": expected,
                "stderr": se,
                "z": (measured - expected) / se if se > 0.0 else None,
                **({"skipped": True} if skipped else {}),
                "ok": skipped or bool(abs(measured - expected) <= threshold * se + 1e-9),
            })
    return _suite("bridge", checks, threshold=threshold)


def suite_chaining(measure, generator, paths: int, seed: int) -> dict:
    """The chaining upper bound of ``verify_chaining_bound``; vacuous on a
    set given by points, which has no coefficients to sum."""
    index_set = measure.index_set
    if index_set.coeffs is None or index_set.points.size < 2:
        return _suite("chaining", [])
    rep = verify_chaining_bound(measure, generator, paths, seed)
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
            "weak_le_dyadic": _dyadic_value(table),
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
