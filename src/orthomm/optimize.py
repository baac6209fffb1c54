"""Optimization of the functionals over the probability simplex on T.

The strong functional is convex in the weight vector (each integration
segment contributes mass^(-1/2) of a nonnegative linear form), so its
minimum over the simplex is global.  ``minimize_strong`` approaches it
by multiplicative equalization of the per-point integrals and returns
the best iterate seen; it carries no optimality certificate, and when
it stops for lack of progress its value can sit measurably above the
minimum.  The weak functional has no such structure and its maximizer is
a restart heuristic that likewise reports the best iterate seen with no
optimality certificate.  Every iterate is a ``DiscreteMeasure``; both
return the best one, whose ``integrals`` later functionals reuse.
Each optimizer takes, as keywords, only the options it reads: both take
``max_iters`` and ``tol``, and ``maximize_weak`` also ``restarts`` and
``seed``, which ``duality_gap_report`` passes on to it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .functionals import strong_functional, weak_functional
from .series import DiscreteMeasure, IndexSet, _subgradient_row

__all__ = [
    "OptimizationResult",
    "DualityGapReport",
    "minimize_strong",
    "maximize_weak",
    "duality_gap_report",
    "strong_subgradient",
]

_PATIENCE = 50     # iterations without relative improvement before stopping
_FLOOR = 1e-300    # keeps multiplicative iterates strictly positive


def _check_options(max_iters: int, tol: float, restarts: int = 1) -> None:
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")


class OptimizationResult(NamedTuple):
    measure: DiscreteMeasure
    value: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]   # best value seen after each iteration

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "weights": [float(x) for x in self.measure.weights],
            "trace": [float(v) for v in self.trace],
        }


def strong_subgradient(measure: DiscreteMeasure) -> np.ndarray:
    """Subgradient of the strong functional at the smallest-index argmax."""
    vals = measure.integrals
    row = int(np.argmax(vals))
    if math.isinf(vals[row]):
        raise ValueError("subgradient undefined where the functional is infinite")
    return _subgradient_row(measure, row)


def minimize_strong(index_set: IndexSet, *, max_iters: int = 2000,
                    tol: float = 1e-8) -> OptimizationResult:
    """Multiplicative equalization of the per-point integrals.

    Any zero weight sends its own integral to infinity, so the minimax
    optimum is interior and characterized by all per-point integrals
    being equal.  The update w <- w * f(t) / Z raises weight
    exactly where the integral is large and contracts the log-spread of
    f; iteration stops once the relative spread falls below tol or no
    iterate improved the best value by a relative tol for _PATIENCE
    iterations.  ``converged`` is set on either stop, so it means the
    iteration settled, not that the minimum was reached: at P = 2049
    (power(1.0, 2048)) the patience stop comes 1.1e-3 relative above the
    minimum.  The best iterate is kept, so the result never exceeds the
    uniform starting value.
    """
    _check_options(max_iters, tol)
    m = DiscreteMeasure.uniform(index_set)
    if len(index_set) == 1:
        return OptimizationResult(measure=m, value=0.0, iterations=0,
                                  converged=True, trace=())
    best_val = math.inf
    best = m
    trace = []
    last_gain = 0
    converged = False
    for it in range(1, max_iters + 1):
        vals = m.integrals
        val = float(vals.max())
        if val < best_val - tol * max(1.0, abs(best_val)):
            last_gain = it
        if val < best_val:
            best_val = val
            best = m
        trace.append(best_val)
        spread = float((vals.max() - vals.min()) / vals.max())
        if spread <= tol:
            converged = True
            break
        if it - last_gain >= _PATIENCE:
            converged = True
            break
        w = np.maximum(m.weights * vals, _FLOOR)
        m = DiscreteMeasure(index_set, w / w.sum())
    return OptimizationResult(measure=best, value=best_val, iterations=it,
                              converged=converged, trace=tuple(trace))


def maximize_weak(index_set: IndexSet, *, max_iters: int = 2000, tol: float = 1e-8,
                  restarts: int = 8, seed: int | None = None) -> OptimizationResult:
    """Best-effort maximizer of the weak functional over the simplex.

    Multiplicative reweighting toward points with a large integrand,
    restarted from the uniform measure plus Dirichlet draws; the best
    weak value over all iterates and restarts is returned; ``restarts``
    counts the uniform start, and more than one needs a ``seed``.
    """
    _check_options(max_iters, tol, restarts)
    n = len(index_set)
    if n == 1:
        m = DiscreteMeasure(index_set, np.ones(1))
        return OptimizationResult(measure=m, value=0.0, iterations=0,
                                  converged=True, trace=())
    if restarts > 1 and seed is None:
        raise ValueError("seed required when maximize_weak uses random restarts")
    starts = [np.full(n, 1.0 / n)]
    if restarts > 1:
        children = np.random.SeedSequence(seed).spawn(restarts - 1)
        for child in children:
            rng = np.random.default_rng(child)
            starts.append(rng.dirichlet(np.ones(n)))
    best_val = -math.inf
    best = None
    total_iters = 0
    converged = False
    trace: list[float] = []
    for w0 in starts:
        w = np.maximum(w0, _FLOOR)
        m = DiscreteMeasure(index_set, w / w.sum())
        last_gain = 0
        for it in range(1, max_iters + 1):
            total_iters += 1
            vals = m.integrals
            val = float(np.dot(m.weights, vals))
            if val > best_val + tol * max(1.0, abs(best_val)):
                last_gain = it
            if val > best_val:
                best_val = val
                best = m
            trace.append(best_val)
            if it - last_gain >= _PATIENCE:
                converged = True
                break
            arg = (1.0 / math.sqrt(it)) * (vals - vals.max())
            w = np.maximum(m.weights * np.exp(arg), _FLOOR)
            m = DiscreteMeasure(index_set, w / w.sum())
    return OptimizationResult(measure=best, value=best_val, iterations=total_iters,
                              converged=converged, trace=tuple(trace))


class DualityGapReport(NamedTuple):
    """Two-sided localization of the optimal functional values.

    ``upper`` estimates inf over measures of the strong functional,
    ``lower`` estimates sup over measures of the weak functional; the
    only hard guarantee checked is weak <= strong for each returned
    measure.
    """

    upper: OptimizationResult
    lower: OptimizationResult
    ratio: float | None

    def to_json(self) -> dict:
        return {
            "minimize_strong": self.upper.to_json(),
            "maximize_weak": self.lower.to_json(),
            "ratio": None if self.ratio is None else float(self.ratio),
        }


def duality_gap_report(index_set: IndexSet, *, max_iters: int = 2000, tol: float = 1e-8,
                       restarts: int = 8, seed: int | None = None) -> DualityGapReport:
    _check_options(max_iters, tol, restarts)  # before the strong side runs
    upper = minimize_strong(index_set, max_iters=max_iters, tol=tol)
    lower = maximize_weak(index_set, max_iters=max_iters, tol=tol,
                          restarts=restarts, seed=seed)
    for result in (upper, lower):
        weak = weak_functional(result.measure)
        strong, _ = strong_functional(result.measure)
        if weak > strong + 1e-10:
            raise AssertionError("internal consistency error: weak exceeds strong")
    ratio = None if lower.value == 0.0 else upper.value / lower.value
    return DualityGapReport(upper=upper, lower=lower, ratio=ratio)
