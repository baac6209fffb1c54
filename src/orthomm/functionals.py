"""Exact evaluation of entropy-type functionals of measures on an index set.

For a probability measure m on T and the closed ball B(t, r) in the
standard metric, the per-point integral

    f(t) = integral_0^sqrt(D) m(B(t, r^2))^(-1/2) dr,      D = diam(T),

is piecewise constant in r between the square roots of the distinct
distances from t, so the measure computes it in closed form from the
index set's distance profile and keeps it (``DiscreteMeasure.integrals``).
The strong functional is sup_t f(t), the weak functional averages f
against m itself, and the quad-adic partition gives dyadic-sum upper
bounds.  The averaged dyadic sum (``dyadic_bound``) and its good-index
filtered form bound the weak functional only; the pointwise dyadic sum
(``dyadic_sup_bound``) bounds the strong functional.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Sequence

import numpy as np

from .series import CoefficientSequence, DiscreteMeasure, PartitionTree

__all__ = [
    "FILTER_WEIGHT",
    "CHAINING_CONSTANT",
    "LOWER_BOUND_FACTOR",
    "COMBINED_BOUND_FORMULA",
    "GoodLevel",
    "GoodIndexTable",
    "FunctionalReport",
    "strong_functional_at",
    "strong_functional",
    "weak_functional",
    "dyadic_bound",
    "dyadic_sup_bound",
    "rademacher_menchov",
    "good_children",
    "classify_good_indices",
    "filtered_bound",
    "evaluate_functionals",
]

# Weight of the coarse levels in the filtered upper bound; below 2 so the
# geometric prefactor (1 - L/2)^-1 is finite.
FILTER_WEIGHT = math.sqrt(2.0) * 5.0 / 4.0

# Constant in front of the squared strong functional in the chaining
# upper bound for orthogonal-increment processes.
CHAINING_CONSTANT = 16.0 * 5.0 ** 2.5

# Constant relating the filtered sum to the worst-case supremum of the
# adversarial construction.
LOWER_BOUND_FACTOR = 64.0

# Symbolic form of the combined constant tying both directions together;
# B is the universal supremum over unit-increment orthogonal processes.
COMBINED_BOUND_FORMULA = "K = (1 - L/2)**-1 * (L + 64 * sqrt(B))"


# ---------------------------------------------------------------------------
# functionals


def strong_functional_at(measure: DiscreteMeasure, t: float) -> float:
    """The ball-integral f(t); +inf when m({t}) = 0 and T is not a singleton."""
    return float(measure.integrals[measure.index_set.position(t)])


def strong_functional(measure: DiscreteMeasure) -> tuple[float, float]:
    """(sup_t f(t), attaining t), smallest index on ties.

    The sup is +inf as soon as any point carries zero mass, since the
    integrand at such a point diverges near r = 0.
    """
    vals = measure.integrals
    pos = int(np.argmax(vals))
    return float(vals[pos]), float(measure.index_set.points[pos])


def weak_functional(measure: DiscreteMeasure) -> float:
    """integral of f against m itself; zero-mass points contribute nothing."""
    vals = measure.integrals
    w = measure.weights
    live = w > 0.0
    return float(np.dot(w[live], vals[live]))


def dyadic_bound(measure: DiscreteMeasure) -> float:
    """Full dyadic upper bound sum_k 2^-k sum_i sqrt(m(cell_i at level k)).

    Levels past the separation depth K contribute 2^-k * sum_t sqrt(w_t)
    each, so the infinite series has the exact tail 2^-K sum_t sqrt(w_t).

    Since sum_{t in A} w_t m(A)^(-1/2) = sqrt(m(A)), this is the m-average
    of the per-point sums of ``dyadic_sup_bound``.  An average bounds the
    weak functional, not the strong one: the point mass at 0 on {0, 1/4}
    has dyadic bound 1 and strong functional +inf.
    """
    return _dyadic_value(classify_good_indices(measure))


def _dyadic_rows(measure: DiscreteMeasure) -> np.ndarray:
    """g(t) = sum_{k=1}^K 2^-k m(A_k(t))^(-1/2) + 2^-K m({t})^(-1/2) for every t.

    A_k(t) is the level-k cell holding t and K the separation depth;
    +inf where the point carries no mass.
    """
    tree = measure.index_set.partition
    sep = tree.separation_depth
    w = measure.weights
    rows = np.zeros_like(w)
    with np.errstate(divide="ignore"):
        for k in range(1, sep + 1):
            starts = tree.cell_arrays(k)[0]
            masses = np.add.reduceat(w, starts)
            rows += 2.0 ** -k / np.sqrt(np.repeat(masses, np.diff(np.r_[starts, w.size])))
        rows += 2.0 ** -sep / np.sqrt(w)
    return rows


def dyadic_sup_bound(measure: DiscreteMeasure) -> float:
    """Pointwise dyadic upper bound sup_t g(t) on the strong functional.

    g(t) = sum_{k=1}^K 2^-k m(A_k(t))^(-1/2) + 2^-K m({t})^(-1/2), where
    A_k(t) is the level-k cell holding t and K the separation depth; the
    bound is +inf as soon as a point carries no mass.

    Proof that f(t) <= g(t) for every t.  Let k >= 0 and r in
    (2^-(k+1), 2^-k].  The level-(k+1) cell of t is a half-open interval
    of width 4^-(k+1) < r^2 containing t, so every point of it lies within
    r^2 of t and the closed ball B(t, r^2) contains it.  Hence the
    integrand of f(t) is at most m(A_{k+1}(t))^(-1/2) on that interval of
    length 2^-(k+1).  These intervals for k >= 0 cover (0, 1], which
    contains (0, sqrt(D)] because T lies in [0, 1), so
    f(t) <= sum_{j>=1} 2^-j m(A_j(t))^(-1/2).  Past level K every cell
    meets T in a single point, so the levels j > K sum to the exact tail
    2^-K m({t})^(-1/2).

    The m-average of g is ``dyadic_bound``; this sup form follows the
    partition bound of Talagrand, "Upper and Lower Bounds for Stochastic
    Processes", ch. 2.
    """
    return float(_dyadic_rows(measure).max())


def rademacher_menchov(coeffs: CoefficientSequence) -> float:
    """Classical log-squared coefficient bound sum a_n^2 ln^2(n+1)."""
    sq = np.asarray(coeffs.values, dtype=float) ** 2
    n = np.arange(1, sq.size + 1)
    return float((sq * np.log(n + 1.0) ** 2).sum())


# ---------------------------------------------------------------------------
# good-index filter


class GoodLevel(NamedTuple):
    level: int
    good: tuple[int, ...]       # absolute child indices at this level
    full_sum: float             # sum of sqrt(mass) over all nonempty cells
    filtered_sum: float         # sum of sqrt(mass) over good indices


class GoodIndexTable(NamedTuple):
    levels: tuple[GoodLevel, ...]

    def filtered_series(self) -> float:
        return sum(2.0 ** -lv.level * lv.filtered_sum for lv in self.levels)


def _balance(children: np.ndarray) -> np.ndarray:
    """``good_children`` for every row of a (parents, 4) child-mass matrix."""
    parent = children.sum(axis=1, keepdims=True)
    pair = children + children[:, [2, 3, 0, 1]]
    return (parent > 0.0) & (32.0 * children >= parent) & (2.0 * children <= pair)


def good_children(masses: Sequence[float]) -> tuple[bool, bool, bool, bool]:
    """Balance conditions for the four children of one parent cell.

    Child j is good when its mass is at least 1/32 of the parent mass
    and at most half of its same-parity pair mass (pairs {0,2} and
    {1,3}); both inequalities non-strict, and compared after scaling by
    powers of two, which is exact, so equal masses tie exactly.  A
    zero-mass parent classifies no children (its subtree carries nothing).
    """
    m = np.asarray(masses, dtype=float)
    if m.shape != (4,):
        raise ValueError("exactly four child masses expected")
    return tuple(bool(f) for f in _balance(m[None, :])[0])


_Level = namedtuple("_Level", "starts keys masses parent slot children good")


def _level_masses(tree: PartitionTree, weights: np.ndarray, k: int) -> _Level:
    """The level-k cells (starts, keys, masses), each cell's parent row and
    slot in the (rows, 4) child-mass matrix of the level-(k-1) rows, that
    matrix, and its good-child flags ``_balance(children)``."""
    starts, keys = tree.cell_arrays(k)
    # per-cell sums keep a light cell's precision; prefix differences lose it
    masses = np.add.reduceat(weights, starts)
    parent = np.searchsorted(tree.cell_arrays(k - 1)[0], starts, side="right") - 1
    slot = (keys % 4).astype(np.intp)
    children = np.zeros((parent[-1] + 1, 4))
    children[parent, slot] = masses
    return _Level(starts, keys, masses, parent, slot, children, _balance(children))


def classify_good_indices(
    measure: DiscreteMeasure,
    max_level: int | None = None,
) -> GoodIndexTable:
    """Good child indices per level, with full and filtered level sums.

    Past separation_depth + 1 every level is empty: the unique nonempty
    child holds its parent's whole mass and fails the pair condition.
    """
    tree = measure.index_set.partition
    if max_level is None:
        max_level = tree.separation_depth + 1
    out = []
    for k in range(1, max_level + 1):
        lv = _level_masses(tree, measure.weights, k)
        # a good child holds at least 1/32 of a positive mass, so it is a cell
        good = lv.good[lv.parent, lv.slot]
        roots = np.sqrt(lv.masses)
        out.append(GoodLevel(level=k, good=tuple(int(i) for i in lv.keys[good]),
                             full_sum=float(roots.sum()),
                             filtered_sum=float(roots[good].sum())))
    return GoodIndexTable(levels=tuple(out))


def _dyadic_value(table: GoodIndexTable) -> float:
    """``dyadic_bound`` from the levels 1..K+1 of ``classify_good_indices``.

    Level K+1 holds one point per cell, so its full sum is sum_t sqrt(w_t),
    the tail that the series weighs by 2^-K.
    """
    *head, tail = table.levels
    total = 0.0
    for lv in head:
        total += 2.0 ** -lv.level * lv.full_sum
    return total + 2.0 ** -(tail.level - 1) * tail.full_sum


def _filtered_value(table: GoodIndexTable) -> float:
    return (FILTER_WEIGHT + table.filtered_series()) / (1.0 - FILTER_WEIGHT / 2.0)


def filtered_bound(measure: DiscreteMeasure) -> float:
    """(1 - L/2)^-1 * (L + sum_k 2^-k sum_{good i} sqrt(m(cell_i)))."""
    return _filtered_value(classify_good_indices(measure))


# ---------------------------------------------------------------------------
# combined report


class FunctionalReport(NamedTuple):
    strong_value: float
    strong_argmax: float
    weak_value: float
    dyadic_value: float
    filtered_value: float
    rm_value: float | None
    filter_weight: float
    chaining_constant: float
    constant_formula: str
    per_level: tuple[tuple[int, float, float, int], ...]  # (k, full, filtered, #good)

    @property
    def infinite(self) -> bool:
        return math.isinf(self.strong_value)

    def to_json(self) -> dict:
        return {
            "strong": None if self.infinite else float(self.strong_value),
            "infinite": self.infinite,
            "strong_argmax": float(self.strong_argmax),
            "weak": float(self.weak_value),
            "dyadic": float(self.dyadic_value),
            "filtered": float(self.filtered_value),
            "rademacher_menchov": None if self.rm_value is None else float(self.rm_value),
            "filter_weight": float(self.filter_weight),
            "chaining_constant": float(self.chaining_constant),
            "constant_formula": self.constant_formula,
            "per_level": [
                {"k": k, "full_sum": fs, "filtered_sum": gs, "good_count": n}
                for (k, fs, gs, n) in self.per_level
            ],
        }


def evaluate_functionals(measure: DiscreteMeasure) -> FunctionalReport:
    """Every functional of ``measure``, and the Rademacher-Menchov value of
    the coefficients behind its index set (None for a set given by points)."""
    coeffs = measure.index_set.coeffs
    strong, argmax = strong_functional(measure)
    weak = weak_functional(measure)
    table = classify_good_indices(measure)
    per_level = tuple(
        (lv.level, lv.full_sum, lv.filtered_sum, len(lv.good)) for lv in table.levels
    )
    report = FunctionalReport(
        strong_value=strong,
        strong_argmax=argmax,
        weak_value=weak,
        dyadic_value=_dyadic_value(table),
        filtered_value=_filtered_value(table),
        rm_value=None if coeffs is None else rademacher_menchov(coeffs),
        filter_weight=FILTER_WEIGHT,
        chaining_constant=CHAINING_CONSTANT,
        constant_formula=COMBINED_BOUND_FORMULA,
        per_level=per_level,
    )
    if report.weak_value > report.strong_value + 1e-10:
        raise AssertionError("internal consistency error: weak exceeds strong")
    return report
