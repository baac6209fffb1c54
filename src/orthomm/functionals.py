"""Exact evaluation of entropy-type functionals of measures on an index set.

For a probability measure m on T and the closed ball B(t, r) in the
standard metric, the per-point integral

    f(t) = integral_0^sqrt(D) m(B(t, r^2))^(-1/2) dr,      D = diam(T),

is piecewise constant in r between the square roots of the distinct
distances from t, so it evaluates in closed form.  The strong functional
is sup_t f(t), the weak functional averages f against m itself, and the
quad-adic partition gives dyadic-sum upper bounds.  The averaged dyadic
sum (``dyadic_bound``) and its good-index filtered form bound the weak
functional only; the pointwise dyadic sum (``dyadic_sup_bound``) bounds
the strong functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import CoefficientSequence, DiscreteMeasure, IndexSet, PartitionTree

__all__ = [
    "FILTER_WEIGHT",
    "CHAINING_CONSTANT",
    "LOWER_BOUND_FACTOR",
    "COMBINED_BOUND_FORMULA",
    "GoodLevel",
    "GoodIndexTable",
    "RMBound",
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
# distance profile (measure independent, stored on its index set)

# Entries per block of rows.  A block's float temporaries take 512 KiB, so
# they stay in cache where whole (P, P) temporaries did not: 31 rows at
# P = 2049, and one block holding every row up to P = 256.
_BLOCK_ITEMS = 1 << 16


@dataclass(eq=False)
class _DistanceProfile:
    order: np.ndarray  # (P, P) permutation sorting each row's distances
    seg: np.ndarray    # (P, P) increments of sqrt(distance), capped at sqrt(D)


def _row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of range(n), each of _BLOCK_ITEMS // n rows or one."""
    step = max(1, _BLOCK_ITEMS // n)
    return [slice(a, a + step) for a in range(0, n, step)]


def _profile(index_set: IndexSet) -> _DistanceProfile:
    """The distance profile of ``index_set``, built once and kept on it.

    It takes 16 P^2 bytes and lives exactly as long as the index set.
    A stable argsort orders each row on its own, so building it one block
    of rows at a time gives the same arrays as one whole-matrix sort.
    """
    prof = index_set.__dict__.get("_distance_profile")
    if prof is not None:
        return prof
    pts = index_set.points
    n = pts.size
    root_d = math.sqrt(index_set.diameter)
    order = np.empty((n, n), dtype=np.intp)
    seg = np.empty((n, n))
    for rows in _row_blocks(n):
        dist = np.abs(pts[None, :] - pts[rows, None])
        order[rows] = np.argsort(dist, axis=1, kind="stable")
        sq = np.sqrt(np.take_along_axis(dist, order[rows], axis=1))
        np.subtract(sq[:, 1:], sq[:, :-1], out=seg[rows, :-1])
        np.subtract(root_d, sq[:, -1], out=seg[rows, -1])
    prof = _DistanceProfile(order=order, seg=seg)
    object.__setattr__(index_set, "_distance_profile", prof)
    return prof


def _integral_rows(measure: DiscreteMeasure) -> np.ndarray:
    """f(t) for every t in T; +inf rows where the point carries no mass."""
    prof = _profile(measure.index_set)
    w = measure.weights
    if w.size == 1:
        return np.zeros(1)
    vals = np.empty(w.size)
    for rows in _row_blocks(w.size):
        cum = np.cumsum(w[prof.order[rows]], axis=1)
        np.maximum(cum, 1e-300, out=cum)
        cum **= -0.5
        cum *= prof.seg[rows]
        vals[rows] = cum.sum(axis=1)
    vals[w == 0.0] = math.inf
    return vals


def _subgradient_row(measure: DiscreteMeasure, row: int) -> np.ndarray:
    """d f(t_row) / d w, from the per-segment closed form.

    Each integration segment [sqrt(d_j), sqrt(d_j+1)) contributes
    -(1/2) * mass^(-3/2) * segment_length to every weight inside the
    corresponding ball, which telescopes into a suffix sum over the
    distance-sorted order.
    """
    prof = _profile(measure.index_set)
    order = prof.order[row]
    seg = prof.seg[row]
    # the clip keeps mass**-1.5 inside float range for near-zero weights
    cum = np.maximum(np.cumsum(measure.weights[order]), 1e-150)
    contrib = -0.5 * seg * cum ** -1.5
    suffix = np.cumsum(contrib[::-1])[::-1]
    g = np.empty_like(suffix)
    g[order] = suffix
    return g


# ---------------------------------------------------------------------------
# functionals


def strong_functional_at(measure: DiscreteMeasure, t: float) -> float:
    """The ball-integral f(t); +inf when m({t}) = 0 and T is not a singleton."""
    pos = measure.index_set.position(t)
    return float(_integral_rows(measure)[pos])


def strong_functional(measure: DiscreteMeasure) -> tuple[float, float]:
    """(sup_t f(t), attaining t), smallest index on ties.

    The sup is +inf as soon as any point carries zero mass, since the
    integrand at such a point diverges near r = 0.
    """
    vals = _integral_rows(measure)
    pos = int(np.argmax(vals))
    return float(vals[pos]), float(measure.index_set.points[pos])


def weak_functional(measure: DiscreteMeasure) -> float:
    """integral of f against m itself; zero-mass points contribute nothing."""
    vals = _integral_rows(measure)
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
    tree = measure.index_set.partition
    sep = tree.separation_depth
    w = measure.weights
    total = 0.0
    for k in range(1, sep + 1):
        masses = np.add.reduceat(w, tree.cell_arrays(k)[0])
        total += 2.0 ** -k * float(np.sqrt(masses).sum())
    total += 2.0 ** -sep * float(np.sqrt(w).sum())
    return total


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
            rows += 2.0 ** -k * np.repeat(masses, np.diff(np.r_[starts, w.size])) ** -0.5
        rows += 2.0 ** -sep * w ** -0.5
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


@dataclass(frozen=True)
class RMBound:
    """Classical log-squared coefficient bound sum a_n^2 ln^2(n+1)."""

    value: float
    terms: tuple[tuple[int, float, float], ...]  # (n, a_n^2, term)


def rademacher_menchov(coeffs: CoefficientSequence) -> RMBound:
    sq = np.asarray(coeffs.values, dtype=float) ** 2
    n = np.arange(1, sq.size + 1)
    logs = np.log(n + 1.0) ** 2
    terms = sq * logs
    return RMBound(
        value=float(terms.sum()),
        terms=tuple((int(i), float(s), float(t)) for i, s, t in zip(n, sq, terms)),
    )


# ---------------------------------------------------------------------------
# good-index filter


@dataclass(frozen=True)
class GoodLevel:
    level: int
    good: tuple[int, ...]       # absolute child indices at this level
    full_sum: float             # sum of sqrt(mass) over all nonempty cells
    filtered_sum: float         # sum of sqrt(mass) over good indices


@dataclass(frozen=True)
class GoodIndexTable:
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


def _level_masses(tree: PartitionTree, weights: np.ndarray, k: int) -> tuple:
    """Level-k starts, keys, masses, parents' child-mass matrix, good-child flags."""
    starts, keys = tree.cell_arrays(k)
    # per-cell sums keep a light cell's precision; prefix differences lose it
    masses = np.add.reduceat(weights, starts)
    parent = np.searchsorted(tree.cell_arrays(k - 1)[0], starts, side="right") - 1
    slot = (keys % 4).astype(np.intp)
    children = np.zeros((parent[-1] + 1, 4))
    children[parent, slot] = masses
    # a good child holds at least 1/32 of a positive mass, so it is a cell
    return starts, keys, masses, children, _balance(children)[parent, slot]


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
        _, keys, masses, _, good = _level_masses(tree, measure.weights, k)
        roots = np.sqrt(masses)
        out.append(GoodLevel(level=k, good=tuple(int(i) for i in keys[good]),
                             full_sum=float(roots.sum()),
                             filtered_sum=float(roots[good].sum())))
    return GoodIndexTable(levels=tuple(out))


def _filtered_value(table: GoodIndexTable) -> float:
    return (FILTER_WEIGHT + table.filtered_series()) / (1.0 - FILTER_WEIGHT / 2.0)


def filtered_bound(measure: DiscreteMeasure) -> float:
    """(1 - L/2)^-1 * (L + sum_k 2^-k sum_{good i} sqrt(m(cell_i)))."""
    return _filtered_value(classify_good_indices(measure))


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class FunctionalReport:
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


def evaluate_functionals(
    measure: DiscreteMeasure,
    coeffs: CoefficientSequence | None = None,
) -> FunctionalReport:
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
        dyadic_value=dyadic_bound(measure),
        filtered_value=_filtered_value(table),
        rm_value=None if coeffs is None else rademacher_menchov(coeffs).value,
        filter_weight=FILTER_WEIGHT,
        chaining_constant=CHAINING_CONSTANT,
        constant_formula=COMBINED_BOUND_FORMULA,
        per_level=per_level,
    )
    if report.weak_value > report.strong_value + 1e-10:
        raise AssertionError("internal consistency error: weak exceeds strong")
    return report
