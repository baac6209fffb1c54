"""Index sets, quad-adic partitions, and discrete measures.

A coefficient sequence (a_n), all positive, induces the point set

    T = {0} union {sum_{n <= m} c * a_n^2 : 1 <= m <= N}

where c = 1 when the raw total sum is below 1 and c = (1 - 2^-32)/total
otherwise, so that T always sits inside [0, 1).  The quad-adic partition
at level k splits [0, 1) into cells [i 4^-k, (i+1) 4^-k) intersected
with T; cells nest four-into-one across levels.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

__all__ = [
    "InvalidCoefficientError",
    "InvalidMeasureError",
    "DomainError",
    "CoefficientSequence",
    "IndexSet",
    "PartitionTree",
    "DiscreteMeasure",
    "build_index_set",
    "build_partition",
    "ball_mass",
    "check_measure_spec",
    "make_measure",
]

SCALE_CEILING = 1.0 - 2.0 ** -32


class InvalidCoefficientError(ValueError):
    """Raised for empty, non-positive, or non-finite coefficient input."""


class InvalidMeasureError(ValueError):
    """Raised for weights that cannot form a probability measure on T."""


class DomainError(ValueError):
    """Raised when a query point does not belong to the index set."""


class _Frozen:
    """Base of the classes whose ``__init__`` sets every field once: setting
    or deleting an attribute afterwards raises.  ``functools.cached_property``
    writes the instance ``__dict__`` directly, so cached values still work.
    Plain classes, as Python creates them without generating source: a
    generated class costs 0.5-0.9 ms at every start."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# coefficients


class CoefficientSequence(_Frozen):
    """A finite positive coefficient sequence with optional family metadata.

    ``family`` is one of ``explicit``, ``power`` (a_n = n^-p), or
    ``geometric`` (a_n = q^(n/2), that is a_n^2 = q^n).  Family metadata
    only feeds diagnostics such as the truncated tail mass; the values
    array is always materialized.
    """

    values: np.ndarray
    family: str
    family_params: Mapping[str, float]

    def __init__(self, values: np.ndarray, family: str = "explicit",
                 family_params: Mapping[str, float] | None = None):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidCoefficientError("at least one coefficient required")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise InvalidCoefficientError("coefficients must be finite and positive")
        vals = vals.copy()
        vals.setflags(write=False)
        self._set(values=vals, family=family,
                  family_params={} if family_params is None else family_params)

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def explicit(cls, values: Iterable[float]) -> "CoefficientSequence":
        return cls(np.asarray(list(values), dtype=float))

    @classmethod
    def power(cls, exponent: float, count: int) -> "CoefficientSequence":
        if count < 1:
            raise InvalidCoefficientError("at least one coefficient required")
        n = np.arange(1, count + 1, dtype=float)
        return cls(n ** -exponent, family="power",
                   family_params={"exponent": float(exponent), "count": int(count)})

    @classmethod
    def geometric(cls, ratio: float, count: int) -> "CoefficientSequence":
        if count < 1:
            raise InvalidCoefficientError("at least one coefficient required")
        if ratio <= 0.0:
            raise InvalidCoefficientError("geometric ratio must be positive")
        n = np.arange(1, count + 1, dtype=float)
        return cls(ratio ** (n / 2.0), family="geometric",
                   family_params={"ratio": float(ratio), "count": int(count)})

    @classmethod
    def from_json(cls, obj: Mapping) -> "CoefficientSequence":
        """Parse ``{"kind": ...}`` coefficient input; unknown keys rejected."""
        if not isinstance(obj, Mapping):
            raise InvalidCoefficientError("coefficient input must be a JSON object")
        kind = _check_kind_and_keys(
            obj, {"explicit": ("values",), "power": ("exponent", "count"),
                  "geometric": ("ratio", "count")},
            InvalidCoefficientError, "coefficient", "coefficients need")
        try:
            if kind == "explicit":
                return cls.explicit(obj["values"])
            if kind == "power":
                return cls.power(float(obj["exponent"]), int(obj["count"]))
            return cls.geometric(float(obj["ratio"]), int(obj["count"]))
        except (TypeError, OverflowError) as exc:  # such as an exponent past float range
            raise InvalidCoefficientError(f"invalid {kind} coefficient input: {exc}") from exc

    def to_json(self) -> dict:
        if self.family == "explicit":
            return {"kind": "explicit", "values": [float(v) for v in self.values]}
        out = {"kind": self.family}
        out.update({k: v for k, v in self.family_params.items()})
        return out

    def tail_mass(self) -> float | None:
        """Sum of a_n^2 beyond the truncation, when the family admits one.

        Returns None for explicit sequences, +inf when the full series
        diverges (the truncation then changes the object qualitatively
        and callers should warn).
        """
        if self.family == "power":
            p = self.family_params["exponent"]
            n = self.family_params["count"]
            if 2.0 * p <= 1.0:
                return math.inf
            return _hurwitz_zeta(2.0 * p, n + 1.0)
        if self.family == "geometric":
            q = self.family_params["ratio"]
            n = self.family_params["count"]
            if q >= 1.0:
                return math.inf
            return q ** (n + 1) / (1.0 - q)
        return None


# B_2j / (2j)! for j = 1..8
_BERNOULLI_TERMS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000, 1 / 74724249600,
                    -3617 / 10670622842880000)


def _hurwitz_zeta(s: float, a: float) -> float:
    """sum_{k >= 0} (a + k)^-s for s > 1, a >= 1, by Euler-Maclaurin.

    Twelve head terms, then at x = a + 12 the integral x^(1-s)/(s-1), the
    half term x^-s/2 and eight Bernoulli corrections
    B_2j/(2j)! s(s+1)...(s+2j-2) x^(-s-2j+1) (DLMF 25.11; Abramowitz and
    Stegun 23.1.30), summed in one ``math.fsum``.
    """
    x = a + 12.0
    terms = [(a + k) ** -s for k in range(12)]
    d = x ** -s
    terms += [x ** (1.0 - s) / (s - 1.0), 0.5 * d]
    d *= s / x
    for j, b in enumerate(_BERNOULLI_TERMS):
        terms.append(b * d)
        # left to right, so an underflowed d stays 0 and never meets inf
        d = d * (s + 2 * j + 1) / x * (s + 2 * j + 2) / x
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# index set


# Entries per block.  A block's float temporaries take 512 KiB, so they stay
# in cache where whole (P, P) temporaries did not.  The profile is built one
# block of rows at a time (31 rows at P = 2049, one block holding every row up
# to P = 256), and a pass over the integrals reads it one block of steps at a
# time (24 steps at P = 2049, a multiple of 8), each block written over the
# last in one float buffer of the block and one row more.
_BLOCK_ITEMS = 1 << 16

# numpy sums a contiguous row pairwise, in leaves of at most this many entries.
_PAIRWISE_LEAF = 128

# From this many points a pass adds the running masses one step at a time:
# each call makes P independent additions, where a cumsum along the step
# axis walks one strided column at a time.  Both make the same additions.
# Per pass, the per-step loop takes 40% more time than the cumsum at P = 65
# and 29% more at 129, the two are within 4% from 160 to 192 points, and the
# loop takes 8% less at 257, 25% less at 513 and 42% less at 2049
# (BENCH_sqrt_divide.json).
_STEPWISE_FROM = 192


def _row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of range(n), each of _BLOCK_ITEMS // n rows or one."""
    step = max(1, _BLOCK_ITEMS // n)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


class _DistanceProfile(NamedTuple):
    order: np.ndarray  # (P, P) permutation sorting each row's distances, in uint8/16/32
    seg: np.ndarray    # (P, P) increments of sqrt(distance), capped at sqrt(D)


class IndexSet(_Frozen):
    """Strictly increasing points of [0, 1) with the applied scale factor.

    ``merged_duplicates`` counts cumulative sums that collided in float
    arithmetic and were collapsed; mathematically the points are distinct
    (all a_n > 0) but for fast-decaying tails the partial sums fall below
    one ulp of each other.

    ``coeffs`` is the sequence the points were built from; only
    ``build_index_set`` sets it, so it is None for a set given by points.
    The quad-adic partition (``partition``) and the distance profile
    behind the strong and weak functionals (``profile``) are built on
    first use and stored on the instance, so both are freed with it.
    """

    points: np.ndarray
    scale: float
    raw_total: float
    merged_duplicates: int
    coeffs: CoefficientSequence | None

    def __init__(self, points: np.ndarray, scale: float, raw_total: float,
                 merged_duplicates: int = 0):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0 or pts[0] != 0.0:
            raise InvalidCoefficientError("index set must start at 0")
        if not np.all(np.isfinite(pts)):
            raise InvalidCoefficientError("index set points must be finite")
        if np.any(np.diff(pts) <= 0.0):
            raise InvalidCoefficientError("index set points must strictly increase")
        if pts[-1] >= 1.0:
            raise InvalidCoefficientError("index set points must stay below 1")
        pts = pts.copy()
        pts.setflags(write=False)
        self._set(points=pts, scale=scale, raw_total=raw_total,
                  merged_duplicates=merged_duplicates, coeffs=None)

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def diameter(self) -> float:
        return float(self.points[-1] - self.points[0])

    @functools.cached_property
    def partition(self) -> "PartitionTree":
        """The quad-adic cells of this set, built once by ``build_partition``."""
        return build_partition(self)

    @functools.cached_property
    def profile(self) -> _DistanceProfile:
        """Each row's distance order and sqrt-distance increments, 10 P^2 bytes.

        ``order[t, k]`` is the k-th nearest point to t and ``seg[t, k]`` the
        k-th step of the integral.  Both are column-major, so ``order.T``
        and ``seg.T`` hold one contiguous row per step, as the integral
        pass reads them.  The order is stored in the smallest unsigned type
        that holds P - 1: uint16 from 257 to 65536 points, uint8 below
        (9 P^2 bytes), uint32 above (12 P^2).  A stable argsort orders each
        row on its own, so building it one block of rows at a time gives the
        same arrays as one whole sort.
        """
        pts = self.points
        n = pts.size
        root_d = math.sqrt(self.diameter)
        order = np.empty((n, n), dtype=np.min_scalar_type(n - 1), order="F")
        seg = np.empty((n, n), order="F")
        for rows in _row_blocks(n):
            dist = np.abs(pts[None, :] - pts[rows, None])
            block = np.argsort(dist, axis=1, kind="stable")
            order[rows] = block
            # the sorted distances, from the points by dist's own subtraction
            sq = np.take(pts, block)
            sq -= pts[rows, None]
            np.sqrt(np.abs(sq, out=sq), out=sq)
            # difference row-major, then copy: into a strided out= the build
            # takes about 10 ms more at P = 2049
            seg[rows, :-1] = sq[:, 1:] - sq[:, :-1]
            seg[rows, -1] = root_d - sq[:, -1]
        return _DistanceProfile(order, seg)

    def position(self, t: float) -> int:
        """Index of t in the point array; DomainError when absent."""
        pos = int(np.searchsorted(self.points, t))
        if pos >= len(self) or self.points[pos] != t:
            raise DomainError(f"point {t!r} is not in the index set")
        return pos

    def to_json(self) -> dict:
        return {
            "points": [float(t) for t in self.points],
            "scale": float(self.scale),
            "raw_total": float(self.raw_total),
            "merged_duplicates": int(self.merged_duplicates),
        }


def build_index_set(coeffs: CoefficientSequence) -> IndexSet:
    """Partial-sum point set of c * a_n^2, scaled to live inside [0, 1)."""
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        sq = np.asarray(coeffs.values, dtype=float) ** 2
        raw_total = float(np.cumsum(sq)[-1])
    if not math.isfinite(raw_total):
        raise InvalidCoefficientError("the coefficient squares must have a finite sum")
    scale = 1.0 if raw_total < 1.0 else SCALE_CEILING / raw_total
    pts = np.concatenate([[0.0], np.cumsum(scale * sq)])
    # pts never decreases, so dropping repeats of the previous point is
    # np.unique, without its import of numpy.ma
    distinct = pts[np.r_[True, pts[1:] != pts[:-1]]]
    merged = int(pts.size - distinct.size)
    if merged:
        warnings.warn(
            f"merged {merged} coefficient partial sums that collide in float64; "
            f"effective index set has {distinct.size} points",
            RuntimeWarning,
            stacklevel=2,
        )
    if distinct[-1] >= 1.0:
        raise InvalidCoefficientError("internal consistency error: scaled total >= 1")
    index_set = IndexSet(points=distinct, scale=scale, raw_total=raw_total,
                         merged_duplicates=merged)
    object.__setattr__(index_set, "coeffs", coeffs)
    return index_set


# ---------------------------------------------------------------------------
# quad-adic partition

def _cell_index(t: float, level: int) -> int:
    """Exact floor(t * 4^level) for t >= 0 via integer mantissa shifts.

    Plain float multiplication overflows for level >~ 512 and rounds the
    cell boundary for large levels; decomposing t = m * 2^e keeps the
    computation exact at every level.
    """
    if t == 0.0:
        return 0
    mant, exp = math.frexp(t)
    m = int(math.ldexp(mant, 53))
    shift = exp - 53 + 2 * level
    return m << shift if shift >= 0 else m >> -shift


def _level_arrays(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(start offsets, keys) of the nonempty level-k cells, in point order.

    The keys floor(t * 4^k) are exact: scaling by a power of two is exact,
    so while 4^k stays a finite double (level 511) they are integer-valued
    doubles; deeper levels fall back to Python integers.
    """
    if 2 * k <= 1022:
        keys = np.floor(np.ldexp(points, 2 * k))
    else:
        keys = np.array([_cell_index(float(t), k) for t in points], dtype=object)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return starts, keys[starts]


class PartitionTree(_Frozen):
    """Nested quad-adic cells over a point set, stored as per-level arrays.

    ``separation_depth`` is the smallest level at which every nonempty
    cell is a singleton.  For 0 <= k <= separation_depth, ``levels[k]``
    holds the start offsets into ``points`` of the nonempty level-k cells
    (each runs up to the next start) and ``keys[k]`` their quad-adic
    indices floor(t * 4^k).
    """

    points: np.ndarray
    separation_depth: int
    levels: tuple[np.ndarray, ...]
    keys: tuple[np.ndarray, ...]

    def __init__(self, points: np.ndarray, separation_depth: int,
                 levels: tuple[np.ndarray, ...], keys: tuple[np.ndarray, ...]):
        self._set(points=points, separation_depth=separation_depth,
                  levels=levels, keys=keys)

    def cell_arrays(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(start offsets, keys) at any level, stored or computed on demand."""
        if k < 0:
            raise ValueError("level must be nonnegative")
        if k <= self.separation_depth:
            return self.levels[k], self.keys[k]
        return _level_arrays(self.points, k)


def build_partition(index_set: IndexSet) -> PartitionTree:
    """Build the cell tree, storing every level up to separation.

    ``IndexSet.partition`` calls this once per index set and keeps the
    result; every tree functional reads the partition from there.
    """
    pts = index_set.points
    # distinct doubles in [0, 1) separate by level 537 (subnormal spacing)
    levels = [_level_arrays(pts, 0)]
    while levels[-1][0].size < pts.size:
        levels.append(_level_arrays(pts, len(levels)))
    starts, keys = zip(*levels)
    for arr in starts + keys:  # every user of the index set shares them
        arr.setflags(write=False)
    return PartitionTree(points=pts, separation_depth=len(levels) - 1,
                         levels=starts, keys=keys)


# ---------------------------------------------------------------------------
# measures


def _checked_weights(index_set: IndexSet, weights) -> np.ndarray:
    """``weights`` as floats, one finite nonnegative value per point."""
    w = np.asarray(weights, dtype=float)
    if w.shape != index_set.points.shape:
        raise InvalidMeasureError("weight count must match index set size")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise InvalidMeasureError("weights must be finite and nonnegative")
    return w


class DiscreteMeasure(_Frozen):
    """A probability measure on the points of an index set."""

    index_set: IndexSet
    weights: np.ndarray

    def __init__(self, index_set: IndexSet, weights: np.ndarray):
        w = _checked_weights(index_set, weights)
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidMeasureError("weights must sum to 1 within 1e-12")
        w = w.copy()
        w.setflags(write=False)
        self._set(index_set=index_set, weights=w)

    @classmethod
    def uniform(cls, index_set: IndexSet) -> "DiscreteMeasure":
        n = len(index_set)
        return cls(index_set, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index_set: IndexSet, at: float) -> "DiscreteMeasure":
        pos = index_set.position(at)
        w = np.zeros(len(index_set))
        w[pos] = 1.0
        return cls(index_set, w)

    @classmethod
    def explicit(cls, index_set: IndexSet, weights: Iterable[float]) -> "DiscreteMeasure":
        w = _checked_weights(index_set, list(weights))
        total = float(w.sum())
        if total <= 0.0:
            raise InvalidMeasureError("weights must have positive total")
        return cls(index_set, w / total)

    @classmethod
    def dirichlet_random(cls, index_set: IndexSet, seed: int) -> "DiscreteMeasure":
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(len(index_set)))
        return cls(index_set, w / w.sum())

    @functools.cached_property
    def integrals(self) -> np.ndarray:
        """Read-only f(t) = integral_0^sqrt(D) m(B(t, r^2))^(-1/2) dr for every
        t in T, summed over the index set's ``profile``; +inf where the point
        carries no mass.  Built on first use and freed with the measure.

        One pass on the calling thread reads the profile step-major, block
        by block (``_step_integrands``), and sums each point's steps in
        numpy's pairwise order (``_pairwise_columns``), so every value is
        bit for bit the row sum of the dense (P, P) integrand
        seg / sqrt(m): only additions, sqrt and division, which round
        correctly, so the values do not depend on the CPU or on numpy's
        dispatch level.
        """
        w = self.weights
        vals = np.empty(w.size)
        _pairwise_columns(_step_integrands(self.index_set.profile, w), w.size, vals)
        vals[w == 0.0] = math.inf
        vals.setflags(write=False)
        return vals


def _step_integrands(prof: _DistanceProfile, w: np.ndarray) -> Iterator[np.ndarray]:
    """The integrand seg[t, k] / sqrt(m_t(k)) of every point t, one block of
    steps k at a time: (steps, P) arrays of a multiple of 8 steps, but the last.

    m_t(k) is the running mass of t's k + 1 nearest points.  The pass owns
    one (block + 1, P) buffer.  Each block's weights are gathered into its
    rows 1.. and the masses accumulated down the rows, starting from row 0
    after the first block; the block's last row is then copied into row 0.
    So every point's additions are those of a cumsum along its row, in the
    same order.  Point t's running mass starts at w_t and never decreases,
    so the clamp at 1e-300 changes nothing unless some weight is below it.
    The masses are then replaced in place by their sqrt and seg divided by
    them: both round correctly, so each entry lies within 1.5 ulps of the
    exact quotient, and every kernel numpy may dispatch computes the same
    bits (its power kernels differ between AVX-512 and other CPUs).  Each
    block is written over the one before, so a caller that keeps a block
    past the next one copies it.
    """
    n = w.size
    order, seg = prof.order.T, prof.seg.T
    clamp = w.min() < 1e-300
    step = max(8, _BLOCK_ITEMS // n // 8 * 8)
    buf = np.empty((min(step, n) + 1, n))
    rows = list(buf) if n >= _STEPWISE_FROM else None
    for k0 in range(0, n, step):
        m = min(step, n - k0)
        # "clip" writes straight into out=; "raise" would stage it in a copy
        w.take(order[k0:k0 + m], out=buf[1:m + 1], mode="clip")
        lo = 0 if k0 else 1  # row 0 holds no masses before the first block
        if n >= _STEPWISE_FROM:
            for prev, row in zip(rows[lo:m], rows[lo + 1:m + 1]):
                np.add(prev, row, out=row)
        else:
            np.cumsum(buf[lo:m + 1], axis=0, out=buf[lo:m + 1])
        np.copyto(buf[0], buf[m])
        cum = buf[1:m + 1]
        if clamp:
            np.maximum(cum, 1e-300, out=cum)
        np.sqrt(cum, out=cum)
        np.divide(seg[k0:k0 + m], cum, out=cum)
        yield cum


def _subgradient_row(measure: DiscreteMeasure, row: int) -> np.ndarray:
    """d f(t_row) / d w, from the per-segment closed form.

    Each integration segment [sqrt(d_j), sqrt(d_j+1)) contributes
    -(1/2) * mass^(-3/2) * segment_length to every weight inside the
    corresponding ball, which telescopes into a suffix sum over the
    distance-sorted order.
    """
    prof = measure.index_set.profile
    order = prof.order[row]
    seg = prof.seg[row]
    # the clip keeps mass**-1.5 inside float range for near-zero weights;
    # sqrt and division round correctly on every CPU, where power does not
    cum = np.maximum(np.cumsum(measure.weights[order]), 1e-150)
    contrib = -0.5 * seg / (cum * np.sqrt(cum))
    suffix = np.cumsum(contrib[::-1])[::-1]
    g = np.empty_like(suffix)
    g[order] = suffix
    return g


def _pairwise_columns(blocks: Iterable[np.ndarray], n: int, out: np.ndarray) -> None:
    """Write into ``out`` the column sums of the (n, out.size) array x that
    ``blocks`` yields in consecutive blocks of a multiple of 8 rows (the
    last may be shorter), bit for bit ``np.ascontiguousarray(x.T).sum(axis=1)``.

    numpy sums a contiguous row of n entries pairwise: it splits the row
    at n // 2 rounded down to a multiple of 8 until a part has at most
    _PAIRWISE_LEAF entries; sums such a leaf in 8 interleaved accumulators,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then
    adds the fewer than 8 entries left one by one (below 8 entries, all of
    them onto 0.0); adds the parts back up the same tree; and adds the
    root to the initial 0.0.  Here every column goes through those
    additions at once.  Leaves start on multiples of 8, so each group of 8
    rows lies in one block and one leaf.
    """
    # each leaf's start, the end of its groups of 8, and its stop
    leaves = iter([(a, b - (b - a) % 8, b) for a, b in _pairwise_leaves(n)])
    start, full, stop = next(leaves)
    acc = np.empty((8, out.size))
    sums, leaf, k = [], None, 0
    for block in blocks:
        for i in range(0, len(block), 8):
            rows = block[i:i + 8]
            if k < full:
                if k == start:
                    np.copyto(acc, rows)
                else:
                    acc += rows
                if k + 8 == full:
                    pairs = acc[0::2] + acc[1::2]
                    quads = pairs[0::2] + pairs[1::2]
                    leaf = quads[0] + quads[1]
            else:  # the leaf's last len(rows) < 8 entries
                if leaf is None:
                    leaf = np.zeros(out.size)
                for row in rows:
                    leaf += row
            k += len(rows)
            if k == stop:
                sums.append(leaf)
                start, full, stop = next(leaves, (n, n, n))
                leaf = None
    np.add(0.0, _pairwise_join(n, iter(sums)), out=out)


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise summation splits a part of n > _PAIRWISE_LEAF entries."""
    return n // 2 - n // 2 % 8


def _pairwise_leaves(n: int, start: int = 0) -> list[tuple[int, int]]:
    """(start, stop) of each leaf of numpy's pairwise summation of n entries."""
    if n <= _PAIRWISE_LEAF:
        return [(start, start + n)]
    half = _pairwise_split(n)
    return _pairwise_leaves(half, start) + _pairwise_leaves(n - half, start + half)


def _pairwise_join(n: int, sums: Iterator[np.ndarray]) -> np.ndarray:
    """Add the leaf sums of a part of n entries, in order, up numpy's tree."""
    if n <= _PAIRWISE_LEAF:
        return next(sums)
    half = _pairwise_split(n)
    left = _pairwise_join(half, sums)
    left += _pairwise_join(n - half, sums)
    return left


def _is(value, kind: type) -> bool:
    """``value`` is a ``kind`` (``numbers.Integral`` or ``numbers.Real``), not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_kind_and_keys(spec: Mapping, keys: Mapping[str, tuple], error: type,
                         what: str, need: str) -> str:
    """The kind of a ``{"kind": ...}`` input whose other keys are ``keys[kind]``.

    Raises ``error`` for an unknown kind, an unknown key, naming the
    first in ``keys[kind]`` order, a missing key ("<kind> <need> 'key'")
    or a value of the wrong JSON type ("invalid <kind> <what> input:
    '<type>' object ...").  Counts and seeds are integers, other scalars
    are numbers, and lists hold numbers; a bool is neither.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in keys:
        raise error(f"unknown {what} kind: {kind!r}")
    extra = set(spec) - {"kind", *keys[kind]}
    if extra:
        raise error(f"unknown keys in {what} input: {sorted(extra)}")
    missing = [key for key in keys[kind] if key not in spec]
    if missing:
        raise error(f"{kind} {need} {missing[0]!r}")

    def reject(value, where: str, expected: str):
        raise error(f"invalid {kind} {what} input: {type(value).__name__!r} object "
                    f"given {where} {key!r}; {expected} is required")

    for key in keys[kind]:
        value = spec[key]
        if key in ("values", "weights"):
            if not isinstance(value, (list, tuple, np.ndarray)):
                reject(value, "for", "a list of numbers")
            for item in value:
                if not _is(item, numbers.Real):
                    reject(item, "in", "a list of numbers")
        elif key in ("count", "seed"):
            if not _is(value, numbers.Integral):
                reject(value, "for", "an integer")
        elif not _is(value, numbers.Real):
            reject(value, "for", "a number")
    return kind


def check_measure_spec(spec: Mapping | str) -> Mapping:
    """``spec`` as a checked ``{"kind": ...}`` object; needs no index set."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, Mapping):
        raise InvalidMeasureError("measure input must be a name or JSON object")
    _check_kind_and_keys(
        spec, {"uniform": (), "point_mass": ("at",), "explicit": ("weights",),
               "dirichlet_random": ("seed",)},
        InvalidMeasureError, "measure", "measure needs")
    return spec


def make_measure(index_set: IndexSet, spec: Mapping | str) -> DiscreteMeasure:
    """Build a measure from ``"uniform"`` or a ``{"kind": ...}`` object."""
    spec = check_measure_spec(spec)
    kind = spec["kind"]
    if kind == "uniform":
        return DiscreteMeasure.uniform(index_set)
    try:
        if kind == "point_mass":
            return DiscreteMeasure.point_mass(index_set, float(spec["at"]))
        if kind == "explicit":
            return DiscreteMeasure.explicit(index_set, spec["weights"])
        return DiscreteMeasure.dirichlet_random(index_set, int(spec["seed"]))
    except (TypeError, OverflowError) as exc:  # such as a point past float range
        raise InvalidMeasureError(f"invalid {kind} measure input: {exc}") from exc


def ball_mass(measure: DiscreteMeasure, t: float, r: float) -> float:
    """Mass of the closed ball {s in T : |s - t| <= r}; t must lie in T."""
    measure.index_set.position(t)
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    pts = measure.index_set.points
    return float(measure.weights[np.abs(pts - t) <= r].sum())
