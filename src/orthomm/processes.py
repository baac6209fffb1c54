"""Stochastic processes on partial-sum index sets.

Two constructions live here.  The forward direction samples the partial
sums of an orthogonal series directly and checks the chaining upper
bound against the strong functional.  The reverse direction assembles an
adversarial process level by level on the quad-adic partition: at each
cell a random child selector and four sign increments build a pinned
skeleton, all paths descend one level at a time, each into its selected
child (rescaled by the inverse root of its selection probability), and
a Brownian bridge fills in below the base depth.  Adding one independent
linear Gaussian term turns the bridge-type increments |s-t|(1 - |s-t|)
into orthogonal increments |s-t| exactly.

Every variate comes from an SFC64 stream keyed by (seed, kind, *key):
uniform slot j is (seed, 0, j), normal slot j is (seed, 1, j), and normal
slot j of the bridge at the leaf with exact cell key kappa is (seed, 2,
kappa, j).  Path i reads element i of each uniform and normal slot, and
element r_i of its leaf's bridge slots, where r_i counts the paths before
i that reach the same leaf.  So a path's values do not depend on the path
count, and adding slots leaves the existing ones unchanged.  Every Monte
Carlo reduction runs on consecutive blocks of ``_PATH_BLOCK`` paths and
keeps one statistic per path, so no paths x points matrix is held; reading
a stream in blocks gives the values of one bulk read, and no step mixes
values across paths, so results do not depend on the block size.  The
partial sums run slot by slot and keep each path's running extremes, 0
included.  The adversarial sampler holds a block one row per point with
its paths sorted by leaf; ``ProcessSampler.per_path`` reduces each block
to a per-path statistic and undoes the sort on that statistic only.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .functionals import (
    CHAINING_CONSTANT,
    LOWER_BOUND_FACTOR,
    _level_masses,
    classify_good_indices,
    strong_functional,
)
from .series import (
    CoefficientSequence,
    DiscreteMeasure,
    DomainError,
    PartitionTree,
    _cell_index,
)

__all__ = [
    "MCEstimate",
    "SkeletonVariables",
    "BridgeLeaf",
    "ProcessSampler",
    "AdversarialSampler",
    "OrthogonalLift",
    "OrthonormalGenerator",
    "ChainingReport",
    "LowerBoundReport",
    "s_skeleton",
    "build_skeleton_variables",
    "build_adversarial_process",
    "second_moment_oracle",
    "simulate_sup_square",
    "verify_chaining_bound",
    "lower_bound_report",
]

_PATH_BLOCK = 4096  # paths per Monte Carlo block
_FRAC = np.arange(5.0) / 4.0  # s_skeleton's interpolation weights


def _check_seed(seed: int) -> None:
    # SeedSequence splits integers into 32-bit words and pads a key to four
    # words with zeros, so a seed past 32 bits would share a smaller one's streams
    if not 0 <= seed < 2 ** 32:
        raise ValueError(f"a nonnegative seed below 2**32 is required, got {seed}")


def _stream(seed: int, kind: int, *key: int) -> np.random.Generator:
    """The SFC64 stream keyed by (seed, kind, *key).

    ``SeedSequence`` hashes the key into SFC64's state, whose counter word
    gives every stream a period of at least 2**64; streams of distinct
    keys are independent for all practical purposes (numpy's "Parallel
    Random Number Generation").  Each stream is read from its start, so
    no counter-based generator is needed.  The keys in use are (seed, 0,
    j), (seed, 1, j) and (seed, 2, kappa, j).  With the seed in one 32-bit
    word, the kind word tells the kinds apart and the remaining words the
    keys of one kind, also once padded to four words or split into 32-bit
    words.
    """
    _check_seed(seed)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, kind, *key))))


def _read(streams: list, count: int, normal: bool, buf: np.ndarray | None = None) -> np.ndarray:
    """The next ``count`` values of each stream, one column per stream,
    written over the start of ``buf`` when one is given."""
    size = len(streams) * count
    out = (np.empty(size) if buf is None else buf[:size]).reshape(len(streams), count)
    for g, row in zip(streams, out):
        if normal:
            g.standard_normal(out=row)
        else:
            g.random(out=row)
    return out.T


def _path_blocks(seed: int, paths: int, n_uniform: int, n_normal: int):
    """(start, stop, U, Z) for consecutive blocks of ``_PATH_BLOCK`` paths.

    U holds uniform slots 0..n_uniform-1 and Z normal slots
    0..n_normal-1 of paths start..stop-1, one row per path.  The
    arguments are checked at the call, the blocks are read as they are
    taken, each into the same U and Z buffers, so a caller that keeps a
    block past the next one copies it.
    """
    if paths <= 0:
        raise ValueError("at least one path required")
    _check_seed(seed)
    uniform = [_stream(seed, 0, j) for j in range(n_uniform)]
    normal = [_stream(seed, 1, j) for j in range(n_normal)]

    def blocks():
        ubuf, zbuf = (np.empty(n * min(paths, _PATH_BLOCK)) for n in (n_uniform, n_normal))
        for start in range(0, paths, _PATH_BLOCK):
            stop = min(start + _PATH_BLOCK, paths)
            yield (start, stop, _read(uniform, stop - start, False, ubuf),
                   _read(normal, stop - start, True, zbuf))
    return blocks()


def _selector_cdf(probs: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs, axis=-1)
    return cum / cum[..., -1:]


def _draw_tau(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to child selectors by inverse CDF."""
    return np.minimum(np.searchsorted(_selector_cdf(probs), u, side="right"), 3)


def _left_endpoint(cell_index: int, level: int) -> float:
    # one correctly rounded division; keys past 2**1024 have no float
    return int(cell_index) / 4 ** level


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    paths: int
    seed: int

    @classmethod
    def from_samples(cls, samples: np.ndarray, seed: int) -> MCEstimate:
        samples = np.asarray(samples, dtype=float)
        n = int(samples.size)
        if n < 2:
            raise ValueError("a Monte Carlo estimate needs at least two samples")
        return cls(mean=float(samples.mean()),
                   stderr=float(samples.std(ddof=1) / math.sqrt(n)), paths=n, seed=seed)

    def to_json(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "paths": self.paths, "seed": self.seed}


def s_skeleton(z: np.ndarray) -> np.ndarray:
    """Pinned partial-sum skeleton of four increments.

    S_0 = 0, S_j = z_0 + ... + z_{j-1} - (j/4)(z_0 + ... + z_3), so
    S_4 = 0 identically.  Accepts any batch shape with final axis 4 and
    returns final axis 5.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 4:
        raise ValueError("last axis must hold exactly four increments")
    zeros = np.zeros(z.shape[:-1] + (1,))
    pre = np.concatenate([zeros, np.cumsum(z, axis=-1)], axis=-1)
    return pre - _FRAC * pre[..., 4:5]


@dataclass(frozen=True, eq=False)
class SkeletonVariables:
    """Joint law of the child selector and the four sign increments.

    When a good child exists in one parity pair, the increment at slot
    ``n`` is pinned to be selector-measurable: it takes ``x`` on the
    first atom of ``pair``, ``y`` on the second, and 0 elsewhere, chosen
    so the increment stays centered with unit second moment.  ``v`` is
    the guaranteed contribution of this cell to the expected supremum of
    the assembled process.  With no good children all four increments
    stay free symmetric signs and ``v`` is 0.
    """

    probs: np.ndarray
    n: int | None
    x: float
    y: float
    pair: tuple[int, ...]
    v: float

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (4,):
            raise ValueError("selector law must have four atoms")
        if np.any(p < 0) or not math.isclose(float(p.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("selector law must be a probability vector")
        object.__setattr__(self, "probs", p)

    def increments(self, tau: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Combine free signs with the pinned slot for given selectors."""
        z = np.array(free, dtype=float, copy=True)
        if self.n is None:
            return z
        tau = np.asarray(tau)
        pinned = np.where(tau == self.pair[0], self.x,
                          np.where(tau == self.pair[1], self.y, 0.0))
        z[..., self.n] = pinned
        return z

    def from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Selectors and increments from an (n, 5) block of uniforms.

        Column 0 picks the child by inverse CDF; columns 1-4 give the
        free signs, +1 below one half.
        """
        tau = _draw_tau(self.probs, u[:, 0])
        free = np.where(u[:, 1:5] < 0.5, 1.0, -1.0)
        return tau, self.increments(tau, free)

    def enumerate_outcomes(self) -> list[tuple[float, int, np.ndarray]]:
        """All (probability, selector, increments) atoms of the joint law."""
        free_slots = [j for j in range(4) if j != self.n]
        out = []
        for tau in range(4):
            p = float(self.probs[tau])
            if p <= 0.0:
                continue
            for signs in itertools.product((1.0, -1.0), repeat=len(free_slots)):
                free = np.zeros(4)
                free[free_slots] = signs
                z = self.increments(np.asarray(tau), free)
                out.append((p * 0.5 ** len(free_slots), tau, z))
        return out

    def to_json(self) -> dict:
        return {
            "probs": [float(v) for v in self.probs],
            "n": self.n,
            "x": self.x,
            "y": self.y,
            "pair": list(self.pair),
            "v": self.v,
        }


def _skeleton_law(children: np.ndarray, good: np.ndarray) -> tuple:
    """Skeleton laws of the rows of (rows, 4) child masses with positive totals.

    ``good`` flags each row's good children.  A good child in the even
    pair {0, 2} pins increment slot 3; failing that, a good child in the
    odd pair {1, 3} pins slot 2; a pair with a zero-probability atom, or
    no good child, pins nothing and guarantees nothing (v = 0).  The
    pinned values solve the two-point centering and unit-variance
    constraints on the pair's selection probabilities.  Returns the
    (rows, 4) selector probabilities, the pinned slots (4 for none), the
    (rows, 4) values of the pinned increment on each selector atom (0
    off the pair) and v.
    """
    probs = children / children.sum(axis=-1, keepdims=True)
    r = np.arange(len(probs))
    odd = (~(good[:, 0] | good[:, 2])).astype(np.intp)  # the pair {odd, odd + 2}
    pa, pb = probs[r, odd], probs[r, odd + 2]
    live = (good[r, odd] | good[r, odd + 2]) & (pa > 0.0) & (pb > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mx = np.sqrt(pb / (pa * (pa + pb)))
        my = np.sqrt(pa / (pb * (pa + pb)))
        v = np.where(live, 0.25 * np.sqrt(pa * pb / (pa + pb)), 0.0)
    sign = 1.0 - 2.0 * odd  # x = mx, y = -my on the even pair; -mx, my on the odd one
    pinned = np.zeros(probs.shape)
    pinned[r, odd] = np.where(live, sign * mx, 0.0)
    pinned[r, odd + 2] = np.where(live, -sign * my, 0.0)
    return probs, np.where(live, 3 - odd, 4), pinned, v


def build_skeleton_variables(child_masses, good_set) -> SkeletonVariables:
    """Skeleton law for one parent cell from its child masses: the one-row
    case of ``_skeleton_law``, warning when a good pair has a zero atom."""
    masses = np.asarray(child_masses, dtype=float)
    if masses.shape != (4,):
        raise ValueError("exactly four child masses expected")
    if np.any(masses < 0) or not np.all(np.isfinite(masses)):
        raise ValueError("child masses must be finite and nonnegative")
    if float(masses.sum()) <= 0.0:
        raise ValueError("child masses must not all vanish")
    good = set(good_set)
    if not good <= {0, 1, 2, 3}:
        raise ValueError("good indices must be child positions 0..3")
    probs, pin, pinned, v = _skeleton_law(masses[None], np.isin(np.arange(4), list(good))[None])
    n = int(pin[0])
    if n == 4:
        if good:
            warnings.warn("good pair has a zero-probability atom; using free signs",
                          RuntimeWarning)
        return SkeletonVariables(probs=probs[0], n=None, x=0.0, y=0.0, pair=(), v=0.0)
    pair = (3 - n, 5 - n)
    return SkeletonVariables(probs=probs[0], n=n, x=float(pinned[0, pair[0]]),
                             y=float(pinned[0, pair[1]]), pair=pair, v=float(v[0]))


@dataclass(frozen=True, eq=False)
class BridgeLeaf:
    """Brownian bridge inside one base-depth cell.

    Points sitting on the cell's left endpoint are pinned to zero; the
    remaining points, a contiguous run of columns after them, get a
    centered Gaussian vector with covariance min(s', t') - 4**level *
    s' * t' in coordinates local to the cell.  The bridge is Markov, so
    in point order it is X_k = a[k] X_{k-1} + sigma[k] z_k from X_{-1} = 0
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
    section 3.1), whose innovations factor the covariance with one
    coefficient pair per point.
    """

    level: int
    cell_index: int
    positions: np.ndarray
    local: np.ndarray
    pinned: np.ndarray
    a: np.ndarray
    sigma: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.positions.size)

    def covariance(self) -> np.ndarray:
        return _bridge_covariance(self.local[:, None], self.local, self.level)

    def values(self, z: np.ndarray) -> np.ndarray:
        """Bridge values at the positive-coordinate points from standard normals.

        Row i runs the recursion over z[i], one elementwise multiply and
        add per slot, so it costs O(dim) and a row's value does not
        depend on how many rows come with it.  Fastest when ``z.T`` is
        C-contiguous.
        """
        out = self.sigma[:, None] * np.asarray(z, dtype=float).T
        for k in range(1, self.dim):
            out[k] += self.a[k] * out[k - 1]
        return out.T


def _bridge_covariance(s, t, level: int) -> np.ndarray:
    """min(s', t') - (2**level s')(2**level t'), broadcast; finite past level 511."""
    return np.minimum(s, t) - np.ldexp(s, level) * np.ldexp(t, level)


def _build_bridge(level: int, cell_index: int, points: np.ndarray,
                  start: int, stop: int) -> BridgeLeaf:
    left = _left_endpoint(cell_index, level)
    local_all = np.maximum(points[start:stop] - left, 0.0)
    pos = local_all > 0.0
    cols = np.arange(start, stop)
    local = local_all[pos]
    # in units of the cell width, exactly; a cell holds its points below
    # its right end, so 1 - u stays positive
    u = np.ldexp(local, 2 * level)
    prev = np.r_[0.0, u[:-1]]
    a = (1.0 - u) / (1.0 - prev)
    sigma = np.ldexp(np.sqrt((u - prev) * (1.0 - u) / (1.0 - prev)), -level)
    return BridgeLeaf(level=level, cell_index=cell_index, positions=cols[pos],
                      local=local, pinned=cols[~pos], a=a, sigma=sigma)


class ProcessSampler:
    """Base for Monte Carlo samplers over a fixed set of index points.

    Subclasses declare how many uniform and normal variates one path
    reads at most and yield process values at every point, one block of
    paths at a time.
    """

    points: np.ndarray
    n_uniform_slots: int
    n_normal_slots: int

    def second_moment(self, s: float, t: float) -> float:
        """Declared E (X(s) - X(t))**2 for this process."""
        raise NotImplementedError

    def _blocks(self, paths: int, seed: int):
        """(start, stop, vals, order), block by block: vals has one row per
        point, its column i holds path start + order[i], and the next block
        may be written over it."""
        raise NotImplementedError

    def per_path(self, paths: int, seed: int, stat) -> np.ndarray:
        """``stat`` of each (points, block) block, which it may overwrite, in path order."""
        out = None
        for start, _, vals, order in self._blocks(paths, seed):
            s = stat(vals)  # its last axis runs over the block's columns
            out = np.empty(s.shape[:-1] + (paths,), s.dtype) if out is None else out
            out[..., start + order] = s
        return out

    def sample(self, paths: int, seed: int) -> np.ndarray:
        """Matrix of process values, one row per path, one column per point."""
        return self.per_path(paths, seed, lambda v: v).T


class AdversarialSampler(ProcessSampler):
    """Level-by-level construction with bridge-type increments.

    On the four children of each traversed cell at level k the process
    adds 2**-k * S_j plus the linear interpolation toward S_{j+1}, then
    moves each path into its selected child j with multiplier p_j**-1/2.
    Below ``base_depth`` each cell's remaining points follow an
    independent Brownian bridge.  When the measure is strictly positive
    on all points, E (Y(s) - Y(t))**2 = |s - t| * (1 - |s - t|); cells
    of zero mass are never selected and keep only their skeleton parts.

    The construction lives on the partition's cell rows: ``_levels[k]``
    holds a (rows, 4) table of the level-k rows' child rows (-1 for zero
    mass), the skeleton laws of the rows paths reach as (4, rows)
    selector CDFs, (rows, 4) root probabilities, pinned slots (4 for
    none) and (rows, 4) pinned values, and the (parent row, slot, start,
    stop, left) of every level-(k+1) cell; ``_leaves`` maps the reached
    base-depth rows to bridges.  ``base_depth`` is taken as given, also
    past the separation depth; ``build_adversarial_process`` clips it
    there.  A path reads five uniform slots per level and the normal
    slots of the one bridge it reaches.
    """

    def __init__(self, measure: DiscreteMeasure, base_depth: int):
        if base_depth < 0:
            raise ValueError("base depth must be nonnegative")
        self.base_depth = int(base_depth)
        self.points = measure.index_set.points
        self._build(measure.index_set.partition, measure.weights)
        self.n_uniform_slots = 5 * self.base_depth
        self.n_normal_slots = max((b.dim for b in self.bridges), default=0)

    def second_moment(self, s: float, t: float) -> float:
        d = abs(s - t)
        return d * (1.0 - d)

    def _build(self, tree: PartitionTree, weights: np.ndarray) -> None:
        """Tables of the rows paths reach, level by level; bridges in row order."""
        size = self.points.size
        reached = np.zeros(1, dtype=np.intp)
        self._levels = []
        for k in range(1, self.base_depth + 1):
            lv = _level_masses(tree, weights, k)
            rows = len(lv.children)  # level-(k-1) rows
            cdf, root, pinned = np.ones((4, rows)), np.ones((rows, 4)), np.zeros((rows, 4))
            pin = np.full(rows, 4, dtype=np.intp)  # slot 4: no pinned slot
            probs, pin[reached], pinned[reached], _ = _skeleton_law(lv.children[reached],
                                                                    lv.good[reached])
            cdf[:, reached] = _selector_cdf(probs).T
            root[reached] = np.sqrt(probs)
            child = np.full((rows, 4), -1, dtype=np.intp)
            child[lv.parent, lv.slot] = np.where(lv.masses > 0.0, np.arange(lv.starts.size), -1)
            cells = [(p, j, a, b, _left_endpoint(i, k)) for p, j, a, b, i in zip(
                lv.parent.tolist(), lv.slot.tolist(), lv.starts.tolist(),
                [*lv.starts[1:].tolist(), size], lv.keys.tolist())]
            self._levels.append((child, cdf, root, pin, pinned, cells))
            reached = np.flatnonzero(lv.masses > 0.0)
        starts, keys = tree.cell_arrays(self.base_depth)
        stops = np.r_[starts[1:], size]
        self._leaves = {r: _build_bridge(self.base_depth, int(keys[r]), self.points,
                                         int(starts[r]), int(stops[r])) for r in reached.tolist()}
        self.bridges = tuple(self._leaves.values())

    def _blocks(self, paths: int, seed: int):
        blocks = _path_blocks(seed, paths, self.n_uniform_slots, 0)
        streams = {}  # leaf row -> the normal slots of its bridge, opened on first reach

        def normals(r: int, count: int) -> np.ndarray:
            if r not in streams:
                b = self._leaves[r]
                streams[r] = [_stream(seed, 2, b.cell_index, j) for j in range(b.dim)]
            return _read(streams[r], count, True)

        vals, buf = (np.empty(self.points.size * min(paths, _PATH_BLOCK)) for _ in range(2))
        return ((start, stop, *self._evaluate(U, normals, vals, buf))
                for start, stop, U, _ in blocks)

    def _evaluate(self, U: np.ndarray, normals, vals: np.ndarray,
                  buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Process values of one block of paths, one level at a time.

        The selector uniforms fix each path's cell row at every level, as
        ``SkeletonVariables.from_uniforms`` draws it, and the row tables
        give every path's increments and skeleton in one pass per level.
        Sorted stably by leaf row, the paths are sorted by their row at
        every level, so one ``searchsorted`` per level finds each row's run
        of columns and each cell adds its segment to its parent row's run;
        the paths reaching leaf row r take, in increasing order, the next
        rows of ``normals(r, count)``.
        Returns the (points, paths) matrix, written over the storage of
        ``vals`` (``buf`` is scratch), whose column i holds path
        ``order[i]`` of the block, and ``order``.
        """
        n = U.shape[0]
        rows, keys = [np.zeros(n, dtype=np.intp)], []
        for level, (child, cdf, *_) in enumerate(self._levels):
            # searchsorted(cdf[row], u, side="right") capped at 3, path by path
            row, u = rows[-1], U[:, 5 * level]
            tau = (cdf[0].take(row) <= u).astype(np.intp) + (cdf[1].take(row) <= u) \
                + (cdf[2].take(row) <= u)
            keys.append(4 * row + tau)
            rows.append(child.take(keys[-1]))
        leaf = rows[-1]
        order = np.argsort(leaf.astype(np.min_scalar_type(leaf.max())),  # radix sort
                           kind="stable")
        U = U.T.take(order, axis=1)
        vals = vals[:self.points.size * n].reshape(-1, n)
        vals[:] = 0.0
        mult = None  # all ones at the root
        z, pre = np.empty((5, n)), np.zeros((5, n))  # z[4] takes the pin of unpinned rows
        pinat = np.arange(n)
        for level, (_, _, root, pin, pinned, cells) in enumerate(self._levels):
            down, up = 2.0 ** -(level + 1), 2.0 ** (level + 1)
            row, key = rows[level][order], keys[level][order]
            signs = np.greater_equal(U[5 * level + 1:5 * level + 5], 0.5, out=z[:4])
            signs *= -2.0
            signs += 1.0  # +1 below one half, else -1
            z.reshape(-1)[pin.take(row) * n + pinat] = pinned.take(key)
            pre[1] = z[0]
            for j in range(1, 4):  # np.cumsum along the slots; row adds are faster
                np.add(pre[j], z[j], out=pre[j + 1])
            S = pre - _FRAC[:, None] * pre[4]  # s_skeleton, one row per slot
            bounds = np.searchsorted(row, np.arange(pin.size + 1)).tolist()
            for r, j, start, stop, left in cells:
                a, b = bounds[r], bounds[r + 1]
                if a < b:
                    offs = up * (self.points[start:stop] - left)
                    seg = np.multiply(offs[:, None], S[j + 1, a:b] - S[j, a:b],
                                      out=buf[:offs.size * (b - a)].reshape(-1, b - a))
                    seg += down * S[j, a:b]
                    if mult is not None:
                        seg *= mult[a:b]
                    vals[start:stop, a:b] += seg
            mult = (1.0 if mult is None else mult) / root.take(key)
        bounds = np.searchsorted(leaf[order], np.arange(max(self._leaves) + 2)).tolist()
        for r, bridge in self._leaves.items():
            a, b = bounds[r], bounds[r + 1]
            if a < b and bridge.dim:
                draws = bridge.values(normals(r, b - a)).T
                if mult is not None:
                    draws *= mult[a:b]
                vals[bridge.positions[0]:bridge.positions[-1] + 1, a:b] += draws
        return vals, order


def build_adversarial_process(measure: DiscreteMeasure,
                              base_depth: int) -> AdversarialSampler:
    """Assemble the adversarial sampler on a measure's partition.

    Requests deeper than the separation depth are clipped to it with a
    warning: past it every cell is a singleton.
    """
    depth = int(base_depth)
    sep = measure.index_set.partition.separation_depth
    if depth > sep:
        warnings.warn(
            f"base depth {depth} exceeds partition depth {sep}; clipping",
            RuntimeWarning,
        )
        depth = sep
    return AdversarialSampler(measure, depth)


class OrthogonalLift(ProcessSampler):
    """Adds an independent linear Gaussian term t * Z to another sampler.

    For an inner process with increments |s - t| * (1 - |s - t|) the sum
    has exactly orthogonal increments: E (X(s) - X(t))**2 = |s - t|.
    """

    def __init__(self, inner: ProcessSampler):
        self.inner = inner
        self.points = inner.points
        self.n_uniform_slots = inner.n_uniform_slots
        self.n_normal_slots = inner.n_normal_slots + 1

    def second_moment(self, s: float, t: float) -> float:
        return abs(s - t)

    def _blocks(self, paths: int, seed: int):
        # the linear term reads normal slot 0, which the adversarial sampler leaves alone
        inner = self.inner._blocks(paths, seed)
        lift = _path_blocks(seed, paths, 0, 1)
        return ((start, stop, np.add(vals, self.points[:, None] * Z[order, 0], out=vals), order)
                for (start, stop, vals, order), (_, _, _, Z) in zip(inner, lift))


def second_moment_oracle(
    skeleton: SkeletonVariables,
    level: int,
    parent_index: int,
    s: float,
    t: float,
) -> float:
    """Exact one-level increment second moment by outcome enumeration.

    The one-level process interpolates the pinned skeleton linearly
    across the four children of the parent cell and follows an
    independent Brownian bridge inside the selected child, scaled by the
    inverse root of its selection probability.  Every (selector, signs)
    outcome is enumerated with the bridge second moments integrated
    analytically, which must reproduce d * (1 - 4**(level-1) * d) at
    d = |s - t|.  Both arguments may lie anywhere in the parent's closed
    interval; its right endpoint folds into the last child, where the
    skeleton pins it to zero.
    """
    if level < 1:
        raise ValueError("children live at level 1 or deeper")
    width = 4.0 ** (-(level - 1))
    left = _left_endpoint(parent_index, level - 1)
    for x in (s, t):
        if not (left <= x <= left + width):
            raise DomainError(f"point {x!r} outside the parent interval")

    def child_of(x: float) -> int:
        c = _cell_index(x, level) - 4 * parent_index
        return 3 if c == 4 else int(c)

    cs, ct = child_of(s), child_of(t)
    lefts = [_left_endpoint(4 * parent_index + j, level) for j in range(4)]
    ls, lt = s - lefts[cs], t - lefts[ct]
    scale = 4.0 ** level
    down, up = 2.0 ** -level, 2.0 ** level

    def cov(a: float, b: float) -> float:
        return min(a, b) - scale * a * b

    total = 0.0
    for p, tau, z in skeleton.enumerate_outcomes():
        S = s_skeleton(z)
        lin_s = down * S[cs] + up * ls * (S[cs + 1] - S[cs])
        lin_t = down * S[ct] + up * lt * (S[ct + 1] - S[ct])
        d = lin_s - lin_t
        var = 0.0
        ptau = float(skeleton.probs[tau])
        if cs == tau:
            var += cov(ls, ls) / ptau
        if ct == tau:
            var += cov(lt, lt) / ptau
        if cs == tau and ct == tau:
            var -= 2.0 * cov(ls, lt) / ptau
        total += p * (d * d + var)
    return float(total)


_GENERATOR_KINDS = ("gaussian", "rademacher", "trigonometric")


@dataclass(frozen=True)
class OrthonormalGenerator:
    """Orthonormal system driving the series: E phi_n phi_m = delta_nm.

    Kinds: iid standard Gaussians, iid symmetric signs, or the cosine
    system sqrt(2) * cos(2 pi n w) evaluated at one uniform w.
    """

    kind: str = "gaussian"

    def __post_init__(self) -> None:
        aliases = {"trig": "trigonometric", "iid_gaussian": "gaussian"}
        kind = aliases.get(self.kind, self.kind)
        if kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)

    def uniform_slots(self, n_terms: int) -> int:
        if self.kind == "rademacher":
            return n_terms
        if self.kind == "trigonometric":
            return 1
        return 0

    def normal_slots(self, n_terms: int) -> int:
        return n_terms if self.kind == "gaussian" else 0

    def rows(self, U: np.ndarray, Z: np.ndarray, n_terms: int) -> np.ndarray:
        """phi_1 .. phi_n of a block of paths, one row per slot, one column per path."""
        if self.kind == "gaussian":
            return Z.T[:n_terms]
        if self.kind == "rademacher":
            return np.where(U.T[:n_terms] < 0.5, 1.0, -1.0)
        freq = np.arange(1, n_terms + 1)
        return math.sqrt(2.0) * np.cos(2.0 * math.pi * U.T[:1] * freq[:, None])

    def _blocks(self, n_terms: int, paths: int, seed: int):
        """(start, stop, slot-major rows of paths start..stop-1), block by block."""
        blocks = _path_blocks(seed, paths, self.uniform_slots(n_terms),
                              self.normal_slots(n_terms))
        return ((start, stop, self.rows(U, Z, n_terms)) for start, stop, U, Z in blocks)

    def sample_matrix(self, n_terms: int, paths: int, seed: int) -> np.ndarray:
        blocks = self._blocks(n_terms, paths, seed)
        out = np.empty((paths, n_terms))
        for start, stop, phi in blocks:
            out[start:stop] = phi.T
        return out


def _partial_sum_extremes(a: np.ndarray, generator: OrthonormalGenerator,
                          paths: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each path's largest and smallest partial sum a_1 phi_1 + ... + a_m phi_m, 0 included.

    The sums run slot by slot, one contiguous row per slot, so they are
    the path-major cumulative sums bit for bit.
    """
    hi, lo = np.empty(paths), np.empty(paths)
    for start, stop, phi in generator._blocks(a.size, paths, seed):
        s = phi[0] * a[0]
        h = np.maximum(s, 0.0, out=hi[start:stop])
        l = np.minimum(s, 0.0, out=lo[start:stop])
        for coef, row in zip(a[1:], phi[1:]):
            row *= coef
            s += row
            np.maximum(h, s, out=h)
            np.minimum(l, s, out=l)
    return hi, lo


def _sup_square(hi: np.ndarray, lo: np.ndarray, seed: int) -> MCEstimate:
    # squaring is monotone in |S|, so max_m S_m**2 is the larger square of the extremes
    return MCEstimate.from_samples(np.maximum(hi ** 2, lo ** 2), seed)


def simulate_sup_square(
    coeffs,
    generator: OrthonormalGenerator,
    paths: int,
    seed: int,
) -> MCEstimate:
    """Monte Carlo estimate of E max_m (a_1 phi_1 + ... + a_m phi_m)**2."""
    if not isinstance(coeffs, CoefficientSequence):
        coeffs = CoefficientSequence.explicit(np.asarray(coeffs, dtype=float))
    return _sup_square(*_partial_sum_extremes(coeffs.values, generator, paths, seed), seed)


@dataclass(frozen=True)
class ChainingReport:
    """Simulated supremum against the strong-functional upper bound.

    ``sup_square``, left out of the JSON, is ``simulate_sup_square`` of the same paths.
    """

    estimate: MCEstimate
    strong_value: float
    bound: float
    margin: float
    passed: bool
    skipped: bool
    sup_square: MCEstimate

    def to_json(self) -> dict:
        finite = math.isfinite(self.strong_value)
        return {
            "estimate": self.estimate.to_json(),
            "strong": self.strong_value if finite else None,
            "bound": self.bound if math.isfinite(self.bound) else None,
            "margin": self.margin,
            "passed": self.passed,
            "skipped": self.skipped,
        }


def verify_chaining_bound(
    measure: DiscreteMeasure,
    generator: OrthonormalGenerator,
    paths: int,
    seed: int,
) -> ChainingReport:
    """Check E (sup - inf)**2 of the scaled partial sums against the bound.

    The partial sums are those of the coefficients behind the measure's
    index set.  The statistic is the squared range of the partial-sum
    path including the starting value 0, scaled by the index-set
    normalization, and the bound is CHAINING_CONSTANT times the squared
    strong functional of the measure.  An infinite strong value makes the
    bound vacuous and the check is reported as skipped.
    """
    index_set = measure.index_set
    if index_set.coeffs is None:
        raise ValueError("the chaining check needs an index set built from coefficients")
    hi, lo = _partial_sum_extremes(index_set.coeffs.values, generator, paths, seed)
    sup = _sup_square(hi, lo, seed)
    est = MCEstimate.from_samples(index_set.scale * (hi - lo) ** 2, seed)
    strong_value, _ = strong_functional(measure)
    bound = CHAINING_CONSTANT * strong_value ** 2  # inf, so always passed, when skipped
    margin = 3.0 * est.stderr
    return ChainingReport(estimate=est, strong_value=strong_value,
                          bound=bound, margin=margin,
                          passed=bool(est.mean <= bound + margin),
                          skipped=not math.isfinite(strong_value), sup_square=sup)


@dataclass(frozen=True)
class LowerBoundReport:
    """Filtered level sums against the simulated supremum of the lift."""

    filtered_sum: float
    estimate: MCEstimate
    threshold: float
    passed: bool
    base_depth: int

    def to_json(self) -> dict:
        return {
            "filtered_sum": self.filtered_sum,
            "estimate": self.estimate.to_json(),
            "threshold": self.threshold,
            "passed": self.passed,
            "base_depth": self.base_depth,
        }


def lower_bound_report(
    measure: DiscreteMeasure,
    base_depth: int,
    paths: int,
    seed: int,
) -> LowerBoundReport:
    """Check the filtered partial sum against the adversarial supremum.

    The left side sums 2**-k times the filtered good-index sums for
    levels 1..base_depth.  The right side is LOWER_BOUND_FACTOR times
    the root of the Monte Carlo estimate of E sup_t X(t)**2 for the
    orthogonal lift of the adversarial process, plus a three-standard-
    error margin.
    """
    if base_depth < 1:
        raise ValueError("base depth must be at least 1")
    sampler = OrthogonalLift(build_adversarial_process(measure, base_depth))
    depth = sampler.inner.base_depth
    table = classify_good_indices(measure, max_level=depth)
    filtered = table.filtered_series()
    stat = sampler.per_path(paths, seed, lambda v: np.square(v, out=v).max(axis=0))
    est = MCEstimate.from_samples(stat, seed)
    threshold = LOWER_BOUND_FACTOR * math.sqrt(est.mean) + 3.0 * est.stderr
    return LowerBoundReport(filtered_sum=float(filtered), estimate=est,
                            threshold=float(threshold),
                            passed=bool(filtered <= threshold + 1e-12),
                            base_depth=depth)
