"""The array partition tree, its good-index filter and the adversarial
sampler against per-point and depth-first references.

The references below build every level cell by cell from the exact
integer cell index of each point, classify good children one parent at a
time with the scalar balance rule, and build and run the adversarial
sampler as a depth-first node tree.  The library computes the same
objects from per-level arrays.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthomm as om
from orthomm.functionals import _level_masses
from orthomm import processes
from orthomm.processes import (
    _build_bridge,
    _left_endpoint,
    s_skeleton,
)
from orthomm.series import _cell_index


def ref_level_cells(points: np.ndarray, k: int) -> list[tuple[int, int, int]]:
    """(index, start, stop) of the nonempty level-k cells, point by point."""
    idx = [_cell_index(float(t), k) for t in points]
    cells = []
    start = 0
    for pos in range(1, len(idx) + 1):
        if pos == len(idx) or idx[pos] != idx[start]:
            cells.append((idx[start], start, pos))
            start = pos
    return cells


def ref_masses(weights: np.ndarray, cells) -> np.ndarray:
    """Mass of each (index, start, stop) cell, one slice at a time.

    Each slice is reduced as the library reduces a cell (``reduceat``,
    whose summation order differs from ``sum``), so the skeleton laws
    built from these masses compare exactly.
    """
    return np.array([np.add.reduceat(weights[start:stop], [0])[0] if stop > start
                     else 0.0 for _, start, stop in cells])


def ref_separation_depth(points: np.ndarray) -> int:
    """Smallest level whose cells all hold one point, by linear search."""
    k = 0
    while len(ref_level_cells(points, k)) < len(points):
        k += 1
        assert k <= 537  # a cell of width 2**-1074 holds one double
    return k


def ref_children(points: np.ndarray, cell: tuple[int, int, int],
                 child_level: int) -> list[tuple[int, int, int]]:
    """The four children of one cell, empty ones with start == stop."""
    index, start, stop = cell
    idx = [_cell_index(float(t), child_level) for t in points[start:stop]]
    out = []
    lo = start
    for j in range(4):
        hi = lo
        while hi < stop and idx[hi - start] == 4 * index + j:
            hi += 1
        out.append((4 * index + j, lo, hi))
        lo = hi
    assert lo == stop
    return out


def ref_good_sets(measure: om.DiscreteMeasure, tree: om.PartitionTree,
                  max_level: int) -> list[tuple[int, ...]]:
    """Good child indices per level 1..max_level, one parent at a time."""
    points = tree.points
    out = []
    for k in range(1, max_level + 1):
        good = []
        for parent in ref_level_cells(points, k - 1):
            children = ref_children(points, parent, k)
            flags = om.good_children(ref_masses(measure.weights, children))
            good += [c[0] for c, f in zip(children, flags) if f]
        out.append(tuple(sorted(good)))
    return out


def exact_uniform_good_counts(tree: om.PartitionTree, max_level: int) -> list[int]:
    """Good counts under the uniform measure from integer point counts.

    Child j is good iff 32 c_j >= c_parent and 2 c_j <= c_pair.
    """
    points = tree.points
    out = []
    for k in range(1, max_level + 1):
        n = 0
        for parent in ref_level_cells(points, k - 1):
            c = [hi - lo for _, lo, hi in ref_children(points, parent, k)]
            n += sum(32 * c[j] >= sum(c) and 2 * c[j] <= c[j % 2] + c[j % 2 + 2]
                     for j in range(4))
        out.append(n)
    return out


def assert_matches_reference(index: om.IndexSet) -> om.PartitionTree:
    tree = index.partition
    points = index.points
    assert tree.separation_depth == ref_separation_depth(points)
    for k in range(tree.separation_depth + 2):
        cells = ref_level_cells(points, k)
        starts, keys = tree.cell_arrays(k)
        assert starts.tolist() == [c[1] for c in cells]
        assert [int(i) for i in keys] == [c[0] for c in cells]
        if k <= tree.separation_depth:
            assert len(tree.levels[k]) == len(cells)
            # each nonempty reference child is a level-(k+1) cell of the tree
            kid_starts, kid_keys = tree.cell_arrays(k + 1)
            kids = [(int(i), int(a)) for i, a in zip(kid_keys, kid_starts)]
            ref_kids = [(i, a) for cell in cells
                        for i, a, b in ref_children(points, cell, k + 1) if b > a]
            assert kids == ref_kids
    return tree


@st.composite
def index_sets(draw) -> om.IndexSet:
    """Point sets in [0, 1) starting at 0, with clusters that separate late."""
    anchors = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6))
    gaps = draw(st.lists(st.floats(2.0 ** -60, 2.0 ** -4), max_size=6))
    tiny = draw(st.lists(st.floats(0.0, 2.0 ** -1000, allow_subnormal=True),
                         max_size=3))
    pts = [0.0] + anchors + tiny
    pts += [a + g for a in anchors for g in gaps if a + g < 1.0]
    pts = np.unique(np.asarray(pts, dtype=float))
    return om.IndexSet(points=pts, scale=1.0, raw_total=float(pts[-1]))


@given(index_sets())
@settings(max_examples=25, deadline=None)
def test_tree_arrays_match_per_point_reference(index):
    assert_matches_reference(index)


def test_subnormal_spacing_uses_integer_levels():
    index = om.IndexSet(points=[0.0, 5e-324, 1e-310, 0.5], scale=1.0, raw_total=0.5)
    tree = assert_matches_reference(index)
    assert tree.separation_depth == 537
    assert tree.keys[537].dtype == object


@given(index_sets(), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.2, 1.0]))
@settings(max_examples=25, deadline=None)
def test_good_sets_match_per_parent_reference(index, seed, alpha):
    tree = index.partition
    w = np.random.default_rng(seed).dirichlet(np.full(len(index), alpha))
    m = om.DiscreteMeasure.explicit(index, w)
    max_level = tree.separation_depth + 1
    table = om.classify_good_indices(m, max_level=max_level)
    assert [lv.good for lv in table.levels] == ref_good_sets(m, tree, max_level)


@pytest.mark.parametrize("seq", [om.CoefficientSequence.geometric(0.9, 256),
                                 om.CoefficientSequence.power(1.0, 2048)])
def test_uniform_good_counts_match_integer_counts(seq):
    # equal cells must tie exactly: the rounded masses used to break
    # 2 m_j <= m_pair at true ties (level 4 of geometric(0.9, 256),
    # levels 8 and 9 of power(1.0, 2048))
    index = om.build_index_set(seq)
    tree = index.partition
    max_level = tree.separation_depth + 1
    table = om.classify_good_indices(om.DiscreteMeasure.uniform(index),
                                     max_level=max_level)
    assert [len(lv.good) for lv in table.levels] == \
        exact_uniform_good_counts(tree, max_level)


class RefNode:
    """One cell of the depth-first sampler: a skeleton with segments, or a bridge."""

    def __init__(self, level, skeleton, segments, bridge):
        self.level = level
        self.skeleton = skeleton
        self.segments = segments
        self.children = []
        self.bridge = bridge


def ref_sampler_build(tree: om.PartitionTree, weights: np.ndarray,
                      base_depth: int) -> tuple[RefNode, tuple]:
    """Root node and bridge leaves, depth first with an explicit stack.

    A stack entry is a cell (level, row, start, stop, key) with the
    children list its node joins; siblings pop in slot order.
    """
    points = tree.points
    levels = [_level_masses(tree, weights, k) for k in range(1, base_depth + 1)]
    bridges = []
    top = []
    stack = [(0, 0, 0, points.size, 0, None, top)]
    while stack:
        level, row, start, stop, key, slot, out = stack.pop()
        if level == base_depth:
            bridge = _build_bridge(level, key, points, start, stop)
            bridges.append(bridge)
            node = RefNode(level, None, (), bridge)
        else:
            lv = levels[level]
            lo, hi = np.searchsorted(lv.starts, [start, stop])
            # (slot, row, start, stop) of each nonempty child cell
            kids = [(int(lv.keys[c]) % 4, c, int(lv.starts[c]), int(end))
                    for c, end in zip(range(lo, hi), np.r_[lv.starts[lo + 1:hi], stop])]
            assert [(int(lv.parent[c]), int(lv.slot[c])) for _, c, _, _ in kids] == \
                [(row, j) for j, _, _, _ in kids]
            skeleton = om.build_skeleton_variables(
                lv.children[row], {j for j, _, _, _ in kids if lv.good[row, j]})
            segments = tuple((j, a, b, _left_endpoint(int(lv.keys[c]), level + 1))
                             for j, c, a, b in kids)
            node = RefNode(level, skeleton, segments, None)
            stack.extend((level + 1, c, a, b, int(lv.keys[c]), j, node.children)
                         for j, c, a, b in reversed(kids) if lv.masses[c] > 0.0)
        out.append((slot, node))
    return top[0][1], tuple(bridges)


def ref_stream(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


def ref_bridge_values(a: np.ndarray, sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x_k = a_k x_{k-1} + sigma_k z_k from x_{-1} = 0, one column per point."""
    out = np.empty_like(z)
    x = np.zeros(z.shape[0])
    for k in range(sigma.size):
        x = a[k] * x + sigma[k] * z[:, k]
        out[:, k] = x
    return out


def ref_sampler_evaluate(root: RefNode, points: np.ndarray, paths: int,
                         seed: int, n_uniform: int) -> np.ndarray:
    """Process values; every node adds to its paths before its children do.

    Path i reads element i of uniform slot j, the stream (seed, 0, j).  A
    bridge at cell key kappa reads normal slot j from the stream (seed, 2,
    kappa, j), in one bulk read for all its paths in increasing order.
    """
    U = np.column_stack([ref_stream(seed, 0, j).random(paths) for j in range(n_uniform)]
                        or [np.empty((paths, 0))])
    vals = np.zeros((paths, points.size))
    stack = [(root, np.arange(paths), np.ones(paths))]
    while stack:
        node, idx, mult = stack.pop()
        if node.bridge is not None:
            b = node.bridge
            if b.dim:
                z = np.column_stack([ref_stream(seed, 2, b.cell_index, j).standard_normal(idx.size)
                                     for j in range(b.dim)])
                draws = ref_bridge_values(b.a, b.sigma, z)
                vals[idx[:, None], b.positions[None, :]] += mult[:, None] * draws
            continue
        k = node.level + 1
        base = 5 * node.level
        sk = node.skeleton
        u = U[idx, base:base + 5]
        cdf = np.cumsum(sk.probs)  # the child by inverse CDF, then free signs
        tau = np.minimum(np.searchsorted(cdf / cdf[-1], u[:, 0], side="right"), 3)
        z = sk.increments(tau, np.where(u[:, 1:] < 0.5, 1.0, -1.0))
        S = s_skeleton(z)
        down, up = 2.0 ** -k, 2.0 ** k
        for j, start, stop, left in node.segments:
            offs = (points[start:stop] - left)[None, :]
            seg = down * S[:, j, None] + up * offs * (S[:, j + 1, None] - S[:, j, None])
            vals[idx, start:stop] += mult[:, None] * seg
        for j, child in node.children:
            sel = tau == j
            if sel.any():
                stack.append((child, idx[sel],
                              mult[sel] / math.sqrt(float(sk.probs[j]))))
    return vals


def sparse_dirichlet(index: om.IndexSet, seed: int) -> om.DiscreteMeasure:
    w = np.random.default_rng(seed).dirichlet(np.full(len(index), 0.5))
    w[1::7] = 0.0  # every 7th weight, keeping the first so some mass is left
    return om.DiscreteMeasure.explicit(index, w)


def assert_sampler_matches_reference(m: om.DiscreteMeasure, base_depth: int,
                                     paths: int, seed: int) -> None:
    tree = m.index_set.partition
    adv = om.AdversarialSampler(m, base_depth)
    root, bridges = ref_sampler_build(tree, m.weights, base_depth)
    assert len(adv.bridges) == len(bridges)
    assert adv.sample(paths, seed).tobytes() == \
        ref_sampler_evaluate(root, tree.points, paths, seed, 5 * base_depth).tobytes()


@given(index_sets(), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=25, deadline=None)
def test_sampler_values_match_depth_first_reference(index, seed, data):
    m = sparse_dirichlet(index, seed)
    for base_depth in {0, data.draw(st.integers(0, index.partition.separation_depth))}:
        assert_sampler_matches_reference(m, base_depth, 300, seed % 1000)


@pytest.mark.parametrize("base_depth", [512, 537])
def test_sampler_values_match_reference_at_subnormal_depths(base_depth):
    index = om.IndexSet(points=[0.0, 5e-324, 1e-310, 0.5], scale=1.0, raw_total=0.5)
    for w in ([0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.25, 0.25]):
        m = om.DiscreteMeasure.explicit(index, np.asarray(w))
        assert_sampler_matches_reference(m, base_depth, 200, 3)


@pytest.mark.parametrize("base_depth", [512, 537])
def test_bridge_recursion_is_finite_at_subnormal_depths(base_depth):
    index = om.IndexSet(points=[0.0, 5e-324, 1e-310, 0.5], scale=1.0, raw_total=0.5)
    m = om.DiscreteMeasure.explicit(index, np.full(4, 0.25))
    adv = om.AdversarialSampler(m, base_depth)
    for b in adv.bridges:
        assert np.all(np.isfinite(b.a)) and np.all(np.isfinite(b.sigma))
        assert np.all(b.sigma > 0.0)
    assert np.all(np.isfinite(adv.sample(200, 3)))


@pytest.mark.parametrize("block", [1, 7])
def test_sampler_values_match_reference_in_small_blocks(monkeypatch, block):
    # blocks cut the paths of one leaf into several bridge reads
    monkeypatch.setattr(processes, "_PATH_BLOCK", block)
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 40))
    assert_sampler_matches_reference(sparse_dirichlet(index, 8), 3, 150, 4)


@pytest.mark.parametrize("seed", range(4))
def test_sampler_nodes_match_per_parent_reference(seed):
    # the row tables the sampler reads hold, at every row paths reach, the
    # law build_skeleton_variables gives that cell's children one at a time
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 40))
    tree = index.partition
    w = np.random.default_rng(seed).dirichlet(np.full(len(index), 0.5))
    w[::7] = 0.0  # zero-mass cells are never descended into
    m = om.DiscreteMeasure.explicit(index, w)
    adv = om.AdversarialSampler(m, 4)
    points = tree.points
    bridges = []

    def walk(row, cell, level):
        if level == 4:
            bridge = adv._leaves[row]
            assert (bridge.cell_index, bridge.level) == (cell[0], 4)
            bridges.append(bridge)
            return
        child, cdf, root, pin, pinned, cells = adv._levels[level]
        children = ref_children(points, cell, level + 1)
        masses = ref_masses(m.weights, children)
        flags = om.good_children(masses)
        expected = om.build_skeleton_variables(masses, {j for j in range(4) if flags[j]})
        assert cdf[:, row].tolist() == (np.cumsum(expected.probs)
                                        / np.cumsum(expected.probs)[-1]).tolist()
        assert root[row].tolist() == np.sqrt(expected.probs).tolist()
        assert pin[row] == (4 if expected.n is None else expected.n)
        values = dict(zip(expected.pair, (expected.x, expected.y)))
        assert pinned[row].tolist() == [values.get(j, 0.0) for j in range(4)]
        got = [c for c in cells if c[0] == row]
        want = [(row, j, lo, hi, _left_endpoint(i, level + 1))
                for j, (i, lo, hi) in enumerate(children) if hi > lo]
        assert [c[:4] for c in got] == [c[:4] for c in want]
        for (*_, lo, hi, offs), (*_, left) in zip(got, want):
            assert offs.shape == (hi - lo, 1)
            assert offs[:, 0].tolist() == (2.0 ** (level + 1) * (points[lo:hi] - left)).tolist()
        live = [(j, c) for j, c in enumerate(children) if masses[j] > 0.0]
        assert [j for j in range(4) if child[row, j] >= 0] == [j for j, _ in live]
        for j, c in live:
            walk(child[row, j], c, level + 1)

    walk(0, (0, 0, len(points)), 0)
    for level, (child, *_, cells) in enumerate(adv._levels):
        assert [c[2] for c in cells] == tree.cell_arrays(level + 1)[0].tolist()
        assert child.shape == (len(tree.levels[level]), 4)
    assert adv.bridges == tuple(bridges)
    assert adv.n_normal_slots == max(b.dim for b in bridges)
