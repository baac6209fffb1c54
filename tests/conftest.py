"""Fixtures shared by the test modules."""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest


@pytest.fixture
def count_builds(monkeypatch):
    """``count_builds(cls, name)`` wraps the function behind the cached
    property ``cls.name`` and returns the list of instances it is run on."""
    def wrap(cls, name: str) -> list:
        calls = []
        build = getattr(cls, name).func

        def counting(self):
            calls.append(self)
            return build(self)

        prop = functools.cached_property(counting)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
        return calls
    return wrap


class _NanEmptyNumpy:
    """numpy, but ``empty`` fills every float array it makes with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out


@pytest.fixture
def nan_empty(monkeypatch):
    """``nan_empty(*modules)`` makes each module's ``np.empty`` NaN-filled, so
    a result that reads an entry nothing wrote turns NaN; freshly mapped
    pages are zero and would hide such a read."""
    def patch(*modules):
        for module in modules:
            monkeypatch.setattr(module, "np", _NanEmptyNumpy())
    return patch


# The tests own these references; the library computes neither.


@pytest.fixture(scope="session")
def ball_mass():
    """``ball_mass(measure, t, r)``, the direct-sum mass of the closed ball
    {s in T : |s - t| <= r}; t must lie in T."""
    def mass(measure, t: float, r: float) -> float:
        measure.index_set.position(t)
        if r < 0.0:
            raise ValueError("radius must be nonnegative")
        pts = measure.index_set.points
        return float(measure.weights[np.abs(pts - t) <= r].sum())
    return mass


@pytest.fixture(scope="session")
def strong_subgradient():
    """``strong_subgradient(measure)``, d f(t) / d w of the strong functional
    at its smallest-index argmax t; ValueError where f(t) is infinite.

    Each integration segment [sqrt(d_j), sqrt(d_j+1)) contributes
    -(1/2) * mass^(-3/2) * segment_length to every weight inside the
    corresponding ball, which telescopes into a suffix sum over the
    distance-sorted order.
    """
    def subgradient(measure) -> np.ndarray:
        vals = measure.integrals
        row = int(np.argmax(vals))
        if math.isinf(vals[row]):
            raise ValueError("subgradient undefined where the functional is infinite")
        prof = measure.index_set.profile
        order, seg = prof.order[row], prof.seg[row]
        # the clip keeps mass**-1.5 inside float range for near-zero weights
        cum = np.maximum(np.cumsum(measure.weights[order]), 1e-150)
        suffix = np.cumsum((-0.5 * seg / (cum * np.sqrt(cum)))[::-1])[::-1]
        g = np.empty_like(suffix)
        g[order] = suffix
        return g
    return subgradient
