"""Fixtures shared by the test modules."""
from __future__ import annotations

import functools

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
