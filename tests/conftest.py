"""Fixtures shared by the test modules."""
from __future__ import annotations

import functools

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
