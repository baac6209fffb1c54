"""The public names: every ``__all__`` entry resolves, once."""
from __future__ import annotations

import importlib

import pytest

import orthomm as om

MODULES = ("series", "functionals", "optimize", "processes")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_listed_name(name):
    module = importlib.import_module(f"orthomm.{name}")
    namespace: dict = {}
    exec(f"from orthomm.{name} import *", namespace)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) <= set(namespace)


def test_package_names_resolve_once():
    assert len(om.__all__) == len(set(om.__all__))
    namespace: dict = {}
    exec("from orthomm import *", namespace)
    for name in om.__all__:
        assert namespace[name] is getattr(om, name)


def test_package_names_come_from_module_lists():
    listed = set()
    for name in MODULES:
        listed |= set(importlib.import_module(f"orthomm.{name}").__all__)
    assert set(om.__all__) <= listed
