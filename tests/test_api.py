"""The public names: every ``__all__`` entry resolves, once."""
from __future__ import annotations

import importlib
import inspect

import numpy as np
import pytest

import orthomm as om

MODULES = ("series", "functionals", "optimize", "processes", "checks")


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
    # the package exports every listed name of each module but checks
    listed = [entry for name in MODULES if name != "checks"
              for entry in importlib.import_module(f"orthomm.{name}").__all__]
    assert om.__all__ == listed


def _public_callables():
    for module in (om, importlib.import_module("orthomm.checks")):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield from ((f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                            if callable(fn) and not attr.startswith("_"))
                yield name, obj.__init__
            elif callable(obj):
                yield name, obj


def _takes(param: inspect.Parameter, names: set, annotation: str) -> bool:
    return param.name in names or annotation in str(param.annotation)


PUBLIC_CALLABLES = dict(_public_callables())


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLABLES))
def test_no_public_function_takes_coefficients_beside_a_measure(name):
    # a measure's coefficients are measure.index_set.coeffs, never an argument
    params = inspect.signature(PUBLIC_CALLABLES[name]).parameters.values()
    coeffs = any(_takes(p, {"coeffs", "seq"}, "CoefficientSequence") for p in params)
    measure = any(_takes(p, {"measure"}, "DiscreteMeasure") for p in params)
    assert not (coeffs and measure)


def _fields_of_frozen_instances():
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    measure = om.DiscreteMeasure.uniform(index)
    index.partition  # a cached property stays read-only once computed
    return [(index, "scale"), (index, "partition"), (measure, "weights"),
            (index.coeffs, "values"),
            (om.AdversarialSampler(measure, 1).bridges[0], "sigma"),
            (om.MCEstimate.from_samples(np.arange(3.0), seed=0), "mean")]


def test_instances_refuse_attribute_writes():
    for obj, name in _fields_of_frozen_instances():
        before = getattr(obj, name)
        for attr in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before, type(obj).__name__


def test_options_and_generators_compare_by_value_measures_by_identity():
    trig = om.OrthonormalGenerator("trig")
    assert trig == om.OrthonormalGenerator("trigonometric")
    assert hash(trig) == hash(om.OrthonormalGenerator("trigonometric"))
    assert trig != om.OrthonormalGenerator()
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    measure = om.DiscreteMeasure.uniform(index)
    assert measure == measure and measure != om.DiscreteMeasure.uniform(index)
