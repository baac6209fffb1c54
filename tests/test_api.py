"""The public names: every ``__all__`` entry resolves, once, and is read."""
from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import orthomm as om

MODULES = ("series", "functionals", "optimize", "processes", "checks")
PACKAGE = Path(om.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Exported names that nothing in the library or the benchmark reads, each
# with the reason it stays public.
UNREAD_EXPORTS = {
    "dyadic_sup_bound": "the proven pointwise strong-side bound of criterion 05",
}


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


def _code_names(tree: ast.AST) -> set[str]:
    """Names and attributes read in the code of ``tree``, not in its strings."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _library_reads(path: Path) -> set[str]:
    """``_code_names`` of ``path``, leaving out each top-level ``def`` or
    ``class`` reading its own name."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    return set().union(*(_code_names(stmt) - {getattr(stmt, "name", None)}
                         for stmt in body))


def _benchmark_names(path: Path) -> set[str]:
    """``_code_names`` of ``path`` and the parts of its dotted strings
    ("Class.method"), the form in which the spans wrap library callables."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return _code_names(tree).union(*(
        node.value.split(".") for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)))


def test_every_exported_name_has_a_reader():
    # a public name that only tests call is a test's reference, not library
    # surface: the tests keep such references themselves (see conftest.py)
    read = set().union(*map(_library_reads, PACKAGE.glob("*.py")),
                       *map(_benchmark_names, BENCH.glob("*.py")))
    checks = importlib.import_module("orthomm.checks")
    exported = [*om.__all__, *checks.__all__]
    assert set(UNREAD_EXPORTS) <= set(exported)
    assert [name for name in exported
            if name not in read and name not in UNREAD_EXPORTS] == []
