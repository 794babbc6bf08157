"""Every grt2 name that the benchmark in ``perfbench/`` reaches still
resolves.

``perfbench/tracer.py`` wraps functions and methods by name and reports
a metric as not measured when one is gone; ``perfbench/canon_probe.py``
imports and calls graph functions directly.  Both files are read as
source, never imported or run, so this test writes nothing there.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from grt2.graphs.core import Graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tracer_table(name):
    """The literal value of a module-level assignment in tracer.py."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py assigns no %s" % name)


TRACED_FUNCTIONS = [(layer, fname)
                    for layer, names in tracer_table("FUNCTIONS").items()
                    for fname in names]
TRACED_METHODS = sorted(tracer_table("METHODS").values())


@pytest.mark.parametrize("layer, fname", TRACED_FUNCTIONS,
                         ids=["%s.%s" % pair for pair in TRACED_FUNCTIONS])
def test_traced_function_is_defined(layer, fname):
    module = importlib.import_module("grt2." + layer)
    assert callable(getattr(module, fname, None)), \
        "grt2.%s defines no %s" % (layer, fname)


@pytest.mark.parametrize("layer, cname, mname", TRACED_METHODS)
def test_traced_method_is_in_its_class(layer, cname, mname):
    cls = getattr(importlib.import_module("grt2." + layer), cname)
    assert mname in cls.__dict__, \
        "grt2.%s.%s.__dict__ holds no %s" % (layer, cname, mname)


def test_canon_probe_names_resolve():
    tree = ast.parse((PERFBENCH / "canon_probe.py").read_text())
    imported = {}  # local name -> grt2 object
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module.startswith("grt2")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    "%s defines no %s" % (node.module, alias.name)
                imported[alias.asname or alias.name] = getattr(
                    module, alias.name)
        elif isinstance(node, ast.ImportFrom):
            modules.update(alias.asname or alias.name for alias in node.names)
    assert imported, "canon_probe.py imports nothing from grt2"
    container_methods = set(dir(list)) | set(dir(dict)) | set(dir(str))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            # every keyword is a parameter of the grt2 function
            params = inspect.signature(imported[func.id]).parameters
            for kw in node.keywords:
                assert kw.arg in params, \
                    "%s takes no %s=" % (func.id, kw.arg)
        elif (isinstance(func, ast.Attribute)
              and not (isinstance(func.value, ast.Name)
                       and func.value.id in modules)
              and func.attr not in container_methods):
            # a method called on a grt2 graph
            assert hasattr(Graph, func.attr), \
                "Graph has no method %s" % func.attr
