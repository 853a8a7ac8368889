"""Every exported name resolves.

The benchmark's tracer (``perfbench/tracing.py``) looks up each name in the
``__all__`` of ``qgm_sim`` and of every submodule, and patches the class
methods named in its ``METHODS`` table; a stale name or a missing method
makes a traced benchmark run (``perfbench/run.py --trace 1``) crash before
it measures anything.  These checks keep that failure in the ordinary test
suite.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

MODULES = ["qgm_sim"] + [f"qgm_sim.{name}" for name in (
    "topology", "heterogeneity", "oracles", "optim", "consensus", "engine", "cli")]
TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


def test_every_method_the_tracer_patches_is_defined_on_its_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"qgm_sim.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                assert inspect.isfunction(vars(cls).get(name)), f"{layer}.{cls_name}.{name}"
