"""Every exported name resolves.

The benchmark's tracer (``perfbench/tracing.py``) looks up each name in the
``__all__`` of ``qgm_sim`` and of every submodule, and patches
``WorkerState.replace``; a stale name or a missing method makes a traced
benchmark run (``perfbench/run.py --trace 1``) crash before it measures
anything.  These checks keep that failure in the ordinary test suite.
"""

import importlib

import pytest

MODULES = ["qgm_sim"] + [f"qgm_sim.{name}" for name in (
    "topology", "heterogeneity", "oracles", "optim", "consensus", "engine", "cli")]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


def test_worker_state_keeps_replace():
    from qgm_sim.optim import WorkerState

    assert callable(vars(WorkerState).get("replace"))
