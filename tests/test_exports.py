"""Every exported name resolves.

The benchmark's tracer (``perfbench/tracing.py``) looks up each name in the
``__all__`` of ``qgm_sim`` and of every submodule, and patches the class
methods named in its ``METHODS`` table; a stale name or a missing method
makes a traced benchmark run (``perfbench/run.py --trace 1``) crash before
it measures anything.  These checks keep that failure in the ordinary test
suite, as does a run of the first op of each benchmark workload through
``perfbench/workloads.py``, which drives the engine by name
(``RunConfig.from_mapping``/``from_ini``, ``build_problem``,
``build_mixing``, ``cfg.n``, ``cfg.steps``, ``run``, ``metrics_csv_lines``).
"""

import importlib
import importlib.util
import inspect
import os
import sys
import warnings

import pytest

MODULES = ["qgm_sim"] + [f"qgm_sim.{name}" for name in (
    "topology", "heterogeneity", "oracles", "optim", "consensus", "engine", "cli")]
ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` by path, without touching the file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


def test_every_method_the_tracer_patches_is_defined_on_its_class():
    tracing = load_perfbench("tracing")
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"qgm_sim.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                assert inspect.isfunction(vars(cls).get(name)), f"{layer}.{cls_name}.{name}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_op_of_each_benchmark_workload_matches_its_golden(workload, tmp_path,
                                                                monkeypatch):
    goldens = load_perfbench("goldens")
    monkeypatch.chdir(tmp_path)  # CLI ops write their output files here
    prepared = workloads.prepare(workloads.build(workload, workloads.GOLDEN_SEED, ROOT))
    assert prepared.worker_steps > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the engine's advisory momentum-bound warning
        prepared.call(0)
    golden = goldens.load(os.path.join(PERFBENCH, "goldens.json.gz"))["workloads"][workload]
    ok, _identical, detail = goldens.compare(golden[prepared.ops[0].name], prepared.output(0))
    assert ok, detail
