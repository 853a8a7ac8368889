"""Every exported name resolves.

The benchmark's tracer (``perfbench/tracing.py``) looks up each name in the
``__all__`` of ``qgm_sim`` and of every submodule, and patches the class
methods named in its ``METHODS`` table; a stale name or a missing method
makes a traced benchmark run (``perfbench/run.py --trace 1``) crash before
it measures anything.  These checks keep that failure in the ordinary test
suite, as does a run of every op of every benchmark workload through
``perfbench/workloads.py``, which drives the engine by name
(``RunConfig.from_mapping``/``from_ini``, ``build_problem``,
``build_mixing``, ``cfg.n``, ``cfg.steps``, ``run``, ``metrics_csv_lines``)
and the CLI by ``cli.main``; each op must reproduce its golden byte for
byte, so a byte that moves in any op fails here.
"""

import functools
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


def test_traced_runs_record_spans_and_restore_every_patched_attribute():
    # the tracer wraps every function in each __all__: a name dropped from
    # one must leave a traced run working and every attribute restored
    tracing = load_perfbench("tracing")
    engine = importlib.import_module("qgm_sim.engine")
    owners = [importlib.import_module(m) for m in MODULES] + [
        getattr(importlib.import_module(f"qgm_sim.{layer}"), cls_name)
        for layer, classes in tracing.METHODS.items() for cls_name in classes]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the engine's advisory momentum-bound warning
        with tracer.installed():
            for topology in ("ring", "one_peer_exponential"):
                tracer.run_id = topology
                engine.run(engine.RunConfig.from_mapping({
                    "topology": {"kind": topology, "n": "4"},
                    "optim": {"kind": "qg_dsgdm"}, "run": {"steps": "3"}}))
    for topology in ("ring", "one_peer_exponential"):
        names = {tracer.names[s[2]] for s in tracer.spans if s[5] == topology}
        assert {"engine.run", "optim.mix"} <= names, topology
    for owner, attrs in zip(owners, before):
        changed = [name for name, value in attrs.items() if vars(owner).get(name) is not value]
        assert not changed, f"{owner.__name__}: {changed}"


OPS = [(workload, i, op.name) for workload in workloads.WORKLOADS
       for i, op in enumerate(workloads.build(workload, workloads.GOLDEN_SEED, ROOT))]
# ops whose bytes moved, by a named change, after the goldens were frozen:
# the SHA-256 of today's output.  `topo`'s rho moved in its last bits when
# spectral_gap went from an SVD to eigvalsh (0.09891870084241727 ->
# 0.0989187008424176, within the golden tolerance).
MOVED = {("cli_suite", "topo"):
         "dd13de66353e4c81b959bbf1f5fd2eb95cca49c032d087c6dd16ac44bea24568"}


@functools.lru_cache(maxsize=None)
def prepared_workload(workload):
    return workloads.prepare(workloads.build(workload, workloads.GOLDEN_SEED, ROOT))


@functools.lru_cache(maxsize=None)
def goldens():
    """The goldens module and its frozen outputs per workload."""
    module = load_perfbench("goldens")
    return module, module.load(os.path.join(PERFBENCH, "goldens.json.gz"))["workloads"]


@pytest.mark.parametrize("workload,index,name", OPS, ids=[f"{w}-{name}" for w, _, name in OPS])
def test_every_benchmark_op_matches_its_golden(workload, index, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # CLI ops write their output files here
    prepared = prepared_workload(workload)
    assert prepared.worker_steps > 0 and prepared.ops[index].name == name
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the engine's advisory momentum-bound warning
        prepared.call(index)
    module, frozen = goldens()
    output = prepared.output(index)
    ok, identical, detail = module.compare(frozen[workload][name], output)
    if (workload, name) in MOVED:
        assert ok and module.sha256(output) == MOVED[workload, name], detail
    else:
        assert ok and identical, detail
