"""Tests of the benchmark itself, kept out of the repository's test suite
(the file name does not match ``test_*.py``).

    python3 -m pytest perfbench/check_bench.py -q
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import goldens  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAMES = ["engine.run", "optim.gossip", "oracles.ProblemSpec.sample",
         "optim.WorkerState.replace", "optim.local_half_step"]


def span(sid, parent, name, t0, t1, run=0):
    return (sid, parent, NAMES.index(name), t0, t1, run)


def test_self_times_of_a_nested_tree():
    spans = [
        span(0, None, "engine.run", 0, 100),
        span(1, 0, "optim.gossip", 10, 40),
        span(2, 1, "optim.WorkerState.replace", 15, 20),
        span(3, 0, "oracles.ProblemSpec.sample", 30, 60),  # overlaps 1, as a pool thread would
        span(4, 0, "optim.local_half_step", 70, 80),
        span(5, 4, "optim.WorkerState.replace", 72, 75),
        span(6, None, "engine.run", 200, 300, run=None),  # outside an op: ignored
    ]
    assert tracing.self_times(spans[:6]) == {0: 40, 1: 25, 2: 5, 3: 30, 4: 7, 5: 3}

    m = tracing.layer_metrics(spans, NAMES)
    assert round(m["engine.self_s"] * 1e9) == 40
    assert round(m["optim.gossip_self_s"] * 1e9) == 30  # the replace inside gossip counts to gossip
    assert round(m["optim.step_self_s"] * 1e9) == 10
    assert round(m["oracles.sample_self_s"] * 1e9) == 30
    assert m["optim.gossip_calls"] == 1 and m["optim.state_replaces"] == 2
    assert m["engine.runs"] == 1 and m["trace.spans"] == 6
    assert round(m["trace.self_sum_s"] * 1e9) == 110  # overlapping children both count


def test_self_time_of_a_child_running_past_its_parent_is_clipped():
    spans = [span(0, None, "engine.run", 0, 10), span(1, 0, "optim.gossip", 5, 15)]
    assert tracing.self_times(spans) == {0: 5, 1: 10}


GOLDEN_TEXT = "step,loss\n1,0.5056529324216331\n2,3.0\n"
GOLDEN = {"sha256": goldens.sha256(GOLDEN_TEXT.encode()), "text": GOLDEN_TEXT}


def test_golden_check_accepts_identical_bytes():
    assert goldens.compare(GOLDEN, GOLDEN_TEXT.encode()) == (True, True, "")


def test_golden_check_flags_a_one_byte_change():
    ok, identical, _ = goldens.compare(GOLDEN, GOLDEN_TEXT.replace("loss", "lose").encode())
    assert not ok and not identical
    # a last-digit change stays within tolerance but loses byte identity
    ok, identical, _ = goldens.compare(GOLDEN, GOLDEN_TEXT.replace("331", "332").encode())
    assert ok and not identical


def test_golden_check_fails_a_value_past_tolerance():
    ok, _, detail = goldens.compare(GOLDEN, GOLDEN_TEXT.replace("3.0", "3.00000001").encode())
    assert not ok and "number" in detail


class _FakeOps:
    def __init__(self, raises):
        self.ops = [type("Op", (), {"name": "only"})()]
        self.raises = raises

    def call(self, i):
        if self.raises:
            raise FloatingPointError("diverged")

    def output(self, i):
        return GOLDEN_TEXT.encode()


def test_raised_exception_and_repeat_mismatch_count_as_failed():
    checker = goldens.Checker({"only": GOLDEN})
    worker.run_pass(_FakeOps(raises=False), 0, checker, against_golden=True)
    assert (checker.attempted, checker.failed, checker.bytes_identical_frac) == (1, 0, 1.0)
    worker.run_pass(_FakeOps(raises=True), 0, checker, against_golden=True)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.check("only", 5, b"first", against_golden=False)
    assert not checker.check("only", 5, b"second", against_golden=False)
    assert checker.failed == 2


def _attributes():
    import qgm_sim

    owners = [qgm_sim] + [importlib.import_module(f"qgm_sim.{m}") for m in tracing.LAYERS]
    owners += [qgm_sim.oracles.ProblemSpec, qgm_sim.optim.WorkerState]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_traced_run_restores_every_patched_attribute(tmp_path, monkeypatch):
    from qgm_sim import cli, engine, optim

    monkeypatch.chdir(tmp_path)
    before = _attributes()
    run_before = engine.run
    tracer = tracing.Tracer()
    with tracer.installed():
        assert engine.run is not run_before and cli.run is engine.run
        tracer.run_id = 0
        assert cli.main(["run", "--config", os.path.join(os.path.dirname(HERE), "configs",
                                                          "quadratic_ring16_qg.ini"),
                         "--out", "m.csv"]) == 0
        assert cli.main(["partition", "--out", "p.csv"]) == 0
    names = {tracer.names[s[2]] for s in tracer.spans}
    assert {"cli.main", "engine.run", "optim.gossip", "oracles.ProblemSpec.sample",
            "optim.WorkerState.replace", "heterogeneity.dirichlet_partition"} <= names
    after = _attributes()
    assert all(after[k] is v for k, v in before.items())
    # running code may add a module's warning registry, and nothing else
    assert {name for _owner, name in after.keys() - before.keys()} <= {"__warningregistry__"}
    assert inspect.isfunction(optim.gossip) and engine.run is run_before


def test_reference_pass_time_scales_by_the_calibrations_around_each_pass():
    ref = worker.CALIB_REF_S
    passes = [[0.5, 0.5], [2.0]]
    calib = [ref, 2 * ref, ref]  # the machine ran at half speed around the middle
    assert worker.reference_pass_s(passes, calib) == [1.0 / 1.5, 2.0 / 1.5]
