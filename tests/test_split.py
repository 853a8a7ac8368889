"""Large states step in two row ranges on two threads, bit for bit.

``engine.run`` splits a dsgd/qg-family run in two halves once its buffers
reach ``engine._SPLIT_ENTRIES`` entries and ``engine._SPLIT_MIN_ROWS``
rows, on two allowed CPUs with BLAS at one thread.  These tests lower that
constant so that small states split, and compare every output of a split
run with the same run in one range: the metrics CSV, ``xbar_trace``, every
field of the final state and the divergence a NaN raises.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from qgm_sim import engine, oracles
from qgm_sim.engine import NumericalDivergence, RunConfig
from qgm_sim.optim import (HALF_STEP_KINDS, ROUND_KINDS, STEP_KINDS, StackedState, mix,
                           stacked_dsgd_tasks)
from qgm_sim.topology import MixingMatrix, OnePeerStep

TOPOLOGIES = ("ring", "torus", "complete", "one_peer_exponential")
PROBLEMS = {"noise_free": ("0.0", "0.0"), "noisy": ("0.0", "0.3"), "heterogeneous": ("0.7", "0.0")}
ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def config(kind, topology, zeta="0.0", sigma="0.0", dim=200, steps=6):
    n = 4
    return RunConfig.from_mapping({
        "problem": {"kind": "quadratic", "dim": str(dim), "zeta": zeta, "sigma": sigma,
                    "cond": "4.0", "init": "0.5"},
        "topology": {"kind": topology, "n": str(n)},
        "optim": {"kind": kind, "eta": "0.05", "tau": "2"},
        "schedule": {"kind": "warmup_stage", "warmup_fraction": "0.3",
                     "milestones": "0.5"},
        "run": {"steps": str(steps), "seed": "3", "metrics_every": "2"}})


def two_cpus_one_blas_thread(monkeypatch):
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(engine, "_blas_threads", lambda: 1)


@pytest.fixture
def splitting(monkeypatch):
    """Let every state of enough rows split, on any machine, and
    count the split steps."""
    calls = []
    real = engine._split_step

    def counted(*args):
        calls.append(None)
        return real(*args)

    two_cpus_one_blas_thread(monkeypatch)
    monkeypatch.setattr(engine, "_split_step", counted)
    return monkeypatch, calls


def outputs(cfg, entries, monkeypatch):
    """Every output of one run of ``cfg`` with the split threshold at
    ``entries``: the CSV lines, the trace bytes and each final field."""
    monkeypatch.setattr(engine, "_SPLIT_ENTRIES", entries)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = engine.run(cfg)
    S = res.final_state
    fields = {name: getattr(S, attr).tobytes() for attr, name in S.array_fields()}
    return (engine.metrics_csv_lines(res.records), res.xbar_trace.tobytes(), fields,
            S.eta_prev)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("kind", HALF_STEP_KINDS)
def test_split_run_matches_whole_run(kind, topology, problem, splitting):
    monkeypatch, calls = splitting
    cfg = config(kind, topology, *PROBLEMS[problem])
    whole = outputs(cfg, 1 << 62, monkeypatch)
    assert not calls
    split = outputs(cfg, 0, monkeypatch)
    assert len(calls) == cfg.steps
    assert split == whole


@pytest.mark.parametrize("topology", ("ring", "one_peer_exponential"))
@pytest.mark.parametrize("kind", HALF_STEP_KINDS)
def test_nan_in_second_half_diverges_as_whole_run(kind, topology, splitting):
    # one gradient entry of worker 2, in the last rows, turns NaN at step 3
    monkeypatch, calls = splitting
    cfg = config(kind, topology, sigma="0.3")
    mask = np.zeros((cfg.problem.dim, cfg.n), dtype=bool)
    mask[-5, 2] = True
    real = oracles.ProblemSpec.sample_rows

    def poisoned(self, step):
        fn, arrays = real(self, step)

        def rows(P, out, *rest):
            out = fn(P, out, *rest[:-1])
            if step == 3:
                out[rest[-1]] = np.nan
            return out

        return rows, (*arrays, mask)

    monkeypatch.setattr(oracles.ProblemSpec, "sample_rows", poisoned)
    raised = []
    for entries in (1 << 62, 0):
        with pytest.raises(NumericalDivergence) as exc:
            outputs(cfg, entries, monkeypatch)
        raised.append((exc.value.step, exc.value.field, exc.value.worker))
    assert calls and raised[0] == raised[1]
    assert raised[0][0] == 3


@pytest.mark.parametrize("kind", HALF_STEP_KINDS)
def test_a_step_names_its_phases(kind):
    # on a ring the product is the one dense gossip, over the whole state,
    # and every task before and after it is a row task; a one-peer step's
    # gossip is a row task, so it has no product
    for topology in ("ring", "one_peer_exponential"):
        cfg = config(kind, topology, sigma="0.3")
        S = StackedState.init(cfg.x0, cfg.n)
        X = S.X
        before, product, after = stacked_dsgd_tasks(kind, S, cfg.mixing.at(0), cfg.hp, 2,
                                                    cfg.problem)
        rows = before + after
        assert all(fn is not mix or isinstance(args[1], OnePeerStep) for fn, args in rows)
        assert all(a.shape[0] == cfg.problem.dim for _fn, args in rows for a in args
                   if isinstance(a, np.ndarray) and a.ndim == 2)
        if topology == "ring":
            fn, (H, W, out) = product
            assert fn is mix and isinstance(W, MixingMatrix) and out is S.X
            assert H.shape == out.shape == X.shape
            assert len(before) == 2 and before[-1][1][-1] is H
            assert [f.__name__ for f, _args in after] == (["_refresh"] if "qg" in kind else [])
        else:
            assert product is None and before == []
            assert [args[1].offset for f, args in after if f is mix] == [1]


def helper_threads():
    return sum(t.name == "qgm-sim-rows" for t in threading.enumerate())


def test_small_state_never_starts_the_thread(monkeypatch):
    monkeypatch.setattr(engine, "_helper_jobs", None)
    two_cpus_one_blas_thread(monkeypatch)
    before = helper_threads()
    cfg = config("qg_dsgdm", "ring")  # 200 x 4 entries, far below the threshold
    assert cfg.problem.dim * cfg.n < engine._SPLIT_ENTRIES
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine.run(cfg)
    assert engine._helper_jobs is None and helper_threads() == before


def test_split_runs_share_one_thread(splitting):
    monkeypatch, calls = splitting
    monkeypatch.setattr(engine, "_helper_jobs", None)
    before = helper_threads()
    for kind in ("qg_dsgdm", "dsgdm"):
        outputs(config(kind, "ring"), 0, monkeypatch)
    assert len(calls) == 12 and helper_threads() == before + 1


def test_concurrent_split_runs_share_the_helper_and_keep_their_bytes(splitting):
    # six callers on two cores take turns with the one helper thread; a
    # half that ran for another caller's step would move bytes
    monkeypatch, calls = splitting
    cases = [config(kind, topology, sigma="0.3") for kind in ("qg_dsgdm", "dsgdm_n", "dsgd")
             for topology in ("ring", "one_peer_exponential")]
    want = [outputs(cfg, 1 << 62, monkeypatch) for cfg in cases]
    monkeypatch.setattr(engine, "_SPLIT_ENTRIES", 0)
    got = [None] * len(cases)

    def work(i):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = engine.run(cases[i])
        S = res.final_state
        got[i] = (engine.metrics_csv_lines(res.records), res.xbar_trace.tobytes(),
                  {name: getattr(S, attr).tobytes() for attr, name in S.array_fields()},
                  S.eta_prev)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 6 * len(cases) and got == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper(splitting):
    # the child of a process whose helper thread runs has no such thread;
    # its first split run must start one rather than wait for the parent's
    monkeypatch, calls = splitting
    cfg = config("qg_dsgdm", "ring", sigma="0.3")
    want = outputs(cfg, 0, monkeypatch)
    assert engine._helper_jobs is not None
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only on the parent's bytes
        code = 1
        try:
            code = 0 if outputs(cfg, 0, monkeypatch) == want else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("kind,dim", [
    *((kind, 512) for kind in STEP_KINDS + ROUND_KINDS if kind not in HALF_STEP_KINDS),
    ("qg_dsgdm", engine._SPLIT_MIN_ROWS - 1)])
def test_runs_that_stay_in_one_range(kind, dim, monkeypatch):
    # only the dsgd/qg family splits, and a state needs enough rows however
    # many entries it has
    two_cpus_one_blas_thread(monkeypatch)
    assert engine._halves(kind, dim, 1 << 20) is None
    assert engine._halves("qg_dsgdm", 512, 1 << 20) is not None


def test_halves_meet_in_the_middle(monkeypatch):
    two_cpus_one_blas_thread(monkeypatch)
    for dim in (engine._SPLIT_MIN_ROWS, 191, 200, 512):
        first, second = engine._halves("qg_dsgdm", dim, 1 << 20)
        assert first == slice(0, dim // 2) and second == slice(dim // 2, dim)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    assert engine._halves("qg_dsgdm", 512, 1 << 20) is None


@pytest.mark.parametrize("threads", [2, None])
def test_no_split_beside_a_threaded_blas(threads, monkeypatch):
    # more BLAS threads, or a BLAS that does not say, keep one range
    two_cpus_one_blas_thread(monkeypatch)
    monkeypatch.setattr(engine, "_blas_threads", lambda: threads)
    assert engine._halves("qg_dsgdm", 512, 1 << 20) is None


# Runs in a fresh interpreter under one BLAS set-up.  For every case it
# prints whether the split and whole runs agree byte for byte.
_BLAS_SCRIPT = r"""
import json, os, warnings
from qgm_sim import engine
os.sched_getaffinity = lambda pid: {0, 1}
warnings.simplefilter("ignore")
cases = {"blas_threads": engine._blas_threads(),
         "splits_by_itself": engine._halves("qg_dsgdm", 512, 512) is not None}
engine._blas_threads = lambda: 1  # split at any BLAS thread count
for topo, n, dim in (("ring", 256, 256), ("torus", 192, 256), ("complete", 64, 256),
                     ("one_peer_exponential", 256, 256), ("ring", 256, 549),
                     ("complete", 16, 8229)):
    for kind in ("qg_dsgdm", "dsgdm_n"):
        cfg = engine.RunConfig.from_mapping({
            "problem": {"kind": "quadratic", "dim": str(dim), "zeta": "0.5",
                        "sigma": "0.3", "cond": "4.0", "init": "0.5"},
            "topology": {"kind": topo, "n": str(n)}, "optim": {"kind": kind},
            "run": {"steps": "4", "seed": "1"}})
        got = []
        for entries in (0, 1 << 62):
            engine._SPLIT_ENTRIES = entries
            res = engine.run(cfg)
            S = res.final_state
            got.append((engine.metrics_csv_lines(res.records), res.xbar_trace.tobytes(),
                        [getattr(S, a).tobytes() for a, _ in S.array_fields()]))
        cases[f"{topo} n={n} dim={dim} {kind}"] = got[0] == got[1]
print(json.dumps(cases))
"""


def blas_cases(env):
    """The BLAS thread count, whether a large run splits unforced, and the
    split-equals-whole flag of each case, run under ``env``."""
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=full, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("kernel", [{}, {"OPENBLAS_CORETYPE": "Haswell"}],
                         ids=["default_kernel", "haswell_kernel"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_split_adds_no_blas_dependence_of_its_own(kernel, threads):
    # The dense gossip stays one product on the calling thread, so a split
    # run has the whole run's bytes at any BLAS thread count and on every
    # kernel, including Haswell's, whose product rows at two threads depend
    # on where OpenBLAS divides them between its threads (the 549- and
    # 8229-row cases).
    cases = blas_cases({**kernel, "OPENBLAS_NUM_THREADS": threads})
    blas_threads, splits = cases.pop("blas_threads"), cases.pop("splits_by_itself")
    assert blas_threads in (None, int(threads)) and splits == (blas_threads == 1)
    assert [case for case, same in cases.items() if not same] == []
