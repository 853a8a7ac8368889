"""Large states step in two row ranges on two threads, bit for bit.

``engine.run`` splits a dsgd/qg-family run in two halves once its buffers
reach ``engine._SPLIT_ENTRIES`` entries and ``engine._SPLIT_MIN_ROWS``
rows, on two allowed CPUs with BLAS at one thread.  These tests lower that
constant so that small states split, and compare every output of a split
run with the same run in one range: the metrics CSV, ``xbar_trace``, every
field of the final state and the divergence a NaN raises.  A split step
writes the arrays earlier steps of its run retired: further tests check
which arrays those are, that a NaN in one is still caught, and that a
large run's steps then map no fresh memory.  A split run steps beside one
helper thread of its own: others check that a run that does not split
starts none and that none outlives the run that started it, whether it
returns or raises.
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


def config(kind, topology, zeta="0.0", sigma="0.0", dim=200, steps=6, tau="2"):
    n = 4
    return RunConfig.from_mapping({
        "problem": {"kind": "quadratic", "dim": str(dim), "zeta": zeta, "sigma": sigma,
                    "cond": "4.0", "init": "0.5"},
        "topology": {"kind": topology, "n": str(n)},
        "optim": {"kind": kind, "eta": "0.05", "tau": tau},
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


@pytest.mark.parametrize("step", range(3, 9))
@pytest.mark.parametrize("kind", HALF_STEP_KINDS)
def test_nan_in_a_recycled_buffer_is_caught(kind, step, splitting):
    # From its second step a split run writes the arrays earlier steps
    # retired.  A NaN left at ``step`` in the recycled buffer the state
    # keeps (the new m_hat, m_local or x) is found at that step, in that
    # field and worker, as in a fresh array.  At tau 1 the arrays cycle
    # through the fields every few steps, so a divergence check that
    # skipped an array it had once seen in a field would miss one of these.
    monkeypatch, calls = splitting
    field = {"dsgd": "x", "dsgdm": "m_local", "dsgdm_n": "m_local"}.get(kind, "m_hat")
    attr = {"x": "X", "m_local": "M_local", "m_hat": "M_hat"}[field]
    cfg = config(kind, "one_peer_exponential", sigma="0.3", steps=8, tau="1")
    mask = np.zeros((cfg.problem.dim, cfg.n), dtype=bool)
    mask[-5, 2] = True
    retired_before = []
    real = engine.stacked_dsgd_tasks

    def poisoned(kind, S, W, hp, t, problem, spare):
        before, product, after, retired = real(kind, S, W, hp, t, problem, spare)
        if t == step:
            target = getattr(S, attr)
            assert any(target is a for a in retired_before)
            after = [*after, (np.putmask, (target, mask, np.nan))]
        retired_before.extend(retired)
        return before, product, after, retired

    monkeypatch.setattr(engine, "stacked_dsgd_tasks", poisoned)
    with pytest.raises(NumericalDivergence) as exc:
        outputs(cfg, 0, monkeypatch)
    assert len(calls) == step
    assert (exc.value.step, exc.value.field, exc.value.worker) == (step, field, 2)


@pytest.mark.parametrize("kind", HALF_STEP_KINDS)
def test_a_step_writes_spare_arrays_and_retires_what_the_state_drops(kind):
    cfg = config(kind, "ring", sigma="0.3")
    S = StackedState.init(cfg.x0, cfg.n)
    held = {attr: getattr(S, attr) for attr, _name in S.array_fields()}
    spare = [np.empty(S.X.shape) for _ in range(5)]
    offered = list(spare)
    *_phases, retired = stacked_dsgd_tasks(kind, S, cfg.mixing.at(1), cfg.hp, 2,
                                           cfg.problem, spare)
    taken = offered[len(spare):]
    # every array the step binds to the state came from the spare list, and
    # the arrays it retires are its own temporaries and the ones the state
    # dropped
    now = {attr: getattr(S, attr) for attr in held}
    replaced = [attr for attr in held if now[attr] is not held[attr]]
    assert replaced == {"dsgd": ["X"], "dsgdm": ["X", "M_local"], "dsgdm_n": ["X", "M_local"],
                        "qg_dsgdm": ["X", "M_hat"], "qg_dsgdm_n": ["X", "M_hat"]}[kind]
    assert all(any(now[attr] is a for a in taken) for attr in replaced)
    assert len(retired) == len(taken) == 2 + len(replaced)
    assert all(any(held[attr] is a for a in retired) for attr in replaced)
    assert not any(a is b for a in retired for b in now.values())
    # a spare list too short: the step takes what there is, then allocates
    S = StackedState.init(cfg.x0, cfg.n)
    spare = offered[:1]
    stacked_dsgd_tasks(kind, S, cfg.mixing.at(1), cfg.hp, 2, cfg.problem, spare)
    assert spare == [] and not any(S.X is a for a in offered)


@pytest.mark.parametrize("kind", HALF_STEP_KINDS)
def test_a_step_names_its_phases(kind):
    # on a ring the product is the one dense gossip, over the whole state,
    # and every task before and after it is a row task; a one-peer step's
    # gossip is a row task, so it has no product
    for topology in ("ring", "one_peer_exponential"):
        cfg = config(kind, topology, sigma="0.3")
        S = StackedState.init(cfg.x0, cfg.n)
        X = S.X
        before, product, after, _retired = stacked_dsgd_tasks(
            kind, S, cfg.mixing.at(0), cfg.hp, 2, cfg.problem, [])
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


def counting_helpers_at_each_step(monkeypatch, name):
    """Record how many helper threads are alive at each call of the
    engine's ``name`` (a step function), in the list returned."""
    seen = []
    real = getattr(engine, name)

    def counted(*args):
        seen.append(helper_threads())
        return real(*args)

    monkeypatch.setattr(engine, name, counted)
    return seen


def test_small_state_never_starts_the_thread(monkeypatch):
    two_cpus_one_blas_thread(monkeypatch)
    during = counting_helpers_at_each_step(monkeypatch, "stacked_step")
    before = helper_threads()
    cfg = config("qg_dsgdm", "ring")  # 200 x 4 entries, far below the threshold
    assert cfg.problem.dim * cfg.n < engine._SPLIT_ENTRIES
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine.run(cfg)
    assert during == [before] * cfg.steps and helper_threads() == before


def test_no_helper_outlives_its_run(splitting):
    # each split run steps beside one helper thread of its own, which is
    # gone once the run returns
    monkeypatch, calls = splitting
    during = counting_helpers_at_each_step(monkeypatch, "stacked_dsgd_tasks")
    before = helper_threads()
    for kind in ("qg_dsgdm", "dsgdm"):
        outputs(config(kind, "ring"), 0, monkeypatch)
        assert helper_threads() == before
    assert len(calls) == 12 and during == [before + 1] * 12


@pytest.mark.parametrize("poisoned", ["caller", "helper"])
def test_no_helper_outlives_a_run_that_diverges(poisoned, splitting):
    # a NaN in the first or the second half at step 3 aborts the run; its
    # helper thread is joined all the same
    monkeypatch, calls = splitting
    cfg = config("qg_dsgdm", "one_peer_exponential", sigma="0.3")
    mask = np.zeros((cfg.problem.dim, cfg.n), dtype=bool)
    mask[0 if poisoned == "caller" else -1, 1] = True
    during = counting_helpers_at_each_step(monkeypatch, "stacked_dsgd_tasks")
    real = engine.stacked_dsgd_tasks

    def poisoned_step(kind, S, W, hp, t, problem, spare):
        before, product, after, retired = real(kind, S, W, hp, t, problem, spare)
        if t == 3:
            after = [*after, (np.putmask, (S.X, mask, np.nan))]
        return before, product, after, retired

    monkeypatch.setattr(engine, "stacked_dsgd_tasks", poisoned_step)
    before = helper_threads()
    with pytest.raises(NumericalDivergence) as exc:
        outputs(cfg, 0, monkeypatch)
    assert (exc.value.step, exc.value.field, exc.value.worker) == (3, "x", 1)
    assert len(calls) == 3 and during == [before + 1] * 3
    assert helper_threads() == before


def test_no_helper_outlives_a_run_whose_half_raises(splitting):
    # an exception in the helper's half is raised on the calling thread,
    # which then joins the helper
    monkeypatch, calls = splitting
    real = engine._run_rows

    def failing(tasks, rows):
        if rows.start:
            raise RuntimeError("second half")
        return real(tasks, rows)

    monkeypatch.setattr(engine, "_run_rows", failing)
    before = helper_threads()
    with pytest.raises(RuntimeError, match="second half"):
        outputs(config("dsgd", "one_peer_exponential"), 0, monkeypatch)
    assert len(calls) == 1 and helper_threads() == before


def test_concurrent_split_runs_keep_their_bytes(splitting):
    # six callers on two cores, each run with its own helper thread; a
    # half that ran for another caller's step would move bytes
    monkeypatch, calls = splitting
    before = helper_threads()
    cases = [config(kind, topology, sigma="0.3") for kind in ("qg_dsgdm", "dsgdm_n", "dsgd")
             for topology in ("ring", "one_peer_exponential")]
    want = [outputs(cfg, 1 << 62, monkeypatch) for cfg in cases]
    monkeypatch.setattr(engine, "_SPLIT_ENTRIES", 0)
    got = [None] * len(cases)

    def work(i):
        res = engine.run(cases[i])
        S = res.final_state
        got[i] = (engine.metrics_csv_lines(res.records), res.xbar_trace.tobytes(),
                  {name: getattr(S, attr).tobytes() for attr, name in S.array_fields()},
                  S.eta_prev)

    # the warning filters are process-wide: set once, around all the threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 6 * len(cases) and got == want
    assert helper_threads() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper(splitting):
    # a forked child has no thread but the one that forked; its split runs
    # start their own helpers and give the parent's bytes
    monkeypatch, calls = splitting
    cfg = config("qg_dsgdm", "ring", sigma="0.3")
    want = outputs(cfg, 0, monkeypatch)
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


# Runs in a fresh interpreter at one BLAS thread.  It prints whether a
# one-peer n 512, dim 512 run splits, and the minor page faults of a
# second and third such run, of 6 and of 18 steps.
_FAULT_SCRIPT = r"""
import json, resource, warnings
from qgm_sim import engine
warnings.simplefilter("ignore")

def faults(steps):
    cfg = engine.RunConfig.from_mapping({
        "problem": {"kind": "quadratic", "dim": "512", "init": "0.5"},
        "topology": {"kind": "one_peer_exponential", "n": "512"},
        "optim": {"kind": "qg_dsgdm"}, "run": {"steps": str(steps)}})
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.run(cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(6)
print(json.dumps({"splits": engine._halves("qg_dsgdm", 512, 512) is not None,
                  "six": faults(6), "eighteen": faults(18)}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="a run splits only where two CPUs are allowed")
def test_split_steps_stop_faulting():
    # A split step writes the arrays the run's last step retired, so its
    # steps map no fresh memory: 12 more steps take fewer minor faults than
    # 16 a step.  When each step allocated its arrays, they took 816 a step
    # (9,792 in all), each 2 MB array a fresh mapping.
    full = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    full["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env=full, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    if not got["splits"]:
        pytest.skip("numpy's BLAS does not report one thread, so the run does not split")
    assert got["eighteen"] - got["six"] < 12 * 16, got
