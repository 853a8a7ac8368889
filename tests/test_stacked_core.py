"""The stacked (dim x n) optimizer core against the per-worker reference.

``reference_loops`` keeps the per-worker step rules as they were before the
core existed; the core gets the same per-worker oracles through
``reference_loops.per_worker``.  For every per-step kind and for both round-structured
methods, on random small cases, the core as the engine drives it
(``stacked_step``, ``stacked_slowmo_round``, ``stacked_mimelite_round``)
must reproduce the reference bit for bit, step after step.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from qgm_sim import optim
from qgm_sim.optim import (
    HALF_STEP_KINDS,
    ROUND_KINDS,
    STEP_KINDS,
    HyperParams,
    StackedState,
    WorkerState,
    stacked_mimelite_round,
    stacked_slowmo_round,
    stacked_step,
)
from qgm_sim.oracles import quadratic_family, sample_all
from qgm_sim.topology import MixingMatrix, OnePeerExponential

STEPS = 4


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        for f in dataclasses.fields(WorkerState):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if va is None or vb is None:
                assert va is None and vb is None, (i, f.name)
            elif isinstance(va, float):
                assert va == vb, (i, f.name)
            else:
                assert np.shape(va) == np.shape(vb), (i, f.name)
                assert np.asarray(va).tobytes() == np.asarray(vb).tobytes(), (i, f.name)


def per_worker_step(kind, states, W, hp, t, grad_fn):
    """Step ``t`` (1-based) of ``kind`` through the reference's per-worker
    functions, dispatched as the engine did before the stacked core."""
    if kind in ("gt", "gt_momentum"):
        return ref.gt_step(states, W, hp, grad_fn, t - 1,
                           with_momentum=kind == "gt_momentum")
    grads = [grad_fn(i, ref.sampling_point(kind, s), t) for i, s in enumerate(states)]
    if kind == "qhm":
        return [ref.qhm_step(s, g, hp) for s, g in zip(states, grads)]
    if kind in ("dmsgd_i", "dmsgd_ii"):
        return ref.dmsgd_step(states, grads, W, hp, "I" if kind == "dmsgd_i" else "II")
    if kind in ("d2", "d2_plus"):
        return ref.d2_step(states, grads, W, hp, kind)
    if kind == "qg_dadam":
        return ref.qg_dadam_step(states, grads, W, hp)
    return ref.decentralized_step(kind, states, grads, W, hp, step_index=t)


def dense_at(mixing, t):
    """The reference's step-``t`` matrix: the one-peer schedule's dense
    matrix, or the static matrix itself."""
    if isinstance(mixing, OnePeerExponential):
        return ref.one_peer_exponential_matrix(mixing.n, t)
    return mixing


@st.composite
def cases(draw, max_n=6):
    """A small problem: worker count, dimension, mixing, per-step step
    sizes, hyperparameters and a pure quadratic-plus-noise oracle.  Mixing
    is a random doubly stochastic matrix (a convex mix of permutations) or
    the time-varying one-peer schedule, which the core mixes without a
    matrix and the reference with :func:`dense_at`."""
    one_peer = draw(st.booleans())
    n = draw(st.sampled_from([1, 2, 4])) if one_peer else draw(st.integers(1, max_n))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if one_peer:
        mixing = OnePeerExponential(n)
    else:
        weights = rng.dirichlet(np.ones(3))
        mixing = MixingMatrix(n, sum(w * np.eye(n)[rng.permutation(n)] for w in weights),
                              np.nan)
    etas = rng.uniform(0.01, 0.3, size=STEPS)
    hp = HyperParams(eta=float(etas[0]), beta=draw(st.floats(0.0, 0.95)),
                     mu=draw(st.floats(0.0, 0.95)), tau=draw(st.integers(1, 3)))
    a = rng.uniform(0.5, 2.0, size=(dim, n))
    b = rng.standard_normal((dim, n))
    noise = rng.standard_normal((STEPS + 1, dim, n))
    x0 = rng.standard_normal(dim)

    def grad_fn(i, x, t):
        return full_grad_fn(i, x) + 0.1 * noise[t, :, i]

    def full_grad_fn(i, x):
        return a[:, i] * (a[:, i] * x - b[:, i])

    return n, x0, mixing, etas, hp, grad_fn, full_grad_fn


@pytest.mark.parametrize("kind", STEP_KINDS)
@given(case=cases())
@settings(max_examples=40, deadline=None)
def test_stacked_core_matches_per_worker_reference(kind, case):
    n, x0, mixing, etas, hp, grad_fn, _ = case
    S = StackedState.init(x0, n)
    want = ref.to_workers(S)
    if kind in ("gt", "gt_momentum"):
        want = ref.gt_init(want, grad_fn, 0)  # the core's first step starts its tracker
    for t in range(1, STEPS + 1):
        hp_t = dataclasses.replace(hp, eta=float(etas[t - 1]))
        want = per_worker_step(kind, want, dense_at(mixing, t - 1), hp_t, t, grad_fn)
        stacked_step(kind, S, mixing.at(t - 1), hp_t, t, ref.per_worker(grad_fn))
        assert_same_bits(ref.to_workers(S), want)


@pytest.mark.parametrize("base_kind", HALF_STEP_KINDS)
@given(case=cases())
@settings(max_examples=25, deadline=None)
def test_stacked_slowmo_matches_per_worker_reference(base_kind, case):
    # the reference mixes every inner step with one matrix, so only static
    # mixing is compared here; time-varying rounds are tested in test_engine
    n, x0, mixing, etas, hp, grad_fn, _ = case
    W = dense_at(mixing, 0)
    hp = dataclasses.replace(hp, tau=2, slowmo_beta=0.5)
    S = StackedState.init(x0, n)
    want = ref.to_workers(S)
    for r in range(2):
        hp_r = dataclasses.replace(hp, eta=float(etas[r]))
        want = ref.slowmo_round(want, W, hp_r, base_kind, grad_fn, step0=2 * r)
        stacked_slowmo_round(S, W, hp_r, base_kind, ref.per_worker(grad_fn), step0=2 * r)
        assert_same_bits(ref.to_workers(S), want)


@given(case=cases(max_n=12))
@settings(max_examples=60, deadline=None)
def test_stacked_mimelite_matches_per_worker_reference(case):
    # rounds of hp.tau local steps, as many as the case's noise covers; more
    # than 8 workers, where a pairwise sum would stop matching the
    # reference's worker-by-worker means
    n, x0, _mixing, etas, hp, grad_fn, full_grad_fn = case
    S = StackedState.init(x0, n)
    x, s = x0.copy(), np.zeros_like(x0)
    for r in range(STEPS // hp.tau):
        hp_r = dataclasses.replace(hp, eta=float(etas[r]))
        x, s = ref.mimelite_round(x, s, hp_r, grad_fn, full_grad_fn, n, step0=r * hp.tau)
        stacked_mimelite_round(S, hp_r, ref.per_worker(grad_fn), ref.per_worker(full_grad_fn),
                               step0=r * hp.tau)
        for i in range(n):
            assert S.X[:, i].tobytes() == x.tobytes(), (r, i)
        assert S.server_s.tobytes() == s.tobytes(), r


@pytest.mark.parametrize("dim,n", [(1, 1), (3, 5), (7, 1), (512, 512)])
def test_init_allocates_the_model_once(dim, n):
    # one array, x0 broadcast into its columns: the bits of np.repeat, which
    # init once ran and then copied
    x0 = np.random.default_rng(dim).standard_normal(dim)
    x0[0] = -0.0
    if dim > 1:
        x0[1] = np.nan
    kept = x0.copy()
    for start in (x0, list(x0)):
        S = StackedState.init(start, n)
        X = S.X
        assert X.shape == (dim, n) and X.dtype == np.float64
        assert X.flags.c_contiguous and X.flags.writeable and X.flags.owndata
        assert X.tobytes() == np.repeat(x0[:, None], n, axis=1).tobytes()
        assert x0.tobytes() == kept.tobytes()
        X[...] = 1.0
        assert x0.tobytes() == kept.tobytes()
        for buffer in (S.M_hat, S.M_local, S.V):
            assert buffer.shape == (dim, n) and not buffer.any()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="per-step kind"):
        stacked_step("slowmo", StackedState.init(np.zeros(1), 1), np.eye(1),
                     HyperParams(eta=0.1), 1, ref.per_worker(lambda i, x, t: x))


# ---------------------------------------------------------------------------
# ownership: a step writes only into buffers it allocated itself
# ---------------------------------------------------------------------------

class _Kept:
    """Bit copies of arrays the step functions must leave as they were."""

    def __init__(self):
        self.arrays = {}  # id -> (array, its bytes when first seen, where)

    def keep(self, arr, where):
        if id(arr) not in self.arrays:
            self.arrays[id(arr)] = (arr, arr.tobytes(), where)

    def changed(self):
        return [where for arr, bits, where in self.arrays.values() if arr.tobytes() != bits]


def _run_spans_keeping_every_array(kind, mixing, monkeypatch, spans=3):
    """Run ``spans`` spans of ``kind`` (a round of tau = 2 steps for the
    round kinds) through the optimizer functions the engine calls, with a
    noisy heterogeneous quadratic.  Returns the arrays kept and every
    ``mix`` input with its bits at the call and right after it."""
    n, dim = mixing.n, 6
    problem = quadratic_family(dim=dim, n_workers=n, zeta_c=0.7, sigma_c=0.3,
                               cond=4.0, master_seed=5)
    hp = HyperParams(eta=0.05, tau=2)
    kept, mixed = _Kept(), []

    def grad_fn(P, step):
        G = sample_all(problem, P, step)
        kept.keep(G, f"grad_fn at step {step}")
        return G

    def full_grad_fn(P):
        F = problem.local_gradients(P)
        kept.keep(F, "full_grad_fn")
        return F

    real_mix = optim.mix

    def mix(X, W, out=None):
        bits = X.tobytes()
        out = real_mix(X, W, out)
        assert not np.shares_memory(out, X)
        mixed.append((X, bits, X.tobytes()))
        return out

    monkeypatch.setattr(optim, "mix", mix)
    x0 = np.linspace(-1.0, 1.0, dim)
    kept.keep(x0, "x0")
    S = StackedState.init(x0, n)

    def keep_state(span):
        for attr, _ in S.array_fields():
            kept.keep(getattr(S, attr), f"S.{attr} after span {span}")

    keep_state(0)
    for span in range(spans):
        if kind == "slowmo":
            stacked_slowmo_round(S, mixing, hp, "qg_dsgdm", grad_fn, 2 * span)
        elif kind == "mimelite":
            stacked_mimelite_round(S, hp, grad_fn, full_grad_fn, 2 * span)
        else:
            stacked_step(kind, S, mixing.at(span), hp, span + 1, grad_fn)
        keep_state(span + 1)
    return kept, mixed


@pytest.mark.parametrize("mixing", [MixingMatrix(4, np.full((4, 4), 0.25), np.nan),
                                    OnePeerExponential(4)], ids=["dense", "one_peer"])
@pytest.mark.parametrize("kind", STEP_KINDS + ROUND_KINDS)
def test_steps_never_write_into_an_array_they_do_not_own(kind, mixing, monkeypatch):
    # every array the state held, every array grad_fn returned and the start
    # point keep their bits through three spans.  mix never writes its
    # input, and an input that the state or an oracle also holds keeps the
    # bits it had when it was mixed; only a step's own scratch half step,
    # which nothing else holds, may take a later result once mix returns
    kept, mixed = _run_spans_keeping_every_array(kind, mixing, monkeypatch)
    assert not kept.changed()
    assert all(during == before for _, before, during in mixed), "mix wrote its input"
    held = [(X, before) for X, before, _ in mixed if id(X) in kept.arrays]
    assert all(X.tobytes() == before for X, before in held)
    if kind not in ("qhm", "mimelite"):
        assert mixed, "the spans never gossiped"
    if kind in ("dmsgd_i", "dmsgd_ii", "gt", "gt_momentum"):
        assert held, "the state keeps a mixed array as history"
