"""Per-worker reference loops for the stacked optimizer core and the oracles.

These are the per-worker step rules as they stood before the optimizer moved
to one stacked ``(dim, n)`` state: every worker's model and buffers live in
its own :class:`WorkerState` and each step rebuilds the list; the server
round works on per-worker Python lists.  They are kept unchanged, as the
reference that ``test_stacked_core.py`` and acceptance criterion 4 compare
the stacked core with.  The mean evaluations at the end are
``ProblemSpec``'s worker-by-worker loops as they stood before they became
whole-array expressions, then the whole-array versions as they stood before
they built their ``(n, dim)`` rows directly (a broadcast ``(dim, n)`` view
and a transposed copy), then the row versions as they stood when they read
the targets through a transposed view and reduced through numpy's
``np.mean``, ``np.sum`` and ``ndarray.mean`` wrappers, and
:func:`worker_rng`, :func:`worker_b` and :func:`quadratic_gradient` the
per-worker quadratic oracle as it stood before ``ProblemSpec.sample``
became a column of ``sample_all``: the reference of ``test_oracles.py``.
:func:`check_finite` is the engine's divergence check as it stood when it
scanned every changed array entry by entry.  :func:`to_workers` splits a
stacked state into per-worker states and :func:`per_worker` lifts a
per-worker oracle to the matrix contract of ``qgm_sim.optim``.

Four functions the package no longer ships, since no run calls them, live
here as the tests' own references: :func:`qg_multistep_gate` and
:func:`qhm_core`, the multi-step gate and the quasi-hyperbolic update the
per-worker loops apply; :func:`one_peer_exponential_matrix`, the dense
matrix of a one-peer step that the matrix-free gossip is checked against;
and :func:`finite_difference_check`, which checks the oracles' analytic
gradients against central differences of their losses.  Not collected by
pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from qgm_sim.engine import NumericalDivergence
from qgm_sim.optim import HALF_STEP_KINDS, HyperParams, WorkerState
from qgm_sim.oracles import GradientSample
from qgm_sim.topology import MixingMatrix, OnePeerExponential, _validate_doubly_stochastic


def per_worker(fn):
    """Lift a per-worker oracle ``fn(i, x, *args)`` to the matrix contract
    ``F(P, *args)``: column ``i`` of a fresh ``(dim, n)`` array is
    ``fn(i, P[:, i], *args)``, one call per worker in worker order."""
    def lifted(P, *args):
        G = np.empty(P.shape)
        for i in range(P.shape[1]):
            G[:, i] = fn(i, P[:, i], *args)
        return G

    return lifted


def to_workers(S) -> list[WorkerState]:
    """Per-worker states holding copies of each worker's columns of the
    stacked state ``S`` (its shared arrays copied into every worker; a
    :class:`WorkerState` has no field for mimelite's ``server_s``)."""
    arrays = [(name, getattr(S, attr)) for attr, name in S.array_fields()]
    return [
        WorkerState(**{name: arr[:, i].copy() if arr.ndim == 2 else arr.copy()
                       for name, arr in arrays if name != "server_s"},
                    eta_prev=S.eta_prev)
        for i in range(S.X.shape[1])
    ]


def sampling_point(kind: str, state: WorkerState) -> np.ndarray:
    """Where the engine sampled a worker's gradient for a pre-sampled step."""
    if kind == "dmsgd_ii" and state.x_half_prev is not None:
        return state.x_half_prev
    return state.x


def _weights(W) -> np.ndarray:
    return W.weights if hasattr(W, "weights") else np.asarray(W, dtype=float)


def _stack(states: list[WorkerState]) -> np.ndarray:
    return np.stack([s.x for s in states], axis=1)  # dim x n, one column per worker


def gossip(states: list[WorkerState], W) -> list[WorkerState]:
    """One communication round: x_i <- sum_j W[i, j] x_j.

    Only the models move; every optimizer buffer stays local and untouched.
    """
    Wm = _weights(W)
    if len(states) != Wm.shape[0]:
        raise ValueError(
            f"state count {len(states)} does not match mixing matrix size {Wm.shape[0]}"
        )
    X = _stack(states)
    X_new = X @ Wm.T
    return [s.replace(x=X_new[:, i].copy()) for i, s in enumerate(states)]


def local_half_step(kind: str, state: WorkerState, grad: np.ndarray, hp: HyperParams) -> WorkerState:
    """Local parameter update of one worker, before gossip.

    kinds:
      dsgd       x <- x - eta g
      dsgdm      m_local <- beta m_local + g;       x <- x - eta m_local
      dsgdm_n    m_local <- beta m_local + g;       x <- x - eta (beta m_local + g)
      qg_dsgdm   x <- x - eta (beta m_hat + g)
      qg_dsgdm_n m_tmp = beta m_hat + g;            x <- x - eta (beta m_tmp + g)

    The ``_n`` variants apply the buffer the way PyTorch's Nesterov flag
    does: the freshly updated buffer is combined with the raw gradient once
    more.  QG variants read the quasi-global buffer ``m_hat`` but never
    write it — that happens after gossip in :func:`qg_buffer_update`.
    """
    eta, beta = hp.eta, hp.beta
    if kind == "dsgd":
        return state.replace(x=state.x - eta * grad)
    if kind == "dsgdm":
        m = beta * state.m_local + grad
        return state.replace(x=state.x - eta * m, m_local=m)
    if kind == "dsgdm_n":
        m = beta * state.m_local + grad
        return state.replace(x=state.x - eta * (beta * m + grad), m_local=m)
    if kind == "qg_dsgdm":
        return state.replace(x=state.x - eta * (beta * state.m_hat + grad))
    if kind == "qg_dsgdm_n":
        m_tmp = beta * state.m_hat + grad
        return state.replace(x=state.x - eta * (beta * m_tmp + grad))
    raise ValueError(f"unknown half-step kind {kind!r}; expected one of {HALF_STEP_KINDS}")


def qg_multistep_gate(step_index: int, tau: int) -> bool:
    """Whether the quasi-global buffer updates at 1-based step ``step_index``.

    The multi-step variant refreshes m_hat only every ``tau`` steps and
    holds it in between; tau=1 updates every step.
    """
    if tau < 1:
        raise ValueError(f"tau must be a positive integer; got {tau}")
    return step_index % tau == 0


def qg_buffer_update(
    state: WorkerState,
    x_before_half_step: np.ndarray,
    x_after_gossip: np.ndarray,
    eta: float,
    mu: float,
) -> WorkerState:
    """Quasi-global buffer update from consecutive synchronized models.

        d = (x_before - x_after) / eta,      m_hat <- mu m_hat + (1 - mu) d.

    ``eta`` must be the step size the half step actually used this step.
    """
    if eta == 0:
        raise ValueError("qg_buffer_update needs eta > 0: d divides by the step size")
    d = (x_before_half_step - x_after_gossip) / eta
    return state.replace(m_hat=mu * state.m_hat + (1.0 - mu) * d)


def decentralized_step(
    kind: str,
    states: list[WorkerState],
    grads: list[np.ndarray],
    W,
    hp: HyperParams,
    step_index: int = 1,
) -> list[WorkerState]:
    """One full step of the dsgd/qg family: half steps, gossip, QG buffer.

    ``step_index`` is 1-based and only consulted by the multi-step gate
    (hp.tau > 1), which freezes the quasi-global buffer between refreshes.
    """
    halves = [local_half_step(kind, s, g, hp) for s, g in zip(states, grads)]
    mixed = gossip(halves, W)
    if kind.startswith("qg_") and qg_multistep_gate(step_index, hp.tau):
        mixed = [
            qg_buffer_update(m, s.x, m.x, hp.eta, hp.mu)
            for m, s in zip(mixed, states)
        ]
    return mixed


def qg_dadam_step(
    states: list[WorkerState],
    grads: list[np.ndarray],
    W,
    hp: HyperParams,
) -> list[WorkerState]:
    """Adam-style local step with quasi-global first and second moments.

    Per worker:  m = beta1 m_hat + (1 - beta1) g,
                 v = beta2 v_hat + (1 - beta2) g*g,
                 x_half = x - eta m / (sqrt(v) + eps),
    then gossip, and both stored buffers are rebuilt from the normalized
    synchronized movement  d = x_before - x_after  (no eta division):

                 d_unit = d / ||d||_2     (zero when d = 0),
                 m_hat <- beta1 m_hat + (1 - beta1) d_unit,
                 v_hat <- beta2 v_hat + (1 - beta2) d_unit*d_unit.

    No bias correction anywhere.
    """
    b1, b2 = hp.beta1, hp.beta2
    halves = []
    for s, g in zip(states, grads):
        m = b1 * s.m_hat + (1.0 - b1) * g
        v = b2 * s.v + (1.0 - b2) * g * g
        halves.append(s.replace(x=s.x - hp.eta * m / (np.sqrt(v) + hp.epsilon)))
    mixed = gossip(halves, W)
    out = []
    for before, after in zip(states, mixed):
        d = before.x - after.x
        norm = float(np.linalg.norm(d))
        d_unit = d / norm if norm > 0.0 else np.zeros_like(d)
        out.append(after.replace(
            m_hat=b1 * after.m_hat + (1.0 - b1) * d_unit,
            v=b2 * after.v + (1.0 - b2) * d_unit * d_unit,
        ))
    return out


def dmsgd_step(
    states: list[WorkerState],
    grads: list[np.ndarray],
    W,
    hp: HyperParams,
    option: str,
) -> list[WorkerState]:
    """Double-averaging momentum step; two variants of where the half step
    is anchored.

    Both options take the half step  base - eta (beta m_hat + g)  and gossip.
    Option I anchors at the current synchronized model (base = x, gradient
    evaluated there); option II anchors at the previous pre-gossip half
    iterate (base = x_half_prev, gradient evaluated there — the caller must
    supply grads at ``state.x_half_prev``).

    The buffer blends the pre-gossip and post-gossip movements,

        m_hat <- [ mu (x_half_prev - x_half) + (1 - mu)(x - x_new) ] / eta,

    implemented via the algebraically identical per-option closed forms
      option II: m_hat <- mu (beta m_hat + g) + (1 - mu)(x - x_new)/eta
      option I:  m_hat <- mu (beta m_hat + g + (x_prev - x)/eta
                             - beta m_hat_prev - g_prev)
                          + (1 - mu)(x - x_new)/eta
    with zero/identity bootstraps for the one step of history option I needs.
    """
    if option not in ("I", "II"):
        raise ValueError(f"dmsgd option must be 'I' or 'II'; got {option!r}")
    eta, beta, mu = hp.eta, hp.beta, hp.mu
    halves = []
    for s, g in zip(states, grads):
        update = beta * s.m_hat + g
        base = s.x if option == "I" else _dmsgd_half_prev(s)
        halves.append(s.replace(x=base - eta * update))
    mixed = gossip(halves, W)
    out = []
    for s, half, after, g in zip(states, halves, mixed, grads):
        drift = (s.x - after.x) / eta
        if option == "II":
            m_new = mu * (beta * s.m_hat + g) + (1.0 - mu) * drift
        else:
            x_prev = s.x_prev if s.x_prev is not None else s.x
            m_hat_prev = s.m_hat_prev if s.m_hat_prev is not None else np.zeros_like(s.x)
            g_prev = s.g_prev if s.g_prev is not None else np.zeros_like(s.x)
            m_new = mu * (
                beta * s.m_hat + g + (x_prev - s.x) / eta - beta * m_hat_prev - g_prev
            ) + (1.0 - mu) * drift
        out.append(after.replace(
            m_hat=m_new,
            m_hat_prev=s.m_hat,
            g_prev=g,
            x_prev=s.x,
            x_half_prev=half.x,
        ))
    return out


def _dmsgd_half_prev(s: WorkerState) -> np.ndarray:
    return s.x_half_prev if s.x_half_prev is not None else s.x


def d2_step(
    states: list[WorkerState],
    grads: list[np.ndarray],
    W,
    hp: HyperParams,
    variant: str = "d2",
) -> list[WorkerState]:
    """Bias-correcting update from previous iterates and gradients.

        x <- gossip( x - eta [ (x_prev - x)/eta_div + g - g_prev ] )

    where ``eta_div`` is this step's eta for the plain variant and the
    *previous* step's eta for ``d2_plus`` — the difference is exactly what
    makes the plain variant fragile under step-size decay.  The first step
    has no history and falls back to plain DSGD.
    """
    if variant not in ("d2", "d2_plus"):
        raise ValueError(f"variant must be 'd2' or 'd2_plus'; got {variant!r}")
    eta = hp.eta
    halves = []
    for s, g in zip(states, grads):
        if s.x_prev is None:
            halves.append(s.replace(x=s.x - eta * g))
        else:
            eta_div = eta if variant == "d2" else s.eta_prev
            correction = (s.x_prev - s.x) / eta_div
            halves.append(s.replace(x=s.x - eta * (correction + g - s.g_prev)))
    mixed = gossip(halves, W)
    return [
        after.replace(x_prev=s.x, g_prev=g, eta_prev=eta)
        for s, after, g in zip(states, mixed, grads)
    ]


def gt_init(states: list[WorkerState], grad_fn, step: int = 0) -> list[WorkerState]:
    """Start gradient tracking: y_i = g_i(x_i) at the initial point."""
    out = []
    for i, s in enumerate(states):
        g0 = grad_fn(i, s.x, step)
        out.append(s.replace(y_tracker=g0, g_prev=g0))
    return out


def gt_step(
    states: list[WorkerState],
    W,
    hp: HyperParams,
    grad_fn,
    step: int,
    with_momentum: bool = False,
) -> list[WorkerState]:
    """Gradient-tracking step (adapt-then-combine).

        x <- gossip( x - eta u ),   u = y   (or the Nesterov composite
                                             m_local <- beta m_local + y;
                                             u = beta m_local + y),
        y <- gossip(y) + g(x_new, step+1) - g(x_old_sample)

    The tracker telescopes gradient differences, so sum_i y_i = sum_i g_i
    at every step and each worker's update direction estimates the *global*
    gradient — which removes the heterogeneity bias DSGD suffers.  Requires
    states initialized by :func:`gt_init`.
    """
    if any(s.y_tracker is None for s in states):
        raise ValueError("gradient tracking states must be initialized with gt_init")
    halves = []
    for s in states:
        if with_momentum:
            m = hp.beta * s.m_local + s.y_tracker
            u = hp.beta * m + s.y_tracker
            halves.append(s.replace(x=s.x - hp.eta * u, m_local=m))
        else:
            halves.append(s.replace(x=s.x - hp.eta * s.y_tracker))
    mixed = gossip(halves, W)

    Wm = _weights(W)
    Y = np.stack([s.y_tracker for s in states], axis=1) @ Wm.T
    out = []
    for i, (s, after) in enumerate(zip(states, mixed)):
        g_new = grad_fn(i, after.x, step + 1)
        out.append(after.replace(y_tracker=Y[:, i] + g_new - s.g_prev, g_prev=g_new))
    return out


def slowmo_round(
    states: list[WorkerState],
    W,
    hp: HyperParams,
    base_kind: str,
    grad_fn,
    step0: int,
) -> list[WorkerState]:
    """One outer round: tau decentralized base steps, exact average, then a
    slow momentum step applied from the round's starting point.

        run tau steps of ``base_kind`` (with gossip); x_tau = mean_i x_i
        slow_m <- slowmo_beta slow_m + (x_0 - x_tau) / gamma
        x <- x_0 - slowmo_alpha gamma slow_m          (broadcast to all)

    gamma is the base step size hp.eta.  Base optimizer buffers persist
    across rounds; rounds consume steps ``step0 .. step0 + tau - 1``.
    """
    x0 = states[0].x.copy()
    slow_m = states[0].slow_m if states[0].slow_m is not None else np.zeros_like(x0)

    # hp.tau counts this round's inner steps; the inner steps themselves
    # always refresh their buffers (no multi-step gating inside a round)
    inner_hp = dataclasses.replace(hp, tau=1)
    for k in range(hp.tau):
        grads = [grad_fn(i, s.x, step0 + k) for i, s in enumerate(states)]
        states = decentralized_step(base_kind, states, grads, W, inner_hp, step_index=step0 + k + 1)

    x_tau = np.mean([s.x for s in states], axis=0)
    gamma = hp.eta
    slow_m = hp.slowmo_beta * slow_m + (x0 - x_tau) / gamma
    x_new = x0 - hp.slowmo_alpha * gamma * slow_m
    return [s.replace(x=x_new.copy(), slow_m=slow_m.copy()) for s in states]


def mimelite_round(
    server_x: np.ndarray,
    server_s: np.ndarray,
    hp: HyperParams,
    local_grad_fn,
    full_grad_fn,
    n_workers: int,
    step0: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One server round of momentum-anchored local SGD (all clients
    participate).

    Each client starts from the server model and runs tau local steps

        y <- y - eta ( (1 - beta) g(y) + beta s )

    against the *frozen* server momentum s; the server then averages the
    client models and refreshes s from full local gradients at the old
    server point:

        x <- mean_i y_i,      s <- (1 - beta) mean_i grad f_i(x_old) + beta s.
    """
    full_grads = [full_grad_fn(i, server_x) for i in range(n_workers)]
    ys = []
    for i in range(n_workers):
        y = server_x.copy()
        for k in range(hp.tau):
            g = local_grad_fn(i, y, step0 + k)
            y = y - hp.eta * ((1.0 - hp.beta) * g + hp.beta * server_s)
        ys.append(y)
    new_x = np.mean(ys, axis=0)
    new_s = (1.0 - hp.beta) * np.mean(full_grads, axis=0) + hp.beta * server_s
    return new_x, new_s


def qhm_core(
    x: np.ndarray,
    m_hat: np.ndarray,
    grad: np.ndarray,
    eta: float,
    beta_hat: float,
    mu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized quasi-hyperbolic update with explicit buffer decay.

        m_hat <- beta_hat m_hat + g
        x     <- x - eta ( (1 - mu/beta_hat) m_hat + (mu/beta_hat) g )

    beta_hat = 0 (which forces mu = 0) degenerates to plain SGD.
    """
    if beta_hat == 0.0:
        return x - eta * grad, grad.copy()
    m_new = beta_hat * m_hat + grad
    mix = mu / beta_hat
    return x - eta * ((1.0 - mix) * m_new + mix * grad), m_new


def qhm_step(state: WorkerState, grad: np.ndarray, hp: HyperParams) -> WorkerState:
    """Single-worker quasi-hyperbolic momentum with the substitution
    beta_hat = mu + (1 - mu) beta — the closed form of the single-worker
    quasi-global heavy-ball method (mu = 0 gives SGDm exactly)."""
    beta_hat = hp.mu + (1.0 - hp.mu) * hp.beta
    x_new, m_new = qhm_core(state.x, state.m_hat, grad, hp.eta, beta_hat, hp.mu)
    return state.replace(x=x_new, m_hat=m_new)


# ---------------------------------------------------------------------------
# the quadratic family's oracle and ProblemSpec's mean evaluations, one
# worker at a time
# ---------------------------------------------------------------------------

def worker_rng(master_seed: int, worker: int, step: int) -> np.random.Generator:
    """Independent Philox stream for one (worker, step) pair."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(worker, step))
    return np.random.Generator(np.random.Philox(seq))


def worker_b(spec, worker: int) -> np.ndarray:
    b = spec.b_base.copy()
    if spec.zeta_c != 0.0:
        b[worker] += spec.zeta_c
    return b


def quadratic_gradient(spec, worker: int, x, step: int) -> GradientSample:
    """grad = A^T (A x - b_w) + sigma_c * z with z ~ N(0, I_dim) drawn from
    the (worker, step) Philox stream; the loss reported is the noise-free
    local objective value."""
    x = np.asarray(x, dtype=float)
    b = worker_b(spec, worker)
    residual = spec.a_diag * x - b
    grad = spec.a_diag * residual
    if spec.sigma_c != 0.0:
        z = worker_rng(spec.master_seed, worker, step).standard_normal(spec.dim)
        grad = grad + spec.sigma_c * z
    return GradientSample(grad, 0.5 * float(residual @ residual))


def sample_mean_part(spec, worker: int, x: np.ndarray) -> np.ndarray:
    """Noise-free gradient of worker ``worker``'s local objective."""
    if spec.kind == "quadratic_family":
        return spec.a_diag * (spec.a_diag * x - worker_b(spec, worker))
    return spec.sample(worker, x, step=0).grad


def mean_gradient(spec, x: np.ndarray) -> np.ndarray:
    """Deterministic gradient of the averaged objective f = mean_i f_i."""
    grads = [sample_mean_part(spec, w, x) for w in range(spec.n_workers)]
    return np.mean(grads, axis=0)


def mean_loss(spec, x: np.ndarray) -> float:
    """Averaged objective value f(x) = (1/n) sum_i f_i(x)."""
    if spec.kind == "quadratic_family":
        return float(np.mean([
            0.5 * np.sum((spec.a_diag * x - worker_b(spec, w)) ** 2)
            for w in range(spec.n_workers)
        ]))
    return float(np.mean([
        spec.sample(w, x, step=0).loss for w in range(spec.n_workers)
    ]))


def broadcast_mean_gradient(spec, x: np.ndarray) -> np.ndarray:
    """The averaged gradient from ``x`` broadcast to every worker column,
    averaged over a C-contiguous transposed copy, worker by worker."""
    P = np.broadcast_to(np.asarray(x, dtype=float)[:, None], (spec.dim, spec.n_workers))
    if spec.kind == "quadratic_family":
        G = spec.a_diag[:, None] * (spec.a_diag[:, None] * P - spec._B)
    else:
        G = np.empty(P.shape)
        for i in range(P.shape[1]):
            G[:, i] = spec.sample(i, P[:, i], step=0).grad
    return np.ascontiguousarray(G.T).mean(axis=0)


def broadcast_mean_loss(spec, x: np.ndarray) -> float:
    """The averaged loss from the ``(dim, n)`` residual of ``x`` broadcast
    to every worker column, each worker's sum over a row of its C-contiguous
    transposed copy."""
    if spec.kind == "quadratic_family":
        P = np.broadcast_to(np.asarray(x, dtype=float)[:, None], (spec.dim, spec.n_workers))
        R = np.ascontiguousarray((spec.a_diag[:, None] * P - spec._B).T)
        return float(np.mean(0.5 * np.sum(R**2, axis=1)))
    return float(np.mean([
        spec.sample(w, x, step=0).loss for w in range(spec.n_workers)
    ]))


def _wrapped_residual_rows(spec, x) -> np.ndarray:
    return np.subtract(spec.a_diag * np.asarray(x, dtype=float), spec._B.T,
                       out=np.empty((spec.n_workers, spec.dim)))


def wrapped_mean_gradient(spec, x: np.ndarray) -> np.ndarray:
    """The averaged gradient over ``(n, dim)`` rows built from the
    transposed target columns, averaged by ``ndarray.mean``."""
    if spec.kind == "quadratic_family":
        G = _wrapped_residual_rows(spec, x)
        G *= spec.a_diag
    else:
        G = np.array([spec.sample(w, x, step=0).grad for w in range(spec.n_workers)])
    return G.mean(axis=0)


def wrapped_mean_loss(spec, x: np.ndarray) -> float:
    """The averaged loss over ``(n, dim)`` residual rows built from the
    transposed target columns, reduced by ``np.sum`` and ``np.mean``."""
    if spec.kind == "quadratic_family":
        R = _wrapped_residual_rows(spec, x)
        return float(np.mean(0.5 * np.sum(np.square(R, out=R), axis=1)))
    return float(np.mean([
        spec.sample(w, x, step=0).loss for w in range(spec.n_workers)
    ]))


def check_finite(S, step: int, method: str, fields: list, verified: dict) -> None:
    """Raise on the first array of ``S`` that holds a non-finite entry,
    visiting ``fields`` (``S.array_fields()``) in order and skipping an
    array that is still the one ``verified`` last found finite there."""
    for attr, field in fields:
        arr = getattr(S, attr)
        if verified.get(field) is arr:
            continue
        finite = np.isfinite(arr)
        if not finite.all():
            worker = int(np.argmin(finite.all(axis=0))) if arr.ndim == 2 else None
            raise NumericalDivergence(step, method, field, worker)
        verified[field] = arr


# ---------------------------------------------------------------------------
# dense one-peer matrices and finite differences
# ---------------------------------------------------------------------------

def one_peer_exponential_matrix(n: int, t: int) -> MixingMatrix:
    """Dense step-``t`` matrix of :class:`OnePeerExponential`, the reference
    its matrix-free gossip is checked against.

    Worker ``i`` averages halfway with the single peer ``(i + 2^k) mod n``
    where ``k = t mod log2(n)``:  ``W_t = (I + P_k) / 2`` with ``P_k`` the
    cyclic-shift permutation by ``2^k``.  Each ``W_t`` is doubly stochastic
    but directed (asymmetric), and one full sweep multiplies out to the
    exact averaging matrix:  ``W_0 W_1 ... W_{log2(n)-1} = (1/n) 1 1^T``.
    ``rho`` is the spectral gap in closed form: ``W_t`` is circulant, so
    offset 1 has ``sigma_2 = cos(pi/n)``, and larger offsets leave the
    residue classes mod the offset unmixed (``rho = 0``).
    """
    offset = OnePeerExponential(n).offset(t)
    if n == 1:
        return MixingMatrix(n=1, weights=np.ones((1, 1)), rho=1.0)
    W = 0.5 * np.eye(n)
    W[np.arange(n), (np.arange(n) + offset) % n] += 0.5
    _validate_doubly_stochastic(W, f"one_peer_exponential(t={t})")
    rho = math.sin(math.pi / n) ** 2 if offset == 1 else 0.0
    return MixingMatrix(n=n, weights=W, rho=rho)


def finite_difference_check(oracle, x, h: float = 1e-5) -> float:
    """Max per-coordinate deviation between the oracle's analytic gradient
    and central differences of its loss, normalized by max(1, |grad_j|).

    ``oracle`` is any callable x -> GradientSample with a deterministic
    loss (sigma = 0).
    """
    x = np.asarray(x, dtype=float)
    sample = oracle(x)
    worst = 0.0
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = h
        fd = (oracle(x + step).loss - oracle(x - step).loss) / (2.0 * h)
        denom = max(1.0, abs(float(sample.grad[j])))
        worst = max(worst, abs(fd - float(sample.grad[j])) / denom)
    return worst
