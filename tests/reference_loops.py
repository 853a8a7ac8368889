"""Per-worker reference loops for the stacked optimizer core and the oracles.

These are the per-worker step rules as they stood before the optimizer moved
to one stacked ``(dim, n)`` state: every worker's model and buffers live in
its own :class:`WorkerState` and each step rebuilds the list; the server
round works on per-worker Python lists.  They are kept unchanged, as the
reference that ``test_stacked_core.py`` and acceptance criterion 4 compare
the stacked core with.  The mean evaluations at the end are
``ProblemSpec``'s worker-by-worker loops as they stood before they became
whole-array expressions, the reference of ``test_oracles.py``.
:func:`to_workers` splits a stacked state into per-worker states and
:func:`per_worker` lifts a per-worker oracle to the matrix contract of
``qgm_sim.optim``.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from qgm_sim.optim import HALF_STEP_KINDS, HyperParams, WorkerState, qg_multistep_gate, qhm_core


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
    return [
        WorkerState(**{name: arr[:, i].copy() if arr.ndim == 2 else arr.copy()
                       for name, arr in S.named_arrays() if name != "server_s"},
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
    return [s.replace(x=x_new.copy(), slow_x=x0.copy(), slow_m=slow_m.copy()) for s in states]


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


def qhm_step(state: WorkerState, grad: np.ndarray, hp: HyperParams) -> WorkerState:
    """Single-worker quasi-hyperbolic momentum with the substitution
    beta_hat = mu + (1 - mu) beta — the closed form of the single-worker
    quasi-global heavy-ball method (mu = 0 gives SGDm exactly)."""
    beta_hat = hp.mu + (1.0 - hp.mu) * hp.beta
    x_new, m_new = qhm_core(state.x, state.m_hat, grad, hp.eta, beta_hat, hp.mu)
    return state.replace(x=x_new, m_hat=m_new)


# ---------------------------------------------------------------------------
# ProblemSpec's mean evaluations, one worker at a time
# ---------------------------------------------------------------------------

def sample_mean_part(spec, worker: int, x: np.ndarray) -> np.ndarray:
    """Noise-free gradient of worker ``worker``'s local objective."""
    if spec.kind == "quadratic_family":
        return spec.a_diag * (spec.a_diag * x - spec.worker_b(worker))
    return spec.sample(worker, x, step=0).grad


def mean_gradient(spec, x: np.ndarray) -> np.ndarray:
    """Deterministic gradient of the averaged objective f = mean_i f_i."""
    grads = [sample_mean_part(spec, w, x) for w in range(spec.n_workers)]
    return np.mean(grads, axis=0)


def mean_loss(spec, x: np.ndarray) -> float:
    """Averaged objective value f(x) = (1/n) sum_i f_i(x)."""
    if spec.kind == "quadratic_family":
        return float(np.mean([
            0.5 * np.sum((spec.a_diag * x - spec.worker_b(w)) ** 2)
            for w in range(spec.n_workers)
        ]))
    return float(np.mean([
        spec.sample(w, x, step=0).loss for w in range(spec.n_workers)
    ]))
