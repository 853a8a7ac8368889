"""Optimizer step rules over one stacked state.

Every decentralized method here follows the same skeleton per step:

    1. each worker takes a local half step from its model x_i using its own
       gradient (and momentum buffers),
    2. workers gossip:  x_i <- sum_j W[i, j] x_j^{half},
    3. buffers are updated.

The quasi-global (QG) family replaces the local momentum buffer with one
driven by the movement of the *synchronized* models,

    d_i = (x_i^{(t)} - x_i^{(t+1)}) / eta,      m_hat_i <- mu m_hat_i + (1 - mu) d_i,

so the momentum direction tracks where the post-gossip model actually went
rather than where the local gradients point — the difference matters
precisely when workers' data disagree.

Every method is written once, over a :class:`StackedState` that holds each
buffer as a ``(dim, n)`` array with one column per worker, so a step is a
few whole-array expressions and one ``X W^T`` per gossip.  The engine and
the consensus experiments drive this core directly: :func:`stacked_step`
for the per-step kinds, :func:`stacked_slowmo_round` and
:func:`stacked_mimelite_round` for the round-structured ones.  Each
method's recursion is written out in the docstring of the function that
computes it.

The step functions update the :class:`StackedState` they are given by
rebinding its fields to fresh arrays.  Buffers start at zero.  Gradients
come from matrix oracles: ``grad_fn(P, step)`` returns a fresh ``(dim, n)``
array whose column ``i`` is worker ``i``'s stochastic gradient at
``P[:, i]`` (the engine passes :func:`qgm_sim.oracles.sample_all`), and
mimelite's ``full_grad_fn(P)`` returns the noise-free local gradients the
same way.  Both must be pure in their arguments; states keep the returned
arrays as history.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HyperParams",
    "WorkerState",
    "StackedState",
    "mix",
    "mixing_weights",
    "column_mean",
    "stacked_step",
    "stacked_dsgd_step",
    "stacked_gt_init",
    "stacked_slowmo_round",
    "stacked_mimelite_round",
    "qg_multistep_gate",
    "qhm_core",
    "HALF_STEP_KINDS",
    "STEP_KINDS",
]

HALF_STEP_KINDS = ("dsgd", "dsgdm", "dsgdm_n", "qg_dsgdm", "qg_dsgdm_n")


@dataclass(frozen=True)
class HyperParams:
    """Hyperparameters shared by all step rules.

    ``mu`` is the quasi-global mixing factor and defaults to ``beta`` when
    left unset.  ``tau`` counts local steps per buffer update / round for
    the multi-step, SlowMo, and MimeLite variants (1 = update every step;
    SlowMo is customarily run with tau = 12).
    """

    eta: float
    beta: float = 0.9
    mu: float | None = None
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-8
    tau: int = 1
    slowmo_alpha: float = 1.0
    slowmo_beta: float = 0.7

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"learning rate must satisfy eta > 0; got {self.eta}")
        if self.mu is None:
            object.__setattr__(self, "mu", self.beta)
        for name in ("beta", "mu", "beta1", "beta2", "slowmo_beta"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must lie in [0, 1); got {val}")
        if self.tau < 1:
            raise ValueError(f"tau must be a positive integer; got {self.tau}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0; got {self.epsilon}")
        if not self.slowmo_alpha > 0:
            raise ValueError(f"slowmo_alpha must be > 0; got {self.slowmo_alpha}")


@dataclass(frozen=True)
class WorkerState:
    """One worker's model and optimizer buffers.

    ``m_hat`` is the quasi-global buffer (also Adam's first moment in the
    QG-DAdam variant), ``m_local`` the plain local momentum buffer, ``v``
    the second-moment buffer.  History fields (previous iterates, gradients,
    step sizes) stay ``None`` until a method needs them.
    """

    x: np.ndarray
    m_hat: np.ndarray
    m_local: np.ndarray
    v: np.ndarray
    x_prev: np.ndarray | None = None
    x_half_prev: np.ndarray | None = None
    m_hat_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    y_tracker: np.ndarray | None = None
    eta_prev: float | None = None
    slow_x: np.ndarray | None = None
    slow_m: np.ndarray | None = None

    def replace(self, **kw) -> "WorkerState":
        return dataclasses.replace(self, **kw)


# stacked attribute -> WorkerState field, in the order divergence checks
# visit them: the live model and buffers first, then the one-step history
_FIELDS = (
    ("X", "x"), ("M_hat", "m_hat"), ("M_local", "m_local"), ("V", "v"),
    ("Y", "y_tracker"), ("G_prev", "g_prev"), ("X_prev", "x_prev"),
    ("X_half_prev", "x_half_prev"), ("M_hat_prev", "m_hat_prev"),
)


@dataclass(slots=True)
class StackedState:
    """Every worker's model and buffers as C-contiguous ``(dim, n)`` arrays,
    column ``i`` belonging to worker ``i``.

    Fields mirror :class:`WorkerState`: ``X``, ``M_hat``, ``M_local`` and
    ``V`` always exist; the history arrays ``Y`` (gradient tracker),
    ``G_prev``, ``X_prev``, ``X_half_prev`` and ``M_hat_prev`` stay ``None``
    until a method needs them.  ``eta_prev`` is the previous step size.
    The round-structured methods keep ``(dim,)`` arrays shared by all
    workers: ``slow_x`` / ``slow_m``, the slow-momentum round's anchor and
    buffer, and ``server_s``, the server momentum of a mimelite round (it
    has no :class:`WorkerState` field).

    The step functions below rebind fields to fresh arrays and never write
    into an array in place, so arrays handed out stay valid.
    """

    X: np.ndarray
    M_hat: np.ndarray
    M_local: np.ndarray
    V: np.ndarray
    Y: np.ndarray | None = None
    G_prev: np.ndarray | None = None
    X_prev: np.ndarray | None = None
    X_half_prev: np.ndarray | None = None
    M_hat_prev: np.ndarray | None = None
    eta_prev: float | None = None
    slow_x: np.ndarray | None = None
    slow_m: np.ndarray | None = None
    server_s: np.ndarray | None = None

    @classmethod
    def init(cls, x0, n: int) -> "StackedState":
        """All workers start at ``x0`` with zero buffers."""
        return cls.from_matrix(np.repeat(np.asarray(x0, dtype=float)[:, None], n, axis=1))

    @classmethod
    def from_matrix(cls, X0) -> "StackedState":
        """Workers start at the columns of ``X0`` with zero buffers."""
        X = np.array(X0, dtype=float, order="C")
        return cls(X=X, M_hat=np.zeros_like(X), M_local=np.zeros_like(X), V=np.zeros_like(X))

    def named_arrays(self):
        """``(field name, array)`` for every array held: per-worker arrays
        by their :class:`WorkerState` name, then the shared ones."""
        for attr, name in _FIELDS:
            arr = getattr(self, attr)
            if arr is not None:
                yield name, arr
        for name in ("slow_x", "slow_m", "server_s"):
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr


def _weights(W) -> np.ndarray:
    return W.weights if hasattr(W, "weights") else np.asarray(W, dtype=float)


def mixing_weights(W, t: int) -> np.ndarray:
    """Weights of a static matrix, a MixingMatrix, or a time-varying
    generator ``t -> matrix`` evaluated at step ``t``."""
    if callable(W):
        W = W(t)
    return _weights(W)


def mix(X: np.ndarray, W) -> np.ndarray:
    """One communication round on stacked models: ``X W^T``, so worker i
    receives sum_j W[i, j] x_j.  Only models move; buffers stay local."""
    Wm = _weights(W)
    if X.shape[1] != Wm.shape[0]:
        raise ValueError(
            f"state count {X.shape[1]} does not match mixing matrix size {Wm.shape[0]}")
    return X @ Wm.T


def column_mean(X: np.ndarray) -> np.ndarray:
    """Mean of the worker columns, summed worker by worker in order (the
    reduction of an ``(n, dim)`` row stack, whose bits the metrics keep)."""
    return np.ascontiguousarray(X.T).mean(axis=0)


# ---------------------------------------------------------------------------
# the stacked core: one small function per method, all over StackedState
# ---------------------------------------------------------------------------

def _half_step(kind: str, S: StackedState, G, hp: HyperParams) -> np.ndarray:
    """Pre-gossip models of the dsgd/qg family, per worker column:

      dsgd       x <- x - eta g
      dsgdm      m_local <- beta m_local + g;       x <- x - eta m_local
      dsgdm_n    m_local <- beta m_local + g;       x <- x - eta (beta m_local + g)
      qg_dsgdm   x <- x - eta (beta m_hat + g)
      qg_dsgdm_n m_tmp = beta m_hat + g;            x <- x - eta (beta m_tmp + g)

    The ``_n`` variants apply the buffer the way PyTorch's Nesterov flag
    does: the freshly updated buffer is combined with the raw gradient once
    more.  The local-momentum kinds write ``M_local``; the QG kinds read
    ``M_hat`` but never write it (that happens after gossip, in
    :func:`stacked_dsgd_step`).  ``G`` None means no gradient (pure
    consensus), which only ``qg_dsgdm`` accepts.
    """
    eta, beta = hp.eta, hp.beta
    if kind == "dsgd":
        return S.X - eta * G
    if kind == "dsgdm":
        S.M_local = beta * S.M_local + G
        return S.X - eta * S.M_local
    if kind == "dsgdm_n":
        S.M_local = m = beta * S.M_local + G
        return S.X - eta * (beta * m + G)
    if kind == "qg_dsgdm":
        return S.X - eta * (beta * S.M_hat if G is None else beta * S.M_hat + G)
    if kind == "qg_dsgdm_n":
        m_tmp = beta * S.M_hat + G
        return S.X - eta * (beta * m_tmp + G)
    raise ValueError(f"unknown half-step kind {kind!r}; expected one of {HALF_STEP_KINDS}")


def qg_multistep_gate(step_index: int, tau: int) -> bool:
    """Whether the quasi-global buffer updates at 1-based step ``step_index``.

    The multi-step variant refreshes m_hat only every ``tau`` steps and
    holds it in between; tau=1 updates every step.
    """
    if tau < 1:
        raise ValueError(f"tau must be a positive integer; got {tau}")
    return step_index % tau == 0


def stacked_dsgd_step(kind: str, S: StackedState, G, W, hp: HyperParams,
                      step_index: int = 1) -> None:
    """One step of the dsgd/qg family on ``S`` from the gradient matrix
    ``G``: half steps (:func:`_half_step`), gossip, and for the QG kinds the
    quasi-global buffer update from consecutive synchronized models,

        d = (x_before - x_after) / eta,      m_hat <- mu m_hat + (1 - mu) d,

    when the multi-step gate fires at 1-based ``step_index`` (with hp.tau
    > 1 the buffer is frozen between refreshes).  ``eta`` is the step size
    the half step used.  For ``qg_dsgdm`` this is the stacked recursion

        X_{t+1} = ( X_t - eta (beta M + G_t) ) W^T,
        M      <- mu M + (1 - mu) (X_t - X_{t+1}) / eta,

    where the M update sees the post-gossip X_{t+1}, folding communication
    into the buffer; ``G`` None drops the gradient, leaving pure buffered
    averaging.
    """
    X_new = mix(_half_step(kind, S, G, hp), W)
    if kind.startswith("qg_") and qg_multistep_gate(step_index, hp.tau):
        d = (S.X - X_new) / hp.eta
        S.M_hat = hp.mu * S.M_hat + (1.0 - hp.mu) * d
    S.X = X_new


def _qg_dadam(S: StackedState, G, W, hp: HyperParams) -> None:
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
    m = b1 * S.M_hat + (1.0 - b1) * G
    v = b2 * S.V + (1.0 - b2) * G * G
    X_new = mix(S.X - hp.eta * m / (np.sqrt(v) + hp.epsilon), W)
    D = S.X - X_new
    # a norm per column keeps each worker's own reduction order, which
    # np.linalg.norm(D, axis=0) does not promise
    norms = np.array([np.linalg.norm(D[:, i]) for i in range(D.shape[1])])
    D_unit = np.divide(D, norms, out=np.zeros_like(D), where=norms > 0.0)
    S.M_hat = b1 * S.M_hat + (1.0 - b1) * D_unit
    S.V = b2 * S.V + (1.0 - b2) * D_unit * D_unit
    S.X = X_new


def _dmsgd(S: StackedState, G, W, hp: HyperParams, kind: str) -> None:
    """Double-averaging momentum step; the two kinds differ in where the
    half step is anchored.

    Both take the half step  base - eta (beta m_hat + g)  and gossip.
    ``dmsgd_i`` anchors at the current synchronized model (base = x,
    gradient evaluated there); ``dmsgd_ii`` anchors at the previous
    pre-gossip half iterate (base = x_half_prev, gradient evaluated there,
    which :func:`stacked_step` arranges).

    The buffer blends the pre-gossip and post-gossip movements,

        m_hat <- [ mu (x_half_prev - x_half) + (1 - mu)(x - x_new) ] / eta,

    implemented via the algebraically identical per-kind closed forms
      dmsgd_ii: m_hat <- mu (beta m_hat + g) + (1 - mu)(x - x_new)/eta
      dmsgd_i:  m_hat <- mu (beta m_hat + g + (x_prev - x)/eta
                             - beta m_hat_prev - g_prev)
                         + (1 - mu)(x - x_new)/eta
    with zero/identity bootstraps for the one step of history dmsgd_i needs.
    """
    eta, beta, mu = hp.eta, hp.beta, hp.mu
    X = S.X
    update = beta * S.M_hat + G
    half = (_dmsgd_anchor(S) if kind == "dmsgd_ii" else X) - eta * update
    X_new = mix(half, W)
    drift = (X - X_new) / eta
    if kind == "dmsgd_ii":
        M_new = mu * update + (1.0 - mu) * drift
    else:
        X_prev = S.X_prev if S.X_prev is not None else X
        M_hat_prev = S.M_hat_prev if S.M_hat_prev is not None else np.zeros_like(X)
        G_prev = S.G_prev if S.G_prev is not None else np.zeros_like(X)
        M_new = mu * (
            beta * S.M_hat + G + (X_prev - X) / eta - beta * M_hat_prev - G_prev
        ) + (1.0 - mu) * drift
    S.M_hat_prev, S.G_prev, S.X_prev, S.X_half_prev = S.M_hat, G, X, half
    S.M_hat, S.X = M_new, X_new


def _dmsgd_anchor(S: StackedState) -> np.ndarray:
    return S.X_half_prev if S.X_half_prev is not None else S.X


def _d2(S: StackedState, G, W, hp: HyperParams, kind: str) -> None:
    """Bias-correcting update from previous iterates and gradients.

        x <- gossip( x - eta [ (x_prev - x)/eta_div + g - g_prev ] )

    where ``eta_div`` is this step's eta for ``d2`` and the *previous*
    step's eta for ``d2_plus`` — the difference is exactly what makes the
    plain variant fragile under step-size decay.  The first step has no
    history and falls back to plain DSGD.
    """
    eta = hp.eta
    if S.X_prev is None:
        half = S.X - eta * G
    else:
        eta_div = eta if kind == "d2" else S.eta_prev
        correction = (S.X_prev - S.X) / eta_div
        half = S.X - eta * (correction + G - S.G_prev)
    S.X_prev, S.G_prev, S.eta_prev = S.X, G, eta
    S.X = mix(half, W)


def stacked_gt_init(S: StackedState, grad_fn, step: int = 0) -> None:
    """Start gradient tracking on ``S``: Y = G_prev = g(X, step)."""
    S.Y = S.G_prev = grad_fn(S.X, step)


def _gt(S: StackedState, W, hp: HyperParams, grad_fn, step: int, with_momentum: bool) -> None:
    """Gradient-tracking step (adapt-then-combine).

        x <- gossip( x - eta u ),   u = y   (or the Nesterov composite
                                             m_local <- beta m_local + y;
                                             u = beta m_local + y),
        y <- gossip(y) + g(x_new, step) - g_prev

    The tracker telescopes gradient differences, so sum_i y_i = sum_i g_i
    at every step and each worker's update direction estimates the *global*
    gradient — which removes the heterogeneity bias DSGD suffers.  Requires
    a state started by :func:`stacked_gt_init`.
    """
    if S.Y is None:
        raise ValueError("gradient tracking states must be initialized with stacked_gt_init")
    if with_momentum:
        S.M_local = m = hp.beta * S.M_local + S.Y
        half = S.X - hp.eta * (hp.beta * m + S.Y)
    else:
        half = S.X - hp.eta * S.Y
    S.X = mix(half, W)
    G = grad_fn(S.X, step)
    S.Y = mix(S.Y, W) + G - S.G_prev
    S.G_prev = G


def _qhm(S: StackedState, G, hp: HyperParams) -> None:
    """Single-worker quasi-hyperbolic momentum (:func:`qhm_core`) with the
    substitution beta_hat = mu + (1 - mu) beta — the closed form of the
    single-worker quasi-global heavy-ball method (mu = 0 gives SGDm
    exactly).  No gossip."""
    beta_hat = hp.mu + (1.0 - hp.mu) * hp.beta
    S.X, S.M_hat = qhm_core(S.X, S.M_hat, G, hp.eta, beta_hat, hp.mu)


STEP_KINDS = HALF_STEP_KINDS + (
    "qg_dadam", "dmsgd_i", "dmsgd_ii", "d2", "d2_plus", "gt", "gt_momentum", "qhm")


def stacked_step(kind: str, S: StackedState, W, hp: HyperParams, step: int, grad_fn) -> None:
    """Step ``step`` (1-based) of per-step method ``kind``, updating ``S``.

    Gradients come from one ``grad_fn(P, step)`` call: at the current
    models, at the previous half iterates for ``dmsgd_ii``, and at the
    post-gossip models for the tracking kinds, whose state
    :func:`stacked_gt_init` must have started.  ``W`` is this step's
    mixing matrix; ``hp.eta`` this step's step size.
    """
    if kind in ("gt", "gt_momentum"):
        _gt(S, W, hp, grad_fn, step, with_momentum=kind == "gt_momentum")
        return
    if kind not in STEP_KINDS:
        raise ValueError(f"unknown per-step kind {kind!r}; expected one of {STEP_KINDS}")
    G = grad_fn(_dmsgd_anchor(S) if kind == "dmsgd_ii" else S.X, step)
    if kind in HALF_STEP_KINDS:
        stacked_dsgd_step(kind, S, G, W, hp, step)
    elif kind == "qg_dadam":
        _qg_dadam(S, G, W, hp)
    elif kind in ("dmsgd_i", "dmsgd_ii"):
        _dmsgd(S, G, W, hp, kind)
    elif kind in ("d2", "d2_plus"):
        _d2(S, G, W, hp, kind)
    else:
        _qhm(S, G, hp)


# ---------------------------------------------------------------------------
# round-structured methods: one round spans hp.tau steps
# ---------------------------------------------------------------------------

def stacked_slowmo_round(S: StackedState, W, hp: HyperParams, base_kind: str,
                         grad_fn, step0: int) -> None:
    """One outer round: tau decentralized base steps, exact average, then a
    slow momentum step applied from the round's starting point.

        run tau steps of ``base_kind`` (with gossip); x_tau = mean_i x_i
        slow_m <- slowmo_beta slow_m + (x_0 - x_tau) / gamma
        x <- x_0 - slowmo_alpha gamma slow_m          (broadcast to all)

    gamma is the base step size hp.eta and x_0 is worker 0's model.  Base
    optimizer buffers persist across rounds; the round consumes steps
    ``step0 .. step0 + tau - 1``.  Inner step ``k`` samples at step
    ``step0 + k`` and mixes with ``W_{step0 + k}`` when ``W`` is a
    generator ``t -> matrix``.
    """
    x0 = S.X[:, 0].copy()
    slow_m = S.slow_m if S.slow_m is not None else np.zeros_like(x0)

    # hp.tau counts this round's inner steps; the inner steps themselves
    # always refresh their buffers (no multi-step gating inside a round)
    inner_hp = dataclasses.replace(hp, tau=1)
    for k in range(hp.tau):
        t = step0 + k
        G = grad_fn(S.X, t)
        stacked_dsgd_step(base_kind, S, G, mixing_weights(W, t), inner_hp, step_index=t + 1)

    x_tau = column_mean(S.X)
    gamma = hp.eta
    slow_m = hp.slowmo_beta * slow_m + (x0 - x_tau) / gamma
    x_new = x0 - hp.slowmo_alpha * gamma * slow_m
    S.X = np.repeat(x_new[:, None], S.X.shape[1], axis=1)
    S.slow_x, S.slow_m = x0, slow_m


def stacked_mimelite_round(S: StackedState, hp: HyperParams, grad_fn, full_grad_fn,
                           step0: int) -> None:
    """One server round of momentum-anchored local SGD (all clients
    participate).  The server model x is worker 0's column of ``S.X``.

    Each client starts from the server model and runs tau local steps

        y <- y - eta ( (1 - beta) g(y) + beta s )

    against the *frozen* server momentum s = ``S.server_s`` (zero before
    the first round); the server then averages the client models and
    refreshes s from the full local gradients ``full_grad_fn(P)`` at the
    old server point (every column of ``P``):

        x <- mean_i y_i,      s <- (1 - beta) mean_i grad f_i(x_old) + beta s,

    and the new x is broadcast to every column.  Local step ``k`` samples
    at step ``step0 + k``.
    """
    n = S.X.shape[1]
    x = S.X[:, 0].copy()
    s = S.server_s if S.server_s is not None else np.zeros_like(x)
    Y = np.repeat(x[:, None], n, axis=1)
    F = full_grad_fn(Y)
    for k in range(hp.tau):
        G = grad_fn(Y, step0 + k)
        Y = Y - hp.eta * ((1.0 - hp.beta) * G + hp.beta * s[:, None])
    S.X = np.repeat(column_mean(Y)[:, None], n, axis=1)
    S.server_s = (1.0 - hp.beta) * column_mean(F) + hp.beta * s


# ---------------------------------------------------------------------------
# single-worker closed form
# ---------------------------------------------------------------------------

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
