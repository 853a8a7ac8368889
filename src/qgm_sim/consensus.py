"""Gradient-free consensus averaging, with and without the quasi-global buffer.

Stripping gradients and step size from the decentralized optimizer leaves a
pure averaging recursion: plain gossip contracts worker disagreement at the
mixing matrix's second singular value, while the buffered variant reuses the
synchronized movement as momentum and reaches moderate precision in fewer
iterations on sparse topologies.

Conventions (repo-wide): workers are columns of X (d x n), one communication
round right-multiplies by W^T where W[i, j] is the weight worker i places on
worker j — identical to W X for the symmetric matrices built in
:mod:`qgm_sim.topology` (a one-peer step computes the same product without a
matrix, see :func:`qgm_sim.optim.mix`).  The buffered recursion per iteration is

    X_next = (X - beta M) W^T,        M <- mu M + (1 - mu) (X - X_next),

with M starting at zero; note there is no step size anywhere.  It is the
optimizer's quasi-global step (:func:`qgm_sim.optim.stacked_dsgd_step`) with
eta = 1 and no gradient, and runs on that same code.  Unlike plain
gossip it does not preserve the column mean exactly once beta > 0, so the
mean drift is recorded alongside the distance trace (recorded, never
asserted away).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optim import HyperParams, StackedState, _average_model, _norm, stacked_dsgd_step

__all__ = [
    "ConsensusRun",
    "consensus_distance",
    "gossip_consensus",
    "iterations_to_threshold",
    "qg_consensus",
]


def consensus_distance(X, x_bar=None) -> float:
    """Root-mean-square distance of worker columns from their mean:
    sqrt((1/n) sum_i ||x_i - x_bar||^2) = ||X - X_bar||_F / sqrt(n).

    ``x_bar`` is the mean ``X.mean(axis=1)`` when the caller has already
    computed it; left out, it is computed here."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a d x n matrix; got shape {X.shape}")
    if x_bar is None:
        x_bar = _average_model(X)
    return _norm(X - x_bar[:, None]) / math.sqrt(X.shape[1])


@dataclass(frozen=True, eq=False)
class ConsensusRun:
    """Trace of one consensus experiment.

    ``trace`` has length T+1 with ``trace[0]`` the initial distance;
    ``mean_drift`` (same length) records how far the column mean moved from
    its initial value at each iteration.  ``x_final`` is the terminal d x n
    matrix.  ``==`` is identity: arrays have no one truth value.
    """

    iterations: int
    trace: np.ndarray
    mean_drift: np.ndarray
    x_final: np.ndarray

    def __post_init__(self):
        for name in ("trace", "mean_drift"):
            arr = getattr(self, name)
            if len(arr) != self.iterations + 1:
                raise ValueError(
                    f"{name} must have length T+1 = {self.iterations + 1}; got {len(arr)}")
            arr.setflags(write=False)


def _recursion_params(beta: float, mu: float, T: int) -> HyperParams:
    """The checked step parameters of ``T`` iterations of the recursion."""
    if T < 0:
        raise ValueError(f"iteration count must be >= 0; got {T}")
    return HyperParams(eta=1.0, beta=beta, mu=mu)


def _run(X0, W, beta: float, mu: float, T: int) -> ConsensusRun:
    """The optimizer's quasi-global recursion with eta = 1 and no gradient."""
    X = np.asarray(X0, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X0 must be a d x n matrix; got shape {X.shape}")
    if X.shape[1] != W.n:
        raise ValueError(f"state count {X.shape[1]} does not match mixing matrix size {W.n}")
    hp = _recursion_params(beta, mu, T)
    S = StackedState.from_matrix(X)
    mean0 = _average_model(S.X)
    trace = [consensus_distance(S.X, mean0)]
    drift = [0.0]
    for t in range(T):
        stacked_dsgd_step("qg_dsgdm", S, None, W.at(t), hp)
        x_bar = _average_model(S.X)
        trace.append(consensus_distance(S.X, x_bar))
        x_bar -= mean0
        drift.append(_norm(x_bar))
    return ConsensusRun(
        iterations=T,
        trace=np.array(trace),
        mean_drift=np.array(drift),
        x_final=S.X,
    )


def gossip_consensus(X0, W, T: int) -> ConsensusRun:
    """Plain gossip averaging for T iterations: X <- X W^T each round.

    ``W`` is any mixing that answers ``n`` and ``at(t)``: a MixingMatrix,
    the time-varying :class:`~qgm_sim.topology.OnePeerExponential`
    schedule, or another schedule of matrices.  The distance trace
    contracts at the second singular value of W and the column mean stays
    put (up to rounding).
    """
    return _run(X0, W, beta=0.0, mu=0.0, T=T)


def qg_consensus(X0, W, beta: float, mu: float, T: int) -> ConsensusRun:
    """Buffered consensus: the synchronized movement X - X_next feeds a
    momentum term that accelerates averaging on sparse graphs.

    beta = 0 reproduces :func:`gossip_consensus` bit for bit (the buffer is
    never read).  On a complete graph the distance is zero from the first
    iteration onward regardless of beta and mu.
    """
    return _run(X0, W, beta=beta, mu=mu, T=T)


def iterations_to_threshold(run, threshold: float = 1e-2) -> int:
    """First iteration index at which the distance trace is <= threshold.

    Accepts a ConsensusRun or a raw trace; raises if the run never got there.
    """
    trace = run.trace if isinstance(run, ConsensusRun) else np.asarray(run, dtype=float)
    hits = np.nonzero(trace <= threshold)[0]
    if hits.size == 0:
        raise ValueError(
            f"trace never reached threshold {threshold}; final distance {trace[-1]}")
    return int(hits[0])
