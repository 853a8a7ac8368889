"""Gradient oracles for the test problems.

Four problem families, each exposing loss and analytic gradient:

* ``toy2d_hetero`` — two (or more) workers whose gradients are unit vectors
  pointing from the current iterate toward per-worker target points; the
  extreme-heterogeneity two-agent toy.
* ``rosenbrock`` — f(x, y) = (y - x^2)^2 + 100 (x - 1)^2, global minimum at
  (1, 1); the classic curved-valley trajectory benchmark.
* ``nonconvex_toy`` — f(x, y) = lse(x) + 10 lse(e^x (y - sin 8x)) with
  lse(u) = log(e^u + e^-u); highly non-convex with optimum at (0, 0).
* ``quadratic_family`` — per-worker f_i(x) = 0.5 ||A x - b_i||^2 with a
  shared diagonal ``A`` and ``b_i = b + zeta_c * e_i``; additive Gaussian
  gradient noise.  Smoothness L, noise bound sigma^2 = dim * sigma_c^2 and
  cross-worker variance bound zeta^2 are exactly computable, which is what
  the theorem-condition validators feed on.

Stochastic draws use numpy's counter-based Philox generator keyed by
``SeedSequence(entropy=master_seed, spawn_key=(worker, step))``, so every
(worker, step) pair owns an independent, platform-stable stream and results
do not depend on evaluation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GradientSample",
    "ProblemSpec",
    "DEFAULT_TOY2D_TARGETS",
    "toy2d_gradient",
    "rosenbrock_gradient",
    "nonconvex_toy_gradient",
    "quadratic_gradient",
    "finite_difference_check",
    "worker_rng",
]

PROBLEM_KINDS = ("toy2d_hetero", "rosenbrock", "nonconvex_toy", "quadratic_family")

DEFAULT_TOY2D_TARGETS: tuple[tuple[float, float], ...] = ((0.0, 5.0), (4.0, 0.0))


@dataclass(frozen=True)
class GradientSample:
    """One oracle evaluation: gradient, loss, and where it came from."""

    grad: np.ndarray
    loss: float
    worker: int = 0
    step_seed: int | None = None
    converged: bool = False


def worker_rng(master_seed: int, worker: int, step: int) -> np.random.Generator:
    """Independent Philox stream for one (worker, step) pair."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(worker, step))
    return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# individual oracles
# ---------------------------------------------------------------------------

def toy2d_gradient(worker: int, x, targets=DEFAULT_TOY2D_TARGETS, scale: float = 1.0) -> GradientSample:
    """Constant-magnitude pull toward worker ``w``'s target point.

    grad = scale * (x - target_w) / ||x - target_w||, so a descent step moves
    straight toward the target; loss is the distance ||x - target_w||.  At
    the target itself the gradient is defined as zero and the sample is
    flagged converged.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(targets[worker], dtype=float)
    diff = x - target
    dist = float(np.linalg.norm(diff))
    if dist == 0.0:
        return GradientSample(np.zeros_like(x), 0.0, worker=worker, converged=True)
    return GradientSample(scale * diff / dist, dist, worker=worker)


def rosenbrock_gradient(x) -> GradientSample:
    """f(x, y) = (y - x^2)^2 + 100 (x - 1)^2, minimized at (1, 1).

    grad = (-4x (y - x^2) + 200 (x - 1),  2 (y - x^2)).
    """
    a, b = float(x[0]), float(x[1])
    valley = b - a * a
    try:
        loss = valley * valley + 100.0 * (a - 1.0) ** 2
    except OverflowError:  # float ** raises past ~1.3e154 where * gives inf
        loss = math.inf
    grad = np.array([-4.0 * a * valley + 200.0 * (a - 1.0), 2.0 * valley])
    return GradientSample(grad, loss)


def nonconvex_toy_gradient(x) -> GradientSample:
    """Sharply non-convex 2-d landscape with optimum at (0, 0).

    f(x, y) = lse(x) + 10 lse(u),  u = e^x (y - sin 8x),
    lse(v) = log(e^v + e^-v)  computed as logaddexp(v, -v)  (overflow-safe),
    d lse(v)/dv = tanh(v).

    du/dx = u - 8 e^x cos(8x)  and  du/dy = e^x,  so
    grad = (tanh x + 10 tanh(u) (u - 8 e^x cos 8x),  10 tanh(u) e^x).
    """
    a, b = float(x[0]), float(x[1])
    if not math.isfinite(a):  # sin and cos have no value at +-inf
        return GradientSample(np.full(2, math.nan), math.nan)
    try:
        ea = math.exp(a)
    except OverflowError:  # a > ~709.78
        ea = math.inf
    u = ea * (b - math.sin(8.0 * a))
    loss = float(np.logaddexp(a, -a) + 10.0 * np.logaddexp(u, -u))
    tu = math.tanh(u)
    grad = np.array([
        math.tanh(a) + 10.0 * tu * (u - 8.0 * ea * math.cos(8.0 * a)),
        10.0 * tu * ea,
    ])
    return GradientSample(grad, loss)


# ---------------------------------------------------------------------------
# problem family container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """A fully-specified problem instance shared by all workers.

    For ``quadratic_family``: f_i(x) = 0.5 ||A x - b_i||^2 with shared
    diagonal ``A = diag(a_diag)`` and ``b_i = b_base + zeta_c * e_i`` (the
    first ``n_workers`` standard basis vectors as orthonormal perturbations,
    which requires dim >= n_workers when zeta_c > 0).  Sharing ``A`` keeps
    the cross-worker gradient variance independent of ``x`` and exactly
    computable.  Stochastic gradients add ``sigma_c * z`` with z ~ N(0, I).

    Analytic constants:
      L      = lambda_max(A^T A) = max(a_diag)^2
      sigma2 = dim * sigma_c^2              (E||sigma_c z||^2)
      zeta2  = zeta_c^2 * L * (1 - 1/n)     (upper bound; tight when A = cI)
    """

    kind: str
    dim: int
    n_workers: int
    targets: tuple[tuple[float, float], ...] = DEFAULT_TOY2D_TARGETS
    grad_scale: float = 1.0
    a_diag: np.ndarray | None = None
    b_base: np.ndarray | None = None
    zeta_c: float = 0.0
    sigma_c: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}; expected one of {PROBLEM_KINDS}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1; got {self.n_workers}")
        if self.kind == "toy2d_hetero":
            if self.dim != 2:
                raise ValueError("toy2d_hetero requires dim = 2")
            if len(self.targets) < self.n_workers:
                raise ValueError(
                    f"toy2d_hetero needs one target per worker: "
                    f"{self.n_workers} workers but {len(self.targets)} targets"
                )
        if self.kind in ("rosenbrock", "nonconvex_toy") and self.dim != 2:
            raise ValueError(f"{self.kind} requires dim = 2")
        if self.kind == "quadratic_family":
            if self.a_diag is None or self.b_base is None:
                raise ValueError("quadratic_family requires a_diag and b_base")
            if len(self.a_diag) != self.dim or len(self.b_base) != self.dim:
                raise ValueError("a_diag and b_base must have length dim")
            if self.zeta_c != 0.0 and self.dim < self.n_workers:
                raise ValueError(
                    "quadratic_family heterogeneity uses orthonormal basis "
                    f"perturbations, requiring dim >= n_workers; got dim={self.dim}, "
                    f"n_workers={self.n_workers}"
                )
            self.a_diag.setflags(write=False)
            self.b_base.setflags(write=False)

    # -- quadratic family helpers ------------------------------------------

    def worker_b(self, worker: int) -> np.ndarray:
        b = self.b_base.copy()
        if self.zeta_c != 0.0:
            b[worker] += self.zeta_c
        return b

    @property
    def smoothness(self) -> float:
        """L = lambda_max(A^T A)."""
        return float(np.max(self.a_diag) ** 2)

    @property
    def noise_bound(self) -> float:
        """sigma^2 = E ||sigma_c z||^2 = dim * sigma_c^2."""
        return self.dim * self.sigma_c**2

    @property
    def heterogeneity_bound(self) -> float:
        """zeta^2 >= (1/n) sum_i ||grad f_i(x) - grad f(x)||^2 at every x."""
        if self.n_workers == 1 or self.zeta_c == 0.0:
            return 0.0
        return self.zeta_c**2 * self.smoothness * (1.0 - 1.0 / self.n_workers)

    @property
    def x_star(self) -> np.ndarray:
        """Minimizer of the averaged objective: A x = mean_i b_i."""
        b_bar = self.b_base.copy()
        if self.zeta_c != 0.0:
            b_bar[: self.n_workers] += self.zeta_c / self.n_workers
        return b_bar / self.a_diag

    # -- evaluation ---------------------------------------------------------

    def sample(self, worker: int, x: np.ndarray, step: int) -> GradientSample:
        """Stochastic gradient for one worker at one step (pure function)."""
        if self.kind == "toy2d_hetero":
            return toy2d_gradient(worker, x, self.targets, self.grad_scale)
        if self.kind == "rosenbrock":
            s = rosenbrock_gradient(x)
            return GradientSample(s.grad, s.loss, worker=worker)
        if self.kind == "nonconvex_toy":
            s = nonconvex_toy_gradient(x)
            return GradientSample(s.grad, s.loss, worker=worker)
        return quadratic_gradient(self, worker, x, step)

    def mean_gradient(self, x: np.ndarray) -> np.ndarray:
        """Deterministic gradient of the averaged objective f = mean_i f_i."""
        grads = [self.sample_mean_part(w, x) for w in range(self.n_workers)]
        return np.mean(grads, axis=0)

    def sample_mean_part(self, worker: int, x: np.ndarray) -> np.ndarray:
        """Noise-free gradient of worker ``worker``'s local objective."""
        if self.kind == "quadratic_family":
            return self.a_diag * (self.a_diag * x - self.worker_b(worker))
        return self.sample(worker, x, step=0).grad

    def mean_loss(self, x: np.ndarray) -> float:
        """Averaged objective value f(x) = (1/n) sum_i f_i(x)."""
        if self.kind == "quadratic_family":
            return float(np.mean([
                0.5 * np.sum((self.a_diag * x - self.worker_b(w)) ** 2)
                for w in range(self.n_workers)
            ]))
        return float(np.mean([
            self.sample(w, x, step=0).loss for w in range(self.n_workers)
        ]))


def quadratic_family(
    dim: int,
    n_workers: int,
    zeta_c: float = 0.0,
    sigma_c: float = 0.0,
    cond: float = 1.0,
    b_scale: float = 1.0,
    master_seed: int = 0,
) -> ProblemSpec:
    """Convenience constructor: A = diag(linspace(1, sqrt(cond), dim)),
    b = b_scale * a_diag (so the sigma=0, zeta=0 minimizer is b_scale * 1)."""
    if cond < 1.0:
        raise ValueError(f"condition number must be >= 1; got {cond}")
    a_diag = np.linspace(1.0, math.sqrt(cond), dim)
    return ProblemSpec(
        kind="quadratic_family",
        dim=dim,
        n_workers=n_workers,
        a_diag=a_diag,
        b_base=b_scale * a_diag,
        zeta_c=zeta_c,
        sigma_c=sigma_c,
        master_seed=master_seed,
    )


def quadratic_gradient(spec: ProblemSpec, worker: int, x, step: int) -> GradientSample:
    """grad = A^T (A x - b_w) + sigma_c * z with z ~ N(0, I_dim) drawn from
    the (worker, step) Philox stream; the loss reported is the noise-free
    local objective value."""
    x = np.asarray(x, dtype=float)
    b = spec.worker_b(worker)
    residual = spec.a_diag * x - b
    grad = spec.a_diag * residual
    if spec.sigma_c != 0.0:
        z = worker_rng(spec.master_seed, worker, step).standard_normal(spec.dim)
        grad = grad + spec.sigma_c * z
    return GradientSample(grad, 0.5 * float(residual @ residual),
                          worker=worker, step_seed=step)


# ---------------------------------------------------------------------------
# verification helper
# ---------------------------------------------------------------------------

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
