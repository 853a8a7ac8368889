"""Gradient oracles for the test problems.

Four problem families, each exposing loss and analytic gradient, in two
classes that answer one protocol, what a run reads (``n_workers``,
``dim``, ``noise_bound``, ``sample_all``, ``local_gradients``,
``mean_loss_and_gradient``), plus each class's per-worker oracle
``sample``: :class:`Landscape2D` holds the noise-free 2-d landscapes and
:class:`ProblemSpec` the quadratic family, which also gives one
evaluation as a row task (``sample_rows``).

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
do not depend on evaluation order.  :func:`sample_all` samples every worker
at once, and a noisy quadratic splits the work by what changes:

* per run, once, when a quadratic :class:`ProblemSpec` is built: its
  stacked targets ``b_i`` and, if it is noisy, ``SeedSequence``'s uint32
  hash of the seed words and of every worker's word (:func:`_seed_pools`);
* per step: the hash of the step's one or two words and the output hash,
  which give all ``n`` Philox keys (:func:`_step_keys`); then, for each
  worker, re-keying this thread's one Philox generator through its
  ``state`` (counter 0, empty buffer, as plain ints) and drawing, which
  yields the bits of a freshly seeded stream.

A draw depends only on (seed, worker, step), so the noise block
``sigma_c * Z`` of a step is kept (:func:`_scaled_noise`): one slot holds
the steps drawn for the last signature ``(master_seed, n_workers, dim,
sigma_c)``, those below a step bound that keeps it within 4 MiB, and a
run with the same signature reads them back instead of drawing them
again.  A hit is the array a miss would compute, so no bit depends on the
memo, and threads share it without a lock: the worst a race does is drop
a block, which is then drawn again.

For the quadratic family the rest is one whole-matrix expression, and
:meth:`ProblemSpec.sample` is one column of it; the 2-d landscapes loop
over workers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .optim import _norm

__all__ = ["GradientSample", "Landscape2D", "ProblemSpec", "DEFAULT_TOY2D_TARGETS",
           "toy2d_gradient", "rosenbrock_gradient", "nonconvex_toy_gradient", "sample_all"]

LANDSCAPE_KINDS = ("toy2d_hetero", "rosenbrock", "nonconvex_toy")

DEFAULT_TOY2D_TARGETS: tuple[tuple[float, float], ...] = ((0.0, 5.0), (4.0, 0.0))


@dataclass(frozen=True)
class GradientSample:
    """One oracle evaluation: gradient and loss."""

    grad: np.ndarray
    loss: float
    converged: bool = False


# SeedSequence's hash-mix constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The first ``count + 1`` values of a chain of hash constants."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# generate_state's output hash: pool word i is hashed with constants i and i + 1
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE)
_OUT_XOR = np.array(_OUT_CONSTS[:-1], dtype=np.uint32)[:, None]
_OUT_MULT = np.array(_OUT_CONSTS[1:], dtype=np.uint32)[:, None]


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, the way SeedSequence reads
    an int (0 is one word)."""
    if value < 0:
        raise ValueError(f"expected non-negative integer; got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's mix of two uint32 words (Python ints or uint32 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix of one uint32 word at hash constant ``const``:
    the hashed word and the constant the next hashmix starts from."""
    mult = const * _MULT_A & _MASK32
    value = (value ^ const) * mult & _MASK32
    return value ^ (value >> 16), mult


class _SeedPools(NamedTuple):
    """SeedSequence's hash state for workers ``0 .. n-1`` of one run after
    its seed and worker words, which is the same at every step."""

    left: np.ndarray  # (4, n) read-only uint32: column w is _MIX_MULT_L * worker w's pool
    const: int  # the hash constant the next entropy word starts from


def _seed_pools(master_seed: int, n: int) -> _SeedPools:
    """The per-run part of the Philox key hash of :func:`_step_keys`.

    SeedSequence hashes its entropy words (the seed's, zero-padded to the
    pool size, then the worker's and the step's) into a pool of four uint32
    words.  The seed words leave the same pool for every worker, so they
    are mixed once with Python ints; the worker words are then mixed into
    all ``n`` pools at once, as a ``(4, n)`` uint32 array whose products
    wrap modulo 2**32 as the C code's do.  A step reads the pools only as
    the left operand of its first word's mix, so they are kept as that
    product.  The hash constant advances with every word whatever its
    value, so its position after the worker word is fixed too.
    """
    seed_words = _uint32_words(master_seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    const = _INIT_A
    pool = []
    for word in seed_words[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in seed_words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)

    # the four hashmix calls of the worker word, one per pool word, at once
    consts = _hash_consts(const, _MULT_A, _POOL_SIZE)
    xor = np.array(consts[:-1], dtype=np.uint32)[:, None]
    mult = np.array(consts[1:], dtype=np.uint32)[:, None]
    hashed = (np.arange(n, dtype=np.uint32) ^ xor) * mult
    hashed ^= hashed >> 16
    left = _MIX_MULT_L * _mix(np.array(pool, dtype=np.uint32)[:, None], hashed)
    left.setflags(write=False)
    return _SeedPools(left, consts[-1])


def _step_keys(seed_pools: _SeedPools, step: int) -> np.ndarray:
    """Philox keys of workers ``0 .. n-1`` at ``step``, ``seed_pools`` being
    ``_seed_pools(master_seed, n)``: row ``w`` of the ``(n, 2)`` uint64 array
    keys a Philox seeded with ``SeedSequence(entropy=master_seed,
    spawn_key=(w, step))``.  The per-step part of the hash: mix the step's
    one or two words into the run's pools, then apply generate_state's
    output hash.

    A step word is the same for every worker, so its mix's right products
    are Python ints, and the first word's left product is the run's; the
    uint32 arrays wrap modulo 2**32 as ``_mix``'s mask does.
    """
    left, const = seed_pools
    for i, word in enumerate(_uint32_words(step)):
        if i:
            left = _MIX_MULT_L * pools
        right = []
        for _ in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            right.append(_MIX_MULT_R * value & _MASK32)
        pools = left - np.array(right, dtype=np.uint32)[:, None]
        pools ^= pools >> 16
    # generate_state: one more hash of each pool word, then pairs of words
    # as little-endian uint64
    out = (pools ^ _OUT_XOR) * _OUT_MULT
    out ^= out >> 16
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


_thread = threading.local()


def _thread_generator():
    """This thread's Philox bit generator and its Generator, built on the
    thread's first draw.

    One pair per thread lets threads draw at once without sharing a state.
    Nothing is built at import: numpy loads ``numpy.random`` lazily, and a
    run without noise never loads it.
    """
    try:
        return _thread.generator
    except AttributeError:
        bitgen = np.random.Philox(key=0)
        _thread.generator = bitgen, np.random.Generator(bitgen)
        return _thread.generator


def _standard_normals(seed_pools: _SeedPools, step: int, dim: int) -> np.ndarray:
    """``(n, dim)`` array whose row ``w`` is, bit for bit, the first ``dim``
    standard normals of ``Generator(Philox(SeedSequence(entropy=master_seed,
    spawn_key=(w, step))))``, where ``seed_pools`` is
    ``_seed_pools(master_seed, n)``.

    Per step this computes the step's keys (:func:`_step_keys`) and, for
    each worker, re-keys the thread's Philox generator through its
    ``state`` (counter 0, an empty buffer: the state a generator freshly
    seeded with that key starts in) and draws.  The state is given as plain
    ints, which the setter reads faster than uint64 arrays.
    """
    bitgen, gen = _thread_generator()
    keyed = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": keyed,
             # buffer_pos 4: all four buffered words used, the buffer empty
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keys = _step_keys(seed_pools, step).tolist()
    Z = np.empty((len(keys), dim))
    normal = gen.standard_normal
    for key, row in zip(keys, Z):
        keyed["key"] = key
        bitgen.state = state
        normal(out=row)
    return Z


# The noise memo: the read-only blocks ``sigma_c * Z`` (``(n, dim)``, one
# per step) drawn for one signature.  The slot is (signature, {step:
# block}); a run with another signature rebinds it whole, so a dict only
# ever receives its own signature's blocks and every hit is right without
# a lock.  Only the steps below _NOISE_MEMO_BYTES // Z.nbytes are kept,
# which bounds a dict at 4 MiB however threads interleave (all 100 steps
# of an n 64, dim 64 run take 3.2 MB); a run draws from step 0 up, so it
# keeps every step that fits.  A step of more than 4 MiB is never kept,
# and a block stored into a slot another thread has just replaced is lost
# and drawn again.
_NOISE_MEMO_BYTES = 4 << 20
_noise_memo: tuple = (None, {})


def _scaled_noise(spec: ProblemSpec, step: int) -> np.ndarray:
    """``spec``'s noise block at ``step``, ``sigma_c`` times
    :func:`_standard_normals`, as a read-only ``(n, dim)`` array: the
    memo's when it holds that step of ``spec``'s signature, else drawn and
    kept when the step is below the memo's bound."""
    global _noise_memo
    signature = (spec.master_seed, spec.n_workers, spec.dim, spec.sigma_c)
    held, steps = _noise_memo
    if held == signature and (Z := steps.get(step)) is not None:
        return Z
    Z = _standard_normals(spec._pools, step, spec.dim)
    Z *= spec.sigma_c
    Z.setflags(write=False)
    held, steps = _noise_memo
    if held != signature:
        steps = {}
        _noise_memo = signature, steps
    if step < _NOISE_MEMO_BYTES // Z.nbytes:
        steps[step] = Z
    return Z


# ---------------------------------------------------------------------------
# individual oracles
# ---------------------------------------------------------------------------

def toy2d_gradient(worker: int, x, targets=DEFAULT_TOY2D_TARGETS, scale: float = 1.0) -> GradientSample:
    """Constant-magnitude pull toward worker ``w``'s target point.

    grad = scale * (x - target_w) / ||x - target_w||, so a descent step moves
    straight toward the target; loss is the distance ||x - target_w||.  At
    the target itself the gradient is defined as zero and the sample is
    flagged converged.  A finite ``x - target`` whose norm overflows (past
    about 1.3e154) is divided by its largest magnitude first, so the pull
    stays a unit vector and the distance finite where it is representable.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(targets[worker], dtype=float)
    diff = x - target
    dist = _norm(diff)
    if dist == 0.0:
        return GradientSample(np.zeros_like(x), 0.0, converged=True)
    if dist == math.inf and np.isfinite(diff).all():
        big = np.abs(diff).max()
        diff = diff / big
        unit = _norm(diff)
        return GradientSample(scale * diff / unit, big * unit)
    return GradientSample(scale * diff / dist, dist)


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
    # sin and cos have no value at +-inf, which 8a reaches for |a| > ~2.2e307
    if not math.isfinite(8.0 * a):
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
# problem families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Landscape2D:
    """A noise-free 2-d landscape of ``kind`` over ``n_workers`` workers,
    evaluated worker by worker; ``step`` never enters.  ``toy2d_hetero``
    pulls worker ``w`` toward ``targets[w]`` with magnitude ``grad_scale``;
    the other kinds give every worker the same landscape."""

    dim = 2  # class constants, not fields
    noise_bound = None

    kind: str
    n_workers: int
    targets: tuple[tuple[float, float], ...] = DEFAULT_TOY2D_TARGETS
    grad_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in LANDSCAPE_KINDS:
            raise ValueError(
                f"unknown 2-d landscape {self.kind!r}; expected one of {LANDSCAPE_KINDS}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1; got {self.n_workers}")
        if self.kind == "toy2d_hetero" and len(self.targets) < self.n_workers:
            raise ValueError(f"toy2d_hetero needs one target per worker: "
                             f"{self.n_workers} workers but {len(self.targets)} targets")

    def sample(self, worker: int, x: np.ndarray, step: int) -> GradientSample:
        """Worker ``worker``'s oracle at ``x``: the one dispatch on ``kind``,
        each branch looking up its module-level oracle at call time."""
        if self.kind == "toy2d_hetero":
            return toy2d_gradient(worker, x, self.targets, self.grad_scale)
        if self.kind == "rosenbrock":
            return rosenbrock_gradient(x)
        return nonconvex_toy_gradient(x)

    def sample_all(self, P: np.ndarray, step: int = 0) -> np.ndarray:
        """A fresh ``(dim, n)`` array: column ``i`` is worker ``i``'s
        gradient at ``P[:, i]``."""
        G = np.empty(P.shape)
        for i in range(P.shape[1]):
            G[:, i] = self.sample(i, P[:, i], step).grad
        return G

    local_gradients = sample_all  # noise-free

    def mean_loss_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The averaged objective f = mean_i f_i at ``x`` and its gradient,
        with ``np.mean``'s and ``G.mean(axis=0)``'s kernels, from one
        oracle call per worker that gives both."""
        samples = [self.sample(w, x, step=0) for w in range(self.n_workers)]
        losses = np.array([s.loss for s in samples])
        g = np.add.reduce(np.array([s.grad for s in samples]), axis=0)
        g /= self.n_workers
        return float(np.add.reduce(losses)) / self.n_workers, g


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """The quadratic family: f_i(x) = 0.5 ||A x - b_i||^2 with shared
    diagonal ``A = diag(a_diag)`` and ``b_i = b_base + zeta_c * e_i`` (the
    first ``n_workers`` standard basis vectors as orthonormal perturbations,
    which requires dim >= n_workers when zeta_c > 0).  Sharing ``A`` keeps
    the cross-worker gradient variance independent of ``x`` and exactly
    computable.  Stochastic gradients add ``sigma_c * z`` with z ~ N(0, I).

    Analytic constants:
      L      = lambda_max(A^T A) = max(a_diag)^2
      sigma2 = dim * sigma_c^2              (E||sigma_c z||^2)
      zeta2  = zeta_c^2 * L * (1 - 1/n)     (upper bound; tight when A = cI)

    ``==`` is identity: ``a_diag`` and ``b_base`` are arrays, which have no
    one truth value.

    Construction copies ``a_diag`` and ``b_base`` (any sequence of ``dim``
    reals) into read-only float64 arrays of the spec's own, leaving the
    caller's untouched, and builds, read-only, what every evaluation reads:
    the stacked targets ``b_i`` (columns and rows) and, when the family is
    noisy, the per-run part of its noise-key hash (:func:`_seed_pools`).

    ``mean_loss_and_gradient`` calls ``mean_loss`` and ``mean_gradient``;
    they and ``sample_mean_part`` stay methods because the benchmark's
    tracer times them by name (``METHODS`` in ``perfbench/tracing.py``).
    """

    kind = "quadratic_family"  # a class constant, not a field

    dim: int
    n_workers: int
    a_diag: np.ndarray
    b_base: np.ndarray
    zeta_c: float = 0.0
    sigma_c: float = 0.0
    master_seed: int = 0
    _B: np.ndarray | None = field(default=None, init=False, repr=False)
    _B_rows: np.ndarray | None = field(default=None, init=False, repr=False)
    _pools: _SeedPools | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1; got {self.n_workers}")
        for name in ("a_diag", "b_base"):  # the spec's own read-only float64 copies
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.shape != (self.dim,):
                raise ValueError(f"a_diag and b_base must have shape ({self.dim},); "
                                 f"got {name} of shape {values.shape}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.zeta_c != 0.0 and self.dim < self.n_workers:
            raise ValueError("quadratic_family heterogeneity uses orthonormal basis "
                             "perturbations, requiring dim >= n_workers; got "
                             f"dim={self.dim}, n_workers={self.n_workers}")
        # the b_i as columns and as C-contiguous rows, stacked (and the
        # rows copied) only when they differ
        B = self.b_base[:, None]
        if self.zeta_c != 0.0:
            B = np.repeat(B, self.n_workers, axis=1)
            w = np.arange(self.n_workers)
            B[w, w] += self.zeta_c
            B.setflags(write=False)
        B_rows = np.ascontiguousarray(B.T)
        B_rows.setflags(write=False)
        object.__setattr__(self, "_B", B)
        object.__setattr__(self, "_B_rows", B_rows)
        if self.sigma_c != 0.0:
            object.__setattr__(self, "_pools", _seed_pools(self.master_seed, self.n_workers))

    # -- analytic constants -------------------------------------------------

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
        """Stochastic gradient for one worker at one step (pure function):
        column ``worker`` of :meth:`sample_all` with ``x`` at every worker,
        and the loss the noise-free local objective
        ``0.5 ||a x - b_worker||^2``.
        """
        X = self._at_every_worker(x)
        r = np.ascontiguousarray(self._residuals(X)[:, worker])
        return GradientSample(self.sample_all(X, step)[:, worker].copy(), 0.5 * float(r @ r))

    def sample_rows(self, step: int):
        """One evaluation at ``step`` as a row task ``(fn, arrays)``:
        ``fn(P, out, *arrays)`` writes ``a (a P - B) + sigma_c Z`` into
        ``out`` (a fresh array when it is None) and returns it, ``B`` the
        stacked ``b_i`` and row ``i`` of ``Z`` worker ``i``'s Philox draw,
        which is drawn here, on the calling thread, or read from the noise
        memo (:func:`_scaled_noise`).  Row d of ``out`` reads only row d of
        ``P`` and of ``arrays``, so the task runs over any range of rows
        (:func:`qgm_sim.optim._run_rows`)."""
        if self._pools is None:
            return _quadratic_rows, (self.a_diag[:, None], self._B, None)
        return _quadratic_rows, (self.a_diag[:, None], self._B, _scaled_noise(self, step).T)

    def sample_all(self, P: np.ndarray, step: int) -> np.ndarray:
        """Every worker's stochastic gradient at ``step`` as a fresh
        ``(dim, n)`` array: :meth:`sample_rows` over every row."""
        fn, arrays = self.sample_rows(step)
        return fn(P, None, *arrays)

    def local_gradients(self, P: np.ndarray) -> np.ndarray:
        """Noise-free local gradients as a fresh ``(dim, n)`` array: column
        ``i`` is the gradient of worker ``i``'s local objective at
        ``P[:, i]``."""
        R = self._residuals(P)
        R *= self.a_diag[:, None]
        return R

    def _residuals(self, P: np.ndarray) -> np.ndarray:
        """``a * P[:, i] - b_i`` for every worker ``i``, as a fresh
        ``(dim, n)`` array."""
        R = self.a_diag[:, None] * P
        R -= self._B
        return R

    def _residual_rows(self, x) -> np.ndarray:
        """``a * x - b_i`` for every worker ``i``, as the rows of a fresh
        C-contiguous ``(n, dim)`` array: the rows a one-worker loop would
        reduce, in the layout whose row sums keep its order."""
        return np.subtract(self.a_diag * np.asarray(x, dtype=float), self._B_rows,
                           out=np.empty((self.n_workers, self.dim)))

    def _at_every_worker(self, x) -> np.ndarray:
        """``x`` as every column of a read-only ``(dim, n)`` view."""
        return np.broadcast_to(np.asarray(x, dtype=float)[:, None], (self.dim, self.n_workers))

    def mean_gradient(self, x: np.ndarray) -> np.ndarray:
        """Deterministic gradient of the averaged objective f = mean_i f_i,
        averaged over an ``(n, dim)`` row stack, worker by worker, with
        ``G.mean(axis=0)``'s kernels."""
        G = self._residual_rows(x)
        G *= self.a_diag
        g = np.add.reduce(G, axis=0)
        g /= self.n_workers
        return g

    def sample_mean_part(self, worker: int, x: np.ndarray) -> np.ndarray:
        """Noise-free gradient of worker ``worker``'s local objective at
        ``x``: column ``worker`` of :meth:`local_gradients` with ``x`` at
        every worker."""
        return self.local_gradients(self._at_every_worker(x))[:, worker].copy()

    def mean_loss_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """:meth:`mean_loss` and :meth:`mean_gradient` at ``x``."""
        return self.mean_loss(x), self.mean_gradient(x)

    def mean_loss(self, x: np.ndarray) -> float:
        """Averaged objective value f(x) = (1/n) sum_i f_i(x), with
        ``np.mean``'s kernels; each worker's sum runs over a row of a
        C-contiguous ``(n, dim)`` residual."""
        R = self._residual_rows(x)
        losses = np.add.reduce(np.square(R, out=R), axis=1)
        losses *= 0.5
        return float(np.add.reduce(losses)) / self.n_workers


def _quadratic_rows(P, out, a, B, Zt) -> np.ndarray:
    """``a (a P - B) + Zt`` entrywise into ``out``, or a fresh array when it
    is None, ``a`` a ``(rows, 1)`` column; ``Zt`` None adds nothing."""
    out = np.multiply(a, P, out)
    out -= B
    out *= a
    if Zt is not None:
        out += Zt
    return out


def quadratic_family(dim: int, n_workers: int, zeta_c: float = 0.0, sigma_c: float = 0.0,
                     cond: float = 1.0, b_scale: float = 1.0, master_seed: int = 0) -> ProblemSpec:
    """Convenience constructor: A = diag(linspace(1, sqrt(cond), dim)),
    b = b_scale * a_diag (so the sigma=0, zeta=0 minimizer is b_scale * 1)."""
    if cond < 1.0:
        raise ValueError(f"condition number must be >= 1; got {cond}")
    a_diag = np.linspace(1.0, math.sqrt(cond), dim)
    return ProblemSpec(dim=dim, n_workers=n_workers, a_diag=a_diag, b_base=b_scale * a_diag,
                       zeta_c=zeta_c, sigma_c=sigma_c, master_seed=master_seed)


def sample_all(problem: ProblemSpec | Landscape2D, P: np.ndarray, step: int) -> np.ndarray:
    """Every worker's stochastic gradient at ``step`` as a fresh ``(dim, n)``
    array: column ``i`` is worker ``i``'s gradient at ``P[:, i]``.  ``P``
    has one column per worker of ``problem`` (``ValueError`` otherwise);
    the problem's own ``sample_all`` computes it.
    """
    if P.shape[1] != problem.n_workers:
        raise ValueError(
            f"P has {P.shape[1]} columns; the problem has {problem.n_workers} workers")
    return problem.sample_all(P, step)
