"""Run orchestration: configuration, learning-rate schedules, hypothesis
validation, the training loop, and per-step telemetry.

A run is described by a flat sectioned config (``[problem]``, ``[topology]``,
``[optim]``, ``[schedule]``, ``[run]``) loaded into a :class:`RunConfig`.
Loading builds and validates, once, everything a run reads: the problem (a
quadratic ``ProblemSpec`` or a 2-d ``Landscape2D``), the read-only start
point, the mixing (a matrix, or the one-peer schedule), the
:class:`~qgm_sim.optim.HyperParams` and the :class:`ScheduleSpec`.  A
config that loads is a run that can start, and :func:`run` builds nothing.
The loop holds the whole run as one :class:`~qgm_sim.optim.StackedState`
(every buffer a ``(dim, n)`` array, one column per worker), samples every
worker's gradient in one :func:`~qgm_sim.oracles.sample_all` call per
evaluation (noise deterministically keyed by (worker, step)), applies the
configured step rule to the stacked state, and records metrics evaluated at
the averaged model.  Nothing depends on evaluation order, so metrics are
byte-identical across reruns.

Divergence aborts: any non-finite entry in any array the state holds raises
:class:`NumericalDivergence` naming the step, the buffer and the worker (the
CLI maps it to exit code 2) rather than being clamped — blowing up is signal
in an optimizer test bed.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .consensus import consensus_distance
from .oracles import Landscape2D, ProblemSpec, quadratic_family, sample_all
from .optim import (
    HALF_STEP_KINDS,
    ROUND_KINDS,
    STEP_KINDS,
    HyperParams,
    StackedState,
    _average_model,
    _norm,
    stacked_mimelite_round,
    stacked_slowmo_round,
    stacked_step,
)
from .topology import (
    MIXING_SCHEMES,
    MixingMatrix,
    OnePeerExponential,
    build_graph,
    mixing_matrix,
)

__all__ = [
    "ConfigError",
    "MetricsRecord",
    "NumericalDivergence",
    "OPTIM_KINDS",
    "RunConfig",
    "RunResult",
    "ScheduleSpec",
    "TheoremReport",
    "heading_change_sum",
    "lr_schedule",
    "metrics_csv_lines",
    "run",
    "validate_theorem_conditions",
    "write_metrics_csv",
]

METRICS_HEADER = "step,epoch,lr,loss,grad_norm,consensus_dist,weight_norm,eff_stepsize"

OPTIM_KINDS = STEP_KINDS + ROUND_KINDS

_PROBLEM_ALIASES = {
    "quadratic": "quadratic_family",
    "quadratic_family": "quadratic_family",
    "toy2d": "toy2d_hetero",
    "toy2d_hetero": "toy2d_hetero",
    "rosenbrock": "rosenbrock",
    "nonconvex_toy": "nonconvex_toy",
}
# [problem] keys that one family alone reads: key -> (that family, why the
# others ignore it); another family given a value off its default is an error
_FAMILY_KEYS = {
    "zeta": ("quadratic_family", "fixed heterogeneity"),
    "sigma": ("quadratic_family", "noise-free"),
    "cond": ("quadratic_family", "fixed curvature"),
    "b_scale": ("quadratic_family", "fixed minimizers"),
    "scale": ("toy2d_hetero", "unscaled gradient"),
}


class ConfigError(Exception):
    """Invalid or missing configuration; the CLI exits 1 on this."""


class NumericalDivergence(Exception):
    """A state array went non-finite; the CLI exits 2 on this.

    ``field`` names the buffer as
    :meth:`~qgm_sim.optim.StackedState.array_fields` does (``x``,
    ``m_hat``, ..., ``slow_m`` or ``server_s``) and ``worker`` the first
    worker whose column holds a non-finite entry; ``worker`` is None for
    arrays shared by all workers.
    """

    def __init__(self, step: int, method: str, field: str = "x", worker: int | None = None):
        self.step = step
        self.method = method
        self.field = field
        self.worker = worker
        owner = "" if worker is None else f" of worker {worker}"
        super().__init__(
            f"non-finite {field}{owner} at step {step} (method {method}); aborting")


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleSpec:
    """Constant step size, or linear warmup followed by stage-wise decay.

    ``warmup_stage`` ramps linearly from ``warmup_start_factor * base_eta``
    to ``base_eta`` over the first ``warmup_fraction`` of training, then
    divides by ``decay_factor`` at each milestone fraction reached.
    """

    kind: str = "constant"
    base_eta: float = 0.1
    warmup_fraction: float = 0.0
    warmup_start_factor: float = 0.1
    milestones: tuple[float, ...] = ()
    decay_factor: float = 10.0

    def __post_init__(self):
        if self.kind not in ("constant", "warmup_stage"):
            raise ConfigError(
                f"schedule kind must be 'constant' or 'warmup_stage'; got {self.kind!r}")
        if not self.base_eta > 0:
            raise ConfigError(f"base_eta must be > 0; got {self.base_eta}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup_fraction must lie in [0, 1); got {self.warmup_fraction}")
        if not 0.0 < self.warmup_start_factor <= 1.0:
            raise ConfigError(
                f"warmup_start_factor must lie in (0, 1]; got {self.warmup_start_factor}")
        ms = tuple(float(m) for m in self.milestones)
        if any(not 0.0 < m < 1.0 for m in ms) or any(
                b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(
                f"milestones must be strictly increasing fractions in (0, 1); got {ms}")
        if not self.decay_factor > 0:
            raise ConfigError(f"decay_factor must be > 0; got {self.decay_factor}")
        try:  # the step size after the last milestone, as lr_schedule computes it
            last = self.base_eta / self.decay_factor**len(ms)
        except (OverflowError, ZeroDivisionError):
            last = math.nan
        if not 0.0 < last < math.inf:
            raise ConfigError(
                f"schedule.decay_factor {self.decay_factor} over {len(ms)} milestones "
                f"leaves the last stage without a finite step size > 0 "
                f"(base_eta {self.base_eta})")
        object.__setattr__(self, "milestones", ms)


def lr_schedule(spec: ScheduleSpec, step: int, total_steps: int) -> float:
    """Step size at 1-based ``step`` out of ``total_steps``."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1; got {total_steps}")
    if spec.kind == "constant":
        return spec.base_eta
    progress = step / total_steps
    base = spec.base_eta
    if spec.warmup_fraction > 0.0 and progress < spec.warmup_fraction:
        start = min(spec.warmup_start_factor * base, base)
        return start + (base - start) * (progress / spec.warmup_fraction)
    passed = sum(1 for m in spec.milestones if progress >= m)
    return base / spec.decay_factor**passed


# ---------------------------------------------------------------------------
# hypothesis validation (informational only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    """Convergence-guarantee precondition check; advisory, never fatal.

    ``momentum_ok`` states whether beta/(1-beta) <= rho/21 (with a 1e-12
    absolute slack so parameters placed exactly on the bound validate);
    the guarantee's step-size scale sqrt(n / (sigma^2 T)) is included when
    enough run constants are known.
    """

    momentum_ratio: float
    bound: float
    momentum_ok: bool
    suggested_eta: float | None
    message: str


def validate_theorem_conditions(
    hp: HyperParams,
    rho: float,
    n_workers: int | None = None,
    sigma_sq: float | None = None,
    total_steps: int | None = None,
) -> TheoremReport:
    """Check the momentum bound beta/(1-beta) <= rho/21 and suggest the
    guarantee's step-size scale.  The report never blocks a run: the bound
    is known to be far more conservative than practice requires."""
    ratio = hp.beta / (1.0 - hp.beta)
    bound = rho / 21.0
    ok = ratio <= bound + 1e-12
    suggested = None
    if n_workers and sigma_sq and total_steps and sigma_sq > 0:
        suggested = float(np.sqrt(n_workers / (sigma_sq * total_steps)))
    if ok:
        message = (f"momentum bound satisfied: beta/(1-beta) = {ratio:.6g} "
                   f"<= rho/21 = {bound:.6g}")
    else:
        message = (f"momentum bound violated: beta/(1-beta) = {ratio:.6g} "
                   f"> rho/21 = {bound:.6g}; the guarantee does not apply, "
                   "though the method typically still works")
    if suggested is not None:
        message += f"; suggested step-size scale sqrt(n/(sigma^2 T)) = {suggested:.6g}"
    return TheoremReport(momentum_ratio=ratio, bound=bound, momentum_ok=ok,
                         suggested_eta=suggested, message=message)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _text(name: str, raw: str) -> str:
    return raw


def _int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as int") from None


def _count(name: str, raw: str) -> int:
    if (value := _int(name, raw)) < 1:
        raise ConfigError(f"{name.partition('.')[2]} must be >= 1; got {value}")
    return value


def _seed(name: str, raw: str) -> int:
    if (value := _int(name, raw)) < 0:  # SeedSequence takes non-negative entropy only
        raise ConfigError(f"{name} must be >= 0; got {value}")
    return value


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite; got {value}")
    return value


def _finite(name: str, raw: str) -> float:
    try:
        return _require_finite(name, float(raw))
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as float") from None


def _blank_or(parse):
    """``parse`` of the stripped text, or None when it is blank."""
    return lambda name, raw: parse(name, raw.strip()) if raw.strip() else None


def _milestones(name: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",")) if raw.strip() else ()
    except ValueError:
        raise ConfigError(
            f"{name}: cannot parse {raw!r} as comma-separated floats") from None


def _init(name: str, raw: str) -> tuple[float, ...]:
    """One component for every coordinate, or one per coordinate; blank
    parts are skipped, and blank text is 0."""
    parts = [part for part in raw.split(",") if part.strip()]
    try:
        values = tuple(float(part) for part in parts) if parts else (0.0,)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as floats") from None
    return tuple(_require_finite(name, value) for value in values)


# section -> key -> (parser, default text); None marks a required key.  A
# parser reads one key's text, given or default, as parser(section.key, text)
# and raises ConfigError naming the key if the text is not a valid value
_SCHEMA = {
    "problem": {
        "kind": (_text, "quadratic"),
        "dim": (_count, "16"),
        "zeta": (_finite, "0.0"),
        "sigma": (_finite, "0.0"),
        "cond": (_finite, "1.0"),
        "b_scale": (_finite, "1.0"),
        "scale": (_finite, "1.0"),
        "init": (_init, "0.0"),
    },
    "topology": {
        "kind": (_text, "ring"),
        "n": (_count, "4"),
        "scheme": (_text, "metropolis_hastings"),
        "rows": (_blank_or(_int), ""),
    },
    "optim": {
        "kind": (_text, None),
        "eta": (_finite, "0.1"),
        "beta": (_finite, "0.9"),
        "mu": (_blank_or(_finite), ""),
        "beta1": (_finite, "0.9"),
        "beta2": (_finite, "0.99"),
        "epsilon": (_finite, "1e-8"),
        "tau": (_int, "1"),
        "slowmo_alpha": (_finite, "1.0"),
        "slowmo_beta": (_finite, "0.7"),
        "slowmo_base": (_text, "dsgdm"),
    },
    "schedule": {
        "kind": (_text, "constant"),
        "warmup_fraction": (_finite, "0.05"),
        "warmup_start_factor": (_finite, "0.1"),
        "milestones": (_milestones, "0.5,0.75"),
        "decay_factor": (_finite, "10.0"),
    },
    "run": {
        "steps": (_count, "100"),
        "seed": (_seed, "0"),
        "steps_per_epoch": (_count, "50"),
        "metrics_every": (_count, "1"),
    },
}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A loaded run, built and validated once; see ``_SCHEMA`` for keys.

    ``problem`` is the run's quadratic ``ProblemSpec`` or ``Landscape2D``,
    ``x0`` its read-only start point, ``mixing`` its MixingMatrix (for the
    one-peer topology the :class:`~qgm_sim.topology.OnePeerExponential`
    schedule, which holds no matrix), ``hp`` the ``[optim]`` step parameters
    and ``schedule`` the ``[schedule]`` section with ``optim.eta`` as its
    base step size.  ``==`` is identity: the start point holds an array.
    """

    problem: ProblemSpec | Landscape2D
    x0: np.ndarray
    mixing: MixingMatrix | OnePeerExponential
    n: int
    optim_kind: str
    hp: HyperParams
    slowmo_base: str
    schedule: ScheduleSpec
    steps: int
    steps_per_epoch: int
    metrics_every: int

    @staticmethod
    def from_mapping(mapping: dict, overrides: dict | None = None) -> "RunConfig":
        """Build from {section: {key: value}} plus dotted overrides.

        Every value, given or default, is read as text (``str(value)``) by
        its key's parser, so ``2.5`` for an int key fails as ``'2.5'``
        would.  Unknown sections/keys are rejected by name; ``optim.kind``
        is the one required field.  The problem, start point and mixing
        are built here, so a config that loads is a run that can start.
        """
        values: dict[str, dict] = {s: {} for s in _SCHEMA}

        def _set(section, key, raw):
            if key not in _SCHEMA.get(section, ()):
                raise ConfigError(f"unknown config key {section}.{key}")
            parse, _default = _SCHEMA[section][key]
            values[section][key] = parse(f"{section}.{key}", str(raw))

        for section, entries in mapping.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in dict(entries).items():
                _set(section, key, raw)
        for dotted, raw in (overrides or {}).items():
            if "." not in dotted:
                raise ConfigError(
                    f"override {dotted!r} must use section.key form")
            _set(*dotted.split(".", 1), raw)
        dim_given = "dim" in values["problem"]
        for section, keys in _SCHEMA.items():
            for key, (_parser, default) in keys.items():
                if key not in values[section]:
                    if default is None:
                        raise ConfigError(f"missing required field {section}.{key}")
                    _set(section, key, default)

        p, t, o, s, r = (values["problem"], values["topology"], values["optim"],
                         values["schedule"], values["run"])
        try:  # constructing these validates their parameter ranges
            schedule = ScheduleSpec(
                kind=s["kind"], base_eta=o["eta"], warmup_fraction=s["warmup_fraction"],
                warmup_start_factor=s["warmup_start_factor"],
                milestones=s["milestones"], decay_factor=s["decay_factor"])
            hp = HyperParams(**{key: value for key, value in o.items()
                                if key not in ("kind", "slowmo_base")})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

        kind = _PROBLEM_ALIASES.get(p["kind"])
        if kind is None:
            raise ConfigError(
                f"problem.kind must be one of {sorted(set(_PROBLEM_ALIASES))}; "
                f"got {p['kind']!r}")
        if o["kind"] not in OPTIM_KINDS:
            raise ConfigError(
                f"optim.kind must be one of {OPTIM_KINDS}; got {o['kind']!r}")
        if o["slowmo_base"] not in HALF_STEP_KINDS:
            raise ConfigError(
                f"optim.slowmo_base must be a per-step kind; got {o['slowmo_base']!r}")
        if o["kind"] == "qhm" and t["n"] != 1:
            raise ConfigError("optim.kind qhm is the single-worker closed form; "
                              f"requires topology.n = 1, got {t['n']}")
        if o["kind"] in ROUND_KINDS and r["steps"] % hp.tau != 0:
            raise ConfigError(
                f"run.steps ({r['steps']}) must be a multiple of optim.tau "
                f"({hp.tau}) for round-structured methods")
        for key, (reader, why) in _FAMILY_KEYS.items():
            parse, default = _SCHEMA["problem"][key]
            if kind != reader and p[key] != parse(f"problem.{key}", default):
                raise ConfigError(
                    f"problem.{key} is not read by {p['kind']} ({why}); got {p[key]}")
        if kind != "quadratic_family" and dim_given and p["dim"] != 2:
            raise ConfigError(f"problem.dim must be 2 for {p['kind']}; got {p['dim']}")

        try:
            problem = (quadratic_family(
                dim=p["dim"], n_workers=t["n"], zeta_c=p["zeta"], sigma_c=p["sigma"],
                cond=p["cond"], b_scale=p["b_scale"], master_seed=r["seed"])
                if kind == "quadratic_family" else
                Landscape2D(kind=kind, n_workers=t["n"], grad_scale=p["scale"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        mixing = topology_mixing(t["kind"], t["n"], t["scheme"], t["rows"])
        x0 = _initial_point(p["init"], problem.dim)
        x0.flags.writeable = False
        return RunConfig(
            problem=problem, x0=x0, mixing=mixing, n=t["n"],
            optim_kind=o["kind"], hp=hp, slowmo_base=o["slowmo_base"],
            schedule=schedule, steps=r["steps"], steps_per_epoch=r["steps_per_epoch"],
            metrics_every=r["metrics_every"])

    @staticmethod
    def from_ini(path: str, overrides: dict | None = None) -> "RunConfig":
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path!r}")
            # values interpolate on access, so the lookup can raise too
            mapping = {section: dict(parser[section]) for section in parser.sections()}
        except configparser.Error as exc:
            detail = " ".join(str(exc).split())  # some configparser messages span lines
            raise ConfigError(f"cannot parse config file {path!r}: {detail}") from None
        return RunConfig.from_mapping(mapping, overrides)


# ---------------------------------------------------------------------------
# problem / topology construction
# ---------------------------------------------------------------------------

def build_problem(config: RunConfig) -> ProblemSpec | Landscape2D:
    """The run's problem, built when the config loaded (``config.problem``)."""
    return config.problem


def build_mixing(config: RunConfig):
    """The run's mixing, built when the config loaded (``config.mixing``)."""
    return config.mixing


def topology_mixing(kind: str, n: int, scheme: str = "metropolis_hastings",
                    rows: int | None = None):
    """MixingMatrix for static topologies, or the OnePeerExponential
    schedule for the time-varying pairing scheme."""
    try:
        graph = build_graph(kind, n, **({} if rows is None else {"rows": rows}))
        if scheme not in MIXING_SCHEMES:  # one-peer builds no weights from it
            raise ValueError(
                f"unknown mixing scheme {scheme!r}; expected one of {MIXING_SCHEMES}")
        if graph.time_varying:
            return OnePeerExponential(n)
        return mixing_matrix(graph, scheme=scheme)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _initial_point(init: tuple[float, ...], dim: int) -> np.ndarray:
    if len(init) == 1:
        return np.full(dim, init[0])
    if len(init) != dim:
        raise ConfigError(
            f"problem.init has {len(init)} components but the problem dimension "
            f"is {dim}")
    return np.array(init)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsRecord:
    """One telemetry row, evaluated at the averaged model."""

    step: int
    epoch: float
    lr: float
    loss: float
    grad_norm: float
    consensus_dist: float
    weight_norm: float
    eff_stepsize: float


def _make_record(problem: ProblemSpec | Landscape2D, X: np.ndarray, x_bar: np.ndarray,
                 step: int, lr: float, steps_per_epoch: int) -> MetricsRecord:
    weight_norm = _norm(x_bar)
    eff = lr / weight_norm**2 if weight_norm > 0.0 else float("inf")
    return MetricsRecord(
        step=step,
        epoch=step / steps_per_epoch,
        lr=float(lr),
        loss=problem.mean_loss(x_bar),
        grad_norm=_norm(problem.mean_gradient(x_bar)),
        consensus_dist=consensus_distance(X, x_bar),
        weight_norm=weight_norm,
        eff_stepsize=float(eff),
    )


def metrics_csv_lines(records) -> list[str]:
    """Exact CSV serialization: shortest round-trip float representation,
    independent of how the records were computed."""
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.step),
            repr(float(r.epoch)),
            repr(float(r.lr)),
            repr(float(r.loss)),
            repr(float(r.grad_norm)),
            repr(float(r.consensus_dist)),
            repr(float(r.weight_norm)),
            repr(float(r.eff_stepsize)),
        ]))
    return lines


def write_metrics_csv(records, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(metrics_csv_lines(records)) + "\n")


def heading_change_sum(points) -> float:
    """Oscillation statistic of a 2D trajectory: total absolute turning
    angle between consecutive movement segments.  Straight paths score 0;
    zig-zagging scores ~pi per reversal.

    Segments shorter than 1e-9 times the trajectory's bounding-box diagonal
    are skipped: at that scale a step direction is rounding noise, and a
    converged method sitting at an optimum would otherwise accumulate
    arbitrary turning angle from jitter."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be (T, 2); got shape {pts.shape}")
    deltas = np.diff(pts, axis=0)
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    floor = max(1e-15, 1e-9 * extent)
    deltas = deltas[np.linalg.norm(deltas, axis=1) > floor]
    if len(deltas) < 2:
        return 0.0
    headings = np.arctan2(deltas[:, 1], deltas[:, 0])
    turns = np.diff(headings)
    turns = (turns + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(np.abs(turns)))


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunResult:
    """A run's metrics rows, its final stacked state, the averaged model
    ``X.mean(axis=1)`` after every span (row 0 is the start; a metrics row
    reports the same vector) and the theorem report.  ``==`` is identity:
    the state and trace are arrays, which have no one truth value."""

    records: tuple
    final_state: StackedState
    xbar_trace: np.ndarray
    theorem_report: TheoremReport


def _check_finite(S: StackedState, step: int, method: str, fields: list,
                  verified: dict, x_bar: np.ndarray) -> None:
    """Raise on the first array that holds a non-finite entry, visiting the
    ``(attribute, field name)`` pairs ``fields`` (``S.array_fields()``) in
    order.

    ``verified`` maps each field to the array last found finite there, and
    is updated in place.  An array that is still that same object is
    skipped: the step functions never write into an array.  The map holds
    the arrays themselves, so a skipped one cannot be a new array at a
    reused address.

    A changed array passes when its sum is finite: one NaN or infinity
    makes the sum NaN or infinite, so a finite sum proves every entry
    finite.  Only a non-finite sum (a non-finite entry, or finite entries
    whose sum overflows) pays for the entrywise scan that names the worker.
    ``X`` is summed through its averaged model ``x_bar``: a non-finite
    entry makes its row's sum, so ``x_bar`` and its sum, non-finite.
    """
    for attr, field in fields:
        arr = getattr(S, attr)
        if verified.get(field) is arr:
            continue
        if not math.isfinite(np.add.reduce(x_bar if attr == "X" else arr, axis=None)):
            finite = np.isfinite(arr)
            if not finite.all():
                worker = int(np.argmin(finite.all(axis=0))) if arr.ndim == 2 else None
                raise NumericalDivergence(step, method, field, worker)
        verified[field] = arr


def build_theorem_report(config: RunConfig) -> TheoremReport:
    """The theorem-condition report of a run, checked at its mixing's
    ``rho``: a static matrix's spectral gap, and 1 for the time-varying
    one-peer topology, the product of one sweep of whose ``log2(n)``
    matrices is exactly the averaging matrix ``(1/n) 1 1^T``.  The noise
    level is the problem's ``noise_bound``: for the quadratic family
    E||noise||^2 = dim sigma^2, and the 2-d landscapes' None (noise-free)
    gets no step-size suggestion."""
    mixing = config.mixing
    report = validate_theorem_conditions(
        config.hp, mixing.rho, n_workers=config.n, sigma_sq=config.problem.noise_bound,
        total_steps=config.steps)
    if not isinstance(mixing, OnePeerExponential):
        return report
    return dataclasses.replace(report, message=(
        f"time-varying topology: one sweep of {mixing.sweep} one-peer steps multiplies "
        f"out to exact averaging, so rho = 1 over a sweep; {report.message}"))


def run(config: RunConfig) -> RunResult:
    """Execute one configured run; deterministic given the config.

    Every method advances the stacked state one span at a time: a round of
    ``tau`` steps for slowmo and mimelite, one step for the rest.  Each span
    starts at step ``step0`` and ends at ``end``; its step size is the
    schedule's at ``step0 + 1``, and after it the state is checked for
    divergence, the averaged model is traced, and a metrics row is recorded
    when ``end`` is a multiple of ``metrics_every`` or the last step.
    """
    problem, mixing, kind = config.problem, config.mixing, config.optim_kind

    report = build_theorem_report(config)
    if not report.momentum_ok:
        warnings.warn(report.message)

    grad_fn = functools.partial(sample_all, problem)
    S = StackedState.init(config.x0, config.n)

    records: list[MetricsRecord] = []
    xbar_trace = [_average_model(S.X)]
    verified: dict = {}  # field -> the array last found finite there
    # the arrays S holds: every method adds its history and round buffers
    # in its first span and never drops one, so the set is fixed after it
    fields = None
    hp = config.hp
    span = hp.tau if kind in ROUND_KINDS else 1
    for step0 in range(0, config.steps, span):
        end = step0 + span
        lr = lr_schedule(config.schedule, step0 + 1, config.steps)
        if lr != hp.eta:  # a new stage of the schedule
            hp = dataclasses.replace(config.hp, eta=lr)
        if kind == "slowmo":
            stacked_slowmo_round(S, mixing, hp, config.slowmo_base, grad_fn, step0)
        elif kind == "mimelite":
            stacked_mimelite_round(S, hp, grad_fn, problem.local_gradients, step0)
        else:
            stacked_step(kind, S, mixing.at(step0), hp, end, grad_fn)
        if fields is None:
            fields = S.array_fields()
        x_bar = _average_model(S.X)
        _check_finite(S, end, kind, fields, verified, x_bar)
        xbar_trace.append(x_bar)
        if end % config.metrics_every == 0 or end == config.steps:
            records.append(_make_record(problem, S.X, x_bar, end, lr, config.steps_per_epoch))

    return RunResult(
        records=tuple(records),
        final_state=S,
        xbar_trace=np.stack(xbar_trace, axis=0),
        theorem_report=report,
    )
