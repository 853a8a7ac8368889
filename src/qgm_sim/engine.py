"""Run orchestration: configuration, learning-rate schedules, hypothesis
validation, the training loop, and per-step telemetry.

A run is described by a flat sectioned config (``[problem]``, ``[topology]``,
``[optim]``, ``[schedule]``, ``[run]``) loaded into a :class:`RunConfig`.
Loading builds and validates, once, everything a run reads: the problem, the
read-only start point, the mixing (a matrix, or the one-peer ``t -> matrix``),
the :class:`~qgm_sim.optim.HyperParams` and the :class:`ScheduleSpec`.  A
config that loads is a run that can start, and :func:`run` builds nothing.
The loop holds the whole run as one :class:`~qgm_sim.optim.StackedState`
(every buffer a ``(dim, n)`` array, one column per worker), samples every
worker's gradient in one :func:`~qgm_sim.oracles.sample_all` call per
evaluation (noise deterministically keyed by (worker, step)), applies the
configured step rule to the stacked state, and records metrics evaluated at
the averaged model.  Nothing depends on evaluation order, so metrics are
byte-identical across reruns.  The ``run.threads`` key is accepted and
ignored: the loop is single-threaded, because a thread pool around the
per-worker oracle calls made runs slower.

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .consensus import consensus_distance
from .oracles import ProblemSpec, quadratic_family, sample_all
from .optim import (
    HALF_STEP_KINDS,
    ROUND_KINDS,
    STEP_KINDS,
    HyperParams,
    StackedState,
    mixing_weights,
    stacked_gt_init,
    stacked_mimelite_round,
    stacked_slowmo_round,
    stacked_step,
)
from .topology import (
    MIXING_SCHEMES,
    MixingMatrix,
    build_graph,
    mixing_matrix,
    one_peer_exponential_matrix,
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

    ``field`` names the buffer (a :class:`~qgm_sim.optim.WorkerState` field,
    or ``server_s``, mimelite's server momentum) and ``worker`` the first
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

# section -> key -> (parser, default); None default marks a required key
_SCHEMA = {
    "problem": {
        "kind": (str, "quadratic"),
        "dim": (int, 16),
        "zeta": (float, 0.0),
        "sigma": (float, 0.0),
        "cond": (float, 1.0),
        "b_scale": (float, 1.0),
        "scale": (float, 1.0),
        "init": (str, "0.0"),
    },
    "topology": {
        "kind": (str, "ring"),
        "n": (int, 4),
        "scheme": (str, "metropolis_hastings"),
        "rows": (str, ""),
    },
    "optim": {
        "kind": (str, None),
        "eta": (float, 0.1),
        "beta": (float, 0.9),
        "mu": (str, ""),
        "beta1": (float, 0.9),
        "beta2": (float, 0.99),
        "epsilon": (float, 1e-8),
        "tau": (int, 1),
        "slowmo_alpha": (float, 1.0),
        "slowmo_beta": (float, 0.7),
        "slowmo_base": (str, "dsgdm"),
    },
    "schedule": {
        "kind": (str, "constant"),
        "warmup_fraction": (float, 0.05),
        "warmup_start_factor": (float, 0.1),
        "milestones": (str, "0.5,0.75"),
        "decay_factor": (float, 10.0),
    },
    "run": {
        "steps": (int, 100),
        "seed": (int, 0),
        "steps_per_epoch": (int, 50),
        "metrics_every": (int, 1),
        "threads": (int, 1),
    },
}


def _parse_value(section: str, key: str, raw: str):
    parser, _default = _SCHEMA[section][key]
    try:
        return parser(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key}: cannot parse {raw!r} as {parser.__name__}") from None


@dataclass(frozen=True)
class RunConfig:
    """A loaded run, built and validated once; see ``_SCHEMA`` for keys.

    ``problem`` is the run's ProblemSpec, ``x0`` its read-only start point,
    ``mixing`` its MixingMatrix (the one-peer topology's ``t -> MixingMatrix``),
    ``hp`` the ``[optim]`` step parameters and ``schedule`` the
    ``[schedule]`` section with ``optim.eta`` as its base step size.
    """

    problem: ProblemSpec
    x0: np.ndarray
    mixing: MixingMatrix | Callable[[int], MixingMatrix]
    n: int
    optim_kind: str
    hp: HyperParams
    slowmo_base: str
    schedule: ScheduleSpec
    steps: int
    steps_per_epoch: int
    metrics_every: int
    threads: int

    @staticmethod
    def from_mapping(mapping: dict, overrides: dict | None = None) -> "RunConfig":
        """Build from {section: {key: str-or-value}} plus dotted overrides.

        Unknown sections/keys are rejected by name; ``optim.kind`` is the
        one required field.  The problem, start point and mixing are built
        here, so a config that loads is a run that can start.
        """
        values: dict[str, dict] = {s: {} for s in _SCHEMA}

        def _set(section, key, raw):
            if key not in _SCHEMA.get(section, ()):
                raise ConfigError(f"unknown config key {section}.{key}")
            values[section][key] = (
                _parse_value(section, key, raw) if isinstance(raw, str) else raw)

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
        for section, keys in _SCHEMA.items():
            for key, (_parser, default) in keys.items():
                if key not in values[section]:
                    if default is None:
                        raise ConfigError(f"missing required field {section}.{key}")
                    values[section][key] = default

        for section, keys in _SCHEMA.items():
            for key, (parser, _default) in keys.items():
                if parser is float and not math.isfinite(values[section][key]):
                    raise ConfigError(
                        f"{section}.{key} must be finite; got {values[section][key]}")

        p, t, o, s, r = (values["problem"], values["topology"], values["optim"],
                         values["schedule"], values["run"])

        def _optional(section, key, parser):
            raw = str(values[section][key]).strip()
            if not raw:
                return None
            try:
                return parser(raw)
            except ValueError:
                raise ConfigError(
                    f"{section}.{key}: cannot parse {raw!r} as {parser.__name__}"
                ) from None

        try:  # constructing these validates their parameter ranges
            schedule = ScheduleSpec(
                kind=s["kind"], base_eta=o["eta"], warmup_fraction=s["warmup_fraction"],
                warmup_start_factor=s["warmup_start_factor"],
                milestones=_parse_milestones(s["milestones"]),
                decay_factor=s["decay_factor"])
            hp = HyperParams(
                eta=o["eta"], beta=o["beta"], mu=_optional("optim", "mu", float),
                beta1=o["beta1"], beta2=o["beta2"], epsilon=o["epsilon"],
                tau=o["tau"], slowmo_alpha=o["slowmo_alpha"],
                slowmo_beta=o["slowmo_beta"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        rows = _optional("topology", "rows", int)

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
        for name, value in (("steps", r["steps"]), ("steps_per_epoch", r["steps_per_epoch"]),
                            ("metrics_every", r["metrics_every"]),
                            ("threads", r["threads"]), ("n", t["n"]), ("dim", p["dim"])):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1; got {value}")
        if r["seed"] < 0:  # SeedSequence takes non-negative entropy only
            raise ConfigError(f"run.seed must be >= 0; got {r['seed']}")
        if o["kind"] == "qhm" and t["n"] != 1:
            raise ConfigError("optim.kind qhm is the single-worker closed form; "
                              f"requires topology.n = 1, got {t['n']}")
        if o["kind"] in ROUND_KINDS and r["steps"] % hp.tau != 0:
            raise ConfigError(
                f"run.steps ({r['steps']}) must be a multiple of optim.tau "
                f"({hp.tau}) for round-structured methods")
        for key, (reader, why) in _FAMILY_KEYS.items():
            if kind != reader and p[key] != _SCHEMA["problem"][key][1]:
                raise ConfigError(
                    f"problem.{key} is not read by {p['kind']} ({why}); got {p[key]}")

        try:
            problem = (quadratic_family(
                dim=p["dim"], n_workers=t["n"], zeta_c=p["zeta"], sigma_c=p["sigma"],
                cond=p["cond"], b_scale=p["b_scale"], master_seed=r["seed"])
                if kind == "quadratic_family" else
                ProblemSpec(kind=kind, dim=2, n_workers=t["n"], grad_scale=p["scale"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        mixing = topology_mixing(t["kind"], t["n"], t["scheme"], rows)
        x0 = _initial_point(str(p["init"]), problem.dim)
        x0.flags.writeable = False
        return RunConfig(
            problem=problem, x0=x0, mixing=mixing, n=t["n"],
            optim_kind=o["kind"], hp=hp, slowmo_base=o["slowmo_base"],
            schedule=schedule, steps=r["steps"], steps_per_epoch=r["steps_per_epoch"],
            metrics_every=r["metrics_every"], threads=r["threads"])

    @staticmethod
    def from_ini(path: str, overrides: dict | None = None) -> "RunConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        mapping = {section: dict(parser[section]) for section in parser.sections()}
        return RunConfig.from_mapping(mapping, overrides)


def _parse_milestones(raw) -> tuple[float, ...]:
    if isinstance(raw, tuple):
        return raw
    text = str(raw).strip()
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(
            f"schedule.milestones: cannot parse {raw!r} as comma-separated floats"
        ) from None


# ---------------------------------------------------------------------------
# problem / topology construction
# ---------------------------------------------------------------------------

def build_problem(config: RunConfig) -> ProblemSpec:
    """The run's problem, built when the config loaded (``config.problem``)."""
    return config.problem


def build_mixing(config: RunConfig):
    """The run's mixing, built when the config loaded (``config.mixing``)."""
    return config.mixing


def topology_mixing(kind: str, n: int, scheme: str = "metropolis_hastings",
                    rows: int | None = None):
    """MixingMatrix for static topologies, or a ``t -> MixingMatrix``
    generator for the time-varying pairing scheme."""
    try:
        graph = build_graph(kind, n, **({} if rows is None else {"rows": rows}))
        if scheme not in MIXING_SCHEMES:  # one-peer builds no weights from it
            raise ValueError(
                f"unknown mixing scheme {scheme!r}; expected one of {MIXING_SCHEMES}")
        if graph.time_varying:
            # the name is looked up at each step, so a wrapper put on it after
            # the config loaded (the benchmark's tracer) still sees every call
            return lambda t: one_peer_exponential_matrix(n, t)
        return mixing_matrix(graph, scheme=scheme)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _initial_point(init: str, dim: int) -> np.ndarray:
    parts = [p for p in init.split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts] if parts else [0.0]
    except ValueError:
        raise ConfigError(
            f"problem.init: cannot parse {init!r} as floats") from None
    if len(vals) == 1:
        return np.full(dim, vals[0])
    if len(vals) != dim:
        raise ConfigError(
            f"problem.init has {len(vals)} components but the problem dimension "
            f"is {dim}")
    return np.array(vals)


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


def _make_record(problem: ProblemSpec, X: np.ndarray, x_bar: np.ndarray, step: int,
                 lr: float, steps_per_epoch: int) -> MetricsRecord:
    weight_norm = float(np.linalg.norm(x_bar))
    eff = lr / weight_norm**2 if weight_norm > 0.0 else float("inf")
    return MetricsRecord(
        step=step,
        epoch=step / steps_per_epoch,
        lr=float(lr),
        loss=problem.mean_loss(x_bar),
        grad_norm=float(np.linalg.norm(problem.mean_gradient(x_bar))),
        consensus_dist=consensus_distance(X),
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

@dataclass(frozen=True)
class RunResult:
    """A run's metrics rows, its final stacked state, the averaged model
    ``X.mean(axis=1)`` after every span (row 0 is the start; a metrics row
    reports the same vector) and the theorem report."""

    records: tuple
    final_state: StackedState
    xbar_trace: np.ndarray
    theorem_report: TheoremReport


def _check_finite(S: StackedState, step: int, method: str) -> None:
    """Raise on the first array (in ``S.named_arrays()`` order) that holds a
    non-finite entry."""
    for field, arr in S.named_arrays():
        finite = np.isfinite(arr)
        if not finite.all():
            worker = int(np.argmin(finite.all(axis=0))) if arr.ndim == 2 else None
            raise NumericalDivergence(step, method, field, worker)


def build_theorem_report(config: RunConfig) -> TheoremReport:
    """The theorem-condition report of a run.  A static topology is checked
    at its matrix's ``rho``.  A time-varying one-peer topology is checked at
    ``rho = 1``: the product of one sweep of its ``log2(n)`` matrices is
    exactly the averaging matrix ``(1/n) 1 1^T``.  The noise level is the
    quadratic family's ``noise_bound`` (E||noise||^2 = dim sigma^2); other
    problems are noise-free and get no step-size suggestion."""
    problem, mixing = config.problem, config.mixing
    report = validate_theorem_conditions(
        config.hp, 1.0 if callable(mixing) else mixing.rho, n_workers=config.n,
        sigma_sq=problem.noise_bound if problem.kind == "quadratic_family" else None,
        total_steps=config.steps)
    if not callable(mixing):
        return report
    sweep = max(1, config.n.bit_length() - 1)
    return dataclasses.replace(report, message=(
        f"time-varying topology: one sweep of {sweep} one-peer steps multiplies "
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
    if kind in ("gt", "gt_momentum"):
        stacked_gt_init(S, grad_fn, step=0)

    records: list[MetricsRecord] = []
    xbar_trace = [S.X.mean(axis=1)]
    span = config.hp.tau if kind in ROUND_KINDS else 1
    for step0 in range(0, config.steps, span):
        end = step0 + span
        lr = lr_schedule(config.schedule, step0 + 1, config.steps)
        hp = dataclasses.replace(config.hp, eta=lr)
        if kind == "slowmo":
            stacked_slowmo_round(S, mixing, hp, config.slowmo_base, grad_fn, step0)
        elif kind == "mimelite":
            stacked_mimelite_round(S, hp, grad_fn, problem.local_gradients, step0)
        else:
            stacked_step(kind, S, mixing_weights(mixing, step0), hp, end, grad_fn)
        _check_finite(S, end, kind)
        x_bar = S.X.mean(axis=1)
        xbar_trace.append(x_bar)
        if end % config.metrics_every == 0 or end == config.steps:
            records.append(_make_record(problem, S.X, x_bar, end, lr, config.steps_per_epoch))

    return RunResult(
        records=tuple(records),
        final_state=S,
        xbar_trace=np.stack(xbar_trace, axis=0),
        theorem_report=report,
    )
