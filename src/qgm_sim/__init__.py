"""Deterministic simulator for decentralized optimization with quasi-global
momentum.

The package is organized by concern; everything below is importable from the
top level as well:

* :mod:`qgm_sim.topology` — communication graphs and doubly stochastic
  mixing matrices (ring, torus, star, complete, a fixed 32-node social
  graph), the time-varying one-peer exponential schedule (which holds no
  matrix), spectral gaps.
* :mod:`qgm_sim.heterogeneity` — Dirichlet label partitioning across
  workers and per-worker class-count statistics.
* :mod:`qgm_sim.oracles` — the noisy quadratic family (``ProblemSpec``,
  noise counter-based per worker and step) and noise-free 2-d landscapes
  (``Landscape2D``) behind one protocol, every worker sampled in one call
  (``sample_all``).
* :mod:`qgm_sim.optim` — one stacked ``(dim, n)`` state and the update
  rules over it, the only optimizer API: decentralized SGD with and
  without momentum, the quasi-global momentum family, double-averaging
  momentum, difference-correction methods, gradient tracking, an adaptive
  variant, and round-structured methods (slow outer momentum,
  server-momentum-style rounds).
* :mod:`qgm_sim.consensus` — pure averaging experiments: plain gossip vs
  the momentum-buffered recursion, distance traces, hitting times.
* :mod:`qgm_sim.engine` — config-driven deterministic runs with metrics
  (CSV byte-stable across reruns), a ``RunConfig`` holding the run built
  once at load (problem, start point, mixing, ``HyperParams``,
  ``ScheduleSpec``), learning-rate schedules, and a step-size/momentum
  condition report.
* :mod:`qgm_sim.cli` — ``qgm-sim`` command-line front end over all of the
  above.
"""

from .consensus import (
    ConsensusRun,
    consensus_distance,
    gossip_consensus,
    iterations_to_threshold,
    qg_consensus,
)
from .engine import (
    ConfigError,
    MetricsRecord,
    NumericalDivergence,
    RunConfig,
    RunResult,
    ScheduleSpec,
    TheoremReport,
    heading_change_sum,
    lr_schedule,
    metrics_csv_lines,
    run,
    validate_theorem_conditions,
    write_metrics_csv,
)
from .heterogeneity import dirichlet_partition, partition_stats
from .optim import (
    HyperParams,
    StackedState,
    WorkerState,
    stacked_mimelite_round,
    stacked_slowmo_round,
    stacked_step,
)
from .oracles import (
    GradientSample,
    Landscape2D,
    ProblemSpec,
    nonconvex_toy_gradient,
    quadratic_family,
    rosenbrock_gradient,
    sample_all,
    toy2d_gradient,
)
from .topology import (
    Graph,
    MixingMatrix,
    OnePeerExponential,
    build_graph,
    mixing_matrix,
    spectral_gap,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConsensusRun",
    "Graph",
    "GradientSample",
    "HyperParams",
    "Landscape2D",
    "MetricsRecord",
    "MixingMatrix",
    "NumericalDivergence",
    "OnePeerExponential",
    "ProblemSpec",
    "RunConfig",
    "RunResult",
    "ScheduleSpec",
    "StackedState",
    "TheoremReport",
    "WorkerState",
    "build_graph",
    "consensus_distance",
    "dirichlet_partition",
    "gossip_consensus",
    "heading_change_sum",
    "iterations_to_threshold",
    "lr_schedule",
    "metrics_csv_lines",
    "mixing_matrix",
    "nonconvex_toy_gradient",
    "partition_stats",
    "qg_consensus",
    "quadratic_family",
    "rosenbrock_gradient",
    "run",
    "sample_all",
    "spectral_gap",
    "stacked_mimelite_round",
    "stacked_slowmo_round",
    "stacked_step",
    "toy2d_gradient",
    "validate_theorem_conditions",
    "write_metrics_csv",
    "__version__",
]
