"""Command-line front end.

Subcommands
-----------
run         Execute a full training run from an INI config; write metrics CSV.
validate    Parse a config and print the momentum/step-size feasibility report.
consensus   Gradient-free averaging experiment: gossip vs the buffered recursion.
toy2d       Two-worker heterogeneous 2-D study with per-step uniform averaging.
trajectory  Single-worker 2-D optimizer traces on deterministic test functions.
partition   Dirichlet label partition; per-client class-count table.
topo        Print a static mixing matrix and its spectral-gap value.

Config-style flags (``--section.key value``) override file values one-to-one;
unknown flags are rejected. Exit codes: 0 success, 1 configuration error,
2 numerical divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .consensus import _recursion_params, gossip_consensus, iterations_to_threshold, qg_consensus
from .engine import (
    ConfigError,
    NumericalDivergence,
    RunConfig,
    build_theorem_report,
    heading_change_sum,
    run,
    topology_mixing,
    write_metrics_csv,
)
from .heterogeneity import _check_split, dirichlet_partition, partition_stats
from .topology import OnePeerExponential

TRAJECTORY_PROBLEMS = ("rosenbrock", "nonconvex_toy")
TOY2D_KINDS = ("dsgd", "dsgdm", "qg_dsgdm")
_SCHEME_ALIASES = {
    "mh": "metropolis_hastings",
    "metropolis_hastings": "metropolis_hastings",
    "uniform": "uniform_neighbor",
    "uniform_neighbor": "uniform_neighbor",
}
# engine optimizer implementing each single-worker trajectory method
_TRAJECTORY_MAP = {
    "sgdm": "dsgdm",
    "s_qg_dsgdm": "qg_dsgdm",
    "sgdm_n": "dsgdm_n",
    "qhm": "qhm",
}
TRAJECTORY_KINDS = tuple(_TRAJECTORY_MAP)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value) -> str:
    return repr(float(value))


def _write_lines(path, lines, what):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{what} written to {path}")


def _write_traces(path, traces, what):
    """Write ``{kind: (T, 2) trace}`` as one ``kind_x,kind_y`` column pair per
    kind and one row per step."""
    lines = ["step," + ",".join(f"{k}_x,{k}_y" for k in traces)]
    # a row's tolist() gives Python floats, whose repr is _fmt's text for
    # each entry; one row at a time keeps no second copy of the traces
    for t, row in enumerate(np.hstack(list(traces.values()))):
        lines.append(f"{t}," + ",".join(map(repr, row.tolist())))
    _write_lines(path, lines, what)


def _scheme(name):
    scheme = _SCHEME_ALIASES.get(name)
    if scheme is None:
        raise ConfigError(f"unknown scheme {name!r}")
    return scheme


def _emit_plot_script(csv_path):
    """Write a generic companion script that plots every column of the CSV."""
    script_path = csv_path + ".plot.py"
    script = '''"""Plot every numeric column of {csv} against its first column."""
import csv

import matplotlib.pyplot as plt

with open({csv!r}, newline="") as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], rows[1:]
cols = {{name: [float(r[i]) for r in data] for i, name in enumerate(header)}}
x_name = header[0]
for name in header[1:]:
    plt.plot(cols[x_name], cols[name], label=name)
plt.xlabel(x_name)
plt.legend()
plt.tight_layout()
plt.savefig({csv!r} + ".png", dpi=150)
print("wrote", {csv!r} + ".png")
'''.format(csv=csv_path)
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(script)
    print(f"plot script written to {script_path}")


def _collect_overrides(rest):
    """Turn trailing ``--section.key value`` tokens into an override dict."""
    overrides = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        if not (token.startswith("--") and "." in token):
            raise ConfigError(f"unknown flag {token!r}")
        key = token[2:]
        section, _, field = key.partition(".")
        if not section or not field:
            raise ConfigError(f"unknown flag {token!r}")
        if i + 1 >= len(rest):
            raise ConfigError(f"flag --{key} expects a value")
        overrides[key] = rest[i + 1]
        i += 2
    return overrides


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _check_writable(path):
    """Raise the ``OSError`` that writing ``path`` would, before a long run
    is spent on it; leaves no file that was not there before."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def cmd_run(args, overrides):
    config = RunConfig.from_ini(args.config, overrides=overrides)
    _check_writable(args.out)
    result = run(config)
    write_metrics_csv(result.records, args.out)
    last = result.records[-1]
    print(f"metrics written to {args.out} ({len(result.records)} rows)")
    print(f"final_loss={_fmt(last.loss)} final_consensus_dist="
          f"{_fmt(last.consensus_dist)}")


def cmd_validate(args, overrides):
    config = RunConfig.from_ini(args.config, overrides=overrides)
    report = build_theorem_report(config)
    print(report.message)
    if report.suggested_eta is not None:
        print(f"suggested_eta={_fmt(report.suggested_eta)}")


def cmd_consensus(args):
    scheme = _scheme(args.scheme)
    if args.dim < 1:
        raise ConfigError(f"consensus --dim must be >= 1; got {args.dim}")
    Wm = topology_mixing(args.topology, args.n, scheme)
    _recursion_params(args.beta, args.mu, args.T)
    _check_writable(args.out)
    X0 = np.random.default_rng(args.seed).standard_normal((args.dim, args.n))
    plain = gossip_consensus(X0, Wm, args.T)
    buffered = qg_consensus(X0, Wm, args.beta, args.mu, args.T)
    lines = ["iter,dist_gossip,dist_qg,mean_drift_qg"]
    columns = zip(plain.trace.tolist(), buffered.trace.tolist(), buffered.mean_drift.tolist())
    for t, (dist, dist_qg, drift) in enumerate(columns):
        lines.append(f"{t},{dist!r},{dist_qg!r},{drift!r}")
    _write_lines(args.out, lines, "consensus trace")
    for label, run_ in (("gossip", plain), ("qg", buffered)):
        try:
            hit = iterations_to_threshold(run_, 1e-2)
            print(f"iterations_to_1e-2_{label}={hit}")
        except ValueError:
            print(f"iterations_to_1e-2_{label}=not_reached")


def _trace_config(args, problem, kind, init, n, seed):
    """The config of one ``args.steps``-step noise-free run of ``kind`` at
    ``args.eta``, ``args.beta`` and ``args.mu`` on a complete graph."""
    mapping = {
        "problem": {"kind": problem, "dim": "2", "sigma": "0.0", "init": init},
        "topology": {"kind": "complete", "n": str(n)},
        "optim": {"kind": kind, "eta": repr(float(args.eta)),
                  "beta": repr(float(args.beta))},
        "run": {"steps": str(args.steps), "seed": str(seed),
                "metrics_every": str(max(args.steps, 1))},
    }
    if args.mu is not None:
        mapping["optim"]["mu"] = repr(float(args.mu))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return RunConfig.from_mapping(mapping)


def _traces(configs):
    """``{kind: averaged-model trace}`` of the ``{kind: config}`` runs."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {kind: run(config).xbar_trace for kind, config in configs.items()}


def cmd_trajectory(args):
    kinds = tuple(k for k in args.kinds.split(",") if k)
    if args.problem not in TRAJECTORY_PROBLEMS:
        raise ConfigError(f"trajectory problem must be one of "
                          f"{TRAJECTORY_PROBLEMS}, got {args.problem!r}")
    if not kinds:
        raise ConfigError(f"trajectory needs at least one kind of {TRAJECTORY_KINDS}")
    for kind in kinds:
        if kind not in TRAJECTORY_KINDS:
            raise ConfigError(f"trajectory kind must be one of "
                              f"{TRAJECTORY_KINDS}, got {kind!r}")
    configs = {k: _trace_config(args, args.problem, _TRAJECTORY_MAP[k], args.init,
                                n=1, seed=0) for k in kinds}
    _check_writable(args.out)
    traces = _traces(configs)
    _write_traces(args.out, traces, "trajectories")
    for k in kinds:
        end = traces[k][-1]
        print(f"kind={k} final=({_fmt(end[0])},{_fmt(end[1])}) "
              f"heading_sum={_fmt(heading_change_sum(traces[k]))}")


def cmd_toy2d(args):
    configs = {kind: _trace_config(args, "toy2d", kind, "0.0", n=2, seed=args.seed)
               for kind in TOY2D_KINDS}
    _check_writable(args.out)
    traces = _traces(configs)
    _write_traces(args.out, traces, "averaged-model traces")
    for kind in TOY2D_KINDS:
        print(f"kind={kind} heading_sum="
              f"{_fmt(heading_change_sum(traces[kind]))}")


def cmd_partition(args):
    if not 1 <= args.classes <= args.samples:
        raise ConfigError("partition needs 1 <= classes <= samples; got "
                          f"classes ({args.classes}), samples ({args.samples})")
    _check_split(args.n, args.alpha)
    _check_writable(args.out)
    labels = np.arange(args.samples) % args.classes
    part = dirichlet_partition(labels, args.n, args.alpha, args.seed)
    counts = partition_stats(part, labels)
    lines = ["client,class,count"]
    for client in range(args.n):
        for cls in range(args.classes):
            lines.append(f"{client},{cls},{int(counts[client, cls])}")
    _write_lines(args.out, lines, "partition table")


def cmd_topo(args):
    Wm = topology_mixing(args.kind, args.n, _scheme(args.scheme), args.rows)
    if isinstance(Wm, OnePeerExponential):
        raise ConfigError(f"topo prints static matrices only; {args.kind} pairs workers "
                          "anew at every step (use it with run or consensus)")
    lines = [",".join(_fmt(v) for v in row) for row in Wm.weights]
    if args.out:
        _write_lines(args.out, lines, "mixing matrix")
    else:
        for line in lines:
            print(line)
    print(f"rho,{_fmt(Wm.rho)}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="qgm-sim", allow_abbrev=False,
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", allow_abbrev=False,
                           help="execute a training run from a config file")
    p_run.set_defaults(cmd=cmd_run)
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="metrics.csv")
    p_run.add_argument("--plot-script", action="store_true")

    p_val = sub.add_parser("validate", allow_abbrev=False,
                           help="print the momentum/step-size feasibility report")
    p_val.set_defaults(cmd=cmd_validate)
    p_val.add_argument("--config", required=True)

    p_con = sub.add_parser("consensus", allow_abbrev=False,
                           help="gossip vs buffered-momentum averaging")
    p_con.set_defaults(cmd=cmd_consensus)
    p_con.add_argument("--topology", default="ring")
    p_con.add_argument("--n", type=int, default=16)
    p_con.add_argument("--scheme", default="metropolis_hastings")
    p_con.add_argument("--dim", type=int, default=8)
    p_con.add_argument("--beta", type=float, default=0.9)
    p_con.add_argument("--mu", type=float, default=0.9)
    p_con.add_argument("--T", type=int, default=2000)
    p_con.add_argument("--seed", type=int, default=7)
    p_con.add_argument("--out", default="consensus.csv")
    p_con.add_argument("--plot-script", action="store_true")

    p_toy = sub.add_parser("toy2d", allow_abbrev=False,
                           help="two-worker heterogeneous 2-D study")
    p_toy.set_defaults(cmd=cmd_toy2d)
    p_toy.add_argument("--eta", type=float, default=0.05)
    p_toy.add_argument("--beta", type=float, default=0.9)
    p_toy.add_argument("--mu", type=float, default=None)
    p_toy.add_argument("--steps", type=int, default=60)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--out", default="toy2d.csv")
    p_toy.add_argument("--plot-script", action="store_true")

    p_traj = sub.add_parser("trajectory", allow_abbrev=False,
                            help="single-worker traces on 2-D test functions")
    p_traj.set_defaults(cmd=cmd_trajectory)
    p_traj.add_argument("--problem", default="rosenbrock")
    p_traj.add_argument("--kinds", default="sgdm,s_qg_dsgdm")
    p_traj.add_argument("--eta", type=float, default=0.001)
    p_traj.add_argument("--beta", type=float, default=0.9)
    p_traj.add_argument("--mu", type=float, default=None)
    p_traj.add_argument("--steps", type=int, default=10000)
    p_traj.add_argument("--init", default="0.0,0.0")
    p_traj.add_argument("--out", default="trajectory.csv")
    p_traj.add_argument("--plot-script", action="store_true")

    p_part = sub.add_parser("partition", allow_abbrev=False,
                            help="Dirichlet label partition statistics")
    p_part.set_defaults(cmd=cmd_partition)
    p_part.add_argument("--samples", type=int, default=1000)
    p_part.add_argument("--classes", type=int, default=10)
    p_part.add_argument("--n", type=int, default=16)
    p_part.add_argument("--alpha", type=float, default=0.1)
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument("--out", default="partition.csv")

    p_topo = sub.add_parser("topo", allow_abbrev=False,
                            help="print a mixing matrix and its spectral gap")
    p_topo.set_defaults(cmd=cmd_topo)
    p_topo.add_argument("--kind", default="ring")
    p_topo.add_argument("--n", type=int, default=16)
    p_topo.add_argument("--scheme", default="metropolis_hastings")
    p_topo.add_argument("--rows", type=int, default=None)
    p_topo.add_argument("--out", default=None)

    return parser


def _dispatch(args, rest):
    if args.command in ("run", "validate"):
        args.cmd(args, _collect_overrides(rest))
    elif rest:
        raise ConfigError(f"unknown flag {rest[0]!r}")
    else:
        args.cmd(args)
    if getattr(args, "plot_script", False):
        _emit_plot_script(args.out)
    return 0


def main(argv=None):
    # built per call, so each subcommand binds the module's cmd_* as it is now
    args, rest = _build_parser().parse_known_args(argv)
    try:
        return _dispatch(args, rest)
    except NumericalDivergence as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output file that cannot be written
        print(f"config error: cannot write {exc.filename!r}: {exc.strerror}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
