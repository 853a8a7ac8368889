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
import sys
import warnings

import numpy as np

from .consensus import gossip_consensus, iterations_to_threshold, qg_consensus
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
from .heterogeneity import dirichlet_partition, partition_stats

TRAJECTORY_KINDS = ("sgdm", "s_qg_dsgdm", "sgdm_n", "qhm")
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


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value) -> str:
    return repr(float(value))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_traces(path, traces):
    """Write ``{kind: (T, 2) trace}`` as one ``kind_x,kind_y`` column pair per
    kind and one row per step."""
    lines = ["step," + ",".join(f"{k}_x,{k}_y" for k in traces)]
    for t, points in enumerate(zip(*traces.values())):
        lines.append(",".join([str(t)] + [_fmt(v) for point in points for v in point]))
    _write_lines(path, lines)


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

def cmd_run(config_path, overrides, out="metrics.csv", plot_script=False):
    config = RunConfig.from_ini(config_path, overrides=overrides)
    result = run(config)
    write_metrics_csv(result.records, out)
    last = result.records[-1]
    print(f"metrics written to {out} ({len(result.records)} rows)")
    print(f"final_loss={_fmt(last.loss)} final_consensus_dist="
          f"{_fmt(last.consensus_dist)}")
    if plot_script:
        _emit_plot_script(out)
    return 0


def cmd_validate(config_path, overrides):
    config = RunConfig.from_ini(config_path, overrides=overrides)
    report = build_theorem_report(config)
    print(report.message)
    if report.suggested_eta is not None:
        print(f"suggested_eta={_fmt(report.suggested_eta)}")
    return 0


def cmd_consensus(topology, n, beta, mu, T, seed, out, scheme="metropolis_hastings",
                  dim=8, plot_script=False):
    if dim < 1:
        raise ConfigError(f"consensus --dim must be >= 1; got {dim}")
    Wm = topology_mixing(topology, n, scheme)
    X0 = np.random.default_rng(seed).standard_normal((dim, n))
    plain = gossip_consensus(X0, Wm, T)
    buffered = qg_consensus(X0, Wm, beta, mu, T)
    lines = ["iter,dist_gossip,dist_qg,mean_drift_qg"]
    for t in range(T + 1):
        lines.append(f"{t},{_fmt(plain.trace[t])},{_fmt(buffered.trace[t])},"
                     f"{_fmt(buffered.mean_drift[t])}")
    _write_lines(out, lines)
    print(f"consensus trace written to {out}")
    for label, run_ in (("gossip", plain), ("qg", buffered)):
        try:
            hit = iterations_to_threshold(run_, 1e-2)
            print(f"iterations_to_1e-2_{label}={hit}")
        except ValueError:
            print(f"iterations_to_1e-2_{label}=not_reached")
    if plot_script:
        _emit_plot_script(out)
    return 0


def _trace_via_engine(problem, kind, eta, beta, mu, steps, init, n=1,
                      topology="complete", seed=0):
    mapping = {
        "problem": {"kind": problem, "dim": "2", "sigma": "0.0", "init": init},
        "topology": {"kind": topology, "n": str(n)},
        "optim": {"kind": kind, "eta": repr(float(eta)), "beta": repr(float(beta))},
        "run": {"steps": str(steps), "seed": str(seed),
                "metrics_every": str(max(steps, 1))},
    }
    if mu is not None:
        mapping["optim"]["mu"] = repr(float(mu))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(RunConfig.from_mapping(mapping)).xbar_trace


def cmd_trajectory(problem, kinds, eta, beta, mu, steps, init, out,
                   plot_script=False):
    if problem not in TRAJECTORY_PROBLEMS:
        raise ConfigError(f"trajectory problem must be one of "
                          f"{TRAJECTORY_PROBLEMS}, got {problem!r}")
    if not kinds:
        raise ConfigError(f"trajectory needs at least one kind of {TRAJECTORY_KINDS}")
    for kind in kinds:
        if kind not in TRAJECTORY_KINDS:
            raise ConfigError(f"trajectory kind must be one of "
                              f"{TRAJECTORY_KINDS}, got {kind!r}")
    traces = {k: _trace_via_engine(problem, _TRAJECTORY_MAP[k], eta, beta, mu,
                                   steps, init) for k in kinds}
    _write_traces(out, traces)
    print(f"trajectories written to {out}")
    for k in kinds:
        end = traces[k][-1]
        print(f"kind={k} final=({_fmt(end[0])},{_fmt(end[1])}) "
              f"heading_sum={_fmt(heading_change_sum(traces[k]))}")
    if plot_script:
        _emit_plot_script(out)
    return 0


def cmd_toy2d(eta, beta, mu, steps, seed, out, plot_script=False):
    traces = {kind: _trace_via_engine("toy2d", kind, eta, beta, mu, steps, init="0.0",
                                      n=2, topology="complete", seed=seed)
              for kind in TOY2D_KINDS}
    _write_traces(out, traces)
    print(f"averaged-model traces written to {out}")
    for kind in TOY2D_KINDS:
        print(f"kind={kind} heading_sum="
              f"{_fmt(heading_change_sum(traces[kind]))}")
    if plot_script:
        _emit_plot_script(out)
    return 0


def cmd_partition(samples, classes, n, alpha, seed, out):
    if not 1 <= classes <= samples:
        raise ConfigError("partition needs 1 <= classes <= samples; got "
                          f"classes ({classes}), samples ({samples})")
    labels = np.arange(samples) % classes
    part = dirichlet_partition(labels, n, alpha, seed)
    counts = partition_stats(part, labels)
    lines = ["client,class,count"]
    for client in range(n):
        for cls in range(classes):
            lines.append(f"{client},{cls},{int(counts[client, cls])}")
    _write_lines(out, lines)
    print(f"partition table written to {out}")
    return 0


def cmd_topo(kind, n, scheme, rows=None, out=None):
    Wm = topology_mixing(kind, n, scheme, rows)
    if callable(Wm):
        raise ConfigError(f"topo prints static matrices only; {kind} pairs workers "
                          "anew at every step (use it with run or consensus)")
    lines = [",".join(_fmt(v) for v in row) for row in Wm.weights]
    if out:
        _write_lines(out, lines)
        print(f"mixing matrix written to {out}")
    else:
        for line in lines:
            print(line)
    print(f"rho,{_fmt(Wm.rho)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="qgm-sim", allow_abbrev=False,
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", allow_abbrev=False,
                           help="execute a training run from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="metrics.csv")
    p_run.add_argument("--threads", type=int, default=None,
                       help="shorthand for --run.threads; accepted and ignored "
                            "(runs are single-threaded)")
    p_run.add_argument("--plot-script", action="store_true")

    p_val = sub.add_parser("validate", allow_abbrev=False,
                           help="print the momentum/step-size feasibility report")
    p_val.add_argument("--config", required=True)

    p_con = sub.add_parser("consensus", allow_abbrev=False,
                           help="gossip vs buffered-momentum averaging")
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
    p_toy.add_argument("--eta", type=float, default=0.05)
    p_toy.add_argument("--beta", type=float, default=0.9)
    p_toy.add_argument("--mu", type=float, default=None)
    p_toy.add_argument("--steps", type=int, default=60)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--out", default="toy2d.csv")
    p_toy.add_argument("--plot-script", action="store_true")

    p_traj = sub.add_parser("trajectory", allow_abbrev=False,
                            help="single-worker traces on 2-D test functions")
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
    p_part.add_argument("--samples", type=int, default=1000)
    p_part.add_argument("--classes", type=int, default=10)
    p_part.add_argument("--n", type=int, default=16)
    p_part.add_argument("--alpha", type=float, default=0.1)
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument("--out", default="partition.csv")

    p_topo = sub.add_parser("topo", allow_abbrev=False,
                            help="print a mixing matrix and its spectral gap")
    p_topo.add_argument("--kind", default="ring")
    p_topo.add_argument("--n", type=int, default=16)
    p_topo.add_argument("--scheme", default="metropolis_hastings")
    p_topo.add_argument("--rows", type=int, default=None)
    p_topo.add_argument("--out", default=None)

    return parser


def _dispatch(args, rest):
    if args.command in ("run", "validate"):
        overrides = _collect_overrides(rest)
        if args.command == "run":
            if args.threads is not None:
                overrides.setdefault("run.threads", str(args.threads))
            return cmd_run(args.config, overrides, out=args.out,
                           plot_script=args.plot_script)
        return cmd_validate(args.config, overrides)

    if rest:
        raise ConfigError(f"unknown flag {rest[0]!r}")

    if args.command == "consensus":
        return cmd_consensus(args.topology, args.n, args.beta, args.mu,
                             args.T, args.seed, args.out, scheme=_scheme(args.scheme),
                             dim=args.dim, plot_script=args.plot_script)
    if args.command == "toy2d":
        return cmd_toy2d(args.eta, args.beta, args.mu, args.steps,
                         args.seed, args.out, plot_script=args.plot_script)
    if args.command == "trajectory":
        kinds = tuple(k for k in args.kinds.split(",") if k)
        return cmd_trajectory(args.problem, kinds, args.eta, args.beta,
                              args.mu, args.steps, args.init, args.out,
                              plot_script=args.plot_script)
    if args.command == "partition":
        return cmd_partition(args.samples, args.classes, args.n,
                             args.alpha, args.seed, args.out)
    if args.command == "topo":
        return cmd_topo(args.kind, args.n, _scheme(args.scheme), rows=args.rows,
                        out=args.out)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None):
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
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
