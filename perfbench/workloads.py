"""The benchmark's three workloads, built from a seed.

An op is one call a user makes: one ``engine.run`` or one ``cli.main``
command.  ``build`` turns a workload name and seed into plain op
descriptions without importing ``qgm_sim``; ``prepare`` is the measured
set-up (package import, config parsing, ``build_problem`` /
``build_mixing`` for every run); ``Prepared.call`` runs one op and
``Prepared.output`` gives its output bytes.  Why each workload exists is
in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("method_sweep_ring64", "large_graph", "cli_suite")

# seed the goldens were captured with; other seeds are checked for
# determinism between repetitions plus one verification pass at this seed
GOLDEN_SEED = 0

SWEEP_METHODS = ("qg_dsgdm", "dsgdm", "dmsgd_ii", "d2_plus", "gt")
SHIPPED_CONFIGS = ("adam_ring8", "hetero_gradient_tracking", "quadratic_ring16_qg",
                   "rosenbrock_nesterov", "slowmo_quadratic", "toy2d_dsgdm")
TRAJECTORY_STEPS = 3000  # the CLI default of 10000 alone is ~70% of a pass


@dataclass(frozen=True)
class Op:
    """One op: an engine run from a config mapping, or a CLI command.

    ``mapping`` is set for engine ops and ``argv`` for CLI ops; a CLI
    ``run`` also names its ``config_path`` and ``seed`` for set-up; ``out`` is
    the file a CLI op writes (relative to the working directory), and
    ``worker_steps`` is known up front for every op except CLI ``run``,
    whose count comes from the parsed config.
    """

    name: str
    mapping: dict | None = None
    argv: tuple[str, ...] = ()
    config_path: str | None = None
    seed: int = 0
    out: str | None = None
    worker_steps: int = 0


def _quadratic(dim, zeta, sigma, n, topo, kind, steps, every, seed, init="0.0"):
    return {
        "problem": {"kind": "quadratic", "dim": str(dim), "zeta": repr(zeta),
                    "sigma": repr(sigma), "cond": "4.0", "init": init},
        "topology": {"kind": topo, "n": str(n)},
        "optim": {"kind": kind, "eta": "0.05", "beta": "0.9"},
        "run": {"steps": str(steps), "seed": str(seed), "metrics_every": str(every)},
    }


def build(workload: str, seed: int, root: str) -> list[Op]:
    """Op list of one pass of ``workload``; the same seed gives the same ops."""
    if workload == "method_sweep_ring64":
        n, steps = 64, 100
        return [Op(kind, mapping=_quadratic(64, 1.0, 0.5, n, "ring", kind, steps, 1, seed),
                   worker_steps=n * steps)
                for kind in SWEEP_METHODS]
    if workload == "large_graph":
        # noise-free, so the seed only moves the common starting point
        init = repr(round(random.Random(seed).uniform(-1.0, 1.0), 6))
        legs = (("one_peer_exponential", 512, 512, 18), ("ring", 1024, 256, 4))
        return [Op(f"{topo}_n{n}", worker_steps=n * steps,
                   mapping=_quadratic(dim, 0.0, 0.0, n, topo, "qg_dsgdm", steps, steps,
                                      seed, init=init))
                for topo, n, dim, steps in legs]
    if workload == "cli_suite":
        s = str(seed)
        ops = [Op(f"run_{name}", config_path=os.path.join(root, "configs", name + ".ini"),
                  seed=seed, argv=("run", "--config", os.path.join(root, "configs", name + ".ini"),
                        "--out", f"run_{name}.csv", "--run.seed", s),
                  out=f"run_{name}.csv")
               for name in SHIPPED_CONFIGS]
        # consensus runs plain gossip and the buffered recursion, T=2000 each, n=16
        ops.append(Op("consensus", argv=("consensus", "--seed", s, "--out", "consensus.csv"),
                      out="consensus.csv", worker_steps=2 * 2000 * 16))
        ops.append(Op("trajectory", argv=("trajectory", "--steps", str(TRAJECTORY_STEPS),
                                          "--out", "trajectory.csv"),
                      out="trajectory.csv", worker_steps=2 * TRAJECTORY_STEPS))
        ops.append(Op("toy2d", argv=("toy2d", "--seed", s, "--out", "toy2d.csv"),
                      out="toy2d.csv", worker_steps=3 * 60 * 2))
        ops.append(Op("partition", argv=("partition", "--seed", s, "--out", "partition.csv"),
                      out="partition.csv"))
        ops.append(Op("topo", argv=("topo",)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Prepared:
    """Ops of one pass after set-up, ready to call."""

    ops: list[Op]
    configs: list = field(default_factory=list)  # RunConfig per op, or None
    worker_steps: int = 0
    last: object = None  # RunResult or captured stdout of the op just called

    def call(self, i: int) -> None:
        """Run op ``i``; raises on an exception or a non-zero exit code."""
        from qgm_sim import cli, engine

        op = self.ops[i]
        if op.mapping is not None:
            self.last = engine.run(self.configs[i])
            return
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(op.argv))
        if code != 0:
            raise RuntimeError(f"{op.name}: qgm-sim exited with code {code}")
        self.last = buf.getvalue()

    def output(self, i: int) -> bytes:
        """Bytes of the op just called: the metrics CSV of an engine run,
        or a CLI command's stdout followed by the file it wrote."""
        from qgm_sim import engine

        op = self.ops[i]
        if op.mapping is not None:
            return ("\n".join(engine.metrics_csv_lines(self.last.records)) + "\n").encode()
        text = self.last
        if op.out:
            with open(op.out, encoding="utf-8") as fh:
                text += f"--- {op.out}\n" + fh.read()
        return text.encode()


def prepare(ops: list[Op]) -> Prepared:
    """The set-up ``setup_s`` times: import the package, parse every run's
    config and build its problem and mixing matrix."""
    import qgm_sim  # noqa: F401  (the import is part of set-up)
    from qgm_sim import engine

    prepared = Prepared(ops)
    for op in ops:
        if op.mapping is not None:
            cfg = engine.RunConfig.from_mapping(op.mapping)
        elif op.config_path is not None:
            cfg = engine.RunConfig.from_ini(op.config_path,
                                            overrides={"run.seed": str(op.seed)})
        else:
            prepared.configs.append(None)
            prepared.worker_steps += op.worker_steps
            continue
        engine.build_problem(cfg)
        engine.build_mixing(cfg)
        prepared.configs.append(cfg)
        prepared.worker_steps += op.worker_steps or cfg.n * cfg.steps
    return prepared
