"""qgm-sim benchmark: three workloads, end-to-end metrics, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py                      # every workload, seed 0

Run from the repository root.  Each workload runs in its own fresh
interpreter with the BLAS thread count pinned to 1, so the caller's shell
cannot change it and ``peak_rss_mb`` belongs to that workload alone.
Set-up is timed in five more fresh interpreters and the median reported.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run (see NOTES.md).  The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment record,
is also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from goldens import source_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)  # metric names and units

SETUP_REPS = 5
DEADLINE_S = 170  # a run must exit within 180 s
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env.update({k: BLAS_THREADS for k in BLAS_ENV})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark: out of time before the run finished")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [worker(["setup", *common], deadline)["setup_s"] for _ in range(SETUP_REPS)]
    res = worker(["measure", *common, "--seconds", str(seconds), "--trace", str(int(trace))],
                 deadline)
    rates = [res["worker_steps_per_pass"] / p for p in res["reference_pass_s"]]
    res["wall_worker_steps_per_s"] = statistics.median(
        res["worker_steps_per_pass"] / p for p in res["pass_s"])
    res["env"]["git_commit"] = git_commit()
    res["env"]["src_sha256"] = source_digest(os.path.join(ROOT, "src", "qgm_sim"))
    res["setup_s_samples"] = setups
    res["worker_steps_per_s_samples"] = rates
    if trace:
        metrics = dict(res["layers"])
        metrics["check.bytes_identical_frac"] = res["bytes_identical_frac"]
        metrics["check.ops_failed_frac"] = res["failed"] / res["attempted"]
        metrics["trace.pass_s"] = statistics.median(res["traced_pass_s"])
    else:
        metrics = {"worker_steps_per_s": statistics.median(rates),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
    res["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in SPEC["per_layer" if trace else "end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench", "results"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", "results",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def report(workload: str, seed: int, res: dict) -> None:
    env = res["env"]
    print(f"workload {workload}  seed {seed}  timed passes {len(res['pass_s'])}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas']['name']} {env['blas']['version']} "
          f"threads {env['blas']['threads']}  commit {env['git_commit']}")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':32s} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")
    print(f"  {'check.bytes_identical_frac':32s} {res['bytes_identical_frac']:.6g}")
    print(f"  {'wall_worker_steps_per_s':32s} {res['wall_worker_steps_per_s']:.6g} 1/s "
          f"(not scaled to the reference speed)")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    for needed in ("src/qgm_sim/__init__.py", "configs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"benchmark: {needed} is missing; run from a full checkout")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        if len(names) > 1:
            deadline = time.monotonic() + DEADLINE_S
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        report(name, args.seed, res)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
