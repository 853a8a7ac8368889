"""One workload in one fresh interpreter; started by run.py.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds T --trace 0|1

``setup`` times the set-up alone and prints ``{"setup_s": ...}``.
``measure`` sets up, runs one untimed warm-up pass at the golden seed
whose outputs are checked against the goldens, then runs passes at the
run's seed back to back (a closed loop: each op starts when the previous
one returns) for ``T`` seconds, with a calibration loop timed before the
first pass and after each, checks that every repetition of an op gives
the same bytes, and prints one JSON object.  With ``--trace 1`` the
first half of the time is untraced and the second half traced, so the
tracer's overhead is measured in the same process.

Nothing is imported from numpy or qgm_sim before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
GOLDENS = os.path.join(HERE, "goldens.json.gz")
# calibrate() on the machine the benchmark was written on
CALIB_REF_S = 0.09

sys.path.insert(0, HERE)
import goldens  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def timed_setup(workload: str, seed: int):
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    prepared = workloads.prepare(workloads.build(workload, seed, ROOT))
    return prepared, time.perf_counter() - t0


def run_pass(prepared, seed, checker, against_golden, tracer=None, first_run_id=0) -> list:
    """Run every op once; return each op's time in seconds."""
    times = []
    for i, op in enumerate(prepared.ops):
        if tracer is not None:
            tracer.run_id = first_run_id + i
        t0 = time.perf_counter_ns()
        try:
            prepared.call(i)
        except Exception as exc:  # an op's failure is counted, not fatal
            checker.fail(op.name, f"raised {exc!r}")
            continue
        finally:
            times.append((time.perf_counter_ns() - t0) / 1e9)
            if tracer is not None:
                tracer.run_id = None
        checker.check(op.name, seed, prepared.output(i), against_golden)
    return times


@dataclasses.dataclass(frozen=True)
class _CalibState:
    x: object
    m: object


def calibrate() -> float:
    """Seconds for a fixed loop that does not touch qgm_sim, shaped like a
    simulator step: frozen-dataclass updates of 256 states of 64-vectors,
    stacking them into a matrix, and a 256x256 matmul, 24 times.  The
    garbage collector is off while it runs, so a collection of the passes'
    objects cannot land in it."""
    import numpy as np

    states = [_CalibState(np.zeros(64), np.zeros(64)) for _ in range(256)]
    g, A = np.ones(64), np.full((256, 256), 1.0 / 256)
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(24):
            states = [dataclasses.replace(s, x=s.x - 0.01 * (0.9 * s.m + g), m=0.9 * s.m + g)
                      for s in states]
            np.stack([s.x for s in states], axis=1)
            A = A @ A
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_passes(prepared, seed, checker, seconds, tracer=None, on_pass=None):
    """Passes until the next one would end after ``seconds``, at least one,
    with a calibration before the first and after each.

    Returns each pass's per-op times and the calibration times.
    """
    passes, calib = [], [calibrate()]
    spent = calib[0]
    while not passes or spent + sum(passes[-1]) + calib[-1] <= seconds:
        first = len(passes) * len(prepared.ops)
        passes.append(run_pass(prepared, seed, checker, seed == workloads.GOLDEN_SEED,
                               tracer, first))
        calib.append(calibrate())
        spent += sum(passes[-1]) + calib[-1]
        if on_pass is not None:
            on_pass(sum(passes[-1]))
    return passes, calib


def reference_pass_s(passes, calib) -> list[float]:
    """Each pass's time at the reference machine speed: its wall time times
    ``CALIB_REF_S`` over the mean of the calibrations just before and after
    it.  The machine's speed drifts by up to 1.5x over minutes (NOTES.md,
    Spread); scaling by a loop timed around each pass removes that drift."""
    return [sum(p) * 2 * CALIB_REF_S / (calib[i] + calib[i + 1]) for i, p in enumerate(passes)]


def why_holds(workload: str, m: dict) -> bool:
    """Whether the traced pass bears out the workload's reason to exist."""
    if workload == "large_graph":
        heavy = m["topology.self_s"] + m["optim.gossip_self_s"]
        return m["oracles.rng_streams"] == 0 and heavy > m["trace.self_sum_s"] - heavy
    if workload == "method_sweep_ring64":
        return (m["oracles.sample_self_s"] + m["oracles.mean_eval_self_s"] + m["engine.self_s"]
                > m["topology.self_s"] + m["optim.gossip_self_s"])
    return (m["consensus.calls"] > 0 and m["heterogeneity.self_s"] > 0 and m["cli.self_s"] > 0
            and m["topology.self_s"] + m["optim.gossip_self_s"] < 0.5 * m["trace.self_sum_s"])


def environment(seed: int) -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads,
                 "env": {k: os.environ.get(k) for k in sorted(os.environ)
                         if k.endswith("_NUM_THREADS")}},
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    prepared, setup_s = timed_setup(workload, seed)
    import qgm_sim

    if not os.path.abspath(qgm_sim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported qgm_sim from {qgm_sim.__file__}, not from {SRC}")
    warnings.simplefilter("ignore")  # the engine's advisory momentum-bound warning
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    try:
        checker = goldens.Checker(goldens.load(GOLDENS)["workloads"][workload])
        # the untimed warm-up pass runs at the golden seed and is checked
        # against the goldens, whatever the run's seed
        golden_ops = (prepared if seed == workloads.GOLDEN_SEED else
                      workloads.prepare(workloads.build(workload, workloads.GOLDEN_SEED, ROOT)))
        run_pass(golden_ops, workloads.GOLDEN_SEED, checker, True)
        untraced, calib = timed_passes(prepared, seed, checker,
                                       seconds / 2 if trace else seconds)
        result = {"setup_s_in_process": setup_s, "op_s": untraced,
                  "pass_s": [sum(p) for p in untraced], "calib_s": calib,
                  "reference_pass_s": reference_pass_s(untraced, calib),
                  "worker_steps_per_pass": prepared.worker_steps}
        if trace:
            tracer = tracing.Tracer()
            layers, last_spans = [], []

            def collect(pass_s):
                m = tracing.layer_metrics(tracer.spans, tracer.names,
                                          tracer.gossip_macs, tracer.matrices)
                m["trace.self_sum_frac"] = m["trace.self_sum_s"] / pass_s
                layers.append(m)
                last_spans[:] = tracer.spans
                tracer.reset()

            with tracer.installed():
                traced, traced_calib = timed_passes(prepared, seed, checker, seconds / 2,
                                                    tracer, collect)
            os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
            tracing.write_spans(os.path.join(OUT_DIR, "traces", f"{workload}-seed{seed}.tsv.gz"),
                                last_spans, tracer.names)
            result["traced_pass_s"] = [sum(p) for p in traced]
            result["layers"] = {k: statistics.median_low(m[k] for m in layers)
                                for k in layers[0]}
            result["layers"]["trace.overhead_frac"] = (
                statistics.median(reference_pass_s(traced, traced_calib))
                / statistics.median(result["reference_pass_s"]) - 1.0)
            result["layers"]["trace.why_holds"] = int(why_holds(workload, result["layers"]))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    result.update(
        attempted=checker.attempted, failed=checker.failed, failures=checker.failures[:20],
        bytes_identical_frac=checker.bytes_identical_frac,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(seed))
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        _prepared, setup_s = timed_setup(args.workload, args.seed)
        out = {"setup_s": setup_s}
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
