"""Spans around the public functions of every ``qgm_sim`` module.

The tracer replaces each function named in a module's ``__all__`` (for
``cli``, which has none, each public function it defines) and the methods
in ``METHODS`` with a timing wrapper.  It patches the name where it is
defined and everywhere another ``qgm_sim`` module bound it with
``from .x import``, and puts every original back on exit.  Classes and
constants in ``__all__`` are left alone.

Spans stay in memory as ``(span_id, parent_id, name_id, start_ns, end_ns,
run_id)``.  A span's parent is the innermost open span of its thread; a
span opened on a pool thread with nothing open takes the innermost open
span of the main thread, so the engine's thread pool nests under
``engine.run``.  A span's self time is its duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("topology", "oracles", "optim", "consensus", "engine", "heterogeneity", "cli")
METHODS = {
    "oracles": {"ProblemSpec": ("sample", "mean_loss", "mean_gradient", "sample_mean_part")},
    "optim": {"WorkerState": ("replace",)},
}
# Spans that open a sub-layer bucket; spans of the same layer nested inside
# them count toward the same bucket.
BUCKETS = {
    "optim.gossip": "optim.gossip",
    "oracles.ProblemSpec.mean_loss": "oracles.mean_eval",
    "oracles.ProblemSpec.mean_gradient": "oracles.mean_eval",
    "oracles.ProblemSpec.sample_mean_part": "oracles.mean_eval",
}
DEFAULT_BUCKET = {"optim": "optim.step", "oracles": "oracles.sample"}


def traced_functions(module) -> list[str]:
    """Names of the functions the tracer wraps in ``module``."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__]
    return [n for n in names if inspect.isfunction(getattr(module, n))]


class Tracer:
    """Wraps ``qgm_sim`` while installed and records spans and counts."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.gossip_macs: list[tuple] = []  # (run_id, dim * n * n)
        self.matrices: list[tuple] = []  # (run_id, fingerprint)
        self.run_id = None
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._probes: dict = {}

    def reset(self) -> None:
        self.spans, self.gossip_macs, self.matrices = [], [], []

    # -- patching -----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        modules = [importlib.import_module("qgm_sim")] + [
            importlib.import_module(f"qgm_sim.{layer}") for layer in LAYERS]
        wrappers = {}  # id(original) -> wrapper
        try:
            for layer, module in zip(LAYERS, modules[1:]):
                for name in traced_functions(module):
                    fn = getattr(module, name)
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
                for cls_name, methods in METHODS.get(layer, {}).items():
                    cls = getattr(module, cls_name)
                    for name in methods:
                        fn = vars(cls)[name]
                        self._patch(cls, name, self._wrap(fn, f"{layer}.{cls_name}.{name}"))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._patch(module, name, wrappers[id(value)])
            yield self
        finally:
            self.restore()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, qualified: str):
        name_id = len(self.names)
        self.names.append(qualified)
        hook = {"optim.gossip": self._count_gossip,
                "topology.mixing_matrix": self._fingerprint,
                "topology.one_peer_exponential_matrix": self._fingerprint}.get(qualified)
        ids, main, main_stack, local = self._ids, self._main, self._main_stack, self._local
        tracer = self  # spans is rebound by reset(), so read it through the tracer

        def wrapper(*args, **kwargs):
            if threading.get_ident() == main:
                stack = main_stack
            else:
                stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name_id, t0, t1, tracer.run_id))
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counts taken at the boundary ------------------------------------------

    def _count_gossip(self, args, _result) -> None:
        states = args[0]
        n = len(states)
        self.gossip_macs.append((self.run_id, len(states[0].x) * n * n))

    def _fingerprint(self, _args, result) -> None:
        import numpy as np

        W = np.asarray(result.weights)
        n = W.shape[0]
        if n not in self._probes:
            self._probes[n] = np.random.default_rng(n).standard_normal(n)
        self.matrices.append((self.run_id, (n, (W @ self._probes[n]).tobytes())))


def write_spans(path: str, spans, names) -> None:
    """Write spans as gzipped tab-separated text, one line per span."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("span_id\tparent_id\tname\tstart_ns\tend_ns\trun_id\n")
        for sid, parent, name_id, t0, t1, run in sorted(spans):
            fh.write(f"{sid}\t{'' if parent is None else parent}\t{names[name_id]}"
                     f"\t{t0}\t{t1}\t{'' if run is None else run}\n")


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _run in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _run in spans:
        covered, end = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, names, gossip_macs=(), matrices=()) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and boundary counts.

    Spans outside an op (``run_id`` None) are ignored.  ``<layer>.calls``
    counts entries into a layer: spans whose parent is in another layer.
    """
    spans = sorted(s for s in spans if s[5] is not None)
    selfs = self_times(spans)
    layer_of = [n.split(".", 1)[0] for n in names]
    bucket_of_span, layer_of_span = {}, {}
    self_s = Counter()
    calls = Counter()
    by_name = Counter()
    for sid, parent, name_id, _t0, _t1, _run in spans:  # parents sort before children
        layer = layer_of[name_id]
        parent_layer = layer_of_span.get(parent)
        inherited = bucket_of_span.get(parent) if parent_layer == layer else None
        bucket = (inherited if inherited and inherited != DEFAULT_BUCKET.get(layer)
                  else BUCKETS.get(names[name_id], DEFAULT_BUCKET.get(layer)))
        layer_of_span[sid], bucket_of_span[sid] = layer, bucket
        self_s[layer] += selfs[sid]
        if bucket:
            self_s[bucket] += selfs[sid]
        if parent_layer != layer:
            calls[layer] += 1
        by_name[names[name_id]] += 1

    matrices = [m for m in matrices if m[0] is not None]  # (run_id, fingerprint)
    s = {k: v / 1e9 for k, v in self_s.items()}
    return {
        "topology.calls": calls["topology"],
        "topology.self_s": s.get("topology", 0.0),
        "topology.spectral_gap_calls": by_name["topology.spectral_gap"],
        "topology.distinct_matrix_frac": len(set(matrices)) / len(matrices) if matrices else 0.0,
        "oracles.sample_calls": by_name["oracles.ProblemSpec.sample"],
        "oracles.sample_self_s": s.get("oracles.sample", 0.0),
        "oracles.rng_streams": by_name["oracles.worker_rng"],
        "oracles.mean_eval_self_s": s.get("oracles.mean_eval", 0.0),
        "optim.gossip_calls": by_name["optim.gossip"],
        "optim.gossip_self_s": s.get("optim.gossip", 0.0),
        "optim.gossip_macs": sum(m for run, m in gossip_macs if run is not None),
        "optim.step_self_s": s.get("optim.step", 0.0),
        "optim.state_replaces": by_name["optim.WorkerState.replace"],
        "consensus.calls": calls["consensus"],
        "consensus.self_s": s.get("consensus", 0.0),
        "engine.runs": by_name["engine.run"],
        "engine.self_s": s.get("engine", 0.0),
        "cli.self_s": s.get("cli", 0.0),
        "heterogeneity.self_s": s.get("heterogeneity", 0.0),
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(s.get(layer, 0.0) for layer in LAYERS),
    }
