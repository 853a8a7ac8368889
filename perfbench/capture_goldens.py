"""Capture the goldens: every op's output at the golden seed.

    python3 perfbench/capture_goldens.py

Runs each workload's ops twice at ``workloads.GOLDEN_SEED``, refuses to
write if the two repetitions differ in bytes, and writes
``perfbench/goldens.json.gz``.  Re-capturing is a decision to re-freeze
outputs; a change that moves bytes must be named in CHANGES.md instead.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
import goldens  # noqa: E402
import workloads  # noqa: E402


def capture(workload: str) -> dict:
    prepared = workloads.prepare(workloads.build(workload, workloads.GOLDEN_SEED, ROOT))
    entries = {}
    for repetition in range(2):
        for i, op in enumerate(prepared.ops):
            prepared.call(i)
            out = prepared.output(i)
            if repetition and goldens.sha256(out) != entries[op.name]["sha256"]:
                raise SystemExit(f"{workload}/{op.name}: repetitions differ in bytes")
            entries[op.name] = {"sha256": goldens.sha256(out), "text": out.decode("utf-8")}
    return entries


def main() -> None:
    warnings.simplefilter("ignore")
    work = tempfile.mkdtemp(prefix="goldens-", dir=ROOT)
    try:
        os.chdir(work)
        data = {"golden_seed": workloads.GOLDEN_SEED,
                "src_sha256": goldens.source_digest(os.path.join(ROOT, "src", "qgm_sim")),
                "workloads": {w: capture(w) for w in workloads.WORKLOADS}}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    goldens.save(os.path.join(HERE, "goldens.json.gz"), data)
    print(f"wrote goldens for {sum(len(v) for v in data['workloads'].values())} ops")


if __name__ == "__main__":
    main()
