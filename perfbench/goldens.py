"""Output checks: golden bytes and values, and repeat determinism.

Goldens hold, per workload and op, the SHA-256 of the op's output bytes
and the output text itself, captured at ``workloads.GOLDEN_SEED``.  An op
passes when its bytes equal the golden's, or when its text has the same
non-numeric skeleton and every number lies within relative 1e-9 (absolute
1e-12 near zero) of the golden's.  The second case is a pass without byte
identity: a reduction-order change that ROADMAP asks to be named.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import re

REL_TOL = 1e-9
ABS_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest(package_dir: str) -> str:
    """SHA-256 over the package's Python files, by name and content."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def split_numbers(text: str) -> tuple[str, list[float]]:
    """The text with each number replaced by ``#``, and the numbers."""
    values = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), values


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def compare(golden: dict, output: bytes) -> tuple[bool, bool, str]:
    """Check one output against its golden entry.

    Returns ``(ok, bytes_identical, detail)``; ``detail`` names the first
    difference when the bytes differ.
    """
    if sha256(output) == golden["sha256"]:
        return True, True, ""
    skeleton, values = split_numbers(output.decode("utf-8", errors="replace"))
    gold_skeleton, gold_values = split_numbers(golden["text"])
    if skeleton != gold_skeleton or len(values) != len(gold_values):
        return False, False, "text differs outside its numbers"
    for k, (a, b) in enumerate(zip(values, gold_values)):
        if not close(a, b):
            return False, False, f"number {k} is {a!r}, golden {b!r}"
    return True, False, "bytes differ, numbers within tolerance"


def load(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(path: str, data: dict) -> None:
    # mtime=0 keeps the file's bytes a function of its content
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(data, indent=1, sort_keys=True).encode("utf-8"))


class Checker:
    """Tallies every checked op of one benchmark run.

    An op fails if it raised or exited non-zero, if its output leaves the
    golden values, or if a repetition's bytes differ from the first output
    of the same op and seed in this run.
    """

    def __init__(self, goldens: dict | None):
        self.goldens = goldens  # {op name: entry} for the run's workload, or None
        self.first: dict[tuple[int, str], str] = {}
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.golden_identical = 0
        self.failures: list[str] = []

    def fail(self, name: str, detail: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{name}: {detail}")

    def check(self, name: str, seed: int, output: bytes, against_golden: bool) -> bool:
        self.attempted += 1
        ok, detail = True, ""
        if against_golden:
            entry = (self.goldens or {}).get(name)
            if entry is None:
                ok, detail = False, "no golden for this op"
            else:
                ok, identical, detail = compare(entry, output)
                self.golden_checked += 1
                self.golden_identical += identical
        digest = sha256(output)
        if self.first.setdefault((seed, name), digest) != digest:
            ok, detail = False, "bytes differ from the first repetition"
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok

    @property
    def bytes_identical_frac(self) -> float:
        return self.golden_identical / self.golden_checked if self.golden_checked else 0.0
