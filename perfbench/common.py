"""Shared plumbing of the benchmark: paths, statistics, spans, memory.

Everything here is stdlib; the workload modules import the program
(``repro``) from ``src/`` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Root of the checkout (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes: the trained-model cache, server logs
#: and the traced runs' span files.  Ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"
ARTIFACTS = WORK / "artifacts"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, server did not start...)."""


def use_program() -> None:
    """Point this process at the checkout's program and artifact cache."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(ARTIFACTS)


def program_env() -> dict:
    """Environment for a program subprocess (same source, same cache)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(ARTIFACTS)
    return env


def prewarm_models(names=("resnet18", "googlenet")) -> None:
    """Train the fast zoo entries once per checkout (never timed)."""
    from repro.models.zoo import load_trained_model

    for name in names:
        load_trained_model(name, fast=True)


# -- statistics -----------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0 <= q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_self_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants (from ``/proc``)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(parents.get(current, []))
    return tree


def peak_rss_tree_mb(pid: int) -> float:
    """Sum of the peak resident sets (VmHWM) of a process tree."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            total_kb += _status_kb(member, "VmHWM")
        except OSError:
            continue
    return total_kb / 1024.0


# -- spans ------------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded around calls into the program's layers.

    A span is a dict with ``name``, ``start_s``/``end_s`` (on
    ``time.perf_counter``), ``id``, ``parent`` and free-form fields.  Spans
    stay in memory during the run and are written out once at the end.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._next_id = 0

    def record(self, name: str, start_s: float, end_s: float,
               parent: int | None = None, **fields) -> dict:
        """Append a span and return it (its ``id`` parents later spans)."""
        self._next_id += 1
        span = {"id": self._next_id, "parent": parent, "name": name,
                "start_s": start_s, "end_s": end_s}
        span.update(fields)
        self.spans.append(span)
        return span

    def write(self, path: Path, **extra) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)
        return path


def now() -> float:
    return time.perf_counter()
