"""Reproducible perf harness: serial vs. process-pool mining wall-clock.

``repro bench`` (or ``benchmarks/bench_runner.py``) times the miners on
the synthetic paper-shaped generators — the same workloads the Figure 6
experiments sweep — serially and, where the work splits into independent
units (FARMER row shards, hybrid partitions), through
:mod:`repro.parallel`; it verifies the parallel output is bit-identical
and writes everything to ``BENCH_core.json`` so every future change has
a perf baseline to move.  A direct top-k mine is one enumeration in one
process, so top-k workloads record the serial column only.

Honesty rules baked in:

* best-of-``repeats`` wall-clock (robust to scheduler noise, biased the
  same way for serial and parallel runs);
* the host's ``cpu_count`` is recorded next to every speedup, and no
  parallel column is recorded for a worker count above it — a 4-worker
  run on a 1-core container measures scheduling overhead, not
  parallelism, so it cannot back a speedup claim;
* every parallel measurement carries ``identical_output``, the assertion
  that the pool reproduced the serial result exactly;
* every parallel workload is also timed with ``n_jobs="auto"`` so the
  adaptive planner's choice is itself measured, not assumed;
* :func:`compare_reports` (``repro bench --compare``) diffs a fresh run
  against a committed baseline and fails on serial-time regressions, so
  perf changes land with evidence.

The report envelope (:class:`Report`, :func:`write_report`) and the
baseline gate (:class:`Gate`) are shared with ``repro loadtest``
(:mod:`repro.service.loadtest`); each harness supplies only its entry
key, its compare keys and its per-entry verdict.  Both commands are
parsed in :mod:`repro.cli`.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Optional, Sequence

from .baselines.farmer import mine_farmer
from .core.enumeration import ClosedSetResult
from .core.hybrid import mine_topk_hybrid
from .core.topk_miner import TopkResult, mine_topk, relative_minsup
from .data.loaders import load_benchmark
from .data.synthetic import generate_tall_cohort
from .experiments.harness import format_seconds
from .parallel import AUTO_JOBS, pool_stats, results_equal

__all__ = [
    "Gate",
    "Report",
    "Workload",
    "BenchReport",
    "probe_host",
    "run_bench",
    "write_report",
    "compare_reports",
]

SCHEMA_VERSION = 1

# CI smoke profile: one small workload, two workers, one repetition.
QUICK_JOBS = (2,)


@dataclass(frozen=True)
class Workload:
    """One named mining configuration to time.

    ``dataset`` is a paper benchmark name (``load_benchmark``) or a tall
    cohort registry name (``tall-1k``/``tall-4k``/``tall-16k``, see
    :data:`repro.data.TALL_COHORTS`).  ``scale`` pins the workload to a
    fixed scale regardless of the CLI ``--scale`` so its committed
    baseline entry stays comparable.  ``measure_parallel`` turns off
    the worker-pool columns (process pools on the tall cohorts would
    double the runtime to measure an orthogonal axis).  A ``topk``
    workload has no pool path and must turn them off.
    """

    name: str
    dataset: str
    miner: str  # "topk", "hybrid" or "farmer"
    engine: str
    k: int = 1
    fraction: float = 0.9
    minconf: float = 0.0
    scale: Optional[float] = None
    measure_parallel: bool = True

    def __post_init__(self) -> None:
        if self.miner == "topk" and self.measure_parallel:
            raise ValueError(
                f"{self.name}: a direct top-k mine runs in one process; "
                "set measure_parallel=False"
            )


# The full profile mirrors the Figure 6 series: MineTopkRGS at small and
# large k on the prefix tree, the bitset engine the classifiers use, and
# the FARMER baseline on its faithful projected-table engine.  The tall
# workloads time top-k and FARMER mining on multi-word bitsets.
DEFAULT_WORKLOADS = (
    Workload("all-topk-tree-k1", "ALL", "topk", "tree", k=1,
             measure_parallel=False),
    Workload("all-topk-tree-k100", "ALL", "topk", "tree", k=100,
             measure_parallel=False),
    Workload("all-topk-bitset-k10", "ALL", "topk", "bitset", k=10,
             measure_parallel=False),
    Workload("all-farmer-table", "ALL", "farmer", "table"),
    Workload("pc-topk-tree-k1", "PC", "topk", "tree", k=1,
             measure_parallel=False),
    Workload("pc-farmer-table", "PC", "farmer", "table"),
    Workload("tall-512-topk-bitset-k2", "tall-1k", "topk", "bitset",
             k=2, fraction=0.7, scale=0.5, measure_parallel=False),
    Workload("tall-256-farmer-bitset", "tall-1k", "farmer", "bitset",
             fraction=0.6, scale=0.25, measure_parallel=False),
    # The out-of-core tall path: column-partitioned hybrid mining on the
    # same 512-row tall point as the direct showcase above.  Its
    # ``direct`` column records the wall-clock ratio against the single
    # global enumeration and asserts hybrid == direct bit for bit on
    # every run of the harness; the ``hybrid`` block records the
    # bounded-memory evidence (peak resident cells vs matrix size).
    Workload("tall-hybrid-512-bitset-k2", "tall-1k", "hybrid", "bitset",
             k=2, fraction=0.7, scale=0.5, measure_parallel=False),
)

# A fast bitset sanity point, a k=100 tree mine that runs long enough
# (~10ms serial) to carry a meaningful wall-clock comparison —
# sub-millisecond mines drown in scheduler jitter, so the regression
# gate needs at least one entry above the noise floor — the shape of
# one Table 2 RCBT class fit on OC, where 98% of the charged nodes are
# siblings cut after a loose prune (reverting the cut leaves the node
# count unchanged but runs ~8x slower, which the seconds gate sees),
# and a 128-row tall point
# (direct and hybrid) that keeps the tall generator exercised on every
# CI run (small enough for seconds-long smoke, so it gates regressions).
QUICK_WORKLOADS = (
    Workload("quick-topk-bitset-k5", "ALL", "topk", "bitset", k=5,
             measure_parallel=False),
    Workload("quick-topk-tree-k100", "ALL", "topk", "tree", k=100,
             measure_parallel=False),
    Workload("quick-oc-topk-bitset-k10", "OC", "topk", "bitset", k=10,
             fraction=0.7, measure_parallel=False),
    Workload("quick-tall-topk-bitset-k2", "tall-1k", "topk", "bitset",
             k=2, fraction=0.7, scale=0.125, measure_parallel=False),
    Workload("quick-tall-hybrid-bitset-k2", "tall-1k", "hybrid", "bitset",
             k=2, fraction=0.7, scale=0.125, measure_parallel=False),
)


def probe_host() -> dict:
    """The host fields every report carries and the gate checks."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass
class Report:
    """The JSON envelope of ``repro bench`` and ``repro loadtest``.

    Each harness subclasses it with its own ``schema`` number and
    ``summary_lines``; ``benchmarks`` holds one dict per measured entry.
    """

    schema: ClassVar[int]

    host: dict
    config: dict
    benchmarks: list[dict] = field(default_factory=list)
    created_at: float = field(default_factory=time.time)

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "created_at": self.created_at,
            "host": self.host,
            "config": self.config,
            "benchmarks": self.benchmarks,
        }


def write_report(report: Report, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
    )


class BenchReport(Report):
    """Everything ``repro bench`` measured, JSON-ready."""

    schema = SCHEMA_VERSION

    def summary_lines(self) -> list[str]:
        lines = [
            f"repro bench — {len(self.benchmarks)} workloads, "
            f"cpu_count={self.host['cpu_count']}"
        ]
        for entry in self.benchmarks:
            parts = [
                f"{entry['name']}: serial "
                f"{format_seconds(entry['serial_seconds'])}"
            ]
            direct = entry.get("direct")
            if direct is not None:
                check = "ok" if direct["identical_output"] else "MISMATCH"
                parts.append(
                    f"direct {format_seconds(direct['seconds'])} "
                    f"(x{direct['speedup']:.2f}, {check})"
                )
            for jobs, measured in sorted(
                entry["parallel"].items(), key=lambda kv: int(kv[0])
            ):
                check = "ok" if measured["identical_output"] else "MISMATCH"
                parts.append(
                    f"{jobs}j {format_seconds(measured['seconds'])} "
                    f"(x{measured['speedup']:.2f}, {check})"
                )
            auto = entry.get("auto")
            if auto is not None:
                check = "ok" if auto["identical_output"] else "MISMATCH"
                plan = "serial" if auto["chose_serial"] else "parallel"
                parts.append(
                    f"auto[{plan}] {format_seconds(auto['seconds'])} "
                    f"(x{auto['speedup']:.2f}, {check})"
                )
            lines.append("  " + " | ".join(parts))
        skipped = [
            n for n in self.config["jobs"] if n > self.host["cpu_count"]
        ]
        if skipped and any("auto" in entry for entry in self.benchmarks):
            lines.append(
                f"  note: no parallel column for {skipped} workers: more "
                f"than the host's {self.host['cpu_count']} cores"
            )
        return lines


def _best_of(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _farmer_identical(a: ClosedSetResult, b: ClosedSetResult) -> bool:
    key = lambda g: (g.antecedent, g.consequent, g.row_set, g.support,
                     g.confidence)
    return list(map(key, a.groups)) == list(map(key, b.groups))


def _measure(
    workload: Workload,
    scale: float,
    jobs: Sequence[int],
    repeats: int,
) -> dict:
    if workload.scale is not None:
        scale = workload.scale
    if workload.dataset.startswith("tall-"):
        train = generate_tall_cohort(workload.dataset, scale=scale)
    else:
        train = load_benchmark(workload.dataset, scale=scale).train_items
    minsup = relative_minsup(train, 1, workload.fraction)
    if workload.miner == "topk":
        serial_fn = lambda: mine_topk(
            train, 1, minsup, k=workload.k, engine=workload.engine
        )
    elif workload.miner == "hybrid":
        serial_fn = lambda: mine_topk_hybrid(
            train, 1, minsup, k=workload.k, engine=workload.engine
        )
        parallel_fn = lambda n: mine_topk_hybrid(
            train, 1, minsup, k=workload.k, engine=workload.engine, n_jobs=n
        )
        identical = results_equal
    else:
        serial_fn = lambda: mine_farmer(
            train, 1, minsup, minconf=workload.minconf,
            engine=workload.engine,
        )
        parallel_fn = lambda n: mine_farmer(
            train, 1, minsup, minconf=workload.minconf,
            engine=workload.engine, n_jobs=n,
        )
        identical = _farmer_identical
    serial_seconds, serial_result = _best_of(serial_fn, repeats)
    cpu_count = os.cpu_count() or 1
    entry = {
        "name": workload.name,
        "dataset": workload.dataset,
        "miner": workload.miner,
        "engine": workload.engine,
        "k": workload.k,
        "minsup": minsup,
        "fraction": workload.fraction,
        "scale": scale,
        "n_rows": train.n_rows,
        "serial_seconds": serial_seconds,
        "serial_nodes_visited": serial_result.stats.nodes_visited,
        "parallel": {},
    }
    if workload.miner == "hybrid":
        # Reference column: the direct miner on the identical inputs.
        # identical_output is the hybrid == direct claim, asserted on
        # every harness run; speedup is direct_seconds/serial_seconds
        # (> 1 means hybrid beat the single global enumeration).
        direct_seconds, direct_result = _best_of(
            lambda: mine_topk(
                train, 1, minsup, k=workload.k, engine=workload.engine
            ),
            repeats,
        )
        entry["direct"] = {
            "seconds": direct_seconds,
            "speedup": (
                direct_seconds / serial_seconds if serial_seconds > 0 else 0.0
            ),
            "identical_output": results_equal(serial_result, direct_result),
        }
        hybrid_stats = serial_result.hybrid_stats
        entry["hybrid"] = {
            "n_partitions": hybrid_stats.n_partitions,
            "total_cells": hybrid_stats.total_cells,
            "peak_resident_cells": hybrid_stats.peak_resident_cells,
        }
    if not workload.measure_parallel:
        return entry
    for n_jobs in jobs:
        if n_jobs > cpu_count:
            # Workers beyond the host's cores cannot run concurrently;
            # such a point measures scheduling overhead, not
            # parallelism, so no column is recorded for it.
            continue
        seconds, result = _best_of(lambda: parallel_fn(n_jobs), repeats)
        entry["parallel"][str(n_jobs)] = {
            "seconds": seconds,
            "speedup": serial_seconds / seconds if seconds > 0 else 0.0,
            "identical_output": identical(serial_result, result),
            "nodes_visited": result.stats.nodes_visited,
        }
    # The planner path is measured unconditionally: "auto" must never be
    # meaningfully slower than whatever it picked against (the acceptance
    # bar is within 5% of serial on serial-sized workloads).
    fallbacks_before = pool_stats()["planner_serial_fallbacks"]
    auto_seconds, auto_result = _best_of(lambda: parallel_fn(AUTO_JOBS), repeats)
    chose_serial = pool_stats()["planner_serial_fallbacks"] > fallbacks_before
    entry["auto"] = {
        "seconds": auto_seconds,
        "speedup": serial_seconds / auto_seconds if auto_seconds > 0 else 0.0,
        "identical_output": identical(serial_result, auto_result),
        "chose_serial": chose_serial,
    }
    return entry


def run_bench(
    scale: float = 0.25,
    jobs: Sequence[int] = (2, 4),
    repeats: int = 3,
    quick: bool = False,
    workloads: Optional[Sequence[Workload]] = None,
    include_quick: bool = False,
) -> BenchReport:
    """Time every workload serially and at each worker count.

    ``quick`` switches to the CI smoke profile: the quick workloads, two
    workers, three repetitions, scale 0.05 — a few seconds end to end
    (best-of-3 because the quick numbers feed the ``--compare``
    regression gate, where a single noisy sample would flake).
    ``include_quick`` appends the quick workloads (measured at the quick
    profile's scale and worker count) to a full run, so the committed
    baseline contains the exact entries a CI ``--quick --compare`` run
    will look up.
    """
    if quick:
        workloads = QUICK_WORKLOADS if workloads is None else workloads
        jobs = QUICK_JOBS
        repeats = 3
        scale = min(scale, 0.05)
    elif workloads is None:
        workloads = DEFAULT_WORKLOADS
    report = BenchReport(
        host=probe_host(),
        config={
            "scale": scale,
            "jobs": [int(n) for n in jobs],
            "repeats": repeats,
            "quick": quick,
            "include_quick": include_quick,
        },
    )
    for workload in workloads:
        report.benchmarks.append(_measure(workload, scale, jobs, repeats))
    if include_quick and not quick:
        for workload in QUICK_WORKLOADS:
            report.benchmarks.append(
                _measure(workload, min(scale, 0.05), QUICK_JOBS, repeats)
            )
    return report


# A serial time more than this factor above the baseline fails the
# comparison.  Generous on purpose: CI containers are noisy and the
# committed baseline may come from different hardware; the gate exists to
# catch algorithmic regressions (2x+), not scheduler jitter.
REGRESSION_FACTOR = 2.0

# A ratio alone cannot condemn a sub-millisecond measurement: on a busy
# CI runner a ~1ms mine routinely doubles from scheduler jitter.  A
# regression must also be slower in absolute terms by at least this
# much, so only workloads big enough to time reliably can fail the gate.
REGRESSION_MIN_DELTA_SECONDS = 0.005

# Keys that must match for a baseline entry to be comparable: if any
# differ, the workload itself changed and a wall-clock diff is
# meaningless.  ``scale`` is one of them because a scaled dataset can
# keep its row count and minsup while its item count changes (ALL has
# 38 training rows and minsup 25 at every scale).
_COMPARE_KEYS = (
    "dataset", "miner", "engine", "k", "minsup", "n_rows", "scale",
)

# What to run (and commit) when the gate reports a missing baseline
# entry, surfaced verbatim in the failure line.
_REBASELINE_COMMAND = (
    "PYTHONPATH=src python -m repro.cli bench --include-quick "
    "--output BENCH_core.json"
)


# An entry's verdict: the lines it prints and whether it passes.
Verdict = Callable[[str, dict, dict], tuple[list[str], bool]]


@dataclass(frozen=True)
class Gate:
    """One harness's baseline comparison (``--compare BASELINE``).

    The gate matches each current entry to the baseline entry with the
    same ``key``, fails on an entry the baseline lacks (``MISSING
    BASELINE``, naming ``rebaseline``), skips an entry whose
    ``compare_keys`` differ (its workload changed, so a diff means
    nothing), and hands every other pair to ``verdict(name, entry,
    base)``.  ``changed`` and ``measure`` word the skip line and the
    host-mismatch note; ``threshold`` states the fail rule in the
    header.
    """

    key: str
    compare_keys: tuple[str, ...]
    verdict: Verdict
    threshold: str
    rebaseline: str
    changed: str = "workload"
    measure: str = "wall-clock"

    def compare(self, current: dict, baseline: dict) -> tuple[list[str], bool]:
        """Diff ``current`` against ``baseline`` (both ``as_dict``
        payloads); returns the printed lines and the ``ok`` flag."""
        lines: list[str] = []
        ok = True
        current_host = current.get("host", {})
        baseline_host = baseline.get("host", {})
        if (
            current_host.get("platform") != baseline_host.get("platform")
            or current_host.get("cpu_count") != baseline_host.get("cpu_count")
        ):
            lines.append(
                "  note: baseline host differs "
                f"({baseline_host.get('platform')}, "
                f"{baseline_host.get('cpu_count')} cores vs "
                f"{current_host.get('platform')}, "
                f"{current_host.get('cpu_count')} cores); {self.measure} "
                "deltas partly reflect hardware"
            )
        baseline_by_key = {
            entry.get(self.key): entry
            for entry in baseline.get("benchmarks", [])
        }
        compared = 0
        for entry in current.get("benchmarks", []):
            name = entry.get(self.key)
            base = baseline_by_key.get(name)
            if base is None:
                ok = False
                lines.append(
                    f"  {name}: MISSING BASELINE — no entry in the "
                    "committed report; regenerate it with: "
                    f"{self.rebaseline}"
                )
                continue
            mismatched = [
                key for key in self.compare_keys
                if entry.get(key) != base.get(key)
            ]
            if mismatched:
                lines.append(
                    f"  {name}: {self.changed} changed "
                    f"({', '.join(mismatched)}) — skipped"
                )
                continue
            compared += 1
            entry_lines, entry_ok = self.verdict(name, entry, base)
            lines.extend(entry_lines)
            ok = ok and entry_ok
        header = (
            f"baseline comparison — {compared} compared, "
            f"{'ok' if ok else 'REGRESSED'} (fail threshold: {self.threshold})"
        )
        return [header, *lines], ok


def _serial_verdict(
    name: str, entry: dict, base: dict
) -> tuple[list[str], bool]:
    """Fail a serial time above :data:`REGRESSION_FACTOR` times the
    baseline *and* :data:`REGRESSION_MIN_DELTA_SECONDS` slower, or a
    changed ``serial_nodes_visited`` (``NODES CHANGED``: the same
    workload walked a different enumeration tree).  Entries where
    either side lacks the node count are not node-gated; other columns
    (parallel, planner, older baselines' per-backend columns) are not
    gated at all."""
    base_serial = base["serial_seconds"]
    serial = entry["serial_seconds"]
    speedup = base_serial / serial if serial > 0 else float("inf")
    regressed = (
        base_serial > 0
        and serial > REGRESSION_FACTOR * base_serial
        and serial - base_serial > REGRESSION_MIN_DELTA_SECONDS
    )
    status = "REGRESSION" if regressed else (
        "faster" if speedup >= 1.0 else "slower"
    )
    lines = [
        f"  {name}: serial {format_seconds(base_serial)} -> "
        f"{format_seconds(serial)} (x{speedup:.2f}, {status})"
    ]
    base_nodes = base.get("serial_nodes_visited")
    nodes = entry.get("serial_nodes_visited")
    nodes_changed = (
        base_nodes is not None and nodes is not None and nodes != base_nodes
    )
    if nodes_changed:
        lines.append(
            f"  {name}: NODES CHANGED — serial_nodes_visited "
            f"{base_nodes} -> {nodes}"
        )
    return lines, not (regressed or nodes_changed)


# ``repro bench --compare``: benchmarks match by name, and a workload
# is compared only when its configuration (:data:`_COMPARE_KEYS`) is
# identical.  A current entry with no baseline fails: a silently
# skipped workload is a hole in the regression gate.
compare_reports = Gate(
    key="name",
    compare_keys=_COMPARE_KEYS,
    verdict=_serial_verdict,
    threshold=(
        f"serial > {REGRESSION_FACTOR:g}x baseline, serial_nodes_visited "
        "changed, or a current entry with no baseline"
    ),
    rebaseline=_REBASELINE_COMMAND,
).compare
