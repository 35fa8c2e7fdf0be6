"""Shared infrastructure for the experiment drivers.

Each table/figure of the paper's Section 6 has a module here exposing
``run(...) -> result`` and ``render(result) -> str``; this module holds
what they share — workload preparation, wall-clock measurement with
budgets, and plain-text table rendering that mirrors the paper's layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..data.loaders import Benchmark, load_benchmark

__all__ = [
    "DATASET_NAMES",
    "prepare",
    "prepare_all",
    "Timing",
    "timed",
    "render_table",
    "format_seconds",
]

DATASET_NAMES = ("ALL", "LC", "OC", "PC")


def prepare(name: str, scale: float = 1.0, use_cache: bool = True) -> Benchmark:
    """Generate and discretize one paper-shaped dataset."""
    return load_benchmark(name, scale=scale, use_cache=use_cache)


def _prepare_job(job: tuple[str, float, bool]) -> Benchmark:
    # Module-level so it pickles into parallel_map worker processes.
    name, scale, use_cache = job
    return prepare(name, scale, use_cache)


def prepare_all(
    scale: float = 1.0,
    datasets: Sequence[str] = DATASET_NAMES,
    use_cache: bool = True,
    n_jobs: int = 1,
) -> dict[str, Benchmark]:
    """Prepare several datasets keyed by their code.

    ``n_jobs`` != 1 generates/discretizes the datasets in worker
    processes (``None``/0 = all cores); generation is seeded per dataset,
    so the outputs are identical to the serial path.
    """
    if n_jobs != 1 and len(datasets) > 1:
        from ..parallel import parallel_map

        jobs = [(name, scale, use_cache) for name in datasets]
        prepared = parallel_map(_prepare_job, jobs, n_jobs=n_jobs)
        return dict(zip(datasets, prepared))
    return {name: prepare(name, scale, use_cache) for name in datasets}


@dataclass
class Timing:
    """One timed run; ``completed`` False means a budget cut it short."""

    seconds: float
    completed: bool = True
    detail: dict = field(default_factory=dict)

    def render(self) -> str:
        return format_seconds(self.seconds) + ("" if self.completed else "+")


def timed(fn: Callable[[], object]) -> tuple[Timing, object]:
    """Run ``fn`` and measure wall-clock time.

    The callee signals truncation by returning an object whose
    ``stats.completed`` is False, as every miner's result does.
    """
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    stats = getattr(result, "stats", None)
    completed = bool(getattr(stats, "completed", True))
    return Timing(seconds=elapsed, completed=completed), result


def format_seconds(seconds: float) -> str:
    """Human-scale duration: microseconds up to minutes."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 60.0:.1f}min"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Plain-text table with column alignment (first column left)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells)) if cells
        else len(headers[col])
        for col in range(len(headers))
    ]

    def _line(row: Sequence[str]) -> str:
        parts = []
        for col, value in enumerate(row):
            if col == 0:
                parts.append(value.ljust(widths[col]))
            else:
                parts.append(value.rjust(widths[col]))
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(_line(list(headers)))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(_line(row) for row in cells)
    return "\n".join(lines)
