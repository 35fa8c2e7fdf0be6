"""The one execution planner: every ``"auto"`` of a mine, resolved once.

:func:`plan` resolves a mine's ``strategy``, ``n_jobs`` and ``backend``
from one pass over the items frequent for the consequent at ``minsup``.
The pass counts them (``f``) and sums their *support mass*
``Σ |R(i)|``.  ``strategy="auto"`` takes the column walk when ``2**f``,
the most closed sets ``f`` items can have, is within
:data:`AUTO_COLUMN_FACTOR` closed sets per row (:func:`column_fits`,
which each hybrid partition also asks for its own rows); otherwise the
mass over the squared row count is the density that separates tall
data, where hybrid wins, from wide data, where it loses (DESIGN.md
§13).  The mass
times ``1 + k`` (or the row count for FARMER) is the work behind
``n_jobs="auto"`` (DESIGN.md §9).  :mod:`repro.parallel` re-exports
:func:`plan`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import backends

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = [
    "AUTO_COLUMN_FACTOR",
    "AUTO_JOBS",
    "AUTO_STRATEGY",
    "STRATEGIES",
    "Plan",
    "auto_strategy_stats",
    "column_fits",
    "plan",
    "planner_serial_fallbacks",
    "resolve_n_jobs",
    "support_mass",
    "usable_cpus",
]

# Sentinel accepted everywhere an ``n_jobs`` is: let the planner decide.
AUTO_JOBS = "auto"

# Mining strategies accepted by ``mine_topk(strategy=...)`` and the
# service's ``/mine``; ``"auto"`` is resolved by :func:`plan`, which may
# also answer ``"column"``, a strategy no caller can ask for.
STRATEGIES = ("direct", "hybrid")
AUTO_STRATEGY = "auto"

# A mine takes the column walk when 2**f <= AUTO_COLUMN_FACTOR * n_rows
# for f frequent items (:func:`column_fits`).  2**f bounds the closed
# sets, i.e. the column walk's recorded nodes, on every input; the row
# walk's first level alone has n_rows nodes.  On the DESIGN.md §13 table
# every shape where the column walk won or tied has 2**f / n_rows <= 86
# and every one where it lost has 642 or more; 128 sits in that gap.
AUTO_COLUMN_FACTOR = 128

# n_jobs="auto" thresholds in work units, below which pool dispatch
# eats the speedup.  On the per-class RCBT batches (DESIGN.md §9) the
# pool wins 1.3-2.2x at 33k-775k units over a dataset the workers hold
# and gains nothing (0.70-1.04x) over a fresh one; 400k keeps small
# cold fits serial.
_AUTO_TOPK_SERIAL_UNITS = 400_000
_AUTO_FARMER_SERIAL_UNITS = 100_000

# n_jobs="auto" decisions that resolved to serial, and what every
# strategy="auto" resolved to, process-wide.
_LOCK = threading.Lock()
_SERIAL_FALLBACKS = 0
_AUTO_STRATEGY_CHOICES = {"column": 0, "direct": 0, "hybrid": 0}


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set (which ``taskset``
    and cgroup cpusets shrink) where the platform has one."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Translate a user ``n_jobs`` into a concrete worker count.

    ``None`` or ``0`` mean "all usable CPUs" (:func:`usable_cpus`);
    negative values count back from that count (``-1`` = all, ``-2`` =
    all but one, the joblib convention); positive values are used as
    given.  The :data:`AUTO_JOBS` sentinel is workload-dependent and
    resolved by :func:`plan`, not here.
    """
    if n_jobs == AUTO_JOBS:
        raise ValueError(
            "n_jobs='auto' is resolved per workload by plan; "
            "resolve_n_jobs only handles integers"
        )
    cpus = usable_cpus()
    if n_jobs is None or n_jobs == 0:
        return cpus
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return n_jobs


def planner_serial_fallbacks() -> int:
    """How many ``n_jobs="auto"`` decisions resolved to serial."""
    return _SERIAL_FALLBACKS


def column_fits(frequent_items: int, n_rows: int) -> bool:
    """Whether ``frequent_items`` items over ``n_rows`` rows take the
    column walk: their ``2**f`` closed sets at most are within
    :data:`AUTO_COLUMN_FACTOR` per row.  :func:`plan` asks it for a
    whole ``strategy="auto"`` mine, and every hybrid partition asks it
    for its own rows (:func:`repro.core.hybrid.mine_hybrid_partition`).
    """
    return 1 << frequent_items <= AUTO_COLUMN_FACTOR * n_rows


def auto_strategy_stats() -> dict:
    """Cumulative ``strategy="auto"`` choices, for honest reporting."""
    with _LOCK:
        return dict(_AUTO_STRATEGY_CHOICES)


@dataclass(frozen=True)
class Plan:
    """How one mine runs.  ``support_mass`` is ``None`` when no
    ``"auto"`` needed it and the caller had not counted it (a hybrid
    mine's scan always has); ``frequent_items`` is counted by the same
    pass, and only by it."""

    strategy: str
    workers: int
    support_mass: Optional[int]
    n_rows: int
    frequent_items: Optional[int] = None

    @property
    def density(self) -> Optional[float]:
        """Support mass over rows squared: frequent items per row ÷ rows."""
        if self.support_mass is None:
            return None
        return self.support_mass / max(1, self.n_rows) ** 2


def support_mass(item_rows: list[int], positive: int, minsup: int) -> int:
    """Σ ``|R(i)|`` over the items of ``item_rows`` whose rows hold at
    least ``minsup`` rows of the ``positive`` class mask."""
    return sum(
        rows.bit_count() for rows in item_rows
        if (rows & positive).bit_count() >= minsup
    )


def plan(
    dataset: "DiscretizedDataset",
    consequent,
    minsup,
    *,
    task: str,
    k: int = 1,
    n_jobs: "int | str | None" = 1,
    strategy: str = "direct",
    backend: Optional[str] = None,
    mass: Optional[int] = None,
) -> Plan:
    """Resolve one mine's ``strategy``, ``n_jobs`` and ``backend``.

    The only place an ``"auto"`` is resolved.  ``task`` is ``"topk"``
    (one top-k mine), ``"farmer"`` or ``"requests"`` (a
    :func:`~repro.parallel.mine_topk_requests` batch: ``consequent`` and
    ``minsup`` are per-request sequences whose masses and item counts
    add up).  Explicit values are validated and never read ``dataset``;
    an ``"auto"`` reads the frequent items once from ``item_row_sets()``
    and ``class_mask()``, unless the caller passes the ``mass`` it
    already counted for an ``n_jobs="auto"`` (a hybrid mine's pass one;
    ``dataset`` then only gives ``n_rows``).  ``strategy="auto"``
    resolves to ``"column"`` when :func:`column_fits` holds for the
    ``f`` frequent items, else asks
    :func:`repro.core.hybrid.plan_auto_strategy` with the density, and
    is counted (:func:`auto_strategy_stats`); ``n_jobs="auto"`` stays
    serial (counted) when one CPU is usable or the work is below the
    task's threshold, else takes every usable CPU; ``backend`` goes
    through :func:`repro.core.backends.resolve_backend`.  A direct or
    column top-k mine is one walk, so its plan has one worker.
    """
    global _SERIAL_FALLBACKS
    if strategy not in (*STRATEGIES, AUTO_STRATEGY):
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of: "
            f"{', '.join((*STRATEGIES, AUTO_STRATEGY))}"
        )
    n_rows = dataset.n_rows
    backends.resolve_backend(backend, n_rows=n_rows, task=task)
    frequent = None
    if strategy == AUTO_STRATEGY or (mass is None and n_jobs == AUTO_JOBS
                                     and (task, strategy) != ("topk", "direct")):
        pairs = (
            zip(consequent, minsup) if task == "requests"
            else [(consequent, minsup)]
        )
        item_rows = dataset.item_row_sets()
        mass = frequent = 0
        for c, s in pairs:
            positive = dataset.class_mask(c)
            for rows in item_rows:
                if (rows & positive).bit_count() >= s:
                    mass += rows.bit_count()
                    frequent += 1
    if strategy == AUTO_STRATEGY:
        if column_fits(frequent, n_rows):
            strategy = "column"
        else:
            from . import hybrid  # the density rung lives with the miner

            strategy = hybrid.plan_auto_strategy(mass / max(1, n_rows) ** 2)
        with _LOCK:
            _AUTO_STRATEGY_CHOICES[strategy] += 1
    if task == "topk" and strategy != "hybrid":
        workers = 1
    elif n_jobs != AUTO_JOBS:
        workers = resolve_n_jobs(n_jobs)
    else:
        if task == "farmer":
            work, threshold = mass * n_rows, _AUTO_FARMER_SERIAL_UNITS
        else:
            work, threshold = mass * (1 + k), _AUTO_TOPK_SERIAL_UNITS
        workers = usable_cpus()
        if workers <= 1 or work < threshold:
            workers = 1
            with _LOCK:
                _SERIAL_FALLBACKS += 1
    return Plan(strategy, workers, mass, n_rows, frequent)
