"""Hybrid column-then-row enumeration (the Section 8 extension).

The paper's row enumeration assumes few rows and many columns.  Its
discussion section sketches the extension to *tall* datasets: "utilizing
column-wise mining first, then switching to row-wise enumeration in later
levels to mine top-k covering rules in the partition formed by
column-wise mining, and finally aggregating the top-k covering rules in
all partitions."

This module implements that sketch as the production tall path, over a
replayable :class:`~repro.data.streaming.RowChunkSource` (a materialized
dataset is wrapped in one), so the full cohort is never resident:

1. **Column phase** — one partition per frequent item ``i``: the rows
   containing ``i``, with the item universe restricted to *frequent*
   items ``j >= i``.  Because every antecedent mined inside the
   partition contains ``i``, its support set lies entirely inside the
   partition, so supports and confidences measured locally are exact
   global values.  Pass one (:func:`_scan`) reads the source once for the
   per-item row bitsets, the class mask and the frequent items; each
   partition job then reads the source once more and keeps only its own
   rows, so no partition is resident except the ones being mined.
2. **Row phase** — ordinary MineTopkRGS row enumeration inside each
   partition.  Partitions are independent jobs for
   :func:`~repro.parallel.run_jobs`, which mines them in anchor order
   in this process or fans them out over the warm
   :class:`~repro.parallel.MinerPool` (worker crashes are retried,
   budget/cancel ride the shared slot array).  A partition whose stop
   lands before its read ends is skipped, on either path.
3. **Aggregation** — each discovered group is attributed to the
   partition of its closure's *smallest* item (so every group is
   produced exactly once), and the global per-row top-k lists are built
   from that population in one sorted pass
   (:func:`~repro.core.rules.build_topk_lists`).
   The local→global translation is one ``&`` fold over the pass-one
   item bitsets (the antecedent contains the anchor, so the fold *is*
   the group's global row set), and the canonicality test is one subset
   check per lower frequent anchor — no per-bit Python loops.

The output is identical to :func:`repro.core.topk_miner.mine_topk` (the
cross-validation tests assert this); the benefit is that each row
enumeration runs over a partition instead of the whole table, and peak
memory is the partitions being mined rather than the cohort.

Restricting partition rows to *frequent* items >= the anchor is exact: a
globally infrequent item is infrequent in every partition too, so the
per-partition mining view would discard it anyway.  And the local
closure needs no re-derivation: any item common to an emitted group's
rows has consequent-class support >= the group's support >= minsup,
hence is globally frequent; restricted to ids >= the anchor such items
are in the partition's universe and therefore already in the local
closure, and a common frequent item *below* the anchor is exactly what
the canonicality test rejects.  So for every group that survives
aggregation, the partition-local antecedent *is* the full global
closure.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .bitset import popcount
from .enumeration import ENGINES
# auto_strategy_stats is the planner's counter, re-exported for callers
# that read it beside the density rung.
from .planner import (
    AUTO_STRATEGY,
    STRATEGIES,
    auto_strategy_stats,
    plan,
    support_mass,
)
from .rules import RuleGroup, build_topk_lists
from .topk_miner import TopkResult, maybe_check_result, mine_topk

if TYPE_CHECKING:  # pragma: no cover - imports are for annotations only
    from ..data.dataset import DiscretizedDataset
    from ..data.streaming import RowChunkSource
    from ..parallel import MineRequest

__all__ = [
    "AUTO_HYBRID_DENSITY",
    "AUTO_STRATEGY",
    "HybridPartitionRequest",
    "HybridStats",
    "STRATEGIES",
    "auto_strategy_stats",
    "mine_hybrid_partition",
    "mine_topk_hybrid",
    "plan_auto_strategy",
]

# The planner's density rung for a strategy="auto" that the column rung
# did not take, on the density support mass / rows² (mean frequent items
# per row ÷ rows).  Every measured shape at 0.038 or below mines faster
# hybrid than direct, every paper shape (0.59 and up) 50x or more faster
# direct; between 0.057 and 0.083 the outcomes mix within ~17 ms
# (DESIGN.md §13).
AUTO_HYBRID_DENSITY = 0.05


def plan_auto_strategy(density: float) -> str:
    """``strategy="auto"`` from the density; ``planner`` counts it."""
    return "hybrid" if density < AUTO_HYBRID_DENSITY else "direct"


@dataclass
class HybridStats:
    """Aggregate statistics of a hybrid run.

    ``completed`` is the honesty flag: False as soon as any partition
    hit a budget or the run was cancelled/timed out before a partition's
    read ended (``n_skipped_partitions`` counts the ones never mined).
    ``total_cells`` is the full-matrix size, summed over pass one;
    ``peak_resident_cells`` is the largest partition's cells, which is
    what one partition mine holds.  ``spilled_partitions`` is always 0:
    no partition is written anywhere.
    """

    n_partitions: int = 0
    n_skipped_partitions: int = 0
    total_nodes: int = 0
    max_partition_rows: int = 0
    completed: bool = True
    total_cells: int = 0
    peak_resident_cells: int = 0
    spilled_partitions: int = 0


class _Pass(NamedTuple):
    """Pass one over a source; ``n_rows`` also lets :func:`plan` read it."""

    n_rows: int
    total_cells: int
    item_rows: list[int]
    class_mask: int
    frequent: list[int]


def _scan(source: "RowChunkSource", consequent: int, minsup: int) -> _Pass:
    """Pass one: item bitsets, class mask, frequent items, cell count."""
    item_rows = [0] * len(source.items)
    class_mask = 0
    total_cells = 0
    n_rows = n_labels = 0
    for rows, labels in source.chunks():
        for row in rows:
            mark = 1 << n_rows
            for item in row:
                item_rows[item] |= mark
            total_cells += len(row)
            n_rows += 1
        for label in labels:
            if int(label) == consequent:
                class_mask |= 1 << n_labels
            n_labels += 1
    if n_labels != n_rows:
        raise ValueError(
            f"chunk source yielded {n_labels} labels for {n_rows} rows"
        )
    # Frequent items by consequent-class support (Figure 3 step 1).
    frequent = [
        item
        for item in range(len(item_rows))
        if popcount(item_rows[item] & class_mask) >= minsup
    ]
    return _Pass(n_rows, total_cells, item_rows, class_mask, frequent)


@dataclass(frozen=True)
class HybridPartitionRequest:
    """One hybrid partition mine: a pool job over the run's source.

    The partition is the source's rows that hold ``anchor``, each cut to
    ``items`` (the frequent items from the anchor on), in global row
    order.  ``mine`` holds the per-partition :func:`mine_topk`
    arguments.
    """

    anchor: int
    mine: "MineRequest"
    items: tuple[int, ...]

    def run(self, source: "RowChunkSource", cancel=None,
            time_budget: Optional[float] = None):
        """Mine this partition; see :func:`mine_hybrid_partition`."""
        return mine_hybrid_partition(
            self, source, cancel=cancel, time_budget=time_budget
        )


def mine_hybrid_partition(
    request: HybridPartitionRequest,
    source: "RowChunkSource",
    cancel=None,
    time_budget: Optional[float] = None,
):
    """Read one partition from ``source`` and mine it.

    Called through :meth:`HybridPartitionRequest.run`, in this process
    or in a pool worker (the pool bridges its slot cancellation into
    ``cancel`` here).  The read polls ``cancel`` and the deadline before
    the first chunk and after each one; a stop there returns ``None``
    without reading further, and the caller counts the partition as
    skipped.  Otherwise returns ``(payload, stats)``: the payload is a
    tuple of ``(sorted antecedent, support, confidence)`` triples —
    supports measured inside the partition are exact global values, so
    the parent only re-derives row sets, never counters.
    """
    deadline = (
        None if time_budget is None else time.monotonic() + time_budget
    )

    def stopped() -> bool:
        return (cancel is not None and cancel.is_set()) or (
            deadline is not None and time.monotonic() >= deadline
        )

    partition = _read_partition(request, source, stopped)
    if partition is None:
        return None
    result = mine_topk(
        partition, **asdict(request.mine),
        time_budget=(
            None if deadline is None
            else max(deadline - time.monotonic(), 0.0)
        ),
        cancel=cancel,
    )
    payload = tuple(
        (tuple(sorted(group.antecedent)), group.support, group.confidence)
        for group in result.unique_groups()
    )
    return payload, result.stats


def _read_partition(
    request: HybridPartitionRequest, source: "RowChunkSource", stopped
) -> Optional["DiscretizedDataset"]:
    """The partition's dataset, or ``None`` once ``stopped()`` holds.

    A function of its own so that no chunk outlives the read.
    """
    from ..data.dataset import DiscretizedDataset

    if stopped():
        return None
    anchor, keep = request.anchor, frozenset(request.items)
    rows: list[frozenset[int]] = []
    labels: list[int] = []
    for chunk_rows, chunk_labels in source.chunks():
        for row, label in zip(chunk_rows, chunk_labels):
            if anchor in row:
                rows.append(keep.intersection(row))
                labels.append(label)
        if stopped():
            return None
    return DiscretizedDataset(
        rows,
        labels,
        source.items,
        class_names=list(source.class_names),
        name=f"{source.name}|{anchor}",
    )


def mine_topk_hybrid(
    dataset: Optional["DiscretizedDataset"] = None,
    consequent: int = 1,
    minsup: int = 1,
    k: int = 1,
    engine: str = "bitset",
    node_budget_per_partition: Optional[int] = None,
    spill_dir=None,
    *,
    source: Optional["RowChunkSource"] = None,
    max_resident_cells: Optional[int] = None,
    time_budget: Optional[float] = None,
    cancel=None,
    n_jobs: Union[int, str, None] = 1,
    backend=None,
    initialize_single_items: bool = True,
    dynamic_minsup: bool = True,
    use_topk_pruning: bool = True,
    fault=None,
) -> TopkResult:
    """Top-k covering rule groups via column-partitioned row enumeration.

    Args:
        dataset: materialized discretized dataset.  Exactly one of
            ``dataset`` and ``source`` must be given; a dataset is
            wrapped in a chunk source so both entries share one path.
        consequent: class id of the rule consequent.
        minsup: absolute minimum support.
        k: rule groups to keep per row.
        engine: row-enumeration engine used inside each partition.
        node_budget_per_partition: optional per-partition node cap; a
            capped partition marks the overall result incomplete.
        spill_dir, max_resident_cells: accepted and ignored.  Partitions
            are read from the source when they are mined, so there is
            nothing to spill or budget; perfbench's ``tall
            hybrid+spill`` op still passes both.
        source: a replayable :class:`~repro.data.streaming.RowChunkSource`
            to mine without ever materializing the cohort.
        time_budget: wall-clock budget in seconds for the whole call;
            on expiry the remaining partitions are skipped and the
            result is marked incomplete.
        cancel: object with ``is_set()`` polled between the chunks of
            each partition's read and inside its enumeration.
        n_jobs: partition fan-out over the warm miner pool, resolved
            by :func:`repro.core.planner.plan` after pass one (``"auto"``
            plans from the support mass the scan counted); 1 mines the
            partitions in anchor order in this process.
        backend: ``None``, ``"int"`` or ``"auto"`` (see
            :mod:`repro.core.backends`); ``"auto"`` is planned once
            against the *full* cohort's row count.
        initialize_single_items, dynamic_minsup, use_topk_pruning:
            Section 4.1.1 optimization flags, forwarded to each
            per-partition mine.
        fault: deterministic :class:`repro.parallel.FaultPlan` for the
            pool path (testing hook; ignored by partitions mined in
            this process).

    Returns:
        A :class:`TopkResult` equal to the direct miner's output; its
        ``stats`` sums the per-partition counters and records the
        :class:`~repro.core.planner.Plan`, and its ``hybrid_stats``
        carries the :class:`HybridStats`.  Under ``REPRO_CHECK`` a
        result mined from a ``dataset`` is audited against it.
    """
    started = time.perf_counter()
    start_monotonic = time.monotonic()
    if (dataset is None) == (source is None):
        raise ValueError("provide exactly one of dataset= and source=")
    if source is None:
        from ..data.streaming import DatasetChunkSource

        source = DatasetChunkSource(dataset)
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    n_classes = len(source.class_names)
    if not 0 <= consequent < n_classes:
        raise ValueError(
            f"consequent {consequent} out of range for {n_classes} classes"
        )

    passed = _scan(source, consequent, minsup)
    item_rows, frequent = passed.item_rows, passed.frequent
    # Planned against the full cohort from pass one's item bitsets; the
    # partitions need no backend.
    planned = plan(
        passed, consequent, minsup, task="topk", k=k, n_jobs=n_jobs,
        strategy="hybrid", backend=backend,
        mass=support_mass(item_rows, passed.class_mask, minsup),
    )
    stats = HybridStats(
        n_partitions=len(frequent),
        total_cells=passed.total_cells,
        peak_resident_cells=max(
            (
                sum(popcount(item_rows[anchor] & item_rows[item])
                    for item in frequent[position:])
                for position, anchor in enumerate(frequent)
            ),
            default=0,
        ),
        max_partition_rows=max(
            (popcount(item_rows[anchor]) for anchor in frequent), default=0
        ),
    )

    from ..parallel import MineRequest, merge_stats, run_jobs

    mine = MineRequest(
        consequent=consequent,
        minsup=minsup,
        k=k,
        engine=engine,
        initialize_single_items=initialize_single_items,
        dynamic_minsup=dynamic_minsup,
        use_topk_pruning=use_topk_pruning,
        node_budget=node_budget_per_partition,
    )
    requests = [
        HybridPartitionRequest(anchor, mine, tuple(frequent[position:]))
        for position, anchor in enumerate(frequent)
    ]
    # The budget covers the whole call, pass one too.
    time_left = (
        None if time_budget is None
        else max(time_budget - (time.monotonic() - start_monotonic), 0.0)
    )
    outputs = run_jobs(
        source, requests, planned.workers, time_left, cancel, fault=fault
    )

    # -- aggregation ------------------------------------------------------
    finished = []
    partition_stats = []
    for request, output in zip(requests, outputs):
        if output is None:
            # Stopped before the partition's read ended.
            stats.n_skipped_partitions += 1
            stats.completed = False
            continue
        payload, mined = output
        partition_stats.append(mined)
        finished.append((request.anchor, payload))
    miner_stats = merge_stats(partition_stats, engine=f"hybrid/{engine}")
    stats.total_nodes = miner_stats.nodes_visited
    stats.completed = miner_stats.completed = (
        stats.completed and miner_stats.completed
    )
    groups = _canonical_groups(passed, consequent, finished)
    per_row = build_topk_lists(k, groups, passed.class_mask)
    miner_stats.groups_emitted = sum(
        len(groups) for groups in per_row.values()
    )
    miner_stats.elapsed_seconds = time.perf_counter() - started
    miner_stats.plan = planned
    result = TopkResult(
        per_row=per_row,
        consequent=consequent,
        minsup=minsup,
        k=k,
        stats=miner_stats,
        hybrid_stats=stats,
    )
    if dataset is not None:
        maybe_check_result(dataset, result)
    return result


def _canonical_groups(
    passed: _Pass, consequent: int, finished: list
) -> list[RuleGroup]:
    """The partitions' groups, each kept only in its canonical partition.

    ``finished`` holds ``(anchor, payload)`` per mined partition.  A
    group is kept where its anchor is its closure's smallest frequent
    item, so no group is kept twice and the global lists can be built
    in one sorted pass.
    """
    item_rows = passed.item_rows
    anchor_position = {
        anchor: position for position, anchor in enumerate(passed.frequent)
    }
    groups = []
    for anchor, payload in finished:
        lower = passed.frequent[: anchor_position[anchor]]
        for antecedent_items, support, confidence in payload:
            # The antecedent contains the anchor, so this intersection
            # *is* the global row set (no per-bit translation loops).
            global_bits = item_rows[antecedent_items[0]]
            for item in antecedent_items[1:]:
                global_bits &= item_rows[item]
            if any(
                (global_bits & item_rows[item]) == global_bits for item in lower
            ):
                # A lower frequent item covers every row: the closure's
                # smallest item is below this anchor, so the group's
                # canonical partition is an earlier one.
                continue
            groups.append(
                RuleGroup(
                    antecedent=frozenset(antecedent_items),
                    consequent=consequent,
                    row_set=global_bits,
                    support=support,
                    confidence=confidence,
                )
            )
    return groups
