"""Hybrid column-then-row enumeration (the Section 8 extension).

The paper's row enumeration assumes few rows and many columns.  Its
discussion section sketches the extension to *tall* datasets: "utilizing
column-wise mining first, then switching to row-wise enumeration in later
levels to mine top-k covering rules in the partition formed by
column-wise mining, and finally aggregating the top-k covering rules in
all partitions."

This module implements that sketch as the production tall path:

1. **Column phase** — one partition per frequent item ``i``: the rows
   containing ``i``, with the item universe restricted to *frequent*
   items ``j >= i``.  Because every antecedent mined inside the
   partition contains ``i``, its support set lies entirely inside the
   partition, so supports and confidences measured locally are exact
   global values.  Partitions are built by a streaming two-pass
   :class:`_PartitionBuilder` over a replayable
   :class:`~repro.data.streaming.RowChunkSource` — the full cohort is
   never resident; pass one accumulates only the per-item row bitsets
   and labels, pass two buffers partition rows under a cell budget and
   spills the overflow to per-partition JSONL files in a unique
   per-run directory (the paper's "database projection (disk-based)
   techniques" route).
2. **Row phase** — ordinary MineTopkRGS row enumeration inside each
   partition.  Partitions are independent jobs for
   :func:`~repro.parallel.run_jobs`, which mines them in anchor order
   in this process or fans them out over the warm
   :class:`~repro.parallel.MinerPool` (worker crashes are retried,
   budget/cancel ride the shared slot array).  A partition that starts
   after a cancel or an expired budget is skipped, on either path.
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
memory is bounded by the cell budget rather than the cohort size.

Why the local closure needs no re-derivation: any item common to an
emitted group's rows has consequent-class support >= the group's
support >= minsup, hence is globally frequent; restricted to ids >= the
anchor such items are in the partition's universe and therefore already
in the local closure, and a common frequent item *below* the anchor is
exactly what the canonicality test rejects.  So for every group that
survives aggregation, the partition-local antecedent *is* the full
global closure.
"""

from __future__ import annotations

import json
import shutil
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

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
from .topk_miner import TopkResult, mine_topk

if TYPE_CHECKING:  # pragma: no cover - imports are for annotations only
    from ..data.dataset import DiscretizedDataset
    from ..data.streaming import RowChunkSource
    from ..parallel import MineRequest

__all__ = [
    "AUTO_HYBRID_DENSITY",
    "AUTO_STRATEGY",
    "HybridPartitionRequest",
    "HybridStats",
    "PartitionCatalog",
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
    hit a budget or the run was cancelled/timed out between partitions
    (``n_skipped_partitions`` counts the ones never mined).  The
    streaming builder reports ``total_cells`` (the full-matrix size,
    summed over pass one) against ``peak_resident_cells`` (the most
    partition cells ever buffered in memory) and
    ``spilled_partitions`` — the "never materializes the cohort" claim,
    measured rather than asserted.
    """

    n_partitions: int = 0
    n_skipped_partitions: int = 0
    total_nodes: int = 0
    max_partition_rows: int = 0
    completed: bool = True
    total_cells: int = 0
    peak_resident_cells: int = 0
    spilled_partitions: int = 0


class PartitionCatalog:
    """Item catalog + class names shared by every partition job.

    This is the ``dataset`` every :class:`HybridPartitionRequest` job
    runs over: pickled once per run (the per-partition rows travel in
    the requests), weak-keyed by the payload cache like any dataset.
    """

    __slots__ = ("items", "class_names", "name", "__weakref__")

    def __init__(self, items, class_names, name: str) -> None:
        self.items = list(items)
        self.class_names = list(class_names)
        self.name = name


@dataclass(frozen=True)
class HybridPartitionRequest:
    """One hybrid partition mine: a pool job over a :class:`PartitionCatalog`.

    ``mine`` holds the per-partition :func:`mine_topk` arguments.
    ``rows`` holds the resident tail (tuples of frequent item ids
    ``>= anchor``, in global row order); rows spilled by the builder are
    read back from ``spill_path`` (JSONL, one ``[label, items]`` line
    per row, written in global row order before the resident tail).
    """

    anchor: int
    mine: "MineRequest"
    rows: Sequence = ()
    labels: Sequence = ()
    spill_path: Optional[str] = None

    def run(self, catalog: PartitionCatalog, cancel=None,
            time_budget: Optional[float] = None):
        """Mine this partition; see :func:`mine_hybrid_partition`.

        Returns ``None``, without reading its rows or spill file, when
        the partition starts after the stop: ``cancel`` is set or the
        budget is spent.  The caller counts it as skipped.
        """
        if (cancel is not None and cancel.is_set()) or (
            time_budget is not None and time_budget <= 0
        ):
            return None
        return mine_hybrid_partition(
            self, catalog, cancel=cancel, time_budget=time_budget
        )


def _request_rows(
    request: HybridPartitionRequest,
) -> tuple[list[frozenset[int]], list[int]]:
    """Materialize one partition's rows: spilled prefix, resident tail."""
    rows: list[frozenset[int]] = []
    labels: list[int] = []
    if request.spill_path is not None:
        with open(request.spill_path, "r", encoding="utf-8") as handle:
            for line in handle:
                label, items = json.loads(line)
                rows.append(frozenset(items))
                labels.append(int(label))
    rows.extend(frozenset(row) for row in request.rows)
    labels.extend(request.labels)
    return rows, labels


def mine_hybrid_partition(
    request: HybridPartitionRequest,
    catalog: PartitionCatalog,
    cancel=None,
    time_budget: Optional[float] = None,
):
    """Mine one partition; returns ``(payload, stats)``.

    Called through :meth:`HybridPartitionRequest.run`, in this process
    or in a pool worker (the pool bridges its slot cancellation into
    ``cancel`` here).  The payload is a tuple of
    ``(sorted antecedent, support, confidence)`` triples — supports
    measured inside the partition are exact global values, so the
    parent only re-derives row sets, never counters.
    """
    from ..data.dataset import DiscretizedDataset

    rows, labels = _request_rows(request)
    partition = DiscretizedDataset(
        rows,
        labels,
        catalog.items,
        class_names=list(catalog.class_names),
        name=f"{catalog.name}|{request.anchor}",
    )
    result = mine_topk(
        partition, **asdict(request.mine), time_budget=time_budget,
        cancel=cancel,
    )
    payload = tuple(
        (tuple(sorted(group.antecedent)), group.support, group.confidence)
        for group in result.unique_groups()
    )
    return payload, result.stats


@dataclass
class _Partition:
    """One anchor's rows while the builder accumulates them."""

    anchor: int
    rows: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    resident_cells: int = 0
    spill_path: Optional[Path] = None
    n_spilled_rows: int = 0

    @property
    def n_rows(self) -> int:
        return self.n_spilled_rows + len(self.rows)


class _PartitionBuilder:
    """Two streaming passes over a replayable chunk source.

    Pass one (:meth:`scan`) folds every chunk into per-item row bitsets,
    the label list, and the cell count — O(items) memory.  Pass two
    (:meth:`build`) re-streams the chunks and appends each row's
    frequent-item suffixes to their anchor partitions; whenever the
    buffered cells exceed ``max_resident_cells`` at a chunk boundary,
    the largest partitions are flushed to append-mode JSONL files until
    the budget holds again.  Spill files live in the caller's unique
    per-run directory and record rows in global row order, so a
    partition reads back exactly as if it had been built in memory.

    Restricting partition rows to *frequent* items >= the anchor is an
    exact optimization: a globally infrequent item is infrequent in
    every partition too, so the per-partition mining view would discard
    it anyway — dropping it here only shrinks the buffers.
    """

    def __init__(
        self,
        source: "RowChunkSource",
        consequent: int,
        minsup: int,
        run_dir: Optional[Path],
        max_resident_cells: Optional[int],
    ) -> None:
        self.source = source
        self.consequent = consequent
        self.minsup = minsup
        self.run_dir = run_dir
        self.max_resident_cells = max_resident_cells
        self.n_rows = 0
        self.total_cells = 0
        self.labels: list[int] = []
        self.item_rows: list[int] = []
        self.class_mask = 0
        self.frequent: list[int] = []
        self.partitions: list[_Partition] = []
        self.peak_resident_cells = 0

    def scan(self) -> None:
        """Pass one: item bitsets, class mask, labels, cell count."""
        item_rows = [0] * len(self.source.items)
        labels: list[int] = []
        total_cells = 0
        row_index = 0
        for rows, chunk_labels in self.source.chunks():
            for row in rows:
                mark = 1 << row_index
                for item in row:
                    item_rows[item] |= mark
                total_cells += len(row)
                row_index += 1
            labels.extend(int(label) for label in chunk_labels)
        if len(labels) != row_index:
            raise ValueError(
                f"chunk source yielded {len(labels)} labels for "
                f"{row_index} rows"
            )
        class_mask = 0
        for row, label in enumerate(labels):
            if label == self.consequent:
                class_mask |= 1 << row
        self.item_rows = item_rows
        self.labels = labels
        self.n_rows = row_index
        self.total_cells = total_cells
        self.class_mask = class_mask
        # Frequent items by consequent-class support (Figure 3 step 1).
        self.frequent = [
            item
            for item in range(len(item_rows))
            if popcount(item_rows[item] & class_mask) >= self.minsup
        ]

    def build(self) -> None:
        """Pass two: accumulate per-anchor partitions under the budget."""
        frequent_set = set(self.frequent)
        partitions = {anchor: _Partition(anchor) for anchor in self.frequent}
        resident = 0
        peak = 0
        for rows, chunk_labels in self.source.chunks():
            for row, label in zip(rows, chunk_labels):
                kept = sorted(item for item in row if item in frequent_set)
                for position, anchor in enumerate(kept):
                    suffix = tuple(kept[position:])
                    partition = partitions[anchor]
                    partition.rows.append(suffix)
                    partition.labels.append(int(label))
                    partition.resident_cells += len(suffix)
                    resident += len(suffix)
            # Peak is sampled before the flush: it measures what this
            # process actually had buffered at the chunk boundary.
            peak = max(peak, resident)
            if (
                self.max_resident_cells is not None
                and resident > self.max_resident_cells
            ):
                resident = self._flush(partitions, resident)
        self.peak_resident_cells = peak
        self.partitions = [partitions[anchor] for anchor in self.frequent]

    def _flush(self, partitions: dict, resident: int) -> int:
        """Spill largest-first until the budget holds again."""
        by_size = sorted(
            partitions.values(),
            key=lambda partition: partition.resident_cells,
            reverse=True,
        )
        for partition in by_size:
            if resident <= self.max_resident_cells:
                break
            if partition.resident_cells == 0:
                break
            resident -= self._spill(partition)
        return resident

    def _spill(self, partition: _Partition) -> int:
        if self.run_dir is None:
            raise ValueError(
                "max_resident_cells requires spill_dir: the builder has "
                "nowhere to flush the overflow"
            )
        if partition.spill_path is None:
            partition.spill_path = (
                self.run_dir / f"p{partition.anchor:05d}.jsonl"
            )
        with partition.spill_path.open("a", encoding="utf-8") as handle:
            for label, row in zip(partition.labels, partition.rows):
                handle.write(json.dumps([label, list(row)]))
                handle.write("\n")
        freed = partition.resident_cells
        partition.n_spilled_rows += len(partition.rows)
        partition.rows = []
        partition.labels = []
        partition.resident_cells = 0
        return freed


def mine_topk_hybrid(
    dataset: Optional["DiscretizedDataset"] = None,
    consequent: int = 1,
    minsup: int = 1,
    k: int = 1,
    engine: str = "bitset",
    node_budget_per_partition: Optional[int] = None,
    spill_dir: Optional[Union[str, Path]] = None,
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
            wrapped in a chunk source so both entries share the
            streaming builder.
        consequent: class id of the rule consequent.
        minsup: absolute minimum support.
        k: rule groups to keep per row.
        engine: row-enumeration engine used inside each partition.
        node_budget_per_partition: optional per-partition node cap; a
            capped partition marks the overall result incomplete.
        spill_dir: when set, partitions beyond the cell budget are
            projected to disk in a unique per-run subdirectory — the
            paper's Section 8 "database projection (disk-based)" route.
            The subdirectory and its files are removed on exit, error
            paths included.
        source: a replayable :class:`~repro.data.streaming.RowChunkSource`
            to mine without ever materializing the cohort.
        max_resident_cells: builder cell budget (items buffered across
            all partition rows).  Requires ``spill_dir``; defaults to 0
            when ``spill_dir`` is set — classic disk projection where
            only the partition being mined is resident — and to
            unlimited otherwise.
        time_budget: wall-clock budget in seconds for the whole call;
            on expiry the remaining partitions are skipped and the
            result is marked incomplete.
        cancel: object with ``is_set()`` polled as each partition
            starts and inside its enumeration.
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
        carries the :class:`HybridStats`.
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
    if max_resident_cells is not None:
        if spill_dir is None:
            raise ValueError("max_resident_cells requires spill_dir")
        if max_resident_cells < 0:
            raise ValueError(
                f"max_resident_cells must be >= 0, got {max_resident_cells}"
            )
    elif spill_dir is not None:
        max_resident_cells = 0

    run_dir: Optional[Path] = None
    if spill_dir is not None:
        # Unique per run: concurrent mines sharing spill_dir never
        # collide, and the finally below owns exactly this subtree.
        # spill_dir itself must already exist (mkdir without parents
        # raises FileNotFoundError otherwise) — the caller owns it.
        run_dir = Path(spill_dir) / f"hybrid-{uuid.uuid4().hex}"
        run_dir.mkdir()
    try:
        builder = _PartitionBuilder(
            source, consequent, minsup, run_dir, max_resident_cells
        )
        builder.scan()
        # Planned against the full cohort from pass one's item bitsets;
        # the partitions need no backend.
        planned = plan(
            builder, consequent, minsup, task="topk", k=k, n_jobs=n_jobs,
            strategy="hybrid", backend=backend, mass=support_mass(
                builder.item_rows, builder.class_mask, minsup
            ),
        )
        builder.build()

        from ..parallel import MineRequest, merge_stats, run_jobs

        stats = HybridStats(
            n_partitions=len(builder.partitions),
            total_cells=builder.total_cells,
            peak_resident_cells=builder.peak_resident_cells,
            spilled_partitions=sum(
                1 for partition in builder.partitions
                if partition.n_spilled_rows
            ),
            max_partition_rows=max(
                (partition.n_rows for partition in builder.partitions),
                default=0,
            ),
        )
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
        # The requests take over the builder's row lists (nothing
        # appends to them after pass two), so every resident row is
        # held once.
        requests = [
            HybridPartitionRequest(
                anchor=partition.anchor,
                mine=mine,
                rows=partition.rows,
                labels=partition.labels,
                spill_path=(
                    str(partition.spill_path)
                    if partition.spill_path is not None
                    else None
                ),
            )
            for partition in builder.partitions
        ]
        catalog = PartitionCatalog(
            source.items, source.class_names, source.name
        )
        # The budget covers the whole call, the builder's passes too.
        time_left = (
            None if time_budget is None
            else max(time_budget - (time.monotonic() - start_monotonic), 0.0)
        )
        outputs = run_jobs(
            catalog, requests, planned.workers, time_left, cancel, fault=fault
        )
    finally:
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)

    # -- aggregation ------------------------------------------------------
    finished = []
    partition_stats = []
    for request, output in zip(requests, outputs):
        if output is None:
            # Started after a cancel or an expired budget.
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
    groups = _canonical_groups(builder, consequent, finished)
    per_row = build_topk_lists(k, groups, builder.class_mask)
    miner_stats.groups_emitted = sum(
        len(groups) for groups in per_row.values()
    )
    miner_stats.elapsed_seconds = time.perf_counter() - started
    miner_stats.plan = planned
    return TopkResult(
        per_row=per_row,
        consequent=consequent,
        minsup=minsup,
        k=k,
        stats=miner_stats,
        hybrid_stats=stats,
    )


def _canonical_groups(
    builder: "_PartitionBuilder", consequent: int, finished: list
) -> list[RuleGroup]:
    """The partitions' groups, each kept only in its canonical partition.

    ``finished`` holds ``(anchor, payload)`` per mined partition.  A
    group is kept where its anchor is its closure's smallest frequent
    item, so no group is kept twice and the global lists can be built
    in one sorted pass.
    """
    item_rows = builder.item_rows
    anchor_position = {
        anchor: position for position, anchor in enumerate(builder.frequent)
    }
    groups = []
    for anchor, payload in finished:
        lower = builder.frequent[: anchor_position[anchor]]
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
