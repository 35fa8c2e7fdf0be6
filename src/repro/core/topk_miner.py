"""MineTopkRGS: discovery of the top-k covering rule groups per row.

This module implements the algorithm of Figure 3.  A depth-first row
enumeration (any engine from :mod:`repro.core.enumeration`) is driven by
:class:`TopkPolicy`, which keeps the k best (confidence, support) pairs of
every consequent-class row during the walk, builds each row's top-k
list once at the end, and prunes with the
*dynamic* thresholds of Section 3:

* ``minconf``/``sup`` are the confidence and support of the least
  significant k-th list entry among the rows the current subtree could
  still cover (``X_p ∪ R_p``, Lemma 3.2 / Equations 1-2);
* a subtree is pruned when its confidence upper bound falls below
  ``minconf``, or ties it with a support upper bound not above ``sup``
  (top-k pruning, Section 4.1.1), or when its support upper bound is
  below ``minsup``;
* both optimizations of Section 4.1.1 are implemented — per-row lists are
  initialized from single-item rule statistics (keyed by support set so
  two lower bounds of one group never occupy two slots), and ``minsup``
  is raised dynamically once every list is full of 100%-confidence
  groups.

The public entry point is :func:`mine_topk`.
"""

from __future__ import annotations

import math
import os
from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .bitset import mask_below

if TYPE_CHECKING:  # pragma: no cover - imports are for annotations only
    from ..data.dataset import DiscretizedDataset
    from .hybrid import HybridStats
from ..errors import MiningBudgetExceeded
from .enumeration import ENGINES, MinerStats, run_enumeration
from .planner import plan
from .rules import RuleGroup, build_topk_lists
from .view import MiningView

__all__ = [
    "ThresholdStore",
    "TopkPolicy",
    "TopkResult",
    "maybe_check_result",
    "mine_topk",
    "relative_minsup",
]


def relative_minsup(
    dataset: "DiscretizedDataset", consequent: int, fraction: float
) -> int:
    """Absolute minsup from a fraction of the consequent class size.

    The paper sets "minimum support at 0.7 of the number of instances of
    the specified class"; this helper performs that conversion.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    class_size = dataset.class_counts()[consequent]
    return max(1, math.ceil(fraction * class_size))


class _CanonicalRowKey:
    """Memoized position-to-row translation for canonical tie-breaking.

    ``TopKList`` breaks exact confidence/support ties by the group's row
    set, but the policy's groups live in enumeration-position space,
    whose order is an engine heuristic (class-dominant, ascending row
    length) — not monotone in row id.  Translating the tie-break key to
    original row space makes the order agree with every consumer that
    compares finalized results (hybrid aggregation).  The final build
    translates each distinct group once, and :meth:`TopkPolicy.finalize`
    reads its final row sets from the same cache.
    """

    __slots__ = ("_view", "_cache")

    def __init__(self, view: MiningView) -> None:
        self._view = view
        self._cache: dict[int, int] = {}

    def __call__(self, group: RuleGroup) -> int:
        rows = self._cache.get(group.row_set)
        if rows is None:
            rows = self._cache[group.row_set] = self._view.positions_to_rows(
                group.row_set
            )
        return rows


class ThresholdStore:
    """Per-position (confidence, support) thresholds with a min-fold.

    The top-k policy maintains one threshold pair per consequent-class
    row (the k-th list entry of Equations 1-2) and, at every pruning
    check, needs the lexicographic minimum of those pairs over the rows
    of a ``threshold_bits`` bitset — once per surviving node, which
    makes it the dominant per-node cost on tall datasets.

    The rows hold few distinct pairs at any one time (lists fill with
    the same strong groups), so the store buckets positions by pair: a
    dict from each distinct ``(kth_conf, kth_sup)`` to the bitset of
    positions holding it, plus the distinct pairs in ascending order.
    ``update`` moves one bit between buckets; ``fold`` returns the first
    pair whose bucket meets ``bits``, which is the same lexicographic
    minimum a per-bit scan finds, in one ``&`` per distinct pair instead
    of one Python iteration per set bit.  Positions start at
    ``(0.0, 0)`` — the threshold of an underfull top-k list.
    """

    __slots__ = ("_pairs", "_buckets", "_order")

    def __init__(self, n_positive: int) -> None:
        initial = (0.0, 0)
        self._pairs: list[tuple[float, int]] = [initial] * n_positive
        self._buckets: dict[tuple[float, int], int] = {}
        self._order: list[tuple[float, int]] = []
        if n_positive:
            self._buckets[initial] = mask_below(n_positive)
            self._order.append(initial)

    def update(self, position: int, conf: float, sup: int) -> None:
        pair = (conf, sup)
        old = self._pairs[position]
        if pair == old:
            return
        self._pairs[position] = pair
        buckets = self._buckets
        bit = 1 << position
        remaining = buckets[old] ^ bit
        if remaining:
            buckets[old] = remaining
        else:
            del buckets[old]
            self._order.remove(old)
        bucket = buckets.get(pair)
        if bucket is None:
            buckets[pair] = bit
            insort(self._order, pair)
        else:
            buckets[pair] = bucket | bit

    def fold(self, bits: int) -> tuple[float, int]:
        """Lexicographic min of ``(conf, sup)`` over the set positions.

        ``bits`` must be non-empty; the caller treats an empty row set
        as unconditionally prunable before consulting thresholds (an
        empty fold returns the ``(inf, 0)`` identity).
        """
        buckets = self._buckets
        for pair in self._order:
            if buckets[pair] & bits:
                return pair
        return float("inf"), 0

    def weakest(self) -> Optional[tuple[float, int]]:
        """The minimum pair over every position (``None`` when empty)."""
        return self._order[0] if self._order else None


class TopkPolicy:
    """Search policy implementing the top-k pruning of Section 4.1.1.

    Figure 3 step 13 offers every found group to the list of each row it
    covers, but only the rows' k-th ``(conf, sup)`` pairs steer the walk
    (Equations 1-2), and each final list depends only on which groups
    were offered to it (:class:`~repro.core.rules.TopKList`).  So during
    the walk the policy keeps just two things:

    * per consequent-class row, its k best ``(conf, sup)`` pairs
      (ascending), whose k-th is mirrored into the :class:`ThresholdStore`;
    * one dict from row set to every group some covered row accepted
      (its pair at most the group's) when it was emitted.

    A group rejected on its pair can never come back, since k-th pairs
    only rise, so :meth:`finalize` builds every list once from the dict
    with :func:`~repro.core.rules.build_topk_lists` and gets the lists the
    per-row offers would have left.  Exact ties and re-emitted groups
    leave the pair lists alone: a tie swaps members of equal pair, and a
    re-emission (a single-item seed found again by the walk) only
    upgrades the antecedent kept in the dict.
    """

    def __init__(
        self,
        view: MiningView,
        k: int,
        initialize_single_items: bool = True,
        dynamic_minsup: bool = True,
        use_topk_pruning: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.view = view
        self.k = k
        self.use_topk_pruning = use_topk_pruning
        self.dynamic_minsup = dynamic_minsup
        self._minsup = view.minsup
        self._positive_mask = view.positive_mask
        self._canonical = _CanonicalRowKey(view)
        # The per-row (kth_conf, kth_sup) pairs mirrored into the
        # threshold store, whose min-fold answers Equations 1-2 at every
        # pruning check.  The checks and ``emit`` read its buckets
        # directly (the store mutates them in place, never rebinds).
        store = self._store = ThresholdStore(view.n_positive)
        self._buckets = store._buckets
        self._order = store._order
        self._pairs: list[list[tuple[float, int]]] = [
            [] for _ in range(view.n_positive)
        ]
        self._groups: dict[int, RuleGroup] = {}
        if initialize_single_items:
            self._seed_single_items()
            if dynamic_minsup:
                self._maybe_raise_minsup()

    # -- policy protocol --------------------------------------------------

    @property
    def minsup(self) -> int:
        return self._minsup

    def loose_prunable(
        self, x_p: int, x_n: int, r_p: int, r_n: int, threshold_bits: int
    ) -> bool:
        sup_ub = x_p + r_p
        if sup_ub < self._minsup or not threshold_bits:
            # Below minsup, or no consequent-class row can still benefit
            # (Lemma 3.2).
            return True
        if not self.use_topk_pruning:
            return False
        # Equations 1-2 inlined (one frame per check): the subtree is
        # prunable iff its bound pair lies below every threshold row's
        # k-th pair, i.e. no row in ``threshold_bits`` holds a pair at
        # most the bound.  The store's pairs ascend, so the scan stops at
        # the first pair above the bound.
        bound = (sup_ub / (sup_ub + x_n), sup_ub)
        buckets = self._buckets
        for pair in self._order:
            if pair > bound:
                return True
            if buckets[pair] & threshold_bits:
                return False
        return True

    # Step 11 is the same test on the scanned bound: ``x_p + m_p``.
    tight_prunable = loose_prunable

    def emit(
        self, items: Sequence[int], position_bits: int, x_p: int, x_n: int
    ) -> None:
        if x_p < self._minsup:
            return
        groups = self._groups
        known = groups.get(position_bits)
        if known is not None:
            # A seed found again by the walk: the closed antecedent
            # replaces the representative item, no pair moves.
            if len(items) > len(known.antecedent):
                groups[position_bits] = RuleGroup(
                    antecedent=frozenset(items),
                    consequent=known.consequent,
                    row_set=position_bits,
                    support=x_p,
                    confidence=known.confidence,
                )
            return
        confidence = x_p / (x_p + x_n)
        pair = (confidence, x_p)
        # Covered rows whose k-th pair is below the group's (improving)
        # or equal to it (an exact tie, decided by the canonical key at
        # finalize).
        buckets = self._buckets
        improving = tied = 0
        for kth in self._order:
            if kth >= pair:
                if kth == pair:
                    tied = buckets[kth]
                break
            improving |= buckets[kth]
        covered = position_bits & self._positive_mask
        improving &= covered
        if not (improving or tied & covered):
            return
        groups[position_bits] = RuleGroup(
            antecedent=frozenset(items),
            consequent=self.view.consequent,
            row_set=position_bits,
            support=x_p,
            confidence=confidence,
        )
        if not improving:
            return
        k = self.k
        pair_lists = self._pairs
        update = self._store.update
        while improving:
            low = improving & -improving
            improving ^= low
            position = low.bit_length() - 1
            pairs = pair_lists[position]
            insort(pairs, pair)
            if len(pairs) > k:
                del pairs[0]
            if len(pairs) == k:
                update(position, *pairs[0])
        if self.dynamic_minsup:
            self._maybe_raise_minsup()

    # -- internals ---------------------------------------------------------

    def _thresholds(self, threshold_bits: int) -> tuple[float, int]:
        """Equations 1-2: the weakest k-th entry among the given rows.

        The pruning checks inline this fold and stop at the bound
        (DESIGN.md §12); this one-call form stays as the named entry
        point for callers outside the walk (perfbench's tracer patches it
        by name, so a traced walk counts no calls here).
        """
        return self._store.fold(threshold_bits)

    def _seed_single_items(self) -> None:
        """Single-item rule groups for the first optimization of §4.1.1.

        Each distinct single-item support set becomes a provisional rule
        group.  The view keeps only items reaching ``minsup``, so every
        set qualifies.  The stored antecedent is one representative
        item; :meth:`finalize` restores the closed upper bound, or the
        walk upgrades it when it emits the closed group.

        The whole population is known before the walk, so one pass over
        it in descending pair order hands every row the pairs of its k
        best seeds, the way :func:`~repro.core.rules.build_topk_lists`
        hands out groups.  No list is built and no canonical key is
        computed: the seeds of one tied run share their pair.  A seed
        joins the group dict when a row it covers is still short as its
        tied run begins, i.e. when some covered row accepts it by the
        rule :meth:`emit` applies.  The store is synced once per row.
        """
        view = self.view
        positive_mask = self._positive_mask
        by_pair: dict[tuple[float, int], list[tuple[int, int]]] = {}
        for row_bits, items in view.single_item_groups().items():
            support = (row_bits & positive_mask).bit_count()
            pair = (support / row_bits.bit_count(), support)
            by_pair.setdefault(pair, []).append((row_bits, items[0]))
        k = self.k
        consequent = view.consequent
        pair_lists = self._pairs
        groups = self._groups
        open_rows = positive_mask
        for pair in sorted(by_pair, reverse=True):
            if not open_rows:
                break
            run_open = open_rows
            for row_bits, item in by_pair[pair]:
                bits = row_bits & run_open
                if not bits:
                    continue
                groups[row_bits] = RuleGroup(
                    antecedent=frozenset((item,)),
                    consequent=consequent,
                    row_set=row_bits,
                    support=pair[1],
                    confidence=pair[0],
                )
                bits &= open_rows
                while bits:
                    low = bits & -bits
                    bits ^= low
                    pairs = pair_lists[low.bit_length() - 1]
                    pairs.append(pair)
                    if len(pairs) == k:
                        open_rows ^= low
        update = self._store.update
        for position, pairs in enumerate(pair_lists):
            pairs.reverse()
            if len(pairs) == k:
                update(position, *pairs[0])

    def _maybe_raise_minsup(self) -> None:
        """Second optimization of Section 4.1.1.

        Once every consequent-class row has k groups all at 100%
        confidence, no group with support below the weakest k-th support
        can enter any list, so ``minsup`` rises to that support.  (The
        paper raises to ``sup + 1``; keeping support-equal groups
        enumerable preserves the canonical tie-break, which may replace
        a k-th entry with an equal-significance group.)

        The store's weakest pair answers this in O(1): an underfull list
        holds ``(0.0, 0)``, so "every list full at confidence 1.0" is
        "the weakest pair has confidence 1.0", and its support is then
        the weakest k-th support.
        """
        weakest = self._store.weakest()
        if weakest is None:
            return
        conf, sup = weakest
        if conf >= 1.0 and sup > self._minsup:
            self._minsup = sup

    def finalize(self) -> dict[int, list[RuleGroup]]:
        """Per-row top-k lists in original row space.

        Every row's list is built once from the accepted groups.
        Provisional single-item entries are upgraded to their closed
        upper bounds, and row bitsets are translated from enumeration
        positions back to the dataset's row ids.  Safe to call more than
        once (it reads the walk's state, it does not consume it).
        """
        view = self.view
        canonical = self._canonical
        lists = build_topk_lists(
            self.k,
            self._groups.values(),
            self._positive_mask,
            canonical_key=canonical,
        )
        # Each listed group is translated once; a tied one already was,
        # when the build broke its tie.  The dict holds one group object
        # per row set, so its id is the key: hashing a tall row set costs
        # a pass over its bits.
        converted: dict[int, RuleGroup] = {}
        result: dict[int, list[RuleGroup]] = {}
        for position, row_id in enumerate(view.order[: view.n_positive]):
            row_groups = []
            for group in lists[position]:
                final = converted.get(id(group))
                if final is None:
                    antecedent = group.antecedent
                    if len(antecedent) == 1:
                        closed = view.closed_items(group.row_set)
                        if len(closed) > 1:
                            antecedent = closed
                    final = converted[id(group)] = RuleGroup(
                        antecedent=antecedent,
                        consequent=group.consequent,
                        row_set=canonical(group),
                        support=group.support,
                        confidence=group.confidence,
                    )
                row_groups.append(final)
            result[row_id] = row_groups
        return result


@dataclass
class TopkResult:
    """Outcome of one :func:`mine_topk` run.

    Attributes:
        per_row: row id -> top-k covering rule groups, most significant
            first.  Only consequent-class rows appear.
        consequent: mined class id.
        minsup: user-specified absolute minimum support.
        k: requested list length.
        stats: enumeration statistics.
        hybrid_stats: the partition-level statistics of a hybrid mine;
            None for a direct one.  It takes no part in equality, which
            stays a matter of the lists and ``stats``.
    """

    per_row: dict[int, list[RuleGroup]]
    consequent: int
    minsup: int
    k: int
    stats: MinerStats
    hybrid_stats: Optional["HybridStats"] = field(default=None, compare=False)

    def unique_groups(self) -> list[RuleGroup]:
        """All distinct rule groups across rows, most significant first."""
        seen: dict[tuple[int, int], RuleGroup] = {}
        for groups in self.per_row.values():
            for group in groups:
                seen.setdefault((group.row_set, group.consequent), group)
        return sorted(
            seen.values(), key=lambda g: (g.confidence, g.support), reverse=True
        )

    def rank_set(self, rank: int) -> list[RuleGroup]:
        """``RG_j`` of Section 5.2: groups that are top-``rank`` somewhere.

        Args:
            rank: 1-based rank position.
        """
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        seen: dict[tuple[int, int], RuleGroup] = {}
        for groups in self.per_row.values():
            if len(groups) >= rank:
                group = groups[rank - 1]
                seen.setdefault((group.row_set, group.consequent), group)
        return list(seen.values())

    def covered_rows(self) -> list[int]:
        """Rows with at least one covering rule group."""
        return sorted(row for row, groups in self.per_row.items() if groups)


def mine_topk(
    dataset: "DiscretizedDataset",
    consequent: int,
    minsup: int,
    k: int = 1,
    engine: str = "bitset",
    initialize_single_items: bool = True,
    dynamic_minsup: bool = True,
    use_topk_pruning: bool = True,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    cancel=None,
    n_jobs: "int | str" = 1,
    backend=None,
    strategy: str = "direct",
    spill_dir=None,
    max_resident_cells: Optional[int] = None,
) -> TopkResult:
    """Mine the top-k covering rule groups of every consequent-class row.

    Args:
        dataset: discretized dataset.
        consequent: class id of the rule consequent.
        minsup: absolute minimum support (consequent-class rows).
        k: rule groups to keep per row.
        engine: enumeration engine (``bitset``, ``table`` or ``tree``).
        initialize_single_items: apply the single-item list initialization
            optimization of Section 4.1.1.
        dynamic_minsup: apply the dynamic minsup-raising optimization.
        use_topk_pruning: disable only for ablation studies; the output is
            identical either way.
        node_budget: optional enumeration-node limit.
        time_budget: optional wall-clock limit in seconds.
        cancel: optional cancellation token (anything with ``is_set()``);
            when set mid-run the lists discovered so far are returned with
            ``stats.completed`` False, exactly like a budget overrun.
        n_jobs: caps the worker processes of a hybrid mine's independent
            partitions (``None``/0 = all cores, ``"auto"`` lets the
            execution planner pick serial or parallel from the estimated
            work and the host's core count).  A direct mine is one
            enumeration whose dynamic thresholds cannot be split, so it
            always runs in this process and ignores ``n_jobs``
            (DESIGN.md §7).  The output is bit-identical either way.
        backend: ``None``, ``"int"`` or ``"auto"``; all three mine on
            plain ``int`` bitsets (see :mod:`repro.core.backends`), and
            any other value raises ``ValueError``.
        strategy: ``direct`` (default) enumerates the rows of the
            whole dataset in one walk; ``hybrid`` dispatches to the
            partitioned out-of-core miner of :mod:`repro.core.hybrid`
            (bit-identical per-row lists, ``node_budget`` applied per
            partition); ``auto`` lets one
            :func:`repro.core.planner.plan` call choose (DESIGN.md §13).
            When ``2**f`` for the ``f`` frequent items is within 32
            closed sets per row, it plans ``column``, which no caller
            can name: the closed sets of CHARM's IT-tree walk are offered
            to the top-k policy (:func:`repro.core.column.mine_topk_column`,
            bit-identical per-row lists).  A column mine ignores
            ``engine`` and the Section 4.1.1 flags (``stats.engine`` is
            ``"column"``), counts IT-tree nodes against ``node_budget``
            and polls ``time_budget`` and ``cancel`` after every closed
            set.  Otherwise ``auto`` picks hybrid or direct by density.
        spill_dir: hybrid only — existing directory for partition spill
            files; mining runs in a private subdirectory removed on exit.
        max_resident_cells: hybrid only — resident-cell budget for the
            streaming partition builder (requires ``spill_dir``).

    Setting the ``REPRO_CHECK`` environment variable (to anything but
    ``0``/empty) audits every returned result against the invariant
    catalog of :mod:`repro.audit.invariants` before it is handed back,
    raising :class:`~repro.audit.invariants.InvariantViolation` on the
    first violated property.

    Returns:
        A :class:`TopkResult` with per-row lists and run statistics
        (``stats.plan`` is the resolved plan).  When a budget was set
        and exhausted, the lists discovered so far are returned and
        ``stats.completed`` is False.
    """
    planned = plan(
        dataset, consequent, minsup, task="topk", k=k, n_jobs=n_jobs,
        strategy=strategy, backend=backend,
    )
    if planned.strategy == "hybrid":
        from .hybrid import mine_topk_hybrid

        return mine_topk_hybrid(
            dataset,
            consequent,
            minsup,
            k=k,
            engine=engine,
            initialize_single_items=initialize_single_items,
            dynamic_minsup=dynamic_minsup,
            use_topk_pruning=use_topk_pruning,
            node_budget_per_partition=node_budget,
            time_budget=time_budget,
            cancel=cancel,
            n_jobs=planned.workers,
            spill_dir=spill_dir,
            max_resident_cells=max_resident_cells,
        )
    if strategy != "auto" and (
        spill_dir is not None or max_resident_cells is not None
    ):
        # strategy="auto" may legitimately pre-provision a spill dir and
        # land on direct; an explicit direct mine with one is a mistake.
        raise ValueError("spill_dir/max_resident_cells require strategy='hybrid'")
    if planned.strategy == "column":
        from .column import mine_topk_column

        if engine not in ENGINES:  # no row walk runs, but a typo is a typo
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        result = mine_topk_column(
            dataset, consequent, minsup, k=k, node_budget=node_budget,
            time_budget=time_budget, cancel=cancel,
        )
        result.stats.plan = planned
        return result
    view = MiningView.cached(dataset, consequent, minsup)
    policy = TopkPolicy(
        view,
        k,
        initialize_single_items=initialize_single_items,
        dynamic_minsup=dynamic_minsup,
        use_topk_pruning=use_topk_pruning,
    )
    try:
        stats = run_enumeration(
            view,
            policy,
            engine=engine,
            node_budget=node_budget,
            time_budget=time_budget,
            cancel=cancel,
        )
    except MiningBudgetExceeded as overrun:
        stats = overrun.stats
    stats.plan = planned
    result = TopkResult(
        per_row=policy.finalize(),
        consequent=consequent,
        minsup=minsup,
        k=k,
        stats=stats,
    )
    maybe_check_result(dataset, result)
    return result


def maybe_check_result(dataset: "DiscretizedDataset", result: TopkResult) -> None:
    """Run the invariant audit on ``result`` when ``REPRO_CHECK`` is set.

    Coverage strictness follows ``stats.completed``: partial results
    (budget overruns, cancellations) keep their structural invariants
    but may legitimately have incomplete per-row lists.
    """
    # The env probe is inlined so unaudited runs never import the audit
    # package (keep it in sync with repro.audit.invariants.checks_enabled).
    if os.environ.get("REPRO_CHECK", "") in ("", "0"):
        return
    from ..audit.invariants import check_topk_result

    check_topk_result(dataset, result, strict_coverage=result.stats.completed)
