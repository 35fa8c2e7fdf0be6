"""Row enumeration: one depth-first walk, three projection engines.

All miners in this package (MineTopkRGS and the FARMER baselines) are a
depth-first walk of the row enumeration tree of Figure 2.  What differs is

* the *policy* — which subtrees are pruned and which discovered rule
  groups are kept (top-k dynamic thresholds vs. FARMER's static ones), and
* the *engine* — the data structure used to project transposed tables and
  count row frequencies at each node.

There is one walk, :func:`_walk`: its frame stack, the Lemma 3.2 rest
counters, the threshold rows, the sibling cut, the budget marks, the
tight prune, the emit and the push are shared by every engine.  An
engine only supplies how a node projects its transposed table (Section
4.2) — its root state, its root candidate rows, a projection step, and
the builder of an emitted group's item list.  Three engines are
provided:

``bitset``
    Item support sets are integer bitsets over row positions; closures are
    intersections and frequency tests are bit probes.  The fastest engine
    and the default for classifier construction and tests.

``table``
    Faithful to the original FARMER implementation: the projected
    transposed table at each node is an explicit list of tuples (item,
    ascending row list) and frequencies are counted by scanning it.  This
    is the paper's "FARMER" cost profile.

``tree``
    The prefix-tree representation of Section 4.2 (see
    :mod:`repro.core.prefix_tree`), the paper's "FARMER+prefix" /
    MineTopkRGS structure: identical tuple prefixes share trie paths, a
    projection is a set of trie nodes found through the header links,
    and its closure and candidate rows are read off those nodes' row
    masks, so a node costs a few big-int operations per source node
    rather than one per item.

The ``bitset`` and ``table`` engines visit exactly the same nodes in the
same order, fire the same pruning rules and emit the same groups, so
outputs and every :class:`MinerStats` counter are identical; only the
constant factors differ.  The ``tree`` engine's root candidates are the
rows of its root prefix tree, i.e. the rows holding a frequent item, so
its counters match too when every row holds one.  Otherwise its root
frame has fewer candidates, and so tighter Lemma 3.2 bounds, and its
counters may differ while its outputs stay identical.  That is what
lets the Figure 6 benchmarks attribute speedups to the prefix tree
versus the top-k pruning; the cross-engine tests and the audit verify
it.

Sibling cut.  Under the class dominant order (consequent rows first) the
loose bounds of Lemma 3.2 only weaken along a node's ascending candidate
list: for later siblings ``r < r'`` the support bound is no larger, the
confidence bound is no larger, and the threshold rows of ``r'`` are a
subset of those of ``r``, so their Eq. 1-2 fold can only rise.  Nothing
is emitted between two loose-pruned siblings, and thresholds and
``minsup`` only tighten over time.  So once a candidate is loose-pruned
every later sibling is too, and the walk charges the frame's
remaining candidates at once (one budget call when they cross a poll or
budget mark), counts them as loose prunes and closes the frame.
So ``loose_prunable`` runs once per frame tail, yet node counts, pruning
counters and partial results under any budget equal those of a walk
that tests every sibling (``tests/test_kernels.py`` checks the lemma on
its recursive reference walkers).
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, NamedTuple, Optional, Protocol, Sequence

from ..errors import MiningBudgetExceeded
from .bitset import iter_indices, mask_below
from .prefix_tree import PrefixTree
from .rules import RuleGroup
from .view import MiningView

__all__ = [
    "SearchPolicy",
    "MinerStats",
    "ClosedSetResult",
    "run_enumeration",
    "ENGINES",
    "POLL_STRIDE",
]

ENGINES = ("bitset", "table", "tree")

# Deadline/cancellation poll stride of the node budget, in enumeration
# nodes.  Shared with the pool workers of :mod:`repro.parallel` so a
# cooperative stop lands within the same bounded number of nodes whether
# a mine runs in this process or in a worker.
POLL_STRIDE = 64

# The mark of a walk with neither a node budget nor anything to poll.
_NO_MARK = sys.maxsize


class _CancelToken(Protocol):
    """Cooperative-cancellation token (``threading.Event`` qualifies)."""

    def is_set(self) -> bool: ...


class SearchPolicy(Protocol):
    """Miner-specific pruning and collection logic.

    ``threshold_bits`` passed to the pruning hooks is the position bitset
    of consequent-class rows whose top-k lists the subtree could still
    improve (``X_p ∪ R_p`` of Lemma 3.2); static-threshold policies may
    ignore it.  A policy that never reads it can declare
    ``uses_threshold_bits = False`` (default ``True``) and the walk
    passes ``0`` instead of assembling the row sets — an O(n_rows) bitset
    op per candidate that matters on tall datasets.  Pruning decisions,
    node order and :class:`MinerStats` are unaffected.

    ``loose_prunable`` must be side-effect free and monotone along a
    frame: if it holds for a candidate, it must hold for every later
    sibling's (weaker) bounds as long as no group is emitted in between.
    The walk relies on this to close a frame at its first loose prune
    (the sibling cut in the module docstring), so it calls it once per
    frame tail rather than once per node.

    The walk calls ``emit`` only for a group whose ``x_p`` reaches the
    policy's current ``minsup`` (read just before the call); a group
    below it cannot enter any result, so its item list is never built.
    ``MinerStats.groups_emitted`` still counts every node that reaches
    step 13.  Policies keep their own ``x_p < minsup`` check regardless.
    """

    uses_threshold_bits: bool = True

    @property
    def minsup(self) -> int:
        """Current absolute minimum support (may grow dynamically)."""
        ...

    def loose_prunable(
        self, x_p: int, x_n: int, r_p: int, r_n: int, threshold_bits: int
    ) -> bool:
        """Step 9: prune using bounds available before scanning the table."""
        ...

    def tight_prunable(
        self, x_p: int, x_n: int, m_p: int, r_n: int, threshold_bits: int
    ) -> bool:
        """Step 11: prune using the scanned ``m_p`` bound."""
        ...

    def emit(
        self, items: Sequence[int], position_bits: int, x_p: int, x_n: int
    ) -> None:
        """Step 13: offer the closed rule group found at this node."""
        ...


@dataclass
class MinerStats:
    """Counters describing one enumeration run."""

    nodes_visited: int = 0
    groups_emitted: int = 0
    loose_pruned: int = 0
    tight_pruned: int = 0
    backward_pruned: int = 0
    elapsed_seconds: float = 0.0
    engine: str = "bitset"
    completed: bool = True
    # True when a parallel mine lost workers and fell back to serial
    # in-process execution for some jobs (repro.parallel); the result
    # itself is still bit-identical to a healthy run.
    degraded: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ClosedSetResult:
    """Outcome of one closed-set mine: FARMER, CHARM or CLOSET+.

    Every rule group is in original row-id space, built by
    :meth:`~repro.core.view.MiningView.rule_group` where the miner found
    it, so a budgeted run returns as soon as its walk stops.

    Attributes:
        groups: the rule groups found, in the miner's emission order.
        consequent: mined class id.
        minsup: absolute minimum support (consequent-class rows).
        stats: the run's counters; ``stats.completed`` is False when a
            budget or a cancel cut the walk short, and ``groups`` then
            holds what was found before.
        minconf: minimum confidence (0 for CHARM and CLOSET+).
    """

    groups: list[RuleGroup]
    consequent: int
    minsup: int
    stats: MinerStats
    minconf: float = 0.0

    @property
    def completed(self) -> bool:
        return self.stats.completed

    def sorted_by_significance(self) -> list[RuleGroup]:
        return sorted(
            self.groups, key=lambda g: (g.confidence, g.support), reverse=True
        )


class _Budget:
    """Node-count, wall-clock and cancellation limits of one walk.

    ``cancel`` is any object with an ``is_set()`` method (typically a
    :class:`threading.Event`); it is polled on the same
    :data:`POLL_STRIDE`-node stride as the deadline so a long-running
    mine can be stopped cooperatively from another thread (the service
    job queue and the process-pool backend rely on this).

    The walk keeps the node count in a local and compare it with the
    next *mark* (:meth:`next_mark`): the next poll stride multiple or the
    node just past ``node_budget``, whichever comes first.  Only a node
    that reaches the mark calls :meth:`reach_mark`, which runs exactly
    the checks :meth:`charge_node` runs at that node.
    """

    def __init__(
        self,
        stats: MinerStats,
        node_budget: Optional[int],
        time_budget: Optional[float],
        cancel: Optional["_CancelToken"] = None,
    ) -> None:
        # ``not time_budget >= 0`` also catches NaN, which compares false
        # with everything and would otherwise disable the deadline.
        if time_budget is not None and not time_budget >= 0:
            raise ValueError(
                f"time_budget must be a non-negative number, got {time_budget}"
            )
        if node_budget is not None and node_budget < 0:
            raise ValueError(
                f"node_budget must be non-negative, got {node_budget}"
            )
        self.stats = stats
        self.node_budget = node_budget
        self.deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self.cancel = cancel

    def charge_node(self) -> None:
        self.stats.nodes_visited += 1
        if (
            self.node_budget is not None
            and self.stats.nodes_visited > self.node_budget
        ):
            self._exceeded(f"node budget {self.node_budget} exceeded")
        if self.stats.nodes_visited % POLL_STRIDE == 0:
            self.poll()

    def next_mark(self, nodes: int) -> int:
        """The first node count after ``nodes`` that needs a check."""
        mark = _NO_MARK
        if self.deadline is not None or self.cancel is not None:
            mark = (nodes // POLL_STRIDE + 1) * POLL_STRIDE
        if self.node_budget is not None and self.node_budget < mark:
            mark = self.node_budget + 1
        return mark

    def reach_mark(self, nodes: int) -> int:
        """Record ``nodes`` visited and run :meth:`charge_node`'s checks
        for that node; returns the next mark."""
        self.stats.nodes_visited = nodes
        if self.node_budget is not None and nodes > self.node_budget:
            self._exceeded(f"node budget {self.node_budget} exceeded")
        if nodes % POLL_STRIDE == 0:
            self.poll()
        return self.next_mark(nodes)

    def charge_nodes(self, count: int) -> None:
        """Charge ``count`` nodes at once, exactly as ``count`` calls of
        :meth:`charge_node` would.

        The deadline and the cancel token are polled at every
        :data:`POLL_STRIDE` multiple the charge crosses, in order, and a
        node budget stops at ``node_budget + 1``; whichever comes first
        raises with ``nodes_visited`` at that node.
        """
        stats = self.stats
        start = stats.nodes_visited
        end = start + count
        over_budget = self.node_budget is not None and end > self.node_budget
        last_polled = self.node_budget if over_budget else end
        if self.deadline is not None or self.cancel is not None:
            first = (start // POLL_STRIDE + 1) * POLL_STRIDE
            for mark in range(first, last_polled + 1, POLL_STRIDE):
                stats.nodes_visited = mark
                self.poll()
        if over_budget:
            stats.nodes_visited = self.node_budget + 1
            self._exceeded(f"node budget {self.node_budget} exceeded")
        stats.nodes_visited = end

    def charge_loose_tail(self, count: int) -> None:
        """Charge ``count`` loose-pruned sibling nodes (the sibling cut).

        The caller adds ``count`` to its own loose-prune tally after this
        returns.  When a budget stops the charge part-way, the siblings
        charged before the stopping node count as loose-pruned here, so
        the partial stats match a node-by-node walk.
        """
        start = self.stats.nodes_visited
        try:
            self.charge_nodes(count)
        except MiningBudgetExceeded:
            self.stats.loose_pruned += self.stats.nodes_visited - start - 1
            raise

    def poll(self) -> None:
        """Check the deadline and the cancel token; counts no nodes.

        Miners whose per-node work is unbounded (CHARM's pair loop) call
        this inside that work as well.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._exceeded("time budget exceeded")
        if self.cancel is not None and self.cancel.is_set():
            self._exceeded("mining cancelled")

    def _exceeded(self, reason: str) -> None:
        self.stats.completed = False
        raise MiningBudgetExceeded(reason, self.stats)


def run_enumeration(
    view: MiningView,
    policy: SearchPolicy,
    engine: str = "bitset",
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    cancel: Optional["_CancelToken"] = None,
    first_rows: Optional[int] = None,
) -> MinerStats:
    """Depth-first walk of the row enumeration tree under ``policy``.

    Args:
        view: prepared dataset view (ordering, frequent items).
        policy: pruning/collection logic (top-k or FARMER style).
        engine: one of :data:`ENGINES`.
        node_budget: abort with :class:`MiningBudgetExceeded` after this
            many enumeration nodes.
        time_budget: abort after this many wall-clock seconds.
        cancel: optional cancellation token (anything with ``is_set()``,
            e.g. a :class:`threading.Event`); when set mid-run the walk
            aborts like an exhausted budget.
        first_rows: optional position bitset restricting which
            *first-level* subtrees are expanded (``None`` expands all).
            Skipped roots are not charged to the node budget.  Deeper
            levels are never filtered, so mining every first row exactly
            once across several calls partitions the full tree — the
            FARMER row-shard contract of :mod:`repro.parallel`.

    Returns:
        The :class:`MinerStats` of the completed run.  On budget overrun
        the exception carries the partial stats instead.
    """
    setup = _ENGINE_SETUPS.get(engine)
    if setup is None:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    stats = MinerStats(engine=engine)
    budget = _Budget(stats, node_budget, time_budget, cancel)
    start = time.monotonic()
    try:
        _walk(view, policy, stats, budget, first_rows, setup(view))
    except MiningBudgetExceeded as overrun:
        # Policies may raise their own budget errors (e.g. a group cap);
        # make sure the run's stats travel with the exception either way.
        stats.completed = False
        if overrun.stats is None:
            overrun.stats = stats
        raise
    finally:
        stats.elapsed_seconds = time.monotonic() - start
    return stats


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------
#
# One iterative explicit-stack kernel serves every engine: a frame per
# enumeration-tree node holds the not-yet-expanded candidates, the
# decrementally maintained rest counters and the engine's projection
# state, and descending into a subtree is "save the loop state into the
# frame, push a child frame, break".  The DFS order, the emitted groups
# and the budget charges are exactly those of the recursive formulation
# (the pre-rewrite walkers survive as the reference implementations in
# tests/test_kernels.py); the hook sequence differs only by the sibling
# cut.  The node count and the pruning counters are kept in locals and
# flushed in a ``finally`` so the stats travelling with a budget overrun
# stay accurate.  A node costs one compare against the budget's next
# mark (``_Budget.next_mark``); only a node reaching it calls the budget.
#
# An engine's ``step(state, r_bit, todo, x_bits)`` projects the frame's
# state onto row ``r`` (Figure 3 steps 6-10), given the frame's
# candidates after ``r`` and its closure.  It returns ``None`` for an
# empty projection, ``_BACKWARD`` for a backward-pruned node (step 7),
# or ``(child_state, closure, new_cand, x_p, x_n, m_p, r_n)``.  At the
# root frame the step depends on the view and ``r`` only, so the walk
# memoizes it per engine in the view's ``SupportIndex.first_level`` —
# except for the table engine, which keeps FARMER's cost profile.

_BACKWARD = ("backward",)
# A first-level memo miss (``None`` is a memoized empty projection).
_UNSET = object()


class _Engine(NamedTuple):
    """What one engine contributes to :func:`_walk` (see above)."""

    root_state: Any
    root_cand: int
    step: Callable[[Any, int, int, int], Any]
    # ``None`` when the step's child state already is the item list.
    items_of: Optional[Callable[[Any], Sequence[int]]]
    # Root-frame step results by row; ``None`` disables the memo.
    memo: Optional[dict]


def _bitset_engine(view: MiningView) -> _Engine:
    # State: the node's sorted item list (``None`` at the root: all).
    support = view.support_index()
    item_rows = support.item_rows
    item_counts = support.item_counts
    item_pos_counts = support.item_pos_counts
    row_items = view.row_items
    # One fused call per node: the closure/union fold over the node's
    # surviving items *and* the positive/total closure counts come out
    # of a single kernel call, plus one masked-count call for the
    # derived candidate set.
    fold_counts, masked_counts = support.node_kernel()

    def step(items, r_bit, todo, x_bits):
        present = row_items[r_bit.bit_length() - 1]
        if items is None:
            new_items = sorted(present)
        else:
            new_items = [i for i in items if i in present]
        if not new_items:
            return None
        if len(new_items) == 1:
            item = new_items[0]
            closure = union = item_rows[item]
            x_p = item_pos_counts[item]
            x_all = item_counts[item]
        else:
            closure, union, x_p, x_all = fold_counts(new_items)
        # Backward pruning (step 7): a row before r outside X containing
        # I(X ∪ {r}) means this group was found in an earlier subtree.
        if closure & (r_bit - 1) & ~x_bits:
            return _BACKWARD
        new_cand = todo & union & ~closure
        if new_cand:
            m_p, cand_all = masked_counts(new_cand)
        else:
            m_p = cand_all = 0
        return (new_items, closure, new_cand,
                x_p, x_all - x_p, m_p, cand_all - m_p)

    return _Engine(None, mask_below(view.n_rows), step, None,
                   support.first_level.setdefault("bitset", {}))


def _table_engine(view: MiningView) -> _Engine:
    # State: the projected transposed table, a list of (item, ascending
    # row list) tuples passed down by reference.
    positive_mask = view.positive_mask
    bit_count = int.bit_count
    bisect = bisect_left

    def step(tuples, r_bit, todo, x_bits):
        r = r_bit.bit_length() - 1
        # Project: keep tuples whose row list contains r (bisect scan,
        # the authentic per-node cost of pointer FARMER).
        kept = []
        for entry in tuples:
            rows = entry[1]
            position = bisect(rows, r)
            if position < len(rows) and rows[position] == r:
                kept.append(entry)
        if not kept:
            return None
        # Count frequencies over the kept tuples' full row lists
        # (Counter.update walks each list at C speed).
        freq = Counter()
        freq_update = freq.update
        for entry in kept:
            freq_update(entry[1])
        n_tuples = len(kept)
        closure = new_cand = 0
        for row, count in freq.items():
            if count == n_tuples:
                if row < r and not x_bits >> row & 1:
                    return _BACKWARD
                closure |= 1 << row
            elif row > r:
                new_cand |= 1 << row
        x_p = bit_count(closure & positive_mask)
        m_p = bit_count(new_cand & positive_mask)
        return (kept, closure, new_cand, x_p, bit_count(closure) - x_p,
                m_p, bit_count(new_cand) - m_p)

    # The root transposed table: one tuple per frequent item, carrying
    # the item's full ascending row list.  Rebuilt per run and never
    # memoized: this engine exists to preserve FARMER's per-node cost
    # profile, so it takes nothing from the SupportIndex.
    root_tuples = [
        (item, sorted(iter_indices(view.item_rows[item])))
        for item in view.frequent_items
    ]
    return _Engine(root_tuples, mask_below(view.n_rows), step,
                   lambda kept: [item for item, _rows in kept], None)


def _tree_engine(view: MiningView) -> _Engine:
    # State: the node's projected prefix tree (Section 4.2).
    support = view.support_index()
    _, masked_counts = support.node_kernel()

    def step(tree, r_bit, todo, x_bits):
        projected = tree.project(r_bit.bit_length() - 1)
        if projected.n_items == 0:
            return None
        # The projected tree only keeps rows after r (Section 3's
        # projected transposed table), but each source's closed_rows
        # covers the items' full row sets, so the backward check can
        # probe the rows before r.
        closure = projected.closure_rows()
        if closure & (r_bit - 1) & ~x_bits:
            return _BACKWARD
        x_p, x_all = masked_counts(closure)
        # Rows absorbed into X by a closure step remain in the projected
        # tree's paths but are not extension candidates.
        new_cand = projected.rows_mask() & ~closure
        m_p, cand_all = masked_counts(new_cand)
        return (projected, closure, new_cand,
                x_p, x_all - x_p, m_p, cand_all - m_p)

    # The root tree is built once per view; walks only read projected
    # trees, so sharing it and the memoized first-level projections
    # across runs is safe.
    root_tree = support.root_tree()
    return _Engine(root_tree, root_tree.rows_mask(), step,
                   PrefixTree.all_items,
                   support.first_level.setdefault("tree", {}))


_ENGINE_SETUPS = {
    "bitset": _bitset_engine,
    "table": _table_engine,
    "tree": _tree_engine,
}


def _walk(
    view: MiningView,
    policy: SearchPolicy,
    stats: MinerStats,
    budget: _Budget,
    first_rows: Optional[int],
    engine: _Engine,
) -> None:
    root_state, root_cand, step, items_of, memo = engine
    positive_mask = view.positive_mask
    # Hot-path bindings: these are resolved once instead of per node.
    bit_count = int.bit_count
    reach_mark = budget.reach_mark
    charge_loose_tail = budget.charge_loose_tail
    loose_prunable = policy.loose_prunable
    tight_prunable = policy.tight_prunable
    emit = policy.emit
    # Static-threshold policies (FARMER) never read the threshold row
    # sets, and assembling them is an O(n_rows/64) bitset op per
    # candidate — on tall cohorts that is real money for nothing.
    needs_thresholds = getattr(policy, "uses_threshold_bits", True)

    root_rem_p = bit_count(root_cand & positive_mask)
    # Frame: [todo, rem_p, rem_n, x_bits, x_p, x_n, state, allowed].
    # ``todo`` doubles as the candidate iterator (lowest set bit = next
    # row, ascending) and as the "remaining candidates after r" mask of
    # the Lemma 3.2 bounds.
    stack: list[list] = [
        [root_cand, root_rem_p, bit_count(root_cand) - root_rem_p,
         0, 0, 0, root_state, first_rows]
    ]
    loose = tight = backward = emitted = 0
    nodes = stats.nodes_visited
    mark = budget.next_mark(nodes)
    try:
        while stack:
            frame = stack[-1]
            todo, rem_p, rem_n, x_bits, x_p, x_n, state, allowed = frame
            pushed = False
            while todo:
                r_bit = todo & -todo
                todo ^= r_bit
                if r_bit & positive_mask:
                    rem_p -= 1
                    seed_p = x_p + 1
                    seed_n = x_n
                else:
                    rem_n -= 1
                    seed_p = x_p
                    seed_n = x_n + 1
                if allowed is not None and not allowed & r_bit:
                    continue
                nodes += 1
                if nodes >= mark:
                    mark = reach_mark(nodes)
                threshold_bits = (
                    (x_bits | r_bit | todo) & positive_mask
                    if needs_thresholds else 0
                )
                if loose_prunable(seed_p, seed_n, rem_p, rem_n, threshold_bits):
                    # Sibling cut: every later candidate of this frame is
                    # loose-prunable too, so charge them in one call and
                    # close the frame.
                    loose += 1
                    if allowed is not None:
                        todo &= allowed
                    if todo:
                        tail = bit_count(todo)
                        if nodes + tail < mark:
                            nodes += tail
                        else:
                            stats.nodes_visited = nodes
                            try:
                                charge_loose_tail(tail)
                            finally:
                                nodes = stats.nodes_visited
                            mark = budget.next_mark(nodes)
                        loose += tail
                    break
                if x_bits or memo is None:
                    result = step(state, r_bit, todo, x_bits)
                else:  # the root frame, the only one with an empty X
                    r = r_bit.bit_length() - 1
                    result = memo.get(r, _UNSET)
                    if result is _UNSET:
                        result = memo[r] = step(state, r_bit, todo, 0)
                if result is None:
                    continue
                if result is _BACKWARD:
                    backward += 1
                    continue
                child, closure, new_cand, new_x_p, new_x_n, m_p, new_r_n = result
                new_threshold = (
                    (closure | new_cand) & positive_mask
                    if needs_thresholds else 0
                )
                if tight_prunable(new_x_p, new_x_n, m_p, new_r_n, new_threshold):
                    tight += 1
                    continue
                emitted += 1
                if new_x_p >= policy.minsup:
                    emit(child if items_of is None else items_of(child),
                         closure, new_x_p, new_x_n)
                if new_cand:
                    frame[0] = todo
                    frame[1] = rem_p
                    frame[2] = rem_n
                    stack.append(
                        [new_cand, m_p, new_r_n, closure,
                         new_x_p, new_x_n, child, None]
                    )
                    pushed = True
                    break
            if not pushed:
                stack.pop()
    finally:
        stats.nodes_visited = nodes
        stats.loose_pruned += loose
        stats.tight_pruned += tight
        stats.backward_pruned += backward
        stats.groups_emitted += emitted
