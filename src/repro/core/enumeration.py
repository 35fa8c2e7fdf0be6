"""Row enumeration engines and the shared depth-first driver.

All miners in this package (MineTopkRGS and the FARMER baselines) are a
depth-first walk of the row enumeration tree of Figure 2.  What differs is

* the *policy* — which subtrees are pruned and which discovered rule
  groups are kept (top-k dynamic thresholds vs. FARMER's static ones), and
* the *engine* — the data structure used to project transposed tables and
  count row frequencies at each node.

Three engines are provided:

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

All engines visit exactly the same nodes in the same order, fire the same
pruning rules and emit the same groups, so outputs and every
:class:`MinerStats` counter are identical; only the constant factors
differ.  That property is what lets the Figure 6 benchmarks attribute
speedups to the prefix tree versus the top-k pruning, and it is verified
by the cross-engine tests.

Sibling cut.  Under the class dominant order (consequent rows first) the
loose bounds of Lemma 3.2 only weaken along a node's ascending candidate
list: for later siblings ``r < r'`` the support bound is no larger, the
confidence bound is no larger, and the threshold rows of ``r'`` are a
subset of those of ``r``, so their Eq. 1-2 fold can only rise.  Nothing
is emitted between two loose-pruned siblings, and thresholds and
``minsup`` only tighten over time.  So once a candidate is loose-pruned
every later sibling is too, and every kernel charges the frame's
remaining candidates at once (one budget call when they cross a poll or
budget mark), counts them as loose prunes and closes the frame.
``loose_prunable`` is therefore not called on every node any more; node
counts, pruning counters and partial results under any budget are
unchanged (``tests/test_kernels.py`` checks the lemma on the recursive
reference walkers, which still test every sibling).
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from ..errors import MiningBudgetExceeded
from .bitset import iter_indices, mask_below
from .view import MiningView

__all__ = [
    "SearchPolicy",
    "MinerStats",
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
    ``uses_threshold_bits = False`` (default ``True``) and the engines
    pass ``0`` instead of assembling the row sets — an O(n_rows) bitset
    op per candidate that matters on tall datasets.  Pruning decisions,
    node order and :class:`MinerStats` are unaffected.

    ``loose_prunable`` must be side-effect free and monotone along a
    frame: if it holds for a candidate, it must hold for every later
    sibling's (weaker) bounds as long as no group is emitted in between.
    The engines rely on this to close a frame at its first loose prune
    (the sibling cut in the module docstring), so they call it once per
    frame tail rather than once per node.

    The engines call ``emit`` only for a group whose ``x_p`` reaches the
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
        return {
            "nodes_visited": self.nodes_visited,
            "groups_emitted": self.groups_emitted,
            "loose_pruned": self.loose_pruned,
            "tight_pruned": self.tight_pruned,
            "backward_pruned": self.backward_pruned,
            "elapsed_seconds": self.elapsed_seconds,
            "engine": self.engine,
            "completed": self.completed,
            "degraded": self.degraded,
        }


class _Budget:
    """Node-count, wall-clock and cancellation limits shared by all engines.

    ``cancel`` is any object with an ``is_set()`` method (typically a
    :class:`threading.Event`); it is polled on the same
    :data:`POLL_STRIDE`-node stride as the deadline so a long-running
    mine can be stopped cooperatively from another thread (the service
    job queue and the process-pool backend rely on this).

    The kernels keep the node count in a local and compare it with the
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
    stats = MinerStats(engine=engine)
    budget = _Budget(stats, node_budget, time_budget, cancel)
    start = time.monotonic()
    try:
        if engine == "bitset":
            _walk_bitset(view, policy, stats, budget, first_rows)
        elif engine == "table":
            _walk_table(view, policy, stats, budget, first_rows)
        elif engine == "tree":
            _walk_tree(view, policy, stats, budget, first_rows)
        else:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
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
# bitset engine
# ---------------------------------------------------------------------------
#
# All three engines are iterative explicit-stack kernels: a frame per
# enumeration-tree node holds the not-yet-expanded candidates plus the
# decrementally maintained rest counters, and descending into a subtree
# is "save the loop state into the frame, push a child frame, break".
# The DFS order, the emitted groups and the budget charges are exactly
# those of the recursive formulation (the pre-rewrite walkers survive as
# the reference implementations in tests/test_kernels.py); the hook
# sequence differs only by the sibling cut, which skips the
# ``loose_prunable`` calls on a loose-pruned candidate's later siblings;
# the node count and the pruning counters are kept in locals and flushed
# in a ``finally`` so the stats travelling with a budget overrun stay
# accurate.  A node costs one compare against the budget's next mark
# (``_Budget.next_mark``); only a node reaching it calls the budget.
# First-level node data comes from the view's
# :class:`~repro.core.view.SupportIndex` memo where a pure recomputation
# would otherwise dominate the walk (bitset and tree engines only — the
# table engine keeps FARMER's cost profile).


def _walk_bitset(
    view: MiningView,
    policy: SearchPolicy,
    stats: MinerStats,
    budget: _Budget,
    first_rows: Optional[int] = None,
) -> None:
    support = view.support_index()
    item_rows = support.item_rows
    item_counts = support.item_counts
    item_pos_counts = support.item_pos_counts
    row_items = view.row_items
    positive_mask = view.positive_mask
    # Hot-path bindings: these are resolved once instead of per node.
    bit_count = int.bit_count
    reach_mark = budget.reach_mark
    charge_loose_tail = budget.charge_loose_tail
    loose_prunable = policy.loose_prunable
    tight_prunable = policy.tight_prunable
    emit = policy.emit
    bitset_root = support.bitset_root
    # One fused call per node: the closure/union fold over the node's
    # surviving items *and* the positive/total closure counts come out
    # of a single kernel call, plus one masked-count call for the
    # derived candidate set.
    fold_counts, masked_counts = support.node_kernel()
    # Static-threshold policies (FARMER) never read the threshold row
    # sets, and assembling them is an O(n_rows/64) bitset op per
    # candidate — on tall cohorts that is real money for nothing.
    needs_thresholds = getattr(policy, "uses_threshold_bits", True)

    all_rows = mask_below(view.n_rows)
    root_rem_p = bit_count(all_rows & positive_mask)
    root_rem_n = bit_count(all_rows) - root_rem_p
    # Frame: [todo, rem_p, rem_n, x_bits, x_p, x_n, items, allowed].
    # ``todo`` doubles as the candidate iterator (lowest set bit = next
    # row, ascending) and as the "remaining candidates after r" mask of
    # the Lemma 3.2 bounds.
    stack: list[list] = [
        [all_rows, root_rem_p, root_rem_n, 0, 0, 0, None, first_rows]
    ]
    loose = tight = backward = emitted = 0
    nodes = stats.nodes_visited
    mark = budget.next_mark(nodes)
    try:
        while stack:
            frame = stack[-1]
            todo, rem_p, rem_n, x_bits, x_p, x_n, items, allowed = frame
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
                if needs_thresholds:
                    threshold_bits = (x_bits | r_bit | todo) & positive_mask
                else:
                    threshold_bits = 0
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
                if x_bits:
                    present = row_items[r_bit.bit_length() - 1]
                    new_items = [i for i in items if i in present]
                    if not new_items:
                        continue
                    if len(new_items) == 1:
                        item = new_items[0]
                        closure = union = item_rows[item]
                        new_x_p = item_pos_counts[item]
                        x_all = item_counts[item]
                    else:
                        closure, union, new_x_p, x_all = fold_counts(new_items)
                    # Backward pruning (step 7): a row before r outside X
                    # containing I(X ∪ {r}) means this group was found in
                    # an earlier subtree.
                    if closure & (r_bit - 1) & ~x_bits:
                        backward += 1
                        continue
                    new_cand = todo & union & ~closure
                    if new_cand:
                        m_p, cand_all = masked_counts(new_cand)
                    else:
                        m_p = cand_all = 0
                    new_x_n = x_all - new_x_p
                    new_r_n = cand_all - m_p
                    if needs_thresholds:
                        new_threshold = (closure | new_cand) & positive_mask
                    else:
                        new_threshold = 0
                else:
                    # Root frame: every value below is a pure function of
                    # the view, memoized on the SupportIndex.
                    entry = bitset_root(r_bit.bit_length() - 1)
                    tag = entry[0]
                    if tag == "empty":
                        continue
                    if tag == "backward":
                        backward += 1
                        continue
                    (_, new_items, closure, new_cand, new_x_p, new_x_n,
                     m_p, new_r_n, new_threshold) = entry
                if tight_prunable(new_x_p, new_x_n, m_p, new_r_n, new_threshold):
                    tight += 1
                    continue
                emitted += 1
                if new_x_p >= policy.minsup:
                    emit(new_items, closure, new_x_p, new_x_n)
                if new_cand:
                    frame[0] = todo
                    frame[1] = rem_p
                    frame[2] = rem_n
                    stack.append(
                        [new_cand, m_p, new_r_n, closure,
                         new_x_p, new_x_n, new_items, None]
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


# ---------------------------------------------------------------------------
# table engine (FARMER-style projected transposed tables)
# ---------------------------------------------------------------------------


def _walk_table(
    view: MiningView,
    policy: SearchPolicy,
    stats: MinerStats,
    budget: _Budget,
    first_rows: Optional[int] = None,
) -> None:
    positive_mask = view.positive_mask
    n_positive = view.n_positive
    bit_count = int.bit_count
    bisect = bisect_left
    reach_mark = budget.reach_mark
    charge_loose_tail = budget.charge_loose_tail
    loose_prunable = policy.loose_prunable
    tight_prunable = policy.tight_prunable
    emit = policy.emit

    # The root transposed table: one tuple per frequent item, carrying the
    # item's full ascending row list.  Projection passes tuple references
    # down unchanged; the scan position is implied by r.  Rebuilt per run
    # on purpose: this engine exists to preserve FARMER's per-node cost
    # profile, so it takes no SupportIndex memo.
    needs_thresholds = getattr(policy, "uses_threshold_bits", True)
    root_tuples = [
        (item, sorted(iter_indices(view.item_rows[item])))
        for item in view.frequent_items
    ]
    root_cand = list(range(view.n_rows))
    root_rest_p = 0
    root_pos_bits = 0
    for row in root_cand:
        if row < n_positive:
            root_rest_p += 1
            root_pos_bits |= 1 << row
    root_rest_n = len(root_cand) - root_rest_p
    # Frame: [cand, index, rest_p, rest_pos_bits, rest_n,
    #         x_bits, x_p, x_n, tuples, allowed].  The rest counters of a
    # child frame are seeded from the parent's scan (m_p etc.) instead of
    # being recomputed at frame entry.
    stack: list[list] = [
        [root_cand, 0, root_rest_p, root_pos_bits, root_rest_n,
         0, 0, 0, root_tuples, first_rows]
    ]
    loose = tight = backward = emitted = 0
    nodes = stats.nodes_visited
    mark = budget.next_mark(nodes)
    try:
        while stack:
            frame = stack[-1]
            (cand, index, rest_p, rest_pos_bits, rest_n,
             x_bits, x_p, x_n, tuples, allowed) = frame
            size = len(cand)
            pushed = False
            while index < size:
                r = cand[index]
                index += 1
                r_bit = 1 << r
                if r < n_positive:
                    rest_p -= 1
                    rest_pos_bits &= ~r_bit
                    seed_p = x_p + 1
                    seed_n = x_n
                else:
                    rest_n -= 1
                    seed_p = x_p
                    seed_n = x_n + 1
                if allowed is not None and not allowed & r_bit:
                    continue
                nodes += 1
                if nodes >= mark:
                    mark = reach_mark(nodes)
                if needs_thresholds:
                    threshold_bits = (
                        ((x_bits | r_bit) & positive_mask) | rest_pos_bits
                    )
                else:
                    threshold_bits = 0
                if loose_prunable(seed_p, seed_n, rest_p, rest_n, threshold_bits):
                    # Sibling cut, as in the bitset kernel.
                    loose += 1
                    if allowed is None:
                        tail = size - index
                    else:
                        tail = sum(
                            1 for row in cand[index:] if allowed >> row & 1
                        )
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
                # Project: keep tuples whose row list contains r (bisect
                # scan, the authentic per-node cost of pointer FARMER).
                kept = []
                for entry in tuples:
                    rows = entry[1]
                    position = bisect(rows, r)
                    if position < len(rows) and rows[position] == r:
                        kept.append(entry)
                if not kept:
                    continue
                # Count frequencies over the kept tuples' full row lists
                # (Counter.update walks each list at C speed; key order is
                # first encounter, same as the explicit nested loop).
                freq = Counter()
                freq_update = freq.update
                for entry in kept:
                    freq_update(entry[1])
                n_tuples = len(kept)
                closure = 0
                backward_hit = False
                for row, count in freq.items():
                    if count == n_tuples:
                        if row < r and not x_bits >> row & 1:
                            backward_hit = True
                            break
                        closure |= 1 << row
                if backward_hit:
                    backward += 1
                    continue
                new_cand = sorted(
                    row
                    for row, count in freq.items()
                    if row > r and count < n_tuples
                )
                new_x_p = bit_count(closure & positive_mask)
                new_x_n = bit_count(closure) - new_x_p
                m_p = 0
                new_cand_pos_bits = 0
                for row in new_cand:
                    if row < n_positive:
                        m_p += 1
                        new_cand_pos_bits |= 1 << row
                new_r_n = len(new_cand) - m_p
                if needs_thresholds:
                    new_threshold = (closure & positive_mask) | new_cand_pos_bits
                else:
                    new_threshold = 0
                if tight_prunable(new_x_p, new_x_n, m_p, new_r_n, new_threshold):
                    tight += 1
                    continue
                emitted += 1
                if new_x_p >= policy.minsup:
                    emit([item for item, _rows in kept], closure,
                         new_x_p, new_x_n)
                if new_cand:
                    frame[1] = index
                    frame[2] = rest_p
                    frame[3] = rest_pos_bits
                    frame[4] = rest_n
                    stack.append(
                        [new_cand, 0, m_p, new_cand_pos_bits, new_r_n,
                         closure, new_x_p, new_x_n, kept, None]
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


# ---------------------------------------------------------------------------
# tree engine (prefix-tree projected transposed tables, Section 4.2)
# ---------------------------------------------------------------------------


def _walk_tree(
    view: MiningView,
    policy: SearchPolicy,
    stats: MinerStats,
    budget: _Budget,
    first_rows: Optional[int] = None,
) -> None:
    support = view.support_index()
    positive_mask = view.positive_mask
    bit_count = int.bit_count
    reach_mark = budget.reach_mark
    charge_loose_tail = budget.charge_loose_tail
    loose_prunable = policy.loose_prunable
    tight_prunable = policy.tight_prunable
    emit = policy.emit
    tree_root = support.tree_root
    # The closure comes off the projection's source nodes; these count
    # it and the candidate rows its row mask leaves outside the closure.
    _, masked_counts = support.node_kernel()
    needs_thresholds = getattr(policy, "uses_threshold_bits", True)

    # The root tree and its per-row projections are pure functions of the
    # view; both come from the SupportIndex (kernels only read projected
    # trees, so sharing them across runs is safe).
    root_tree = support.root_tree()
    root_cand = root_tree.rows_mask()
    root_rem_p, root_rem_all = masked_counts(root_cand)
    # Frame: [todo, rem_p, rem_n, x_bits, x_p, x_n, tree, allowed], as in
    # the bitset kernel.  A child's candidates are its projection's rows
    # outside the closure: rows absorbed into X by a closure step remain
    # in the projected tree's paths but are not extension candidates.
    stack: list[list] = [
        [root_cand, root_rem_p, root_rem_all - root_rem_p,
         0, 0, 0, root_tree, first_rows]
    ]
    loose = tight = backward = emitted = 0
    nodes = stats.nodes_visited
    mark = budget.next_mark(nodes)
    try:
        while stack:
            frame = stack[-1]
            todo, rem_p, rem_n, x_bits, x_p, x_n, tree, allowed = frame
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
                if needs_thresholds:
                    threshold_bits = (x_bits | r_bit | todo) & positive_mask
                else:
                    threshold_bits = 0
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
                r = r_bit.bit_length() - 1
                if x_bits:
                    projected = tree.project(r)
                    if projected.n_items == 0:
                        continue
                    # The projected tree only keeps rows after r (Section
                    # 3's projected transposed table), but each source's
                    # closed_rows covers the items' full row sets, so the
                    # backward check can probe the rows before r.
                    closure = projected.closure_rows()
                    if closure & (r_bit - 1) & ~x_bits:
                        backward += 1
                        continue
                    new_x_p, x_all = masked_counts(closure)
                    new_cand = projected.rows_mask() & ~closure
                    if new_cand:
                        m_p, cand_all = masked_counts(new_cand)
                    else:
                        m_p = cand_all = 0
                    new_x_n = x_all - new_x_p
                    new_r_n = cand_all - m_p
                    if needs_thresholds:
                        new_threshold = (closure | new_cand) & positive_mask
                    else:
                        new_threshold = 0
                else:
                    # Root frame: first-level data memoized on the view.
                    entry = tree_root(r)
                    tag = entry[0]
                    if tag == "empty":
                        continue
                    if tag == "backward":
                        backward += 1
                        continue
                    (_, projected, closure, new_cand, new_x_p, new_x_n,
                     m_p, new_r_n, new_threshold) = entry
                if tight_prunable(new_x_p, new_x_n, m_p, new_r_n, new_threshold):
                    tight += 1
                    continue
                emitted += 1
                # Only a group that can enter a result gets its item list.
                if new_x_p >= policy.minsup:
                    emit(projected.all_items(), closure, new_x_p, new_x_n)
                if new_cand:
                    frame[0] = todo
                    frame[1] = rem_p
                    frame[2] = rem_n
                    stack.append(
                        [new_cand, m_p, new_r_n, closure,
                         new_x_p, new_x_n, projected, None]
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
