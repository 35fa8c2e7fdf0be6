"""CHARM: column-enumeration closed itemset mining (Zaki & Hsiao, SDM'02).

The paper uses CHARM with diffsets as a representative of the
column-enumeration school and reports that it exhausts memory on
entropy-discretized microarray data; Figure 6's story is that the item
space (thousands of columns) is the wrong dimension to enumerate.  This
is a from-scratch implementation over the same frequent-item-reduced
space as the row-enumeration miners, so the two families can be
cross-validated: CHARM's closed itemsets with consequent-class support at
least ``minsup`` are exactly the rule-group upper bounds FARMER finds
with ``minconf = 0``.

The IT-tree search uses the four subsumption properties of the original
algorithm.  With ``use_diffsets=True`` (the paper's configuration) child
nodes carry diffsets — the rows *lost* from the parent's tidset — and
supports are maintained incrementally; tidsets are reconstructed only
when a closed candidate is recorded.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from ..core.bitset import popcount
from ..core.enumeration import (
    POLL_STRIDE,
    ClosedSetResult,
    MinerStats,
    _Budget,
)
from ..core.rules import RuleGroup
from ..core.view import MiningView
from ..errors import MiningBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["mine_charm"]


class _ClosedRegistry:
    """Closed-set store with the subsumption check of CHARM.

    A candidate itemset is subsumed iff an already-recorded closed set
    with the same tidset is a superset.  Groups are bucketed by tidset
    so the check is a few set comparisons, and each is built in row-id
    space as it is added.
    """

    def __init__(self, view: MiningView) -> None:
        self._view = view
        self._by_tidset: dict[int, list[RuleGroup]] = {}

    def add(self, itemset: frozenset[int], tidset: int) -> None:
        """Record ``itemset`` unless a same-tidset closed set subsumes it."""
        bucket = self._by_tidset.setdefault(tidset, [])
        if not any(group.antecedent >= itemset for group in bucket):
            bucket.append(self._view.rule_group(itemset, tidset))

    def groups(self) -> list[RuleGroup]:
        return [group for bucket in self._by_tidset.values() for group in bucket]


def mine_charm(
    dataset: "DiscretizedDataset",
    consequent: int,
    minsup: int,
    use_diffsets: bool = True,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    cancel=None,
) -> ClosedSetResult:
    """Mine all rule-group upper bounds by column enumeration.

    Args:
        dataset: discretized dataset.
        consequent: class id whose support defines frequency.
        minsup: absolute minimum consequent-class support.
        use_diffsets: carry diffsets below the first level (the paper's
            "CHARM which uses diff-sets" configuration).
        node_budget: optional cap on explored IT-tree nodes; on overrun a
            partial result with ``completed=False`` is returned.
        time_budget: optional wall-clock cap in seconds, same semantics;
            polled every :data:`~repro.core.enumeration.POLL_STRIDE`
            nodes like the row-enumeration miners' budgets (so 0 stops
            at the first poll, and NaN or a negative value raises
            ``ValueError``), and every ``POLL_STRIDE`` pair tests inside
            one node's scan of its prefix class, which on wide data can
            hold thousands of items.
        cancel: optional cancellation token (anything with ``is_set()``),
            polled with the deadline; when set the partial result comes
            back with ``completed=False``.

    Returns:
        A :class:`~repro.core.enumeration.ClosedSetResult` whose groups
        match FARMER at ``minconf = 0`` on any dataset (verified by the
        cross-miner tests).
    """
    start = time.monotonic()
    stats = MinerStats(engine="charm")
    budget = _Budget(stats, node_budget, time_budget, cancel)
    charge = budget.charge_node
    poll = budget.poll
    view = MiningView(dataset, consequent, minsup)
    positive_mask = view.positive_mask
    registry = _ClosedRegistry(view)

    def class_support(tidset: int) -> int:
        return popcount(tidset & positive_mask)

    # Level 1: single items as (itemset, tidset) pairs, frequency-ordered.
    # CHARM explores ascending support so that tidset-subset properties
    # fire as often as possible.
    level_one = [
        (frozenset([item]), view.item_rows[item])
        for item in view.frequent_items
    ]
    level_one = [
        pair for pair in level_one if class_support(pair[1]) >= minsup
    ]
    level_one.sort(key=lambda pair: (popcount(pair[1]), min(pair[0])))

    def extend(nodes: list[tuple[frozenset[int], int]]) -> None:
        """CHARM-EXTEND over (itemset, tidset) nodes of one prefix class."""
        index = 0
        while index < len(nodes):
            charge()
            itemset_i, tidset_i = nodes[index]
            merged_itemset = itemset_i
            children: list[tuple[frozenset[int], int]] = []
            j = index + 1
            tests = 0
            while j < len(nodes):
                tests += 1
                if tests == POLL_STRIDE:
                    tests = 0
                    poll()
                itemset_j, tidset_j = nodes[j]
                tidset_ij = tidset_i & tidset_j
                if class_support(tidset_ij) < minsup:
                    j += 1
                    continue
                if tidset_i == tidset_j:
                    # Property 1: X_j is always with X_i; absorb it.
                    merged_itemset = merged_itemset | itemset_j
                    del nodes[j]
                    continue
                if tidset_i & ~tidset_j == 0:
                    # Property 2: t(X_i) ⊂ t(X_j); X_i implies X_j.
                    merged_itemset = merged_itemset | itemset_j
                    j += 1
                    continue
                if tidset_j & ~tidset_i == 0:
                    # Property 3: t(X_j) ⊂ t(X_i); X_j spawns the child
                    # and disappears from this level.
                    children.append((merged_itemset | itemset_j, tidset_ij))
                    del nodes[j]
                    continue
                # Property 4: incomparable tidsets.
                children.append((merged_itemset | itemset_j, tidset_ij))
                j += 1
            if children:
                # Children inherit the (possibly grown) prefix itemset.
                fixed = [
                    (merged_itemset | child_items, child_tids)
                    for child_items, child_tids in children
                ]
                fixed.sort(key=lambda pair: popcount(pair[1]))
                extend(fixed)
            registry.add(merged_itemset, tidset_i)
            index += 1

    def extend_diffsets(
        nodes: list[tuple[frozenset[int], int, int]], prefix_tidset: int
    ) -> None:
        """CHARM-EXTEND where nodes carry (itemset, diffset, support).

        ``diffset`` holds the rows of the prefix tidset *not* containing
        the node's itemset; the true tidset is ``prefix_tidset & ~diffset``
        and is materialised only when recording closed sets.
        """
        index = 0
        while index < len(nodes):
            charge()
            itemset_i, diffset_i, _support_i = nodes[index]
            merged_itemset = itemset_i
            tidset_i = prefix_tidset & ~diffset_i
            children: list[tuple[frozenset[int], int, int]] = []
            j = index + 1
            tests = 0
            while j < len(nodes):
                # The pair scan polls on its own stride (counting no
                # nodes): one prefix class can outlast many node strides.
                tests += 1
                if tests == POLL_STRIDE:
                    tests = 0
                    poll()
                itemset_j, diffset_j, _support_j = nodes[j]
                # d(X_i X_j) relative to X_i: rows in t(X_i) lost by X_j.
                diffset_ij = diffset_j & ~diffset_i
                tidset_ij = tidset_i & ~diffset_ij
                if class_support(tidset_ij) < minsup:
                    j += 1
                    continue
                if diffset_i == diffset_j:
                    merged_itemset = merged_itemset | itemset_j
                    del nodes[j]
                    continue
                if diffset_j & ~diffset_i == 0:
                    # d_j ⊆ d_i ⟺ t(X_i) ⊆ t(X_j).
                    merged_itemset = merged_itemset | itemset_j
                    j += 1
                    continue
                if diffset_i & ~diffset_j == 0:
                    children.append(
                        (merged_itemset | itemset_j, diffset_ij, 0)
                    )
                    del nodes[j]
                    continue
                children.append((merged_itemset | itemset_j, diffset_ij, 0))
                j += 1
            if children:
                fixed = [
                    (merged_itemset | child_items, child_diff, 0)
                    for child_items, child_diff, _ in children
                ]
                fixed.sort(
                    key=lambda node: -popcount(node[1])
                )  # largest diffset = smallest tidset first
                extend_diffsets(fixed, tidset_i)
            registry.add(merged_itemset, tidset_i)
            index += 1

    try:
        if use_diffsets and level_one:
            all_rows = (1 << view.n_rows) - 1
            diff_nodes = [
                (itemset, all_rows & ~tidset, class_support(tidset))
                for itemset, tidset in level_one
            ]
            extend_diffsets(diff_nodes, all_rows)
        else:
            extend(level_one)
    except MiningBudgetExceeded:
        pass  # the budget marked stats incomplete

    stats.elapsed_seconds = time.monotonic() - start
    return ClosedSetResult(
        groups=registry.groups(),
        consequent=consequent,
        minsup=minsup,
        stats=stats,
    )
