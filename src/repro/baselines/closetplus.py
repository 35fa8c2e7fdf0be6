"""CLOSET+-style closed itemset mining over an FP-tree.

The second column-enumeration baseline of Section 6.1.  Rows are inserted
into a frequency-ordered prefix tree (we reuse
:class:`~repro.core.prefix_tree.PrefixTree`, which is exactly an FP-tree
when the inserted sequences are transactions); closed itemsets are grown
by recursive conditional projection with CLOSET's two core optimizations:

* *item merging* — conditional items whose count equals the prefix
  support are absorbed into the prefix (they are part of its closure);
* *sub-itemset pruning* — a branch is skipped when an already-found
  closed set with the same support subsumes its prefix.

Like CHARM, the miner works over the frequent-item-reduced space and its
output (after filtering by consequent-class support) equals FARMER's rule
groups at ``minconf = 0``; the cross-miner tests rely on that.  Budgets
return partial results, which is how the experiments reproduce the
paper's "CLOSET+ is usually unable to run to completion" observation.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from ..core.bitset import popcount
from ..core.enumeration import (
    POLL_STRIDE,
    ClosedSetResult,
    MinerStats,
    _Budget,
)
from ..core.prefix_tree import PrefixTree
from ..core.rules import RuleGroup
from ..core.view import MiningView
from ..errors import MiningBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["mine_closetplus"]


def mine_closetplus(
    dataset: "DiscretizedDataset",
    consequent: int,
    minsup: int,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> ClosedSetResult:
    """Mine all rule-group upper bounds by FP-tree pattern growth.

    Args:
        dataset: discretized dataset.
        consequent: class id whose support defines the final filter.
        minsup: absolute minimum consequent-class support.  Total support
            is used as the (sound) anti-monotone bound during growth and
            the class-support filter is applied to the closed results.
        node_budget: optional cap on conditional projections.
        time_budget: optional wall-clock cap in seconds.  As in every
            miner the first check comes at the
            :data:`~repro.core.enumeration.POLL_STRIDE`-th projection
            (so 0 stops there, and NaN or a negative value raises
            ``ValueError``); after it the deadline is checked on every
            projection, because one projection walks its whole
            conditional tree and can cost milliseconds, so a stride
            would overshoot by tens of them.

    Returns:
        A :class:`~repro.core.enumeration.ClosedSetResult`, one group
        per row set in the order the row sets were first reached;
        partial when the budget ran out.
    """
    start = time.monotonic()
    stats = MinerStats(engine="closetplus")
    budget = _Budget(stats, node_budget, time_budget)
    view = MiningView(dataset, consequent, minsup)

    # Global ascending-frequency order.  Transactions inserted in this
    # order put rare items near the root, so PrefixTree.project(item)
    # yields precisely the conditional database of that item (the more
    # frequent remainder of every transaction containing it).
    totals = {item: popcount(view.item_rows[item]) for item in view.frequent_items}
    order = {
        item: rank
        for rank, item in enumerate(
            sorted(view.frequent_items, key=lambda i: (totals[i], i))
        )
    }

    tree = PrefixTree.from_items(
        (position, sorted(items, key=order.__getitem__))
        for position, items in enumerate(view.row_items)
        if items
    )

    # Every recorded candidate, and by total support for sub-itemset
    # pruning.  A same-support strict superset of a candidate has the
    # same row set, so the closed sets are the largest antecedent of
    # each row set: the group of a row set is built when it is first
    # reached and its antecedent replaced when a larger one turns up.
    recorded: set[frozenset[int]] = set()
    by_support: dict[int, list[frozenset[int]]] = {}
    groups: dict[int, RuleGroup] = {}

    def record(itemset: frozenset[int], support: int) -> None:
        if not itemset or itemset in recorded:
            return
        recorded.add(itemset)
        by_support.setdefault(support, []).append(itemset)
        row_bits = view.closure_rows(itemset)
        group = groups.get(row_bits)
        if group is None:
            if view.positive_count(row_bits) >= minsup:
                groups[row_bits] = view.rule_group(itemset, row_bits)
        elif len(itemset) > len(group.antecedent):
            groups[row_bits] = replace(group, antecedent=itemset)

    def subsumed(itemset: frozenset[int], support: int) -> bool:
        return any(
            existing > itemset for existing in by_support.get(support, ())
        )

    def grow(current: PrefixTree, prefix: frozenset[int], support: int) -> None:
        budget.charge_node()  # polls at the first stride
        if stats.nodes_visited > POLL_STRIDE:
            budget.poll()
        counts = current.row_frequencies()
        # Item merging: full-count items are in the prefix closure.
        merged = prefix | {item for item, count in counts.items() if count == support}
        record(merged, support)
        extendable = sorted(
            (
                (item, count)
                for item, count in counts.items()
                if count < support and count >= minsup
            ),
            key=lambda pair: (order[pair[0]], pair[0]),
        )
        for item, count in extendable:
            candidate = merged | {item}
            if subsumed(candidate, count):
                continue
            grow(current.project(item), candidate, count)

    try:
        grow(tree, frozenset(), tree.n_items)
    except MiningBudgetExceeded:
        pass  # the budget marked stats incomplete

    stats.elapsed_seconds = time.monotonic() - start
    return ClosedSetResult(
        groups=list(groups.values()),
        consequent=consequent,
        minsup=minsup,
        stats=stats,
    )
