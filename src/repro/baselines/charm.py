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

The IT-tree walk itself, with the four subsumption properties of the
original algorithm and its tidset and diffset variants, is
:func:`repro.core.column.walk_closed_sets`, which the top-k column route
shares; this module adds the closed-set registry that turns the walk's
candidates into rule groups.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from ..core.column import walk_closed_sets
from ..core.enumeration import ClosedSetResult, MinerStats, _Budget
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
    view = MiningView(dataset, consequent, minsup)
    registry = _ClosedRegistry(view)
    try:
        walk_closed_sets(view, minsup, registry.add, budget, use_diffsets)
    except MiningBudgetExceeded:
        pass  # the budget marked stats incomplete

    stats.elapsed_seconds = time.monotonic() - start
    return ClosedSetResult(
        groups=registry.groups(),
        consequent=consequent,
        minsup=minsup,
        stats=stats,
    )
