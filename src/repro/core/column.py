"""Column enumeration: CHARM's IT-tree walk over a view's closed sets.

The paper enumerates rows because microarray data has few rows and
thousands of columns; its Figure 6 shows CHARM's column enumeration
failing on that shape.  Tall data is the reverse case: a few frequent
items over many rows have few closed itemsets (at most ``2**f`` for
``f`` frequent items), and every rule-group upper bound is one of them.
So the closed sets determine the top-k lists exactly, and on tall data
the column walk finds them in a fraction of the row walk's nodes.

:func:`walk_closed_sets` is the one IT-tree walk (Zaki & Hsiao, SDM'02)
of the repo.  :func:`~repro.baselines.charm.mine_charm` records what it
finds as rule groups; :func:`mine_topk_column` feeds every closed set to
an ordinary :class:`~repro.core.topk_miner.TopkPolicy` through ``emit``
and returns ``policy.finalize()``, so its per-row lists are the direct
mine's own, bit for bit.  The planner sends ``strategy="auto"`` here
when the closed sets are provably few (:mod:`repro.core.planner`,
DESIGN.md §13).

The walk uses the four subsumption properties of the original
algorithm.  With ``use_diffsets=True`` (the paper's CHARM
configuration) a node below the first level carries its diffset, the
rows of the prefix's tidset that the node's itemset loses, and its
tidset is rebuilt from the prefix only for the subset tests and the
record.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import MiningBudgetExceeded
from .bitset import mask_below
from .enumeration import POLL_STRIDE, MinerStats, _Budget
from .topk_miner import TopkPolicy, TopkResult, maybe_check_result
from .view import MiningView

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["mine_topk_column", "walk_closed_sets"]

# The top-k route's variant.  Both walk the same nodes; tidsets ran 3-7%
# faster on tall-1k@256 (21.8 against 23.3 ms at minsup 0.5, k=2), since
# a diffset node rebuilds its tidset from the prefix's, and the two were
# within noise on tall-16k (DESIGN.md §13).
TOPK_USE_DIFFSETS = False


def walk_closed_sets(
    view: MiningView,
    minsup: int,
    record: Callable[[frozenset, int], None],
    budget: _Budget,
    use_diffsets: bool = True,
) -> None:
    """Walk CHARM's IT-tree over ``view``'s frequent items.

    ``record(itemset, tidset)`` is called once per candidate closed set,
    with the tidset in the view's position space, after the candidate's
    subtree is done; a candidate whose itemset an earlier-recorded one
    with the same tidset contains is not closed, and it is the caller's
    to skip (the walk keeps no record of its own).  Every closed set
    whose consequent-class support reaches ``minsup`` is recorded.

    Each IT-tree node is charged to ``budget``, and the pair scan of one
    node's prefix class polls it every :data:`POLL_STRIDE` pair tests
    (counting no nodes): on wide data one class can hold thousands of
    items.  An exhausted budget raises :class:`MiningBudgetExceeded`
    with what was recorded before it kept.

    The walk keeps an explicit stack of prefix classes.  A frame is
    ``[nodes, index, prefix_tidset, pending]``: the class's
    ``(itemset, tidset-or-diffset)`` nodes, which of them is next,
    the tidset that diffsets are taken from, and the closed set to
    record when the child class the frame opened is done.
    """
    positive = view.positive_mask
    item_rows = view.item_rows
    charge = budget.charge_node
    poll = budget.poll
    # Level one: single items in ascending support, so that the subset
    # properties fire as often as possible.
    roots = sorted(
        (
            (frozenset((item,)), item_rows[item])
            for item in view.frequent_items
            if (item_rows[item] & positive).bit_count() >= minsup
        ),
        key=lambda node: node[1].bit_count(),
    )
    all_rows = mask_below(view.n_rows)
    if use_diffsets:
        roots = [(itemset, all_rows & ~tids) for itemset, tids in roots]
    stack = [[roots, 0, all_rows, None]]
    while stack:
        frame = stack[-1]
        nodes, index, prefix = frame[0], frame[1], frame[2]
        if index == len(nodes):
            stack.pop()
            if stack:
                parent = stack[-1]
                record(*parent[3])
                parent[1] += 1
            continue
        charge()
        itemset_i, key_i = nodes[index]
        tidset_i = prefix & ~key_i if use_diffsets else key_i
        merged = itemset_i
        children = []
        j = index + 1
        tests = 0
        while j < len(nodes):
            tests += 1
            if tests == POLL_STRIDE:
                tests = 0
                poll()
            itemset_j, key_j = nodes[j]
            if use_diffsets:
                # d(X_i X_j) relative to X_i: rows of t(X_i) lost by X_j.
                child_key = key_j & ~key_i
                tidset_ij = tidset_i & ~child_key
            else:
                child_key = tidset_ij = tidset_i & key_j
            if (tidset_ij & positive).bit_count() < minsup:
                j += 1
                continue
            if key_i == key_j:
                # Property 1: X_j is always with X_i; absorb it.
                merged = merged | itemset_j
                del nodes[j]
                continue
            if tidset_ij == tidset_i:
                # Property 2: t(X_i) ⊂ t(X_j); X_i implies X_j.
                merged = merged | itemset_j
                j += 1
                continue
            children.append((merged | itemset_j, child_key))
            if use_diffsets:
                lost = key_i & ~key_j
            else:
                lost = key_j & ~key_i
            if not lost:
                # Property 3: t(X_j) ⊂ t(X_i); X_j spawns the child
                # and leaves this level.
                del nodes[j]
            else:
                # Property 4: incomparable tidsets.
                j += 1
        if children:
            # Children inherit the (possibly grown) prefix itemset, and
            # are walked smallest tidset first.
            children = [(merged | items, key) for items, key in children]
            if use_diffsets:
                children.sort(key=lambda node: -node[1].bit_count())
            else:
                children.sort(key=lambda node: node[1].bit_count())
            frame[3] = (merged, tidset_i)
            stack.append([children, 0, tidset_i, None])
        else:
            record(merged, tidset_i)
            frame[1] = index + 1


def mine_topk_column(
    dataset: "DiscretizedDataset",
    consequent: int,
    minsup: int,
    k: int = 1,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    cancel=None,
) -> TopkResult:
    """Top-k covering rule groups from the closed sets of the view.

    The column route of :func:`~repro.core.topk_miner.mine_topk`: one
    :func:`walk_closed_sets` over the shared view, each closed set
    offered to a :class:`~repro.core.topk_miner.TopkPolicy` through
    ``emit`` in position space, and the lists built by its
    ``finalize``.  A candidate the walk records that is not closed
    repeats the tidset of a closed set recorded before it, and ``emit``
    keeps the larger antecedent of a tidset it already holds.  The
    per-row lists are the direct mine's, bit for bit.

    The Section 4.1.1 optimizations steer a row walk, not this one: the
    policy starts unseeded, since the walk records every single-item
    closed set itself and seeds only make each offer scan fuller lists
    (minsup 0.7, k=10: 12.8 against 16.2 ms on tall-1k@256, 0.47
    against 0.65 s on tall-16k), and its pruning hooks are never asked.

    ``node_budget`` counts IT-tree nodes; ``time_budget`` and ``cancel``
    are polled on the walk's node and pair strides and after every
    offer, and an overrun returns the lists found so far with
    ``stats.completed`` False.  ``stats.engine`` is ``"column"`` and
    ``stats.groups_emitted`` counts the closed sets offered.
    """
    start = time.monotonic()
    stats = MinerStats(engine="column")
    budget = _Budget(stats, node_budget, time_budget, cancel)
    view = MiningView.cached(dataset, consequent, minsup)
    policy = TopkPolicy(view, k, initialize_single_items=False)
    positive = view.positive_mask
    emit = policy.emit
    poll = budget.poll

    def record(itemset: frozenset, tidset: int) -> None:
        stats.groups_emitted += 1
        x_p = (tidset & positive).bit_count()
        emit(itemset, tidset, x_p, tidset.bit_count() - x_p)
        # One offer can update thousands of rows' lists on tall data,
        # longer than a whole poll stride of row-walk nodes.
        poll()

    try:
        walk_closed_sets(view, minsup, record, budget, TOPK_USE_DIFFSETS)
    except MiningBudgetExceeded:
        pass  # the budget marked stats incomplete
    stats.elapsed_seconds = time.monotonic() - start
    result = TopkResult(
        per_row=policy.finalize(),
        consequent=consequent,
        minsup=minsup,
        k=k,
        stats=stats,
    )
    maybe_check_result(dataset, result)
    return result

