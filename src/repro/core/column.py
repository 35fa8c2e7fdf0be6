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
finds as rule groups; :func:`offer_closed_sets` is the
:data:`~repro.core.enumeration.COLUMN_WALK` of
:func:`~repro.core.enumeration.run_enumeration`, which feeds every
closed set to an ordinary :class:`~repro.core.topk_miner.TopkPolicy`
through ``emit``, so a top-k mine's per-row lists are the direct mine's
own, bit for bit, on either walk.  The mine around the walk is
:func:`~repro.core.topk_miner.mine_walk`, shared with the row walks.
The planner's :func:`~repro.core.planner.column_fits` takes this walk
when the closed sets are provably few: for a whole ``strategy="auto"``
mine and for each hybrid partition (DESIGN.md §13).  There
``node_budget`` (``node_budget_per_partition``) counts IT-tree nodes,
and ``engine`` and the Section 4.1.1 flags are ignored.

The walk uses the four subsumption properties of the original
algorithm.  With ``use_diffsets=True`` (the paper's CHARM
configuration) a node below the first level carries its diffset, the
rows of the prefix's tidset that the node's itemset loses, and its
tidset is rebuilt from the prefix only for the subset tests and the
record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .bitset import mask_below
from .enumeration import COLUMN_WALK, POLL_STRIDE, SearchPolicy, _Budget
from .topk_miner import TopkResult, mine_walk
from .view import MiningView

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["mine_topk_column", "offer_closed_sets", "walk_closed_sets"]

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


def offer_closed_sets(
    view: MiningView, policy: SearchPolicy, budget: _Budget
) -> None:
    """The column walk: every closed set offered to ``policy.emit``.

    One :func:`walk_closed_sets` over ``view`` at its ``minsup``, each
    record offered in position space.  A candidate the walk records that
    is not closed repeats the tidset of a closed set recorded before it,
    and :meth:`~repro.core.topk_miner.TopkPolicy.emit` keeps the larger
    antecedent of a tidset it already holds.  Each record counts in
    ``budget.stats.groups_emitted`` and polls ``budget`` after its
    offer: one offer can update thousands of rows' lists on tall data,
    longer than a whole poll stride of row-walk nodes.
    """
    stats = budget.stats
    positive = view.positive_mask
    emit = policy.emit
    poll = budget.poll

    def record(itemset: frozenset, tidset: int) -> None:
        stats.groups_emitted += 1
        x_p = (tidset & positive).bit_count()
        emit(itemset, tidset, x_p, tidset.bit_count() - x_p)
        poll()

    walk_closed_sets(view, view.minsup, record, budget, TOPK_USE_DIFFSETS)


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

    :func:`~repro.core.topk_miner.mine_walk` on the column walk, the
    mine a ``strategy="auto"`` that plans ``column`` runs, for callers
    that want the column walk whatever the plan (the audit's column
    check, the tests).  ``node_budget`` counts IT-tree nodes;
    ``time_budget`` and ``cancel`` are polled on the walk's node and
    pair strides and after every offer, and an overrun returns the
    lists found so far with ``stats.completed`` False.
    ``stats.engine`` is ``"column"`` and ``stats.groups_emitted``
    counts the closed sets offered.
    """
    return mine_walk(
        dataset, consequent, minsup, k, COLUMN_WALK,
        node_budget=node_budget, time_budget=time_budget, cancel=cancel,
    )
