"""Every miner returns within its time budget, results built.

Figure 6 and Section 6.1 judge the miners by whether they finish within
a budget, so a budgeted mine must return close to its deadline, not
after a pass over what its walk found.  One PC-shaped dataset where no
miner below finishes in 0.3 s; each must come back within
``1.25 * budget + 50 ms`` of the call.  The column route is held to the
same bound where ``strategy="auto"`` plans it, on tall-16k.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.baselines import mine_charm, mine_closetplus, mine_farmer
from repro.core.column import mine_topk_column
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.core.view import MiningView
from repro.data.synthetic import TALL_COHORTS, generate_tall_cohort

BUDGET = 0.3
BOUND = 1.25 * BUDGET + 0.05
MINSUP = 26

MINERS = {
    "topk-direct": lambda ds, budget: mine_topk(
        ds, 1, MINSUP, k=100, time_budget=budget
    ),
    "topk-hybrid": lambda ds, budget: mine_topk(
        ds, 1, MINSUP, k=10, strategy="hybrid", time_budget=budget
    ),
    "farmer-table": lambda ds, budget: mine_farmer(
        ds, 1, MINSUP, engine="table", time_budget=budget
    ),
    "farmer-tree": lambda ds, budget: mine_farmer(
        ds, 1, MINSUP, engine="tree", time_budget=budget
    ),
    "farmer-bitset": lambda ds, budget: mine_farmer(
        ds, 1, MINSUP, engine="bitset", time_budget=budget
    ),
    "topk-column": lambda ds, budget: mine_topk_column(
        ds, 1, MINSUP, k=10, time_budget=budget
    ),
    "charm": lambda ds, budget: mine_charm(ds, 1, MINSUP,
                                           time_budget=budget),
    "closetplus": lambda ds, budget: mine_closetplus(ds, 1, MINSUP,
                                                     time_budget=budget),
}


@pytest.fixture(scope="module")
def pc_train(pc_benchmark):
    train = pc_benchmark.train_items
    # The shared view is set-up, not mining: build it before the clock.
    MiningView.cached(train, 1, MINSUP).support_index()
    return train


@pytest.mark.parametrize("miner", sorted(MINERS))
def test_budgeted_mine_returns_by_the_deadline(pc_train, miner):
    start = time.perf_counter()
    result = MINERS[miner](pc_train, BUDGET)
    elapsed = time.perf_counter() - start
    assert elapsed <= BOUND, (
        f"{miner} returned {elapsed:.3f}s after a {BUDGET}s budget "
        f"(bound {BOUND:.3f}s)"
    )
    assert not result.stats.completed, f"{miner} finished inside the budget"


def test_tall_column_mine_returns_by_the_deadline():
    """tall-16k at minsup 0.5 |C| and k=10 plans the column walk, which
    takes ~1-2 s unbudgeted; each of its closed sets updates thousands
    of rows' lists, so the walk polls after every one."""
    dataset = generate_tall_cohort(TALL_COHORTS["tall-16k"])
    minsup = relative_minsup(dataset, 1, 0.5)
    # Set-up, as for the PC miners: the view and the dataset's item
    # bitsets, which the planner's pass reads.  Their ~33k objects are
    # frozen out of the collector: in this process a full collection
    # walks them for ~60 ms, and the lists the mine builds after its
    # deadline would set one off, a pause that is no part of the
    # miner's stop.
    MiningView.cached(dataset, 1, minsup)
    dataset.item_row_sets()
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        result = mine_topk(dataset, 1, minsup, k=10, strategy="auto",
                           time_budget=BUDGET)
        elapsed = time.perf_counter() - start
    finally:
        gc.unfreeze()
    assert result.stats.plan.strategy == "column"
    assert elapsed <= BOUND, (
        f"the column route returned {elapsed:.3f}s after a {BUDGET}s "
        f"budget (bound {BOUND:.3f}s)"
    )
    assert not result.stats.completed


def test_closetplus_stops_within_a_few_of_its_own_nodes(pc_train):
    """One CLOSET+ projection walks its whole conditional tree, about a
    millisecond here, so a poll every POLL_STRIDE projections stopped
    tens of milliseconds late.  The deadline is checked on every
    projection: the walk ends within three of its own mean per-node
    times of the budget, on the miner's own clock (which excludes
    freeing the prefix trees after the stop)."""
    result = mine_closetplus(pc_train, 1, MINSUP, time_budget=BUDGET)
    stats = result.stats
    per_node = stats.elapsed_seconds / stats.nodes_visited
    assert stats.elapsed_seconds <= BUDGET + 3 * per_node, (
        f"stopped {1000 * (stats.elapsed_seconds - BUDGET):.1f} ms past a "
        f"{BUDGET}s budget; one node costs {1000 * per_node:.2f} ms"
    )
