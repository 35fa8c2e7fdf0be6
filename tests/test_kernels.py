"""The iterative enumeration kernels vs the recursive reference walkers.

The hot-path rewrite turned the three recursive engine walkers into
explicit-stack kernels with incremental closure/rest-mask maintenance
and a per-view ``SupportIndex``.  The contract is *total* equivalence:
for every engine and every §4.1.1 optimization-flag combination the
kernels must visit the same nodes in the same order, fire the same
pruning rules, and emit the same groups — so both the finalized results
and every ``MinerStats`` counter must match exactly.

The reference implementations below are the pre-rewrite recursive
walkers, kept verbatim (minus the hot-path local bindings) as executable
specification.  Cases come from the audit generator, so the comparison
covers the same degenerate shapes (duplicates, empty rows, single class,
tie-heavy lists) the differential audit sweeps.

The kernels close a frame at its first loose prune (the sibling cut);
the reference walkers do not, which lets the tests below check the
lemma behind the cut on every later sibling, and check that a budget
stopping inside a cut tail leaves exactly the node-by-node partial state.
"""

from __future__ import annotations

import copy
import sys
import threading
from bisect import bisect_left
from collections import Counter
from itertools import product
from typing import Optional, Sequence

import pytest

from repro.audit.generator import generate_cases
from repro.baselines.farmer import FarmerPolicy, mine_farmer
from repro.core.bitset import iter_indices, mask_below
from repro.core.enumeration import (
    ENGINES,
    POLL_STRIDE,
    MinerStats,
    _Budget,
    run_enumeration,
)
from repro.core.prefix_tree import PrefixTree
from repro.core.topk_miner import TopkPolicy, mine_topk, relative_minsup
from repro.core.view import MiningView
from repro.data import random_discretized_dataset
from repro.data.loaders import load_benchmark
from repro.errors import MiningBudgetExceeded

# The 2^3 combinations of the paper's §4.1.1 optimizations.
FLAG_COMBOS = tuple(
    {
        "initialize_single_items": init,
        "dynamic_minsup": dynamic,
        "use_topk_pruning": pruning,
    }
    for init, dynamic, pruning in product((False, True), repeat=3)
)

CASES = generate_cases(seed=7, n_cases=8)


# ---------------------------------------------------------------------------
# Reference implementations: the recursive walkers the kernels replaced.
# ---------------------------------------------------------------------------


def _reference_bitset(view, policy, stats, first_rows=None) -> None:
    item_rows = view.item_rows
    row_items = view.row_items
    positive_mask = view.positive_mask
    bit_count = int.bit_count

    def recurse(x_bits, x_p, x_n, items, cand_bits, allowed) -> None:
        remaining = cand_bits
        rem_p = bit_count(cand_bits & positive_mask)
        rem_n = bit_count(cand_bits) - rem_p
        for r in iter_indices(cand_bits):
            r_bit = 1 << r
            remaining &= ~r_bit
            if r_bit & positive_mask:
                rem_p -= 1
                seed_p, seed_n = x_p + 1, x_n
            else:
                rem_n -= 1
                seed_p, seed_n = x_p, x_n + 1
            if allowed is not None and not allowed & r_bit:
                continue
            stats.nodes_visited += 1
            threshold_bits = ((x_bits | r_bit) | remaining) & positive_mask
            if policy.loose_prunable(seed_p, seed_n, rem_p, rem_n,
                                     threshold_bits):
                stats.loose_pruned += 1
                continue
            present = row_items[r]
            new_items = [i for i in items if i in present]
            if not new_items:
                continue
            closure = item_rows[new_items[0]]
            union = closure
            for item in new_items[1:]:
                rows = item_rows[item]
                closure &= rows
                union |= rows
            if closure & (r_bit - 1) & ~x_bits:
                stats.backward_pruned += 1
                continue
            new_cand = remaining & union & ~closure
            new_x_p = bit_count(closure & positive_mask)
            new_x_n = bit_count(closure) - new_x_p
            m_p = bit_count(new_cand & positive_mask)
            new_r_n = bit_count(new_cand) - m_p
            new_threshold = (closure | new_cand) & positive_mask
            if policy.tight_prunable(new_x_p, new_x_n, m_p, new_r_n,
                                     new_threshold):
                stats.tight_pruned += 1
                continue
            stats.groups_emitted += 1
            policy.emit(new_items, closure, new_x_p, new_x_n)
            if new_cand:
                recurse(closure, new_x_p, new_x_n, new_items, new_cand, None)

    recurse(0, 0, 0, list(view.frequent_items), mask_below(view.n_rows),
            first_rows)


def _reference_table(view, policy, stats, first_rows=None) -> None:
    positive_mask = view.positive_mask
    n_positive = view.n_positive
    bit_count = int.bit_count

    root_tuples = [
        (item, sorted(iter_indices(view.item_rows[item])))
        for item in view.frequent_items
    ]

    def recurse(x_bits, x_p, x_n, tuples, cand, allowed) -> None:
        rest_p = 0
        rest_pos_bits = 0
        for row in cand:
            if row < n_positive:
                rest_p += 1
                rest_pos_bits |= 1 << row
        rest_n = len(cand) - rest_p
        for r in cand:
            r_bit = 1 << r
            if r < n_positive:
                rest_p -= 1
                rest_pos_bits &= ~r_bit
                seed_p, seed_n = x_p + 1, x_n
            else:
                rest_n -= 1
                seed_p, seed_n = x_p, x_n + 1
            if allowed is not None and not allowed & r_bit:
                continue
            stats.nodes_visited += 1
            threshold_bits = ((x_bits | r_bit) & positive_mask) | rest_pos_bits
            if policy.loose_prunable(seed_p, seed_n, rest_p, rest_n,
                                     threshold_bits):
                stats.loose_pruned += 1
                continue
            kept = []
            for item, rows in tuples:
                position = bisect_left(rows, r)
                if position < len(rows) and rows[position] == r:
                    kept.append((item, rows))
            if not kept:
                continue
            freq: dict = {}
            for _item, rows in kept:
                for row in rows:
                    freq[row] = freq.get(row, 0) + 1
            n_tuples = len(kept)
            closure = 0
            backward = False
            for row, count in freq.items():
                if count == n_tuples:
                    if row < r and not x_bits >> row & 1:
                        backward = True
                        break
                    closure |= 1 << row
            if backward:
                stats.backward_pruned += 1
                continue
            new_cand = sorted(
                row for row, count in freq.items()
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
            new_threshold = (closure & positive_mask) | new_cand_pos_bits
            if policy.tight_prunable(new_x_p, new_x_n, m_p, new_r_n,
                                     new_threshold):
                stats.tight_pruned += 1
                continue
            stats.groups_emitted += 1
            policy.emit([item for item, _rows in kept], closure, new_x_p,
                        new_x_n)
            if new_cand:
                recurse(closure, new_x_p, new_x_n, kept, new_cand, None)

    recurse(0, 0, 0, root_tuples, list(range(view.n_rows)), first_rows)


def _reference_tree(view, policy, stats, first_rows=None) -> None:
    positive_mask = view.positive_mask
    n_positive = view.n_positive
    item_rows = view.item_rows
    bit_count = int.bit_count

    root_tree = PrefixTree.from_items(
        (item, sorted(iter_indices(view.item_rows[item])))
        for item in view.frequent_items
    )

    def recurse(x_bits, x_p, x_n, tree, allowed) -> None:
        cand = [row for row in tree.rows_present() if not x_bits >> row & 1]
        rest_p = 0
        rest_pos_bits = 0
        for row in cand:
            if row < n_positive:
                rest_p += 1
                rest_pos_bits |= 1 << row
        rest_n = len(cand) - rest_p
        for r in cand:
            r_bit = 1 << r
            if r < n_positive:
                rest_p -= 1
                rest_pos_bits &= ~r_bit
                seed_p, seed_n = x_p + 1, x_n
            else:
                rest_n -= 1
                seed_p, seed_n = x_p, x_n + 1
            if allowed is not None and not allowed & r_bit:
                continue
            stats.nodes_visited += 1
            threshold_bits = ((x_bits | r_bit) & positive_mask) | rest_pos_bits
            if policy.loose_prunable(seed_p, seed_n, rest_p, rest_n,
                                     threshold_bits):
                stats.loose_pruned += 1
                continue
            projected = tree.project(r)
            if projected.n_items == 0:
                continue
            new_items = projected.all_items()
            closure = item_rows[new_items[0]]
            for item in new_items[1:]:
                closure &= item_rows[item]
            if closure & (r_bit - 1) & ~x_bits:
                stats.backward_pruned += 1
                continue
            freq = projected.row_frequencies()
            new_cand_rows = [row for row in freq if not closure >> row & 1]
            new_x_p = bit_count(closure & positive_mask)
            new_x_n = bit_count(closure) - new_x_p
            m_p = 0
            new_cand_pos_bits = 0
            for row in new_cand_rows:
                if row < n_positive:
                    m_p += 1
                    new_cand_pos_bits |= 1 << row
            new_r_n = len(new_cand_rows) - m_p
            new_threshold = (closure & positive_mask) | new_cand_pos_bits
            if policy.tight_prunable(new_x_p, new_x_n, m_p, new_r_n,
                                     new_threshold):
                stats.tight_pruned += 1
                continue
            stats.groups_emitted += 1
            policy.emit(new_items, closure, new_x_p, new_x_n)
            if new_cand_rows:
                recurse(closure, new_x_p, new_x_n, projected, None)

    recurse(0, 0, 0, root_tree, first_rows)


REFERENCE_WALKERS = {
    "bitset": _reference_bitset,
    "table": _reference_table,
    "tree": _reference_tree,
}

COUNTERS = (
    "nodes_visited",
    "groups_emitted",
    "loose_pruned",
    "tight_pruned",
    "backward_pruned",
)


class _BudgetedStats(MinerStats):
    """Reference stats whose node count stops at ``node_budget + 1``,
    raising the way ``_Budget.charge_node`` does."""

    def __init__(self, engine: str, node_budget: int) -> None:
        super().__init__(engine=engine)
        self.node_budget = node_budget

    def __setattr__(self, name, value) -> None:
        super().__setattr__(name, value)
        budget = getattr(self, "node_budget", None)
        if name == "nodes_visited" and budget is not None and value > budget:
            self.completed = False
            raise MiningBudgetExceeded(
                f"node budget {budget} exceeded", self
            )


def _run_reference(view, policy, engine: str,
                   first_rows: Optional[int] = None,
                   node_budget: Optional[int] = None) -> MinerStats:
    if node_budget is None:
        stats = MinerStats(engine=engine)
    else:
        stats = _BudgetedStats(engine, node_budget)
    try:
        REFERENCE_WALKERS[engine](view, policy, stats, first_rows)
    except MiningBudgetExceeded:
        pass
    return stats


def _snapshot(policy: TopkPolicy) -> tuple:
    """The finalized lists, the store's per-row k-th pairs and minsup."""
    return (
        {
            row: [
                (g.antecedent, g.consequent, g.row_set, g.support,
                 g.confidence)
                for g in groups
            ]
            for row, groups in policy.finalize().items()
        },
        list(policy._store._pairs),
        policy.minsup,
    )


def _counters(stats: MinerStats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


class TestKernelsMatchReference:
    """Iterative kernels == recursive walkers, counter for counter."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS,
        ids=["".join("ft"[v] for v in combo.values()) for combo in FLAG_COMBOS],
    )
    def test_topk_flag_combos(self, engine, flags):
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)

            reference_policy = TopkPolicy(view, case.k, **flags)
            reference_stats = _run_reference(view, reference_policy, engine)

            kernel_policy = TopkPolicy(view, case.k, **flags)
            kernel_stats = run_enumeration(view, kernel_policy, engine=engine)

            label = f"case {case.index} ({case.shape}), engine {engine}"
            assert _counters(kernel_stats) == _counters(reference_stats), label
            assert _snapshot(kernel_policy) == _snapshot(reference_policy), label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_farmer(self, engine):
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)

            reference_policy = FarmerPolicy(view, minconf=0.5)
            reference_stats = _run_reference(view, reference_policy, engine)

            kernel_policy = FarmerPolicy(view, minconf=0.5)
            kernel_stats = run_enumeration(view, kernel_policy, engine=engine)

            label = f"case {case.index} ({case.shape}), engine {engine}"
            assert _counters(kernel_stats) == _counters(reference_stats), label
            assert [
                (g.antecedent, g.consequent, g.row_set, g.support, g.confidence)
                for g in kernel_policy.groups
            ] == [
                (g.antecedent, g.consequent, g.row_set, g.support, g.confidence)
                for g in reference_policy.groups
            ], label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_rows_sharding(self, engine):
        """The root-level `allowed` filter behaves identically (the
        contract the parallel shard workers rely on): filtered roots are
        skipped before being charged, deeper levels are never filtered."""
        case = CASES[0]
        view = MiningView(case.dataset, case.consequent, case.minsup)
        n_rows = view.n_rows
        if n_rows < 2:
            pytest.skip("case too small to shard")
        shard = mask_below((n_rows + 1) // 2)  # first half of the roots

        reference_policy = TopkPolicy(view, case.k)
        reference_stats = _run_reference(view, reference_policy, engine,
                                         first_rows=shard)

        kernel_policy = TopkPolicy(view, case.k)
        kernel_stats = run_enumeration(view, kernel_policy, engine=engine,
                                       first_rows=shard)

        assert _counters(kernel_stats) == _counters(reference_stats)
        assert _snapshot(kernel_policy) == _snapshot(reference_policy)


class _SiblingCutProbe:
    """Policy wrapper checking the sibling-cut lemma on a reference walk.

    The reference walkers test every candidate of a frame, one by one,
    even after a loose prune.  Once a candidate of a walker frame is
    loose-pruned, the probe asserts that ``loose_prunable`` holds for
    every later sibling of that frame, evaluated on the bounds the walker
    computes for it — the lemma the kernels' sibling cut relies on.
    """

    def __init__(self, policy) -> None:
        self.policy = policy
        self.uses_threshold_bits = getattr(policy, "uses_threshold_bits", True)
        # Walker frames that have seen a loose prune, kept alive so that
        # their ids are not reused by later frames.
        self._cut_frames: dict = {}
        self.later_siblings = 0
        self.violations: list = []

    @property
    def minsup(self) -> int:
        return self.policy.minsup

    def loose_prunable(self, x_p, x_n, r_p, r_n, threshold_bits) -> bool:
        pruned = self.policy.loose_prunable(x_p, x_n, r_p, r_n, threshold_bits)
        frame = sys._getframe(1)
        if id(frame) in self._cut_frames:
            self.later_siblings += 1
            if not pruned:
                self.violations.append((x_p, x_n, r_p, r_n, threshold_bits))
        elif pruned:
            self._cut_frames[id(frame)] = frame
        return pruned

    def tight_prunable(self, x_p, x_n, m_p, r_n, threshold_bits) -> bool:
        return self.policy.tight_prunable(x_p, x_n, m_p, r_n, threshold_bits)

    def emit(self, items, position_bits, x_p, x_n) -> None:
        self.policy.emit(items, position_bits, x_p, x_n)


class TestSiblingCutLemma:
    """Loose bounds only weaken along a frame's ascending candidates, so
    a loose prune prunes every later sibling: checked on the reference
    walkers, apart from the kernels, for every policy configuration.  A
    policy change that breaks the monotonicity fails here instead of
    silently changing what the kernels find."""

    # The audit cases are tiny and mostly pruned at the root, so four
    # random 16-row datasets add frames whose loose prunes start deeper
    # in the candidate list (a non-monotone bound fails on them).
    INPUTS = [
        (f"case {case.index} ({case.shape})", case.dataset,
         case.consequent, case.minsup, case.k)
        for case in CASES
    ] + [
        (f"random seed {seed}",
         random_discretized_dataset(n_rows=16, n_items=12, density=0.5,
                                    seed=seed),
         1, 2, 3)
        for seed in range(4)
    ]

    @classmethod
    def _probe_all_inputs(cls, engine, make_policy) -> int:
        later_siblings = 0
        for label, dataset, consequent, minsup, k in cls.INPUTS:
            view = MiningView(dataset, consequent, minsup)
            probe = _SiblingCutProbe(make_policy(view, k))
            _run_reference(view, probe, engine)
            assert probe.violations == [], f"{label}, engine {engine}"
            later_siblings += probe.later_siblings
        return later_siblings

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS,
        ids=["".join("ft"[v] for v in combo.values()) for combo in FLAG_COMBOS],
    )
    def test_topk_flag_combos(self, engine, flags):
        checked = self._probe_all_inputs(
            engine, lambda view, k: TopkPolicy(view, k, **flags))
        assert checked > 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("minconf", [0.0, 0.6, 0.9])
    def test_farmer(self, engine, minconf):
        checked = self._probe_all_inputs(
            engine, lambda view, k: FarmerPolicy(view, minconf=minconf))
        assert checked > 0


class TestBudgetStopsInsideCutTails:
    """The kernels charge a cut tail in one call; a budget must still
    stop on exactly the node a node-by-node walk stops on."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", CASES[:2], ids=lambda case: case.shape)
    def test_every_node_budget(self, engine, case):
        view = MiningView(case.dataset, case.consequent, case.minsup)
        probe = _SiblingCutProbe(TopkPolicy(view, case.k))
        full = _run_reference(view, probe, engine).nodes_visited
        assert probe.later_siblings > 0, "case has no cut tail to stop in"
        for budget in range(1, full + 1):
            reference_policy = TopkPolicy(view, case.k)
            reference_stats = _run_reference(view, reference_policy, engine,
                                             node_budget=budget)
            kernel_policy = TopkPolicy(view, case.k)
            try:
                kernel_stats = run_enumeration(
                    view, kernel_policy, engine=engine, node_budget=budget)
            except MiningBudgetExceeded as overrun:
                kernel_stats = overrun.stats
            label = f"engine {engine}, node_budget {budget}"
            assert _counters(kernel_stats) == _counters(reference_stats), label
            assert kernel_stats.completed == reference_stats.completed, label
            assert kernel_stats.completed == (budget == full), label
            assert _snapshot(kernel_policy) == _snapshot(reference_policy), label

    def test_charge_nodes_equals_repeated_charge_node(self):
        def outcome(start, count, node_budget, cancel, bulk):
            stats = MinerStats(nodes_visited=start)
            budget = _Budget(stats, node_budget, None, cancel)
            try:
                if bulk:
                    budget.charge_nodes(count)
                else:
                    for _ in range(count):
                        budget.charge_node()
                stopped = None
            except MiningBudgetExceeded as overrun:
                stopped = str(overrun)
            return stats.nodes_visited, stats.completed, stopped

        preset = threading.Event()
        preset.set()
        for node_budget, cancel, start, count in product(
            (None, 0, 1, 63, 64, 65, 130),
            (None, threading.Event(), preset),
            (0, 1, 63, 64, 100),
            (0, 1, 2, 63, 64, 65, 200),
        ):
            if node_budget is not None and start > node_budget:
                continue  # the walk stops before it gets here
            label = (node_budget, cancel, start, count)
            assert outcome(start, count, node_budget, cancel, True) == \
                outcome(start, count, node_budget, cancel, False), label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_preset_cancel_stops_at_the_first_poll(self, paper_train, engine,
                                                   monkeypatch):
        tails = []
        charge_loose_tail = _Budget.charge_loose_tail

        def recording(budget, count):
            tails.append((budget.stats.nodes_visited, count))
            charge_loose_tail(budget, count)

        monkeypatch.setattr(_Budget, "charge_loose_tail", recording)
        minsup = relative_minsup(paper_train, 1, 0.7)
        token = threading.Event()
        token.set()
        result = mine_topk(paper_train, 1, minsup, k=10, engine=engine,
                           cancel=token)
        # The first poll falls inside a cut tail, not at its end.
        assert any(start < POLL_STRIDE < start + count
                   for start, count in tails), tails
        assert not result.stats.completed
        assert result.stats.nodes_visited == POLL_STRIDE
        # Same partial walk as a node budget stopping on that node.
        view = MiningView(paper_train, 1, minsup)
        reference = _run_reference(view, TopkPolicy(view, 10), engine,
                                   node_budget=POLL_STRIDE - 1)
        assert _counters(result.stats) == _counters(reference)


    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("polls", (2, 5))
    def test_cancel_set_at_a_later_poll_stops_on_its_stride(
            self, paper_train, engine, polls):
        # The kernels count nodes in a local and call the budget only at
        # the next mark; a token that reads set at the n-th poll must
        # stop the walk on node n * POLL_STRIDE, like a node budget one
        # below it, with the same partial lists.
        minsup = relative_minsup(paper_train, 1, 0.7)
        token = _SetAfter(polls)
        result = mine_topk(paper_train, 1, minsup, k=10, engine=engine,
                           cancel=token)
        assert not result.stats.completed
        assert token.calls == polls
        assert result.stats.nodes_visited == polls * POLL_STRIDE
        view = MiningView(paper_train, 1, minsup)
        policy = TopkPolicy(view, 10)
        reference = _run_reference(view, policy, engine,
                                   node_budget=polls * POLL_STRIDE - 1)
        assert _counters(result.stats) == _counters(reference)
        assert result.per_row == policy.finalize()


class _SetAfter:
    """Cancel token that reads set from its ``n``-th ``is_set()`` call."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls >= self.n


class TestKernelsAcrossBackends:
    """Engines × §4.1.1 flags × accepted ``backend=`` spellings: a mine
    through ``mine_topk`` with ``backend=None``/``"int"``/``"auto"`` must
    reproduce a bare kernel run's groups *and* MinerStats exactly.

    Every spelling mines on the same ``int`` bitsets, so the argument
    must be invisible: same nodes, same prunes, same groups, counter for
    counter.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS,
        ids=["".join("ft"[v] for v in combo.values()) for combo in FLAG_COMBOS],
    )
    def test_topk_backend_identity(self, engine, flags):
        key = lambda g: (
            g.antecedent, g.consequent, g.row_set, g.support, g.confidence
        )
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)
            policy = TopkPolicy(view, case.k, **flags)
            stats = run_enumeration(view, policy, engine=engine)
            expected = (
                _counters(stats),
                {row: [key(g) for g in groups]
                 for row, groups in policy.finalize().items()},
            )

            for backend in (None, "int", "auto"):
                result = mine_topk(
                    case.dataset, case.consequent, case.minsup, k=case.k,
                    engine=engine, backend=backend, **flags,
                )
                label = (
                    f"case {case.index} ({case.shape}), engine {engine}, "
                    f"backend {backend}"
                )
                assert (
                    _counters(result.stats),
                    {row: [key(g) for g in groups]
                     for row, groups in result.per_row.items()},
                ) == expected, label


class TestSupportIndex:
    """The per-view SupportIndex must be pure memoization: shared across
    runs without leaking any run's pruning decisions into the next."""

    def test_repeat_runs_identical(self):
        # Runs of other policies in between warm the memos (for the tree
        # engine: the frozen root tree, its per-node item lists and the
        # first-level projections) along other paths; none of it may
        # leak into the next top-k run.
        case = CASES[1]
        for engine in ("bitset", "tree"):
            view = MiningView(case.dataset, case.consequent, case.minsup)
            outcomes = []
            for _ in range(3):
                policy = TopkPolicy(view, case.k)
                stats = run_enumeration(view, policy, engine=engine)
                outcomes.append((_counters(stats), _snapshot(policy)))
                run_enumeration(view, TopkPolicy(view, 1), engine=engine)
                run_enumeration(view, FarmerPolicy(view), engine=engine)
            assert outcomes[0] == outcomes[1] == outcomes[2], engine

    def test_cached_view_reused(self):
        case = CASES[1]
        first = MiningView.cached(case.dataset, case.consequent, case.minsup)
        second = MiningView.cached(case.dataset, case.consequent, case.minsup)
        assert first is second
        assert first.support_index() is second.support_index()

    def test_support_mass(self):
        case = CASES[1]
        view = MiningView(case.dataset, case.consequent, case.minsup)
        index = view.support_index()
        expected = sum(
            int.bit_count(view.item_rows[item]) for item in view.frequent_items
        )
        assert index.support_mass == expected


@pytest.fixture(scope="module")
def paper_train():
    """ALL at scale 0.25: the Figure 6 shape (38 rows, ~450 items)."""
    return load_benchmark("ALL", scale=0.25, use_cache=False).train_items


class TestPaperScaleEngineIdentity:
    """At the Figure 6 shape the prefix-tree engine must walk the same
    enumeration tree as the bitset engine.  Deep projections there have
    many source nodes on different trie paths, which the small audit
    cases above rarely reach."""

    @pytest.mark.parametrize("fraction", [0.9, 0.7])
    @pytest.mark.parametrize("k", [1, 100])
    def test_topk_tree_equals_bitset(self, paper_train, fraction, k):
        minsup = relative_minsup(paper_train, 1, fraction)
        outcomes = []
        for engine in ("bitset", "tree"):
            result = mine_topk(paper_train, 1, minsup, k=k, engine=engine)
            assert result.stats.completed
            outcomes.append((
                _counters(result.stats),
                {row: [_group_key(g) for g in groups]
                 for row, groups in result.per_row.items()},
            ))
        assert outcomes[0] == outcomes[1]

    def test_farmer_tree_equals_table(self, paper_train):
        minsup = relative_minsup(paper_train, 1, 0.9)
        outcomes = []
        for engine in ("table", "tree"):
            result = mine_farmer(paper_train, 1, minsup, engine=engine)
            assert result.completed
            outcomes.append((
                _counters(result.stats),
                [_group_key(g) for g in result.groups],
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]


class _EmitProbe:
    """Policy wrapper recording each ``emit`` call's ``x_p`` against the
    policy's ``minsup`` at the moment of the call."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.uses_threshold_bits = getattr(policy, "uses_threshold_bits", True)
        self.calls = 0
        self.below_minsup = 0

    @property
    def minsup(self) -> int:
        return self.policy.minsup

    def loose_prunable(self, x_p, x_n, r_p, r_n, threshold_bits) -> bool:
        return self.policy.loose_prunable(x_p, x_n, r_p, r_n, threshold_bits)

    def tight_prunable(self, x_p, x_n, m_p, r_n, threshold_bits) -> bool:
        return self.policy.tight_prunable(x_p, x_n, m_p, r_n, threshold_bits)

    def emit(self, items, position_bits, x_p, x_n) -> None:
        self.calls += 1
        self.below_minsup += x_p < self.policy.minsup
        self.policy.emit(items, position_bits, x_p, x_n)


class TestEmitContract:
    """All kernels call ``emit`` only for a group reaching the current
    ``minsup`` (``groups_emitted`` still counts every step-13 node), and
    the tree kernel builds a projection's item list only for those."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_emit_skips_groups_below_minsup(self, paper_train, engine):
        # FARMER enumerates every closed group, so it gets the higher
        # minsup it finishes at in milliseconds.
        for fraction, make_policy in ((0.7, lambda view: TopkPolicy(view, 10)),
                                      (0.95, FarmerPolicy)):
            minsup = relative_minsup(paper_train, 1, fraction)
            view = MiningView(paper_train, 1, minsup)
            policy = make_policy(view)
            probe = _EmitProbe(policy)
            stats = run_enumeration(view, probe, engine=engine)
            label = f"{type(policy).__name__}, engine {engine}"
            assert probe.below_minsup == 0, label
            assert 0 < probe.calls < stats.groups_emitted, label

    def test_tree_item_lists_only_for_emitted_groups(self, paper_train,
                                                      monkeypatch):
        """Reverting to a per-node item list (or closure fold over it)
        builds one list per node reaching the fold, many more than the
        groups reaching ``emit``: this count catches it where a
        wall-clock gate cannot."""
        counts = Counter()
        all_items = PrefixTree.all_items
        emit = TopkPolicy.emit

        def counting_all_items(tree):
            counts["all_items"] += 1
            return all_items(tree)

        def counting_emit(policy, *args):
            counts["emit"] += 1
            return emit(policy, *args)

        monkeypatch.setattr(PrefixTree, "all_items", counting_all_items)
        monkeypatch.setattr(TopkPolicy, "emit", counting_emit)
        # A copy of the dataset gets a cold view: no first-level memo
        # entry (and no item list) survives from another test.
        dataset = copy.copy(paper_train)
        minsup = relative_minsup(dataset, 1, 0.7)
        result = mine_topk(dataset, 1, minsup, k=100, engine="tree")
        assert result.stats.completed
        assert 0 < counts["emit"] < result.stats.groups_emitted
        assert counts["all_items"] == counts["emit"]


def _group_key(group) -> tuple:
    return (
        group.antecedent, group.consequent, group.row_set,
        group.support, group.confidence,
    )
