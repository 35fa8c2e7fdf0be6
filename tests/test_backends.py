"""The one bitset representation and the ``backend=`` argument.

Every miner runs on plain Python ``int`` bitsets.  This suite pins what
is left of the old backend layer: the accepted ``backend=`` values
(``None``, ``"int"``, ``"auto"``) and the rejection of every other name,
the ``backend="auto"`` planner and its counters, the top-k threshold
store, and the fused per-node folds of
:class:`~repro.core.view.SupportIndex` against naive ``&``/``|`` folds.
End to end, every accepted spelling must give the same mining output
*and* the same ``MinerStats``, counter for counter.  The mining cases
come from the audit generator so the sweep covers the degenerate shapes
(duplicates, empty rows, single class, tie-heavy lists) the differential
audit exercises.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

import pytest

from repro.audit.generator import generate_cases
from repro.baselines.farmer import mine_farmer
from repro.core import bitset as B
from repro.core.backends import (
    DEFAULT_BACKEND,
    auto_backend_stats,
    available_backends,
    plan_auto_backend,
    resolve_backend,
)
from repro.core.enumeration import ENGINES
from repro.core.hybrid import mine_topk_hybrid
from repro.core.topk_miner import ThresholdStore, TopkPolicy, mine_topk
from repro.core.view import MiningView
from repro.data.dataset import DiscretizedDataset, Item
from repro.parallel import results_equal

BACKENDS = available_backends()

# Every value the miners' ``backend=`` argument accepts.
SPELLINGS = (None, "int", "auto")

CASES = generate_cases(seed=11, n_cases=6)

COUNTERS = (
    "nodes_visited",
    "groups_emitted",
    "loose_pruned",
    "tight_pruned",
    "backward_pruned",
)


def _counters(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


# ---------------------------------------------------------------------------
# Registry and selection precedence
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_stdlib_backends_always_available(self):
        assert BACKENDS == ("int",)

    def test_default_listed_first(self):
        assert BACKENDS[0] == DEFAULT_BACKEND == "int"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown bitset backend"):
            resolve_backend("simd512")

    def test_error_messages_list_registered_backends(self):
        """The rejection names every value that *can* be asked for."""
        with pytest.raises(ValueError) as unknown:
            resolve_backend("simd512")
        assert "expected None, 'int' or 'auto'" in str(unknown.value)

    @pytest.mark.parametrize("retired", ["numpy", "packed"])
    def test_retired_backends_rejected_by_the_miners(self, retired):
        """The retired array backends are unknown names now: every miner
        entry point refuses them and says what it accepts."""
        case = CASES[0]
        accepted = "expected None, 'int' or 'auto'"
        with pytest.raises(ValueError, match=accepted):
            mine_topk(case.dataset, case.consequent, case.minsup,
                      backend=retired)
        with pytest.raises(ValueError, match=accepted):
            mine_topk(case.dataset, case.consequent, case.minsup,
                      backend=retired, n_jobs=2)
        with pytest.raises(ValueError, match=accepted):
            mine_topk_hybrid(case.dataset, case.consequent, case.minsup,
                             backend=retired)
        with pytest.raises(ValueError, match=accepted):
            mine_farmer(case.dataset, case.consequent, case.minsup,
                        backend=retired)


class TestAutoBackend:
    def test_paper_scale_stays_on_int(self):
        for n_rows in (4, 38, 102, 255):
            assert plan_auto_backend(n_rows) == "int"

    def test_tall_topk_stays_on_int(self):
        """The bucketed threshold store removed numpy's one tall win:
        int beat it at 256, 512 and 1024 rows (DESIGN.md §12)."""
        for n_rows in (256, 512, 1024, 16384):
            assert plan_auto_backend(n_rows) == "int"

    def test_farmer_task_stays_on_int_at_every_size(self):
        for n_rows in (38, 256, 16384):
            assert plan_auto_backend(n_rows, task="farmer") == "int"

    def test_resolve_auto_needs_a_row_count(self):
        with pytest.raises(ValueError, match="row count"):
            resolve_backend("auto")

    def test_resolve_auto_follows_the_plan_and_counts_choices(self):
        before = auto_backend_stats()
        resolved = resolve_backend("auto", n_rows=256)
        assert resolved == plan_auto_backend(256) == "int"
        after = auto_backend_stats()
        assert after[resolved] == before[resolved] + 1

    def test_one_count_per_auto_mine(self):
        """Each ``backend="auto"`` mine is planned once, whichever entry
        point and strategy it takes."""
        case = CASES[0]
        args = (case.dataset, case.consequent, case.minsup)
        for mine in (
            lambda: mine_topk(*args, backend="auto"),
            lambda: mine_topk(*args, backend="auto", strategy="hybrid"),
            lambda: mine_farmer(*args, backend="auto"),
        ):
            before = auto_backend_stats()["int"]
            mine()
            assert auto_backend_stats()["int"] == before + 1
        before = auto_backend_stats()["int"]
        mine_topk(*args, backend="int")
        mine_topk(*args)
        assert auto_backend_stats()["int"] == before


# ---------------------------------------------------------------------------
# Threshold store: the bucketed store the top-k policy builds, folded
# against the per-bit reference loop
# ---------------------------------------------------------------------------


def _reference_fold(confs, sups, bits):
    best = (float("inf"), 0)
    while bits:
        low = bits & -bits
        bits ^= low
        position = low.bit_length() - 1
        pair = (confs[position], sups[position])
        if pair < best:
            best = pair
    return best


def _policy_store(n_positive: int) -> ThresholdStore:
    """The store ``TopkPolicy`` builds over a view with ``n_positive``
    consequent-class rows (and one other row)."""
    items = [Item(0, 0, "i0", float("-inf"), float("inf"))]
    dataset = DiscretizedDataset(
        [{0}] * (n_positive + 1),
        [1] * n_positive + [0],
        items,
        class_names=["rest", "target"],
    )
    view = MiningView(dataset, 1, 1)
    policy = TopkPolicy(view, k=1, initialize_single_items=False)
    assert type(policy._store) is ThresholdStore
    return policy._store


class _MirroredStore:
    """A store plus the plain per-position lists it must agree with."""

    def __init__(self, store: ThresholdStore, n_positive: int) -> None:
        self.store = store
        self.confs = [0.0] * n_positive
        self.sups = [0] * n_positive

    def update(self, position: int, conf: float, sup: int) -> None:
        self.store.update(position, conf, sup)
        self.confs[position] = conf
        self.sups[position] = sup

    def check(self, bits: int) -> None:
        assert self.store.fold(bits) == _reference_fold(
            self.confs, self.sups, bits
        )
        everything = B.mask_below(len(self.confs))
        expected = _reference_fold(self.confs, self.sups, everything)
        assert self.store.weakest() == (expected if everything else None)


class TestThresholdStore:
    def test_fold_matches_reference(self):
        import random

        rng = random.Random(2024)
        n_positive = 213  # multiple words plus a ragged tail
        store = _policy_store(n_positive)
        mirror = _MirroredStore(store, n_positive)
        for _ in range(400):
            position = rng.randrange(n_positive)
            conf = rng.choice((0.0, 0.25, 0.5, rng.random(), 1.0))
            sup = rng.randrange(0, 40)
            mirror.update(position, conf, sup)
            mirror.check(
                B.from_indices(
                    rng.sample(range(n_positive), rng.randint(1, n_positive))
                )
            )

    def test_initial_pairs_are_underfull_thresholds(self):
        store = _policy_store(70)
        assert store.fold(B.from_indices([0, 64, 69])) == (0.0, 0)
        assert store.weakest() == (0.0, 0)

    def test_single_position_fold(self):
        store = _policy_store(130)
        store.update(129, 0.75, 9)
        assert store.fold(B.bit(129)) == (0.75, 9)

    def test_update_to_the_held_pair(self):
        mirror = _MirroredStore(_policy_store(5), 5)
        mirror.update(2, 0.0, 0)  # the initial pair, held already
        mirror.check(B.bit(2))
        mirror.check(B.mask_below(5))
        mirror.update(2, 0.5, 3)
        mirror.update(2, 0.5, 3)
        mirror.check(B.bit(2))
        mirror.check(B.from_indices([1, 2]))

    def test_emptied_bucket_is_refilled(self):
        mirror = _MirroredStore(_policy_store(4), 4)
        for position in range(4):
            mirror.update(position, 1.0, 6)
        mirror.check(B.mask_below(4))  # the (0.0, 0) bucket is now empty
        mirror.update(1, 0.0, 0)  # ...and refilled
        mirror.check(B.mask_below(4))
        mirror.check(B.from_indices([0, 2, 3]))
        mirror.update(1, 0.5, 2)
        mirror.update(3, 0.5, 2)
        mirror.update(1, 1.0, 6)
        mirror.update(3, 1.0, 6)  # empties (0.5, 2) again
        for bits in (B.bit(1), B.bit(3), B.mask_below(4)):
            mirror.check(bits)

    def test_non_monotone_updates(self):
        mirror = _MirroredStore(_policy_store(3), 3)
        for conf, sup in ((0.9, 5), (0.2, 1), (0.9, 4), (0.9, 6), (0.1, 9)):
            mirror.update(0, conf, sup)
            mirror.update(2, 1.0 - conf, sup + 1)
            for bits in (B.bit(0), B.bit(2), B.from_indices([0, 2]),
                         B.mask_below(3)):
                mirror.check(bits)

    def test_no_positive_rows(self):
        store = _policy_store(0)
        assert store.weakest() is None
        assert store.fold(0) == (float("inf"), 0)


class TestResolvePrecedence:
    def test_default_when_nothing_set(self):
        assert resolve_backend() == DEFAULT_BACKEND


# ---------------------------------------------------------------------------
# SupportIndex node kernel: fused int folds == naive folds
# ---------------------------------------------------------------------------


def _id_selections(n: int) -> list[list[int]]:
    """Deterministic non-empty id subsets exercising singletons, pairs,
    strides and the full table."""
    if n == 0:
        return []
    picks = [[0], [n - 1], list(range(n)), list(range(0, n, 2))]
    if n > 1:
        picks.append([0, n - 1])
        picks.append([n - 1, 0])  # order must not matter
    if n > 3:
        picks.append([1, 3, 2])
    return picks


def _check_kernel(view: MiningView, label: str) -> int:
    """Drive every fold of the view's node kernel against naive folds;
    returns the number of id selections checked."""
    fold_counts, masked_counts = view.support_index().node_kernel()
    table = view.item_rows
    mask = view.positive_mask
    checked = 0
    for ids in _id_selections(len(view.frequent_items)):
        ids = [view.frequent_items[i] for i in ids]
        inter = reduce(and_, (table[i] for i in ids))
        union = reduce(or_, (table[i] for i in ids))
        counts = (B.popcount(inter & mask), B.popcount(inter))
        assert fold_counts(ids) == (inter, union, *counts), (label, ids)
        assert masked_counts(union) == (
            B.popcount(union & mask), B.popcount(union)
        ), (label, ids)
        checked += 1
    return checked


def _dataset_with_supports(supports, n_rows, labels):
    """A dataset whose item ``i`` occurs in exactly the rows of
    ``supports[i]``."""
    items = [
        Item(i, 0, f"i{i}", float("-inf"), float("inf"))
        for i in range(len(supports))
    ]
    rows = [
        {i for i, rows in enumerate(supports) if rows >> row & 1}
        for row in range(n_rows)
    ]
    return DiscretizedDataset(rows, labels, items,
                              class_names=["rest", "target"])


class TestBatchContract:
    def test_folds_match_reference_on_audit_cases(self):
        checked = 0
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)
            checked += _check_kernel(view, f"case {case.index}")
        assert checked

    def test_multiword_folds(self):
        """Bitsets spanning many 64-bit words — the audit datasets fit in
        one word, so the word-boundary behaviour needs its own drive."""
        n_bits = 523  # deliberately not a multiple of 64
        supports = [
            B.from_indices(range(start, n_bits, stride))
            for start, stride in ((0, 1), (1, 2), (3, 7), (64, 64), (1, 521))
        ]
        labels = [1 if row % 3 else 0 for row in range(n_bits)]
        view = MiningView(_dataset_with_supports(supports, n_bits, labels),
                          1, 1)
        assert view.frequent_items == list(range(len(supports)))
        assert _check_kernel(view, "multiword") == 7

    def test_view_without_frequent_items(self):
        """A view with no frequent items builds its index and kernel."""
        dataset = _dataset_with_supports([0b0011], 4, [0, 0, 1, 1])
        view = MiningView(dataset, 1, 1)
        assert view.frequent_items == []
        index = view.support_index()
        assert index.item_counts == []
        _, masked_counts = index.node_kernel()
        assert masked_counts(0) == (0, 0)

    def test_item_counts_match_scalar(self):
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)
            index = view.support_index()
            assert index.item_counts == [
                B.popcount(rows) for rows in view.item_rows
            ]
            assert index.item_pos_counts == [
                view.positive_count(rows) for rows in view.item_rows
            ]


# ---------------------------------------------------------------------------
# End to end: identical mining results AND identical MinerStats
# ---------------------------------------------------------------------------


class TestEndToEndIdentity:
    """Every accepted ``backend=`` spelling mines on the same ints, so
    results and MinerStats must match the unannotated call exactly."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_topk_results_and_stats(self, engine):
        for case in CASES:
            baseline = mine_topk(
                case.dataset, case.consequent, case.minsup, k=case.k,
                engine=engine,
            )
            for spelling in SPELLINGS:
                other = mine_topk(
                    case.dataset, case.consequent, case.minsup, k=case.k,
                    engine=engine, backend=spelling,
                )
                label = (
                    f"case {case.index} ({case.shape}), engine {engine}, "
                    f"backend {spelling}"
                )
                assert results_equal(baseline, other), label
                assert _counters(other.stats) == _counters(baseline.stats), label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_farmer_results_and_stats(self, engine):
        key = lambda g: (
            g.antecedent, g.consequent, g.row_set, g.support, g.confidence
        )
        for case in CASES:
            baseline = mine_farmer(
                case.dataset, case.consequent, case.minsup, minconf=0.5,
                engine=engine,
            )
            for spelling in SPELLINGS:
                other = mine_farmer(
                    case.dataset, case.consequent, case.minsup, minconf=0.5,
                    engine=engine, backend=spelling,
                )
                label = (
                    f"case {case.index} ({case.shape}), engine {engine}, "
                    f"backend {spelling}"
                )
                assert list(map(key, other.groups)) == list(
                    map(key, baseline.groups)
                ), label
                assert _counters(other.stats) == _counters(baseline.stats), label
