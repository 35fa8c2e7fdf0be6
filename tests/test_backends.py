"""Cross-backend property suite for :mod:`repro.core.backends`.

Every backend must be observationally identical to the plain-int
implementation: same scalar helper results and edge semantics, same
batch-fold results over encoded support tables, and — end to end — the
same mining output *and* the same ``MinerStats``, counter for counter.
The mining cases come from the audit generator so the sweep covers the
degenerate shapes (duplicates, empty rows, single class, tie-heavy
lists) the differential audit exercises.
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
    ENV_VAR,
    BitsetBackend,
    ThresholdStore,
    auto_backend_stats,
    available_backends,
    get_backend,
    plan_auto_backend,
    resolve_backend,
)
from repro.core.backends.packed_backend import PackedBackend, popcount_table
from repro.core.enumeration import ENGINES
from repro.core.topk_miner import TopkPolicy, mine_topk
from repro.core.view import MiningView
from repro.data.dataset import DiscretizedDataset, Item
from repro.parallel import results_equal

BACKENDS = available_backends()
ALTERNATES = tuple(name for name in BACKENDS if name != DEFAULT_BACKEND)

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
        assert "int" in BACKENDS
        assert "packed" in BACKENDS

    def test_default_listed_first(self):
        assert BACKENDS[0] == DEFAULT_BACKEND == "int"

    def test_get_backend_singleton(self):
        assert get_backend("packed") is get_backend("packed")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown bitset backend"):
            get_backend("simd512")

    def test_known_but_unavailable_distinguished(self):
        if "numpy" in BACKENDS:
            pytest.skip("numpy backend available in this environment")
        with pytest.raises(ValueError, match="not available"):
            get_backend("numpy")

    def test_error_messages_list_registered_backends(self):
        """Both rejection branches name what *can* be asked for."""
        registered = ", ".join(BACKENDS)
        with pytest.raises(ValueError) as unknown:
            get_backend("simd512")
        assert f"registered backends: {registered}" in str(unknown.value)
        if "numpy" not in BACKENDS:
            with pytest.raises(ValueError) as unavailable:
                get_backend("numpy")
            assert f"registered backends: {registered}" in str(
                unavailable.value
            )

    def test_packed_popcount_table_is_a_shared_singleton(self):
        """The 64Ki-entry table is built once per process, not per
        instance — two fresh backends and the registry singleton all
        hold the same object."""
        assert PackedBackend().table is PackedBackend().table
        assert get_backend("packed").table is popcount_table()


class TestAutoBackend:
    def test_paper_scale_stays_on_int(self):
        for n_rows in (4, 38, 102, 255):
            assert plan_auto_backend(n_rows) == "int"

    def test_tall_topk_stays_on_int(self):
        """The threshold fold is one store on every backend, so numpy's
        tall win is gone: int beat it at 256, 512 and 1024 rows."""
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
        assert resolved.name == plan_auto_backend(256) == "int"
        after = auto_backend_stats()
        assert after[resolved.name] == before[resolved.name] + 1

    def test_auto_via_environment_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "auto")
        assert resolve_backend(n_rows=38).name == "int"
        with pytest.raises(ValueError, match="row count"):
            resolve_backend()


# ---------------------------------------------------------------------------
# Threshold store: the one bucketed store every backend's policy builds,
# folded against the per-bit reference loop
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


def _policy_store(backend_name: str, n_positive: int) -> ThresholdStore:
    """The store ``TopkPolicy`` builds over a view on ``backend_name``
    with ``n_positive`` consequent-class rows (and one other row)."""
    items = [Item(0, 0, "i0", float("-inf"), float("inf"))]
    dataset = DiscretizedDataset(
        [{0}] * (n_positive + 1),
        [1] * n_positive + [0],
        items,
        class_names=["rest", "target"],
    )
    view = MiningView(dataset, 1, 1, backend=backend_name)
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


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestThresholdStore:
    def test_fold_matches_reference(self, backend_name):
        import random

        rng = random.Random(2024)
        n_positive = 213  # multiple words plus a ragged tail
        store = _policy_store(backend_name, n_positive)
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

    def test_initial_pairs_are_underfull_thresholds(self, backend_name):
        store = _policy_store(backend_name, 70)
        assert store.fold(B.from_indices([0, 64, 69])) == (0.0, 0)
        assert store.weakest() == (0.0, 0)

    def test_single_position_fold(self, backend_name):
        store = _policy_store(backend_name, 130)
        store.update(129, 0.75, 9)
        assert store.fold(B.bit(129)) == (0.75, 9)

    def test_update_to_the_held_pair(self, backend_name):
        mirror = _MirroredStore(_policy_store(backend_name, 5), 5)
        mirror.update(2, 0.0, 0)  # the initial pair, held already
        mirror.check(B.bit(2))
        mirror.check(B.mask_below(5))
        mirror.update(2, 0.5, 3)
        mirror.update(2, 0.5, 3)
        mirror.check(B.bit(2))
        mirror.check(B.from_indices([1, 2]))

    def test_emptied_bucket_is_refilled(self, backend_name):
        mirror = _MirroredStore(_policy_store(backend_name, 4), 4)
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

    def test_non_monotone_updates(self, backend_name):
        mirror = _MirroredStore(_policy_store(backend_name, 3), 3)
        for conf, sup in ((0.9, 5), (0.2, 1), (0.9, 4), (0.9, 6), (0.1, 9)):
            mirror.update(0, conf, sup)
            mirror.update(2, 1.0 - conf, sup + 1)
            for bits in (B.bit(0), B.bit(2), B.from_indices([0, 2]),
                         B.mask_below(3)):
                mirror.check(bits)

    def test_no_positive_rows(self, backend_name):
        store = _policy_store(backend_name, 0)
        assert store.weakest() is None
        assert store.fold(0) == (float("inf"), 0)


class TestResolvePrecedence:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend().name == DEFAULT_BACKEND

    def test_environment_variable_respected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "packed")
        assert resolve_backend().name == "packed"

    def test_blank_environment_value_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "   ")
        assert resolve_backend().name == DEFAULT_BACKEND

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "packed")
        assert resolve_backend("int").name == "int"

    def test_instance_passes_through(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "int")
        backend = get_backend("packed")
        assert resolve_backend(backend) is backend

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "simd512")
        with pytest.raises(ValueError, match="unknown bitset backend"):
            resolve_backend()

    def test_view_cache_keyed_by_backend(self, monkeypatch):
        # Pin the default to int so the identity assertion holds under
        # every REPRO_BITSET_BACKEND matrix value, not just the unset one.
        monkeypatch.delenv(ENV_VAR, raising=False)
        case = CASES[0]
        default = MiningView.cached(case.dataset, case.consequent, case.minsup)
        again = MiningView.cached(
            case.dataset, case.consequent, case.minsup, backend="int"
        )
        packed = MiningView.cached(
            case.dataset, case.consequent, case.minsup, backend="packed"
        )
        assert default is again
        assert packed is not default
        assert packed.backend.name == "packed"


# ---------------------------------------------------------------------------
# Scalar helpers: every backend == repro.core.bitset, edge cases included
# ---------------------------------------------------------------------------

_SAMPLE_INDEX_SETS = (
    [],
    [0],
    [5],
    [0, 1, 2],
    [7, 3, 63],
    [64],
    [0, 63, 64, 127, 200],
)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestScalarHelpers:
    def test_matches_bitset_module(self, backend_name):
        backend = get_backend(backend_name)
        assert isinstance(backend, BitsetBackend)
        for indices in _SAMPLE_INDEX_SETS:
            bits = backend.from_indices(indices)
            assert bits == B.from_indices(indices)
            assert backend.to_indices(bits) == B.to_indices(bits)
            assert list(backend.iter_indices(bits)) == B.to_indices(bits)
            assert backend.popcount(bits) == B.popcount(bits) == len(indices)
            for index in indices:
                assert backend.bit(index) == B.bit(index)
                assert backend.contains(bits, index)
            if indices:
                assert backend.lowest_bit_index(bits) == min(indices)
        for index in (0, 1, 17, 64, 130):
            assert backend.mask_below(index) == B.mask_below(index)
            assert backend.mask_upto(index) == B.mask_upto(index)
        assert backend.is_subset(0b0101, 0b1101)
        assert not backend.is_subset(0b0111, 0b1101)

    @pytest.mark.parametrize("index", (-1, -7))
    def test_negative_index_edges_agree(self, backend_name, index):
        """All backends share the validated edge semantics: a negative
        index raises the same clear ValueError everywhere."""
        backend = get_backend(backend_name)
        with pytest.raises(ValueError, match="non-negative"):
            backend.bit(index)
        with pytest.raises(ValueError, match="non-negative"):
            backend.from_indices([0, index])
        with pytest.raises(ValueError, match=f"mask_below.*got {index}"):
            backend.mask_below(index)
        with pytest.raises(ValueError, match=f"mask_upto.*got {index}"):
            backend.mask_upto(index)

    def test_empty_bitset_lowest_raises(self, backend_name):
        with pytest.raises(ValueError):
            get_backend(backend_name).lowest_bit_index(0)


# ---------------------------------------------------------------------------
# Batch contract: encoded folds == naive int folds
# ---------------------------------------------------------------------------


def _id_selections(n: int) -> list[list[int]]:
    """Deterministic id subsets exercising singletons, pairs, strides and
    the full table."""
    if n == 0:
        return []
    picks = [[0], [n - 1], list(range(n)), list(range(0, n, 2))]
    if n > 1:
        picks.append([0, n - 1])
        picks.append([n - 1, 0])  # order must not matter
    if n > 3:
        picks.append([1, 3, 2])
    return picks


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestBatchContract:
    def test_folds_match_reference_on_audit_cases(self, backend_name):
        backend = get_backend(backend_name)
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)
            table = view.item_rows
            handle = backend.encode_supports(table, view.n_rows)
            for ids in _id_selections(len(table)):
                expected_and = reduce(and_, (table[i] for i in ids))
                expected_or = reduce(or_, (table[i] for i in ids), 0)
                label = f"case {case.index}, backend {backend_name}, ids {ids}"
                assert backend.intersect_many(handle, ids) == expected_and, label
                assert backend.union_many(handle, ids) == expected_or, label
                assert backend.intersect_union_many(handle, ids) == (
                    expected_and, expected_or,
                ), label

    def test_multiword_folds(self, backend_name):
        """Bitsets spanning many 64-bit words — the audit datasets fit in
        one word, so the word-boundary logic needs its own drive."""
        backend = get_backend(backend_name)
        n_bits = 523  # deliberately not a multiple of 64
        table = [
            B.from_indices(range(start, n_bits, stride))
            for start, stride in ((0, 1), (1, 2), (3, 7), (64, 64), (522, 523))
        ]
        handle = backend.encode_supports(table, n_bits)
        for ids in _id_selections(len(table)):
            expected_and = reduce(and_, (table[i] for i in ids))
            expected_or = reduce(or_, (table[i] for i in ids), 0)
            assert backend.intersect_many(handle, ids) == expected_and
            assert backend.union_many(handle, ids) == expected_or
            assert backend.intersect_union_many(handle, ids) == (
                expected_and, expected_or,
            )

    def test_union_many_empty_ids_is_empty_set(self, backend_name):
        backend = get_backend(backend_name)
        handle = backend.encode_supports([0b101, 0b110], 3)
        assert backend.union_many(handle, []) == 0

    def test_encode_empty_table(self, backend_name):
        """A view with no frequent items encodes an empty table without
        blowing up (the numpy backend once failed the (0, n) reshape)."""
        backend = get_backend(backend_name)
        handle = backend.encode_supports([], 5)
        assert backend.union_many(handle, []) == 0

    def test_popcount_many_matches_scalar(self, backend_name):
        backend = get_backend(backend_name)
        bitsets = [
            0,
            1,
            0b1011,
            B.mask_below(64),
            B.mask_below(200),
            B.from_indices([0, 63, 64, 127, 511]),
        ]
        assert backend.popcount_many(bitsets) == [
            B.popcount(bits) for bits in bitsets
        ]
        assert backend.popcount_many([]) == []


# ---------------------------------------------------------------------------
# End to end: identical mining results AND identical MinerStats
# ---------------------------------------------------------------------------


class TestEndToEndIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_topk_results_and_stats(self, engine):
        assert ALTERNATES, "packed backend must always be registered"
        for case in CASES:
            baseline = mine_topk(
                case.dataset, case.consequent, case.minsup, k=case.k,
                engine=engine, backend="int",
            )
            for backend_name in ALTERNATES:
                other = mine_topk(
                    case.dataset, case.consequent, case.minsup, k=case.k,
                    engine=engine, backend=backend_name,
                )
                label = (
                    f"case {case.index} ({case.shape}), engine {engine}, "
                    f"backend {backend_name}"
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
                engine=engine, backend="int",
            )
            for backend_name in ALTERNATES:
                other = mine_farmer(
                    case.dataset, case.consequent, case.minsup, minconf=0.5,
                    engine=engine, backend=backend_name,
                )
                label = (
                    f"case {case.index} ({case.shape}), engine {engine}, "
                    f"backend {backend_name}"
                )
                assert list(map(key, other.groups)) == list(
                    map(key, baseline.groups)
                ), label
                assert _counters(other.stats) == _counters(baseline.stats), label

    def test_environment_selection_end_to_end(self, monkeypatch):
        """REPRO_BITSET_BACKEND steers an unannotated mine_topk call and
        the result stays bit-identical to the default."""
        case = CASES[0]
        baseline = mine_topk(
            case.dataset, case.consequent, case.minsup, k=case.k,
        )
        monkeypatch.setenv(ENV_VAR, "packed")
        steered = mine_topk(
            case.dataset, case.consequent, case.minsup, k=case.k,
        )
        assert results_equal(baseline, steered)
        assert _counters(steered.stats) == _counters(baseline.stats)
