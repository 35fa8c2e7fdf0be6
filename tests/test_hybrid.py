"""Tests for the hybrid column-then-row miner (Section 8 extension).

Covers the streaming/out-of-core production path and its execution
plumbing: bit-identity against the direct miner (engines x backend
spellings x cohorts), cancellation/time budgets, backend resolution
parity, spill
hygiene (no leaked files, error paths included), and the streaming
builder's bounded-memory claim.
"""

import threading

import pytest

from repro.core.backends import auto_backend_stats
from repro.core.hybrid import (
    AUTO_HYBRID_ROWS,
    HybridPartitionRequest,
    PartitionCatalog,
    auto_strategy_stats,
    mine_topk_hybrid,
    plan_auto_strategy,
    resolve_strategy,
)
from repro.core.topk_miner import mine_topk
from repro.data import (
    TALL_COHORTS,
    DatasetChunkSource,
    TallChunkSource,
    generate_tall_cohort,
)
from repro.data.synthetic import TallCohortSpec, random_discretized_dataset
from repro.parallel import MineRequest, results_equal, shutdown_pool


def profiles(per_row):
    return {
        row: [(g.confidence, g.support) for g in groups]
        for row, groups in per_row.items()
    }


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_miner(self, seed):
        ds = random_discretized_dataset(10, 9, density=0.45, seed=seed)
        for consequent in (0, 1):
            for k in (1, 3):
                direct = mine_topk(ds, consequent, 1, k)
                hybrid = mine_topk_hybrid(ds, consequent, 1, k)
                assert results_equal(hybrid, direct)

    def test_figure1(self, figure1):
        direct = mine_topk(figure1, 1, minsup=2, k=1)
        hybrid = mine_topk_hybrid(figure1, 1, minsup=2, k=1)
        assert results_equal(hybrid, direct)

    def test_minsup_respected(self, small_random):
        result = mine_topk_hybrid(small_random, 1, minsup=3, k=2)
        for groups in result.per_row.values():
            assert all(g.support >= 3 for g in groups)

    def test_groups_are_closed_and_exact(self, small_random):
        ds = small_random
        result = mine_topk_hybrid(ds, 1, minsup=1, k=2)
        for row, groups in result.per_row.items():
            for group in groups:
                assert ds.support_set(group.antecedent) == group.row_set
                assert ds.common_items(group.row_set) == group.antecedent
                assert group.row_set >> row & 1

    def test_aggregation_row_sets_match_per_bit_recomputation(self, small_random):
        """The batched intersect_many/popcount_many aggregation must agree
        with the per-bit brute force it replaced, counter for counter."""
        ds = small_random
        result = mine_topk_hybrid(ds, 1, minsup=1, k=3)
        item_rows = ds.item_row_sets()
        for groups in result.per_row.values():
            for group in groups:
                brute = None
                for item in group.antecedent:
                    rows = item_rows[item]
                    brute = rows if brute is None else brute & rows
                assert group.row_set == brute
                support = bin(brute & ds.class_mask(1)).count("1")
                assert group.support == support
                assert group.confidence == support / bin(brute).count("1")

    def test_mine_topk_strategy_dispatch(self, small_random):
        direct = mine_topk(small_random, 1, 1, k=2)
        hybrid = mine_topk(small_random, 1, 1, k=2, strategy="hybrid")
        assert results_equal(hybrid, direct)
        assert hybrid.stats.engine == "hybrid/bitset"
        with pytest.raises(ValueError, match="unknown strategy"):
            mine_topk(small_random, 1, 1, strategy="bogus")
        # Rejected before any pass, even when no item is frequent.
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            mine_topk(small_random, 1, 100, engine="bogus", strategy="hybrid")
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            mine_topk(small_random, 1, 1, engine="bogus", strategy="hybrid")
        with pytest.raises(ValueError, match="strategy='hybrid'"):
            mine_topk(small_random, 1, 1, spill_dir="/tmp")

    def test_auto_strategy_planner_rung(self):
        assert plan_auto_strategy(AUTO_HYBRID_ROWS - 1) == "direct"
        assert plan_auto_strategy(AUTO_HYBRID_ROWS) == "hybrid"

    def test_resolve_strategy_validates_resolves_and_counts(self):
        before = auto_strategy_stats()
        assert resolve_strategy("direct", AUTO_HYBRID_ROWS) == "direct"
        assert resolve_strategy("hybrid", 1) == "hybrid"
        assert auto_strategy_stats() == before
        assert resolve_strategy("auto", AUTO_HYBRID_ROWS) == "hybrid"
        assert auto_strategy_stats()["hybrid"] == before["hybrid"] + 1
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            resolve_strategy("bogus", 1)


# Test-size scales for the committed cohorts.  The chunk draws are
# prefix-stable across sizes, so distinct scales keep the four cases
# exercising genuinely different row sets (equal scaled row counts
# would collapse them into one dataset).
COHORT_TEST_SCALE = {
    "tall-1k": 0.125,
    "tall-4k": 0.04,
    "tall-16k": 0.012,
    "tall-64k": 0.0035,
}


class TestTallCohorts:
    """Bit-identity on (scaled) committed tall cohorts: engines x backend
    spellings."""

    @pytest.mark.parametrize("name", sorted(TALL_COHORTS))
    def test_matches_direct_on_cohort(self, name):
        spec = TALL_COHORTS[name].scaled(COHORT_TEST_SCALE[name])
        ds = generate_tall_cohort(spec)
        minsup = max(1, int(0.5 * sum(1 for l in ds.labels if l == 1)))
        for k in (1, 2):
            direct = mine_topk(ds, 1, minsup, k=k)
            hybrid = mine_topk_hybrid(ds, 1, minsup, k=k)
            assert results_equal(hybrid, direct)
            assert hybrid.stats.completed == direct.stats.completed

    @pytest.mark.parametrize("engine", ["bitset", "table", "tree"])
    @pytest.mark.parametrize("backend", ["int", "auto"])
    def test_engine_backend_matrix(self, engine, backend):
        spec = TALL_COHORTS["tall-1k"].scaled(0.125)
        ds = generate_tall_cohort(spec)
        minsup = max(1, int(0.5 * sum(1 for l in ds.labels if l == 1)))
        direct = mine_topk(ds, 1, minsup, k=2, engine=engine, backend=backend)
        hybrid = mine_topk_hybrid(
            ds, 1, minsup, k=2, engine=engine, backend=backend
        )
        assert results_equal(hybrid, direct)


class TestStreaming:
    def test_chunked_source_matches_materialized(self):
        """Streaming the spec chunk by chunk must reproduce the mine over
        the materialized cohort exactly, for every committed spec."""
        for name in sorted(TALL_COHORTS):
            spec = TALL_COHORTS[name].scaled(COHORT_TEST_SCALE[name])
            ds = generate_tall_cohort(spec)
            minsup = max(1, int(0.5 * sum(1 for l in ds.labels if l == 1)))
            materialized = mine_topk_hybrid(ds, 1, minsup, k=2)
            streamed = mine_topk_hybrid(
                consequent=1,
                minsup=minsup,
                k=2,
                source=TallChunkSource(spec),
            )
            assert results_equal(streamed, materialized)

    def test_multi_chunk_custom_spec(self):
        spec = TallCohortSpec(name="tall-test", n_rows=384, chunk_rows=128)
        ds = generate_tall_cohort(spec)
        minsup = max(1, int(0.5 * sum(1 for l in ds.labels if l == 1)))
        streamed = mine_topk_hybrid(
            consequent=1, minsup=minsup, k=2, source=TallChunkSource(spec)
        )
        direct = mine_topk(ds, 1, minsup, k=2)
        assert results_equal(streamed, direct)

    def test_dataset_chunk_source_matches(self, small_random):
        in_memory = mine_topk_hybrid(small_random, 1, minsup=1, k=2)
        chunked = mine_topk_hybrid(
            consequent=1,
            minsup=1,
            k=2,
            source=DatasetChunkSource(small_random, chunk_rows=3),
        )
        assert results_equal(chunked, in_memory)

    def test_requires_exactly_one_input(self, small_random):
        with pytest.raises(ValueError, match="exactly one"):
            mine_topk_hybrid(consequent=1, minsup=1)
        with pytest.raises(ValueError, match="exactly one"):
            mine_topk_hybrid(
                small_random,
                consequent=1,
                minsup=1,
                source=DatasetChunkSource(small_random),
            )

    def test_tall_16k_streams_within_cell_budget(self, tmp_path):
        """The acceptance claim: tall-16k mines off the chunk stream with
        builder peak memory strictly below the full-matrix size."""
        spec = TALL_COHORTS["tall-16k"]
        source = TallChunkSource(spec)
        n_case = sum(
            sum(1 for label in labels if label == 1)
            for _rows, labels in source.chunks()
        )
        minsup = int(0.7 * n_case)
        budget = 65536
        result = mine_topk_hybrid(
            consequent=1,
            minsup=minsup,
            k=1,
            source=TallChunkSource(spec),
            spill_dir=str(tmp_path),
            max_resident_cells=budget,
            node_budget_per_partition=64,
        )
        stats = result.hybrid_stats
        assert stats.total_cells > budget
        assert stats.peak_resident_cells < stats.total_cells
        assert stats.spilled_partitions > 0
        # Spill hygiene: the unique run directory is gone afterwards.
        assert list(tmp_path.iterdir()) == []


class TestCancellation:
    def test_preset_cancel_skips_every_partition(self, small_random):
        cancel = threading.Event()
        cancel.set()
        result = mine_topk_hybrid(small_random, 1, minsup=1, k=2, cancel=cancel)
        assert not result.stats.completed
        stats = result.hybrid_stats
        assert stats.n_skipped_partitions == stats.n_partitions
        assert all(groups == [] for groups in result.per_row.values())

    def test_preset_cancel_skips_every_partition_on_the_pool(
            self, small_random):
        """The pool path reports skips like the in-process path: every
        partition starts after the stop, so every one is skipped."""
        cancel = threading.Event()
        cancel.set()
        result = mine_topk_hybrid(small_random, 1, minsup=1, k=2,
                                  cancel=cancel, n_jobs=2)
        assert not result.stats.completed
        stats = result.hybrid_stats
        assert stats.n_jobs == 2 and stats.n_partitions > 1
        assert stats.n_skipped_partitions == stats.n_partitions
        assert all(groups == [] for groups in result.per_row.values())

    @pytest.mark.parametrize("stop", ("cancel", "budget"))
    def test_partition_started_after_the_stop_reads_nothing(
            self, tmp_path, stop):
        """A partition that starts after the stop returns None before
        it opens its spill file (which here does not exist)."""
        request = HybridPartitionRequest(
            anchor=0, mine=MineRequest(consequent=1, minsup=1),
            spill_path=str(tmp_path / "missing.jsonl"),
        )
        catalog = PartitionCatalog([], ["neg", "pos"], "empty")
        cancel = threading.Event()
        if stop == "cancel":
            cancel.set()
            assert request.run(catalog, cancel=cancel) is None
        else:
            assert request.run(catalog, cancel=cancel, time_budget=0.0) is None

    def test_cancel_between_partitions_stops_early(self, small_random):
        class TripAfter:
            """Cancel token that trips after a fixed number of polls."""

            def __init__(self, polls):
                self.remaining = polls

            def is_set(self):
                self.remaining -= 1
                return self.remaining < 0

        full = mine_topk_hybrid(small_random, 1, minsup=1, k=2)
        assert full.hybrid_stats.n_partitions > 1
        result = mine_topk_hybrid(
            small_random, 1, minsup=1, k=2, cancel=TripAfter(2)
        )
        assert not result.stats.completed
        stats = result.hybrid_stats
        assert 0 < stats.n_skipped_partitions <= stats.n_partitions

    def test_time_budget_expiry_marks_incomplete(self, small_random):
        result = mine_topk_hybrid(
            small_random, 1, minsup=1, k=2, time_budget=1e-9
        )
        assert not result.stats.completed
        assert result.hybrid_stats.n_skipped_partitions > 0


class TestExecutionSurface:
    def test_backend_resolution_matches_direct(self, small_random):
        """strategy=hybrid must resolve backend= exactly like mine_topk:
        the same values accepted, one auto plan per mine, the same
        rejection for anything else."""
        for requested in (None, "auto", "int"):
            counts = []
            for mine in (mine_topk, mine_topk_hybrid):
                before = auto_backend_stats()["int"]
                mine(small_random, 1, minsup=1, k=1, backend=requested)
                counts.append(auto_backend_stats()["int"] - before)
            assert counts[0] == counts[1] == (requested == "auto")
        for mine in (mine_topk, mine_topk_hybrid):
            with pytest.raises(ValueError, match="unknown bitset backend"):
                mine(small_random, 1, minsup=1, k=1, backend="numpy")

    def test_backends_bit_identical(self, small_random):
        base = mine_topk_hybrid(small_random, 1, minsup=1, k=3, backend="int")
        for backend in (None, "auto"):
            other = mine_topk_hybrid(
                small_random, 1, minsup=1, k=3, backend=backend
            )
            assert results_equal(base, other)

    def test_parallel_partitions_match_serial(self, small_random):
        serial = mine_topk_hybrid(small_random, 1, minsup=1, k=2)
        try:
            fanned = mine_topk_hybrid(small_random, 1, minsup=1, k=2, n_jobs=2)
        finally:
            shutdown_pool()
        assert results_equal(fanned, serial)
        assert fanned.hybrid_stats.n_jobs == 2


class TestDiskSpill:
    def test_spill_matches_in_memory_and_leaves_nothing(
        self, tmp_path, small_random
    ):
        in_memory = mine_topk_hybrid(small_random, 1, minsup=1, k=2)
        spilled = mine_topk_hybrid(
            small_random, 1, minsup=1, k=2, spill_dir=str(tmp_path)
        )
        assert results_equal(spilled, in_memory)
        # The run spills (cell budget defaults to 0 with spill_dir set)...
        assert spilled.hybrid_stats.spilled_partitions > 0
        # ...and removes its unique run directory afterwards: no leaks.
        assert list(tmp_path.iterdir()) == []

    def test_spill_cleanup_on_error_path(self, tmp_path, small_random):
        with pytest.raises(ValueError):
            mine_topk_hybrid(
                small_random,
                1,
                minsup=1,
                k=1,
                engine="no-such-engine",
                spill_dir=str(tmp_path),
            )
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_runs_share_spill_dir(self, tmp_path, small_random):
        first = mine_topk_hybrid(
            small_random, 1, minsup=1, k=2, spill_dir=str(tmp_path)
        )
        second = mine_topk_hybrid(
            small_random, 1, minsup=1, k=2, spill_dir=str(tmp_path)
        )
        assert results_equal(first, second)
        assert list(tmp_path.iterdir()) == []


class TestStats:
    def test_partition_stats(self, small_random):
        result = mine_topk_hybrid(small_random, 1, minsup=1, k=1)
        stats = result.hybrid_stats
        assert stats.n_partitions >= 1
        assert stats.max_partition_rows <= small_random.n_rows
        assert stats.completed
        assert stats.total_cells == sum(len(r) for r in small_random.rows)
        assert result.stats.engine == "hybrid/bitset"

    def test_partition_budget_marks_incomplete(self, small_random):
        result = mine_topk_hybrid(
            small_random, 1, minsup=1, k=5, node_budget_per_partition=1
        )
        # With one node per partition the run is necessarily truncated.
        assert not result.stats.completed

    def test_tall_dataset(self):
        ds = random_discretized_dataset(30, 12, density=0.35, seed=44)
        direct = mine_topk(ds, 1, minsup=2, k=2)
        hybrid = mine_topk_hybrid(ds, 1, minsup=2, k=2)
        assert results_equal(hybrid, direct)
