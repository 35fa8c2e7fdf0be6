"""Tests for the hybrid column-then-row miner (Section 8 extension).

Covers the streaming production path and its execution plumbing:
bit-identity against the direct miner (engines x backend spellings x
cohorts, streamed and on the pool), cancellation/time budgets during a
partition's read, backend resolution parity, the ``REPRO_CHECK`` audit
of the aggregate, and the largest-partition memory figure.
"""

import threading
import time
from dataclasses import replace

import pytest

import repro.core.hybrid as hybrid
from repro.audit.invariants import InvariantViolation
from repro.core.backends import auto_backend_stats
from repro.core.hybrid import (
    AUTO_HYBRID_DENSITY,
    HybridPartitionRequest,
    auto_strategy_stats,
    mine_topk_hybrid,
    plan_auto_strategy,
)
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.data import (
    TALL_COHORTS,
    DatasetChunkSource,
    TallChunkSource,
    generate_tall_cohort,
)
from repro.data.synthetic import TallCohortSpec, random_discretized_dataset
from repro.parallel import MineRequest, plan, results_equal, shutdown_pool


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

    def test_repro_check_audits_the_aggregate(self, small_random, monkeypatch):
        """Under REPRO_CHECK the hybrid aggregate itself is audited, not
        only the per-partition mines: an aggregation that hands each
        group its first item's row set is caught."""
        canonical = hybrid._canonical_groups

        def first_item_rows(passed, consequent, finished):
            return [
                replace(group,
                        row_set=passed.item_rows[min(group.antecedent)])
                for group in canonical(passed, consequent, finished)
            ]

        monkeypatch.setenv("REPRO_CHECK", "1")
        mine_topk(small_random, 1, 1, k=2, strategy="hybrid")
        monkeypatch.setattr(hybrid, "_canonical_groups", first_item_rows)
        with pytest.raises(InvariantViolation,
                           match="row_set is not R\\(antecedent\\)"):
            mine_topk(small_random, 1, 1, k=2, strategy="hybrid")

    def test_auto_strategy_planner_rung(self):
        # The fitted rung sits between the densest shape that mined
        # faster hybrid (0.038) and the mixed band (0.057+).
        assert 0.038 < AUTO_HYBRID_DENSITY < 0.057
        assert plan_auto_strategy(AUTO_HYBRID_DENSITY * 0.99) == "hybrid"
        assert plan_auto_strategy(AUTO_HYBRID_DENSITY) == "direct"

    def test_resolve_strategy_validates_resolves_and_counts(
            self, small_random):
        def strategy(name):
            return plan(small_random, 1, 1, task="topk",
                        strategy=name).strategy

        before = auto_strategy_stats()
        assert strategy("direct") == "direct"
        assert strategy("hybrid") == "hybrid"
        assert auto_strategy_stats() == before
        chosen = strategy("auto")
        after = auto_strategy_stats()
        assert after[chosen] == before[chosen] + 1
        assert sum(after.values()) == sum(before.values()) + 1
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            strategy("bogus")

    def test_auto_matches_direct_on_the_perfbench_tall_shape(self):
        """tall-1k at 256 rows (12 frequent items) plans the column walk,
        and the output is the direct mine's, as is hybrid's."""
        ds = generate_tall_cohort(TALL_COHORTS["tall-1k"].scaled(0.25))
        minsup = relative_minsup(ds, 1, 0.7)
        auto = mine_topk(ds, 1, minsup, k=2, strategy="auto")
        direct = mine_topk(ds, 1, minsup, k=2)
        hybrid = mine_topk(ds, 1, minsup, k=2, strategy="hybrid")
        assert auto.stats.plan.strategy == "column"
        assert results_equal(auto, direct)
        assert results_equal(hybrid, direct)


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

    def test_streamed_pool_mine_matches_in_process_and_direct(self):
        """Pool workers read their partitions from the shipped source:
        a streamed mine on 2 workers equals the in-process one and the
        direct mine of the materialized cohort."""
        spec = TALL_COHORTS["tall-1k"].scaled(0.125)
        ds = generate_tall_cohort(spec)
        minsup = max(1, int(0.5 * sum(1 for l in ds.labels if l == 1)))
        in_process = mine_topk_hybrid(
            consequent=1, minsup=minsup, k=2, source=TallChunkSource(spec)
        )
        try:
            fanned = mine_topk_hybrid(
                consequent=1, minsup=minsup, k=2,
                source=TallChunkSource(spec), n_jobs=2,
            )
        finally:
            shutdown_pool()
        assert fanned.stats.plan.workers == 2
        assert fanned.hybrid_stats.n_partitions > 1
        assert results_equal(fanned, in_process)
        assert results_equal(fanned, mine_topk(ds, 1, minsup, k=2))

    def test_tall_16k_streams_within_cell_budget(self):
        """The acceptance claim: tall-16k mines off the chunk stream, and
        the largest partition, all that one partition mine holds, is
        strictly smaller than the full matrix."""
        spec = TALL_COHORTS["tall-16k"]
        source = TallChunkSource(spec)
        n_case = sum(
            sum(1 for label in labels if label == 1)
            for _rows, labels in source.chunks()
        )
        minsup = int(0.7 * n_case)
        result = mine_topk_hybrid(
            consequent=1,
            minsup=minsup,
            k=1,
            source=TallChunkSource(spec),
            node_budget_per_partition=64,
        )
        stats = result.hybrid_stats
        assert 0 < stats.peak_resident_cells < stats.total_cells
        assert stats.spilled_partitions == 0


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
        assert result.stats.plan.workers == 2 and stats.n_partitions > 1
        assert stats.n_skipped_partitions == stats.n_partitions
        assert all(groups == [] for groups in result.per_row.values())

    @staticmethod
    def _request(dataset):
        return HybridPartitionRequest(
            anchor=0, mine=MineRequest(consequent=1, minsup=1),
            items=tuple(range(dataset.n_items)),
        )

    @staticmethod
    def _source(dataset, first_chunk):
        """A source that raises when asked for a chunk after
        ``first_chunk`` (``None``: for any chunk at all)."""

        class Source:
            items = dataset.items
            class_names = dataset.class_names
            name = "raises"

            def chunks(self):
                if first_chunk is None:
                    raise AssertionError("read after the stop")
                first_chunk()
                yield dataset.rows, dataset.labels
                raise AssertionError("read after the stop")

        return Source()

    @pytest.mark.parametrize("stop", ("cancel", "budget"))
    def test_partition_started_after_the_stop_reads_nothing(
            self, small_random, stop):
        """A partition that starts after the stop returns None before
        it asks its source for a chunk."""
        cancel = threading.Event()
        source = self._source(small_random, None)
        request = self._request(small_random)
        if stop == "cancel":
            cancel.set()
            assert request.run(source, cancel=cancel) is None
        else:
            assert request.run(source, cancel=cancel, time_budget=0.0) is None

    @pytest.mark.parametrize("stop", ("cancel", "budget"))
    def test_partition_stopped_during_its_read_reads_no_further(
            self, small_random, stop):
        """A stop that lands while a partition reads its first chunk
        returns None without asking the source for another."""
        cancel = threading.Event()
        budget = 0.05
        if stop == "cancel":
            source = self._source(small_random, cancel.set)
            budget = None
        else:
            source = self._source(small_random,
                                  lambda: time.sleep(2 * budget))
        assert self._request(small_random).run(
            source, cancel=cancel, time_budget=budget
        ) is None

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
        assert fanned.stats.plan.workers == 2


class TestStats:
    def test_partition_stats(self, small_random):
        result = mine_topk_hybrid(small_random, 1, minsup=1, k=1)
        stats = result.hybrid_stats
        assert stats.n_partitions >= 1
        assert stats.max_partition_rows <= small_random.n_rows
        assert stats.completed
        assert stats.total_cells == sum(len(r) for r in small_random.rows)
        assert stats.spilled_partitions == 0
        assert result.stats.engine == "hybrid/bitset"

    @pytest.mark.parametrize("minsup", (1, 3))
    def test_peak_cells_recount_the_largest_partition(
            self, small_random, minsup):
        """peak_resident_cells is the largest partition's cells, counted
        here from the dataset rows: each row holding an anchor adds its
        frequent items from the anchor on."""
        ds = small_random
        positive = ds.class_mask(1)
        frequent = sorted(
            item for item, rows in enumerate(ds.item_row_sets())
            if bin(rows & positive).count("1") >= minsup
        )
        cells = {anchor: 0 for anchor in frequent}
        for row in ds.rows:
            kept = [item for item in frequent if item in row]
            for position, anchor in enumerate(kept):
                cells[anchor] += len(kept) - position
        result = mine_topk_hybrid(ds, 1, minsup=minsup, k=1)
        assert result.hybrid_stats.peak_resident_cells == max(cells.values())

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
