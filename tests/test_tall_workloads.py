"""Tall-cohort tier-1 suite: generators, backend spellings, auto, bench.

The paper's datasets are tiny (38-102 rows); the tall synthetic cohorts
are the committed workloads where row bitsets span many machine words.
This module is the tier-1 coverage for that front:

* the chunked generator is deterministic, prefix-stable across cohort
  sizes, and structurally sound (non-empty rows, both classes);
* mining a tall cohort is bit-identical (results AND MinerStats
  counters) under every accepted ``backend=`` spelling;
* ``backend="auto"`` plans ``int`` at paper scale and on tall top-k and
  FARMER runs alike, and each auto mine is counted;
* the bench harness measures tall workloads.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.farmer import FarmerPolicy, mine_farmer
from repro.bench import QUICK_WORKLOADS, Workload, _measure
from repro.core.backends import (
    auto_backend_stats,
    plan_auto_backend,
    resolve_backend,
)
from repro.core.enumeration import run_enumeration
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.core.view import MiningView
from repro.data import (
    TALL_COHORTS,
    TallCohortSpec,
    generate_tall_cohort,
    iter_tall_chunks,
)
from repro.parallel import results_equal

# Every value the miners' ``backend=`` argument accepts.
SPELLINGS = (None, "int", "auto")

# Small enough for seconds-long mining, tall enough that every bitset
# spans multiple 64-bit words.
SMALL_TALL = TALL_COHORTS["tall-1k"].scaled(0.125)


def _counters(stats) -> dict:
    return {
        name: getattr(stats, name)
        for name in (
            "nodes_visited", "groups_emitted", "loose_pruned",
            "tight_pruned", "backward_pruned",
        )
    }


class TestGenerator:
    def test_registry_shapes(self):
        assert set(TALL_COHORTS) == {
            "tall-1k", "tall-4k", "tall-16k", "tall-64k",
        }
        assert TALL_COHORTS["tall-1k"].n_rows == 1024
        assert TALL_COHORTS["tall-4k"].n_rows == 4096
        assert TALL_COHORTS["tall-16k"].n_rows == 16384
        assert TALL_COHORTS["tall-64k"].n_rows == 65536

    def test_deterministic(self):
        first = generate_tall_cohort(SMALL_TALL)
        second = generate_tall_cohort(SMALL_TALL)
        assert first.rows == second.rows
        assert first.labels == second.labels

    def test_prefix_stable_across_sizes(self):
        """tall-4k begins with exactly the rows of tall-1k: chunk draws
        are keyed by (seed, chunk index), so growing the cohort only
        appends."""
        small = generate_tall_cohort("tall-1k")
        large = generate_tall_cohort("tall-4k")
        assert large.rows[: small.n_rows] == small.rows
        assert large.labels[: small.n_rows] == small.labels

    def test_chunks_stream_the_same_rows(self):
        spec = dataclasses.replace(SMALL_TALL, chunk_rows=50)
        rows: list = []
        labels: list = []
        for chunk_rows, chunk_labels in iter_tall_chunks(spec):
            assert 1 <= len(chunk_rows) <= 50
            rows.extend(chunk_rows)
            labels.extend(chunk_labels)
        dataset = generate_tall_cohort(spec)
        assert rows == dataset.rows
        assert labels == dataset.labels

    def test_structurally_sound(self):
        dataset = generate_tall_cohort(SMALL_TALL)
        assert dataset.n_rows == SMALL_TALL.n_rows > 64
        assert all(dataset.rows)  # no empty rows
        assert set(dataset.labels) == {0, 1}
        assert dataset.class_names == ["control", "case"]

    def test_scaled_floors_at_96_rows(self):
        assert TALL_COHORTS["tall-1k"].scaled(0.01).n_rows == 96

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown tall cohort"):
            generate_tall_cohort("tall-2k")

    def test_invalid_spec_rejected(self):
        bad = dataclasses.replace(SMALL_TALL, n_signal=0)
        with pytest.raises(ValueError, match="n_signal"):
            generate_tall_cohort(bad)


class TestBackendIdentityOnTallData:
    """Results and stats counters are bit-identical at multi-word size."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_tall_cohort(SMALL_TALL)

    def test_topk_identical_across_backends(self, dataset):
        minsup = relative_minsup(dataset, 1, 0.8)
        baseline = mine_topk(dataset, 1, minsup, k=2, backend="int")
        for backend_name in SPELLINGS:
            other = mine_topk(dataset, 1, minsup, k=2, backend=backend_name)
            assert results_equal(baseline, other), backend_name
            assert _counters(other.stats) == _counters(baseline.stats), (
                backend_name
            )

    def test_farmer_identical_across_backends(self, dataset):
        key = lambda g: (
            g.antecedent, g.consequent, g.row_set, g.support, g.confidence
        )
        minsup = relative_minsup(dataset, 1, 0.85)
        baseline = mine_farmer(
            dataset, 1, minsup, engine="bitset", backend="int"
        )
        for backend_name in SPELLINGS:
            other = mine_farmer(
                dataset, 1, minsup, engine="bitset", backend=backend_name
            )
            assert list(map(key, other.groups)) == list(
                map(key, baseline.groups)
            ), backend_name
            assert _counters(other.stats) == _counters(baseline.stats), (
                backend_name
            )

    def test_skipping_threshold_bits_changes_nothing(self, dataset):
        """FARMER's ``uses_threshold_bits = False`` is purely an
        execution shortcut: forcing the row sets back on gives the same
        groups and the same counters."""

        class EagerPolicy(FarmerPolicy):
            uses_threshold_bits = True

        minsup = relative_minsup(dataset, 1, 0.85)
        view = MiningView.cached(dataset, 1, minsup)
        assert FarmerPolicy.uses_threshold_bits is False
        fast, eager = FarmerPolicy(view), EagerPolicy(view)
        fast_stats = run_enumeration(view, fast, engine="bitset")
        eager_stats = run_enumeration(view, eager, engine="bitset")
        assert fast.groups == eager.groups
        assert _counters(fast_stats) == _counters(eager_stats)


class TestAutoSelectionEndToEnd:
    def test_paper_scale_auto_is_int(self):
        from repro.data import make_figure1_example

        dataset = make_figure1_example()
        before = auto_backend_stats()["int"]
        mine_topk(dataset, 1, 1, backend="auto")
        assert auto_backend_stats()["int"] == before + 1
        assert plan_auto_backend(dataset.n_rows) == "int"

    def test_tall_topk_auto_matches_int_output(self):
        dataset = generate_tall_cohort(SMALL_TALL)
        minsup = relative_minsup(dataset, 1, 0.8)
        baseline = mine_topk(dataset, 1, minsup, k=2, backend="int")
        auto = mine_topk(dataset, 1, minsup, k=2, backend="auto")
        assert results_equal(baseline, auto)
        assert _counters(auto.stats) == _counters(baseline.stats)

    def test_tall_view_auto_resolution(self):
        dataset = generate_tall_cohort("tall-1k")
        assert resolve_backend("auto", n_rows=dataset.n_rows) == "int"
        assert plan_auto_backend(dataset.n_rows) == "int"

    def test_tall_farmer_auto_stays_on_int(self):
        dataset = generate_tall_cohort(SMALL_TALL)
        minsup = relative_minsup(dataset, 1, 0.9)
        result = mine_farmer(
            dataset, 1, minsup, engine="bitset", backend="auto"
        )
        baseline = mine_farmer(
            dataset, 1, minsup, engine="bitset", backend="int"
        )
        assert result.groups == baseline.groups
        assert plan_auto_backend(dataset.n_rows, task="farmer") == "int"


class TestBenchTallWorkloads:
    def test_quick_profile_has_a_tall_workload(self):
        assert any(
            w.dataset.startswith("tall-") for w in QUICK_WORKLOADS
        )

    def test_measure_reports_a_tall_entry(self):
        workload = Workload(
            "tall-test", "tall-1k", "topk", "bitset",
            k=1, fraction=0.9, scale=0.125, measure_parallel=False,
        )
        entry = _measure(workload, scale=1.0, jobs=(), repeats=1)
        assert entry["n_rows"] == SMALL_TALL.n_rows  # workload scale pins
        assert entry["serial_seconds"] > 0
        assert entry["serial_nodes_visited"] > 0
        assert "backends" not in entry and "auto_backend" not in entry
        assert entry["parallel"] == {}
