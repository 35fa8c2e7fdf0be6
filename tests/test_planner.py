"""The one execution planner (:func:`repro.core.planner.plan`).

Decisions on the committed shapes are checked without mining: the
column rung must send every tall shape from 128 rows up to the column
walk, and the paper shapes must stay direct except where the two walks
tie (DESIGN.md §13), from the same frequent-item pass whose support mass
the miners' index counts.
"""

from __future__ import annotations

import os

import pytest

import repro.core.planner as planner
from repro.bench import probe_host
from repro.core.backends import auto_backend_stats
from repro.core.hybrid import auto_strategy_stats, mine_topk_hybrid
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.core.view import MiningView
from repro.data import TallChunkSource, random_discretized_dataset
from repro.data.loaders import load_benchmark
from repro.data.synthetic import TALL_COHORTS, generate_tall_cohort
from repro.parallel import AUTO_JOBS, plan, pool_stats, resolve_n_jobs

# (label, committed cohort, row scale, expected strategy); every shape
# is planned for class 1 at minsup 0.7 |C|, k=2.  tall-1k holds 12
# frequent items, so 2**12 closed sets at most.
TALL_SHAPES = [
    ("tall-1k@96", "tall-1k", 96 / 1024, "column"),
    ("tall-1k@128", "tall-1k", 0.125, "column"),
    ("tall-1k@192", "tall-1k", 192 / 1024, "column"),
    ("tall-1k@256", "tall-1k", 0.25, "column"),
    ("tall-1k@512", "tall-1k", 0.5, "column"),
    ("tall-1k@1024", "tall-1k", 1.0, "column"),
    ("tall-4k@0.5", "tall-4k", 0.5, "column"),
    ("tall-4k", "tall-4k", 1.0, "column"),
    ("tall-16k", "tall-16k", 1.0, "column"),
]
# (name, scale, minsup fraction, expected strategy per class).  OC at
# minsup 1.0 keeps 4 or 9 frequent items over 210 rows, and PC's class
# 0 at minsup 1.0 keeps 13 over 102 rows: there the two walks tie.
PAPER_SHAPES = [
    ("ALL", 0.1, 0.7, ("direct", "direct")),
    ("LC", 0.1, 0.7, ("direct", "direct")),
    ("OC", 0.1, 0.7, ("direct", "direct")),
    ("PC", 0.1, 0.7, ("direct", "direct")),
    ("ALL", 0.5, 0.7, ("direct", "direct")),
    ("PC", 0.25, 0.7, ("direct", "direct")),
    ("OC", 0.1, 0.9, ("direct", "direct")),
    ("OC", 0.1, 0.95, ("direct", "direct")),
    ("OC", 0.1, 1.0, ("column", "column")),
    ("PC", 0.1, 1.0, ("column", "direct")),
    ("PC", 0.25, 1.0, ("direct", "direct")),
]
# Sparse random tables with more frequent items than the column rung
# takes: the density rung still plans hybrid there.
SPARSE_SHAPE = dict(n_rows=300, n_items=60, density=0.1, seed=1)


@pytest.fixture(scope="module")
def shapes():
    """Every committed shape with its minsup fraction and expected
    strategy."""
    cases = []
    for label, name, scale, expected in TALL_SHAPES:
        dataset = generate_tall_cohort(TALL_COHORTS[name].scaled(scale))
        cases.append((label, dataset, 1, 0.7, expected))
    loaded = {}
    for name, scale, fraction, expected in PAPER_SHAPES:
        dataset = loaded.get((name, scale))
        if dataset is None:
            dataset = loaded[name, scale] = load_benchmark(
                name, scale=scale, use_cache=False).train_items
        for consequent in (0, 1):
            cases.append((f"{name}@{scale} c={consequent} minsup {fraction}",
                          dataset, consequent, fraction,
                          expected[consequent]))
    return cases


def _plan_auto(dataset, consequent, fraction=0.7):
    minsup = relative_minsup(dataset, consequent, fraction)
    return minsup, plan(dataset, consequent, minsup, task="topk", k=2,
                        strategy="auto")


class TestCommittedShapes:
    def test_auto_strategy_on_every_shape(self, shapes):
        chosen = {
            label: _plan_auto(dataset, consequent, fraction)[1].strategy
            for label, dataset, consequent, fraction, _expected in shapes
        }
        assert chosen == {
            label: expected for label, _d, _c, _f, expected in shapes
        }

    def test_support_mass_is_the_index_mass(self, shapes):
        for label, dataset, consequent, fraction, _expected in shapes:
            minsup, planned = _plan_auto(dataset, consequent, fraction)
            view = MiningView(dataset, consequent, minsup)
            index = view.support_index()
            assert planned.support_mass == index.support_mass, label
            assert planned.frequent_items == len(view.frequent_items), label
            assert planned.density == (
                index.support_mass / dataset.n_rows ** 2
            )


class _Untouchable:
    """A dataset whose contents must not be read."""

    n_rows = 12

    def item_row_sets(self):
        raise AssertionError("plan read the dataset for explicit values")

    class_mask = item_row_sets


class TestExplicitValues:
    def test_explicit_values_never_touch_the_dataset(self):
        dataset = _Untouchable()
        assert plan(dataset, 1, 3, task="topk") == planner.Plan(
            "direct", 1, None, 12
        )
        assert plan(dataset, 1, 3, task="topk", strategy="hybrid",
                    n_jobs=2, backend="int") == planner.Plan(
            "hybrid", 2, None, 12
        )
        assert plan(dataset, 1, 3, task="farmer", n_jobs=3).workers == 3
        assert plan(dataset, [0, 1], [3, 3], task="requests",
                    n_jobs=2).workers == 2
        # A direct top-k mine has one worker; its n_jobs needs no plan.
        assert plan(dataset, 1, 3, task="topk", n_jobs=AUTO_JOBS).workers == 1

    def test_a_counted_mass_is_not_recounted(self):
        """A hybrid mine passes the mass its scan counted; an "auto"
        then reads nothing more of the dataset."""
        planned = plan(_Untouchable(), 1, 3, task="topk", strategy="hybrid",
                       n_jobs=AUTO_JOBS, mass=100)
        assert planned == planner.Plan("hybrid", 1, 100, 12)

    def test_bad_values_raise(self):
        dataset = _Untouchable()
        with pytest.raises(ValueError, match="unknown strategy"):
            plan(dataset, 1, 3, task="topk", strategy="sideways")
        with pytest.raises(ValueError, match="unknown bitset backend"):
            plan(dataset, 1, 3, task="topk", backend="numpy")


class _Items:
    """Items over ``n_rows`` rows, each held by every row unless
    ``item_rows`` says otherwise; class 1 is every row."""

    def __init__(self, n_items: int, n_rows: int, item_rows=None) -> None:
        self.n_rows = n_rows
        self._rows = item_rows or [(1 << n_rows) - 1] * n_items

    def item_row_sets(self):
        return self._rows

    def class_mask(self, consequent):
        return (1 << self.n_rows) - 1


class TestColumnRung:
    def test_the_rung_is_two_to_the_frequent_items_per_row(self):
        """2**f <= AUTO_COLUMN_FACTOR * n_rows plans column, one item
        more does not."""
        factor = planner.AUTO_COLUMN_FACTOR
        for n_rows in (1, 96, 128, 1000):
            f = (factor * n_rows).bit_length() - 1
            at = plan(_Items(f, n_rows), 1, 1, task="topk", strategy="auto")
            over = plan(_Items(f + 1, n_rows), 1, 1, task="topk",
                        strategy="auto")
            assert (at.strategy, at.frequent_items) == ("column", f)
            assert over.strategy != "column"

    def test_only_frequent_items_count(self):
        # 40 items, all below minsup 2 but one: f = 1.
        dataset = _Items(40, 10, item_rows=[1] * 39 + [3])
        planned = plan(dataset, 1, 2, task="topk", strategy="auto")
        assert (planned.strategy, planned.frequent_items) == ("column", 1)

    def test_a_column_plan_has_one_worker_and_no_caller_names_it(self):
        dataset = _Items(3, 10)
        planned = plan(dataset, 1, 1, task="topk", strategy="auto",
                       n_jobs=AUTO_JOBS)
        assert planned == planner.Plan("column", 1, 30, 10, 3)
        with pytest.raises(ValueError, match="unknown strategy 'column'"):
            plan(dataset, 1, 1, task="topk", strategy="column")


class TestCounting:
    def test_each_auto_is_counted_once_per_mine(self):
        # 60 frequent items: the density rung plans hybrid.
        dataset = random_discretized_dataset(**SPARSE_SHAPE)
        minsup = 3
        strategy = auto_strategy_stats()
        backend = auto_backend_stats()
        fallbacks = pool_stats()["planner_serial_fallbacks"]
        result = mine_topk(dataset, 1, minsup, k=2, strategy="auto",
                           n_jobs="auto", backend="auto")
        assert result.stats.plan.strategy == "hybrid"
        assert result.stats.plan.workers == 1
        assert auto_strategy_stats()["hybrid"] == strategy["hybrid"] + 1
        assert auto_strategy_stats()["direct"] == strategy["direct"]
        assert auto_strategy_stats()["column"] == strategy["column"]
        assert auto_backend_stats()["int"] == backend["int"] + 1
        assert pool_stats()["planner_serial_fallbacks"] == fallbacks + 1

    def test_a_column_plan_is_counted_and_decides_no_workers(self):
        dataset = generate_tall_cohort(TALL_COHORTS["tall-1k"].scaled(0.1875))
        minsup = relative_minsup(dataset, 1, 0.7)
        strategy = auto_strategy_stats()
        fallbacks = pool_stats()["planner_serial_fallbacks"]
        result = mine_topk(dataset, 1, minsup, k=2, strategy="auto",
                           n_jobs="auto")
        assert result.stats.plan.strategy == "column"
        assert result.stats.engine == "column"
        after = auto_strategy_stats()
        assert after["column"] == strategy["column"] + 1
        assert sum(after.values()) == sum(strategy.values()) + 1
        # One walk in this process: n_jobs="auto" had nothing to decide.
        assert pool_stats()["planner_serial_fallbacks"] == fallbacks

    def test_a_streamed_hybrid_mine_plans_from_its_scan(self):
        spec = TALL_COHORTS["tall-1k"].scaled(0.1875)
        dataset = generate_tall_cohort(spec)
        minsup = relative_minsup(dataset, 1, 0.7)
        result = mine_topk_hybrid(consequent=1, minsup=minsup, k=2,
                                  source=TallChunkSource(spec),
                                  n_jobs=AUTO_JOBS)
        mass = MiningView(dataset, 1, minsup).support_index().support_mass
        assert result.stats.plan == planner.Plan(
            "hybrid", 1, mass, dataset.n_rows
        )


class TestUsableCpus:
    def test_worker_counts_follow_the_affinity_set(self, monkeypatch):
        """Pinned to one CPU of a four-core machine, every "all cores"
        answer is one."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(-1) == 1
        assert resolve_n_jobs(3) == 3
        heavy = type("Heavy", (), {
            "n_rows": 1000,
            "item_row_sets": lambda self: [(1 << 1000) - 1] * 1000,
            "class_mask": lambda self, consequent: (1 << 1000) - 1,
        })()
        assert plan(heavy, [1], [1], task="requests",
                    n_jobs=AUTO_JOBS).workers == 1
        assert probe_host()["cpu_count"] == 1
