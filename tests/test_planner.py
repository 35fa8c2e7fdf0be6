"""The one execution planner (:func:`repro.core.planner.plan`).

Decisions on the committed shapes are checked without mining: the
strategy rung must send every tall shape that mines faster hybrid to
hybrid and every paper shape to direct (DESIGN.md §13), from the same
support mass the miners' index counts.
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
from repro.data import TallChunkSource
from repro.data.loaders import load_benchmark
from repro.data.synthetic import TALL_COHORTS, generate_tall_cohort
from repro.parallel import AUTO_JOBS, plan, pool_stats, resolve_n_jobs

# (label, committed cohort, row scale); every shape is planned at minsup
# 0.7 |C|, k=2.
TALL_SHAPES = [
    ("tall-1k@192", "tall-1k", 192 / 1024),
    ("tall-1k@256", "tall-1k", 0.25),
    ("tall-1k@512", "tall-1k", 0.5),
    ("tall-4k@0.5", "tall-4k", 0.5),
]
PAPER_SHAPES = [
    ("ALL", 0.1), ("LC", 0.1), ("OC", 0.1), ("PC", 0.1),
    ("ALL", 0.5), ("PC", 0.25),
]


@pytest.fixture(scope="module")
def shapes():
    """Every committed shape with its expected strategy."""
    cases = []
    for label, name, scale in TALL_SHAPES:
        dataset = generate_tall_cohort(TALL_COHORTS[name].scaled(scale))
        cases.append((label, dataset, 1, "hybrid"))
    for name, scale in PAPER_SHAPES:
        dataset = load_benchmark(name, scale=scale, use_cache=False).train_items
        for consequent in (0, 1):
            cases.append((f"{name}@{scale} c={consequent}", dataset,
                          consequent, "direct"))
    return cases


def _plan_auto(dataset, consequent):
    minsup = relative_minsup(dataset, consequent, 0.7)
    return minsup, plan(dataset, consequent, minsup, task="topk", k=2,
                        strategy="auto")


class TestCommittedShapes:
    def test_auto_strategy_on_every_shape(self, shapes):
        chosen = {
            label: _plan_auto(dataset, consequent)[1].strategy
            for label, dataset, consequent, _expected in shapes
        }
        assert chosen == {
            label: expected for label, _d, _c, expected in shapes
        }

    def test_support_mass_is_the_index_mass(self, shapes):
        for label, dataset, consequent, _expected in shapes:
            minsup, planned = _plan_auto(dataset, consequent)
            index = MiningView(dataset, consequent, minsup).support_index()
            assert planned.support_mass == index.support_mass, label
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


class TestCounting:
    def test_each_auto_is_counted_once_per_mine(self):
        dataset = generate_tall_cohort(TALL_COHORTS["tall-1k"].scaled(0.1875))
        minsup = relative_minsup(dataset, 1, 0.7)
        strategy = auto_strategy_stats()
        backend = auto_backend_stats()
        fallbacks = pool_stats()["planner_serial_fallbacks"]
        result = mine_topk(dataset, 1, minsup, k=2, strategy="auto",
                           n_jobs="auto", backend="auto")
        assert result.stats.plan.strategy == "hybrid"
        assert result.stats.plan.workers == 1
        assert auto_strategy_stats()["hybrid"] == strategy["hybrid"] + 1
        assert auto_strategy_stats()["direct"] == strategy["direct"]
        assert auto_backend_stats()["int"] == backend["int"] + 1
        assert pool_stats()["planner_serial_fallbacks"] == fallbacks + 1


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
