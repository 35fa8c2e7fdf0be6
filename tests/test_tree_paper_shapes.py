"""The tree engine on perfbench's paper shapes, and CLOSET+ on the
benchmark suite's: outputs, counters and node counts pinned.

The prefix tree changes only how a projection is computed, never which
enumeration nodes the walk visits or what it emits.  So on each shape
the tree engine's per-row lists and :class:`MinerStats` counters equal
the bitset and table engines' (every row of these cohorts holds a
frequent item), and the node counts are pinned to the values recorded
before the trie was rebuilt as flat arrays.  CLOSET+ reads the same
trie through its FP-tree projections; its groups are pinned in order
by digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import mine_closetplus
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.data.dataset import DiscretizedDataset
from repro.data.loaders import load_benchmark

from .test_lower_bounds_reference import perfbench_cohort

# (cohort, scale, class, minsup fraction, k) -> nodes visited.
TREE_SHAPES = {
    ("ALL", 0.5, 1, 0.9, 1): 633,
    ("ALL", 0.5, 1, 0.9, 100): 46246,
    ("ALL", 0.5, 1, 0.7, 1): 643,
    ("ALL", 0.5, 1, 0.7, 100): 53037,
    ("PC", 0.25, 0, 0.7, 10): 40757,
}

# (benchmark, scale, minsup fraction) -> (groups, digest of the groups
# in emission order), for the class-1 mines of benchmarks/.
CLOSET_SHAPES = {
    ("ALL", 0.1, 0.95): (72, "f0c15f0b20160269"),
    ("ALL", 0.1, 0.85): (624, "6cf2c1ac8d72db63"),
    ("LC", 0.05, 0.95): (87, "a9152dc82dfb4498"),
    ("LC", 0.05, 0.85): (301, "1bfa29aa2995280a"),
    ("OC", 0.05, 0.95): (339, "b3bd739fbe40f4e0"),
    ("PC", 0.1, 0.95): (1867, "7630bd604d5ada07"),
}

_COHORTS: dict = {}


def _cohort(name: str, scale: float) -> DiscretizedDataset:
    key = (name, scale)
    if key not in _COHORTS:
        _COHORTS[key] = perfbench_cohort(name, scale, seed=1)[0]
    return _COHORTS[key]


def _fresh(dataset: DiscretizedDataset) -> DiscretizedDataset:
    """A new dataset object: the mine builds its own view and trie."""
    return DiscretizedDataset(
        dataset.rows, dataset.labels, dataset.items,
        class_names=dataset.class_names, name=dataset.name,
    )


def _counters(stats) -> tuple:
    return (stats.nodes_visited, stats.groups_emitted, stats.loose_pruned,
            stats.tight_pruned, stats.backward_pruned, stats.completed)


@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_engine_matches_the_row_engines(shape):
    name, scale, consequent, fraction, k = shape
    train = _cohort(name, scale)
    minsup = relative_minsup(train, consequent, fraction)
    results = {
        engine: mine_topk(_fresh(train), consequent, minsup, k=k,
                          engine=engine)
        for engine in ("tree", "bitset", "table")
    }
    tree = results.pop("tree")
    assert tree.stats.nodes_visited == TREE_SHAPES[shape]
    for engine, other in results.items():
        assert tree.per_row == other.per_row, engine
        assert _counters(tree.stats) == _counters(other.stats), engine


@pytest.mark.parametrize("shape", sorted(CLOSET_SHAPES))
def test_closetplus_groups_are_pinned(shape):
    name, scale, fraction = shape
    train = load_benchmark(name, scale=scale, use_cache=False).train_items
    result = mine_closetplus(train, 1, relative_minsup(train, 1, fraction))
    assert result.completed
    content = [
        (tuple(sorted(group.antecedent)), group.row_set, group.support,
         group.confidence)
        for group in result.groups
    ]
    digest = hashlib.sha256(repr(content).encode()).hexdigest()[:16]
    assert (len(content), digest) == CLOSET_SHAPES[shape]
