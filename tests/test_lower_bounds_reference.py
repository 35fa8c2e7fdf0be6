"""FindLB against the search it replaced.

``reference_find_lower_bounds`` is ``find_lower_bounds`` as it stood
before the dead-end prune: the same ranked breadth-first search with the
superset skip and the redundant-item drop, but every partial subset is
kept whether or not it can still reach the group's support set.  The
pruned search must return the same rules on every input where the
frontier cap never trims, may only turn ``complete`` from False to True
(except for the fallback upper bound, which it never calls complete),
and never tests more subsets.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pytest

from repro.analysis.gene_ranking import gene_entropy_scores, item_scores
from repro.audit import generate_cases
from repro.classifiers import rcbt
from repro.core.lower_bounds import LowerBoundResult, find_lower_bounds
from repro.core.rules import Rule, RuleGroup
from repro.core.topk_miner import mine_topk
from repro.data.dataset import GeneExpressionDataset
from repro.data.discretize import EntropyDiscretizer
from repro.data.synthetic import PAPER_DATASETS, generate_dataset
from repro.experiments import fig8


def reference_find_lower_bounds(
    dataset,
    group: RuleGroup,
    nl: int = 1,
    item_scores: Optional[dict[int, float]] = None,
    max_items: Optional[int] = None,
    max_size: int = 6,
    max_frontier: int = 100_000,
) -> LowerBoundResult:
    """FindLB without the dead-end prune (the reference)."""
    if nl < 1:
        raise ValueError(f"nl must be >= 1, got {nl}")
    scores = item_scores or {}
    items = sorted(group.antecedent, key=lambda i: (-scores.get(i, 0.0), i))
    truncated = False
    if max_items is not None and len(items) > max_items:
        items = items[:max_items]
        truncated = True
    item_rows = dataset.item_row_sets()
    target = group.row_set

    found: list[frozenset[int]] = []
    found_remainders: dict[int, list[frozenset[int]]] = {}

    def _register(lower: frozenset[int]) -> None:
        found.append(lower)
        for member in lower:
            found_remainders.setdefault(member, []).append(lower - {member})

    tested = 0
    frontier: list[tuple[int, int, tuple[int, ...]]] = []
    for index, item in enumerate(items):
        rows = item_rows[item]
        tested += 1
        if rows == target:
            _register(frozenset([item]))
            if len(found) >= nl:
                break
        else:
            frontier.append((rows, index, (item,)))

    size = 1
    frontier_trimmed = False
    while frontier and len(found) < nl and size < max_size:
        size += 1
        next_frontier: list[tuple[int, int, tuple[int, ...]]] = []
        for rows, last, combo in frontier:
            if len(found) >= nl:
                break
            combo_set = frozenset(combo)
            for index in range(last + 1, len(items)):
                item = items[index]
                remainders = found_remainders.get(item)
                if remainders is not None and any(
                    remainder <= combo_set for remainder in remainders
                ):
                    continue
                new_rows = rows & item_rows[item]
                if new_rows == rows:
                    continue
                tested += 1
                if new_rows == target:
                    _register(frozenset(combo + (item,)))
                    if len(found) >= nl:
                        break
                else:
                    next_frontier.append((new_rows, index, combo + (item,)))
        if len(next_frontier) > max_frontier:
            next_frontier = next_frontier[:max_frontier]
            frontier_trimmed = True
        frontier = next_frontier

    if not found and group.antecedent:
        found.append(frozenset(group.antecedent))
    rules = [
        Rule(
            antecedent=lower,
            consequent=group.consequent,
            support=group.support,
            confidence=group.confidence,
        )
        for lower in sorted(found, key=lambda s: (len(s), sorted(s)))[:nl]
    ]
    size_capped = bool(frontier)
    complete = (
        len(found) >= nl
        or not (truncated or frontier_trimmed or size_capped)
    )
    return LowerBoundResult(rules=rules, complete=complete, subsets_tested=tested)


def reference_find_lower_bounds_batch(
    dataset, groups, nl=1, item_scores=None, max_items=None, max_size=6
) -> dict[tuple[int, int], list[Rule]]:
    cache: dict[tuple[int, int], list[Rule]] = {}
    for group in groups:
        key = (group.row_set, group.consequent)
        if key not in cache:
            cache[key] = reference_find_lower_bounds(
                dataset, group, nl=nl, item_scores=item_scores,
                max_items=max_items, max_size=max_size,
            ).rules
    return cache


def assert_matches_reference(dataset, group, **options) -> None:
    """Same rules; ``complete`` only False -> True; no more subsets."""
    expected = reference_find_lower_bounds(dataset, group, **options)
    actual = find_lower_bounds(dataset, group, **options)
    assert actual.rules == expected.rules, (sorted(group.antecedent), options)
    assert actual.complete >= expected.complete, (sorted(group.antecedent),
                                                  options)
    assert actual.subsets_tested <= expected.subsets_tested


def recorded_searches(monkeypatch, module) -> list:
    """Record the (groups, options) of every FindLB batch ``module`` runs."""
    calls = []
    real = module.find_lower_bounds_batch

    def record(dataset, groups, **options):
        calls.append((dataset, list(groups), options))
        return real(dataset, groups, **options)

    monkeypatch.setattr(module, "find_lower_bounds_batch", record)
    return calls


def assert_searches_match(calls) -> int:
    searches = 0
    for dataset, groups, options in calls:
        for group in groups:
            assert_matches_reference(dataset, group, **options)
            searches += 1
    return searches


@pytest.mark.parametrize("seed", range(3))
def test_audit_cases_match_reference(seed):
    for case in generate_cases(seed, 25):
        dataset = case.dataset
        result = mine_topk(dataset, case.consequent, case.minsup, k=case.k)
        scores = item_scores(dataset, gene_entropy_scores(dataset))
        for group in result.unique_groups():
            # No nl=1: there the reference calls its fallback upper bound
            # complete, which test_fallback_is_never_complete corrects.
            for nl in (2, 5, 20):
                assert_matches_reference(dataset, group, nl=nl)
                assert_matches_reference(
                    dataset, group, nl=nl, item_scores=scores, max_size=3
                )


def perfbench_cohort(name: str, scale: float, seed: int = 1):
    """A Table 1 cohort with its samples and genes permuted by ``seed``,
    discretized on its training half (the benchmark's cohort shape)."""
    rng = np.random.default_rng(seed)
    train, test = generate_dataset(PAPER_DATASETS[name].scaled(scale))
    genes = rng.permutation(train.n_genes)

    def shuffle(data):
        rows = rng.permutation(data.n_samples)
        return GeneExpressionDataset(
            data.values[rows][:, genes], data.labels[rows],
            [data.gene_names[g] for g in genes], data.class_names,
            name=data.name,
        )

    train, test = shuffle(train), shuffle(test)
    discretizer = EntropyDiscretizer().fit(train)
    return discretizer.transform(train), discretizer.transform(test)


def fit_digest(model, test) -> str:
    """Predictions on ``test`` plus every class's per-row top-k groups."""
    content = (
        model.predict_batch(test.rows),
        [
            sorted(
                (row, [(sorted(g.antecedent), g.row_set, g.confidence)
                       for g in groups])
                for row, groups in model.topk_results_[class_id].per_row.items()
            )
            for class_id in sorted(model.topk_results_)
        ],
    )
    return hashlib.sha256(repr(content).encode()).hexdigest()[:16]


# RCBT(k=10, nl=20) on the seed-1 cohorts, as computed by the search
# before the dead-end prune.
PINNED_FITS = {
    ("OC", 0.1): "9d56f82d762360cb",
    ("PC", 0.25): "c4e024df4e3907f7",
}


@pytest.mark.parametrize("name,scale", sorted(PINNED_FITS))
def test_rcbt_fit_matches_reference(monkeypatch, name, scale):
    train, test = perfbench_cohort(name, scale)
    calls = recorded_searches(monkeypatch, rcbt)
    model = rcbt.RCBTClassifier(k=10, nl=20).fit(train)
    assert fit_digest(model, test) == PINNED_FITS[(name, scale)]
    assert assert_searches_match(calls) > 0

    monkeypatch.setattr(
        rcbt, "find_lower_bounds_batch", reference_find_lower_bounds_batch
    )
    reference = rcbt.RCBTClassifier(k=10, nl=20).fit(train)
    assert [level.rules for level in model.levels_] == [
        level.rules for level in reference.levels_
    ]


def test_fig8_matches_reference(monkeypatch):
    calls = recorded_searches(monkeypatch, fig8)
    result = fig8.run(scale=0.25)
    assert assert_searches_match(calls) > 0
    monkeypatch.setattr(
        fig8, "find_lower_bounds_batch", reference_find_lower_bounds_batch
    )
    assert fig8.run(scale=0.25).occurrences == result.occurrences

