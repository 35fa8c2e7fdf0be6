"""Tests for the gene ranking measures."""

import pytest

from repro.analysis.gene_ranking import (
    gene_chi_square_scores,
    gene_entropy_scores,
    item_scores,
    rank_genes,
)
from repro.data.dataset import DiscretizedDataset, Item


def two_gene_dataset():
    """Gene 0 separates the classes perfectly; gene 1 is uninformative.

    Items 0/1 are gene 0's intervals; items 2/3 are gene 1's.
    """
    items = [
        Item(0, 0, "g0", float("-inf"), 0.0),
        Item(1, 0, "g0", 0.0, float("inf")),
        Item(2, 1, "g1", float("-inf"), 0.0),
        Item(3, 1, "g1", 0.0, float("inf")),
    ]
    rows = [
        {0, 2}, {0, 3}, {0, 2}, {0, 3},  # class 0: always item 0
        {1, 2}, {1, 3}, {1, 2}, {1, 3},  # class 1: always item 1
    ]
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    return DiscretizedDataset(rows, labels, items)


class TestEntropyScores:
    def test_perfect_gene_scores_one_bit(self):
        scores = gene_entropy_scores(two_gene_dataset())
        assert scores[0] == pytest.approx(1.0)

    def test_uninformative_gene_scores_zero(self):
        scores = gene_entropy_scores(two_gene_dataset())
        assert scores[1] == pytest.approx(0.0)

    def test_ordering(self):
        scores = gene_entropy_scores(two_gene_dataset())
        assert scores[0] > scores[1]


class TestChiSquareScores:
    def test_perfect_gene_max_statistic(self):
        scores = gene_chi_square_scores(two_gene_dataset())
        # Perfect 2x2 association on 8 rows: chi-square == n == 8.
        assert scores[0] == pytest.approx(8.0)

    def test_uninformative_gene_zero(self):
        scores = gene_chi_square_scores(two_gene_dataset())
        assert scores[1] == pytest.approx(0.0)


class TestItemScores:
    def test_items_inherit_gene_scores(self):
        ds = two_gene_dataset()
        gene_scores = gene_entropy_scores(ds)
        per_item = item_scores(ds, gene_scores)
        assert per_item[0] == per_item[1] == gene_scores[0]
        assert per_item[2] == per_item[3] == gene_scores[1]

    def test_missing_gene_defaults_zero(self):
        ds = two_gene_dataset()
        per_item = item_scores(ds, {})
        assert all(score == 0.0 for score in per_item.values())


class TestRankGenes:
    def test_best_gene_rank_one(self):
        ranks = rank_genes({0: 5.0, 1: 1.0, 2: 3.0})
        assert ranks[0] == 1
        assert ranks[2] == 2
        assert ranks[1] == 3

    def test_ties_broken_by_index(self):
        ranks = rank_genes({3: 2.0, 1: 2.0})
        assert ranks[1] == 1
        assert ranks[3] == 2

    def test_empty(self):
        assert rank_genes({}) == {}


def loop_contingency(dataset):
    """The row-by-row contingency count, kept as the reference."""
    n_classes = dataset.n_classes
    tables = {}
    item_gene = {item.item_id: item.gene_index for item in dataset.items}
    for row, label in zip(dataset.rows, dataset.labels):
        for item in row:
            gene = item_gene[item]
            per_item = tables.setdefault(gene, {})
            counts = per_item.setdefault(item, [0] * n_classes)
            counts[label] += 1
    return tables


def _ordered(tables):
    return [(gene, list(per_item.items())) for gene, per_item in tables.items()]


def _ranking_datasets():
    from repro.audit import generate_cases
    from repro.data.loaders import load_benchmark

    for name, scale in [("ALL", 0.5), ("OC", 0.1), ("PC", 0.25)]:
        benchmark = load_benchmark(name, scale=scale, use_cache=False)
        yield benchmark.train_items
        yield benchmark.test_items
    for case in generate_cases(seed=0, n_cases=27):
        yield case.dataset


class TestBatchedContingency:
    def test_scores_bit_identical_to_the_row_loop(self, monkeypatch):
        from repro.analysis import gene_ranking

        for dataset in _ranking_datasets():
            batched = gene_ranking._gene_contingency(dataset)
            assert _ordered(batched) == _ordered(loop_contingency(dataset))
            scores = (gene_entropy_scores(dataset),
                      gene_chi_square_scores(dataset))
            with monkeypatch.context() as patch:
                patch.setattr(gene_ranking, "_gene_contingency",
                              loop_contingency)
                reference = (gene_entropy_scores(dataset),
                             gene_chi_square_scores(dataset))
            assert [list(s.items()) for s in scores] == [
                list(s.items()) for s in reference
            ]
