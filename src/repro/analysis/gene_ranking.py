"""Gene and item discriminative-power rankings.

Two rankings from the paper:

* the *entropy score* used by FindLB's item ordering (Figure 5 step 1,
  after Baldi & Brunak [3]) — here the information gain of a gene's
  discretized partition about the class label; and
* the *chi-square ranking* of Figure 8, the classic contingency statistic
  between a gene's discretized intervals and the class labels.

Both operate on a :class:`~repro.data.dataset.DiscretizedDataset`, whose
item catalog maps items back to genes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..core.bitset import popcount

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = [
    "gene_entropy_scores",
    "gene_chi_square_scores",
    "item_scores",
    "rank_genes",
]


def _class_entropy(counts: list[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts:
        if count:
            probability = count / total
            result -= probability * math.log2(probability)
    return result


def _gene_contingency(
    dataset: "DiscretizedDataset",
) -> dict[int, dict[int, list[int]]]:
    """gene index -> item id -> per-class row counts.

    Counts are popcounts of the dataset's cached item and class row
    bitsets (the ones FindLB reads), so no per-row pass is made.  Genes
    and, within a gene, items appear in the order a row-by-row scan
    first meets them — by first row, then by position in that row — so
    the scores' float sums run in a fixed order.
    """
    item_rows = dataset.item_row_sets()
    masks = [dataset.class_mask(c) for c in range(dataset.n_classes)]
    item_gene = [item.gene_index for item in dataset.items]
    first_row = {
        item: (bits & -bits).bit_length() - 1
        for item, bits in enumerate(item_rows)
        if bits
    }
    tables: dict[int, dict[int, list[int]]] = {}
    for row in sorted(set(first_row.values())):
        for item in dataset.rows[row]:
            if first_row[item] == row:
                bits = item_rows[item]
                tables.setdefault(item_gene[item], {})[item] = [
                    popcount(bits & mask) for mask in masks
                ]
    return tables


def gene_entropy_scores(dataset: "DiscretizedDataset") -> dict[int, float]:
    """Information gain of each gene's item partition (higher = better).

    ``IG(gene) = H(class) - Σ_item p(item) · H(class | item)`` computed
    over the dataset's rows.  Genes not represented by any item score 0.
    """
    n_rows = dataset.n_rows
    base = _class_entropy(dataset.class_counts())
    scores: dict[int, float] = {}
    for gene, per_item in _gene_contingency(dataset).items():
        conditional = 0.0
        for counts in per_item.values():
            weight = sum(counts) / n_rows
            conditional += weight * _class_entropy(counts)
        scores[gene] = base - conditional
    return scores


def gene_chi_square_scores(dataset: "DiscretizedDataset") -> dict[int, float]:
    """Chi-square statistic of each gene's intervals vs. the class label.

    Higher means more class-correlated; used for the Figure 8 ranking.
    """
    class_counts = dataset.class_counts()
    n_rows = dataset.n_rows
    scores: dict[int, float] = {}
    for gene, per_item in _gene_contingency(dataset).items():
        statistic = 0.0
        for counts in per_item.values():
            item_total = sum(counts)
            for class_id, observed in enumerate(counts):
                expected = item_total * class_counts[class_id] / n_rows
                if expected > 0:
                    statistic += (observed - expected) ** 2 / expected
        scores[gene] = statistic
    return scores


def item_scores(
    dataset: "DiscretizedDataset", gene_scores: dict[int, float]
) -> dict[int, float]:
    """Lift a per-gene score onto items (each item inherits its gene's)."""
    return {
        item.item_id: gene_scores.get(item.gene_index, 0.0)
        for item in dataset.items
    }


def rank_genes(scores: dict[int, float]) -> dict[int, int]:
    """1-based ranks, best (highest score) first; ties broken by index."""
    ordered = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    return {gene: rank for rank, (gene, _score) in enumerate(ordered, start=1)}
