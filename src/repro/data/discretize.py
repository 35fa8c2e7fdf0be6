"""Entropy-minimized (Fayyad–Irani MDL) discretization.

This is the preprocessing step of Section 6: each gene's continuous
expression values are partitioned by recursively choosing the cut point
that minimizes the class-label entropy, accepting a cut only when the MDL
criterion of Fayyad & Irani (1993) says the information gain pays for the
extra model cost.  Genes for which no cut is accepted carry no class
information and are dropped — the discretization doubles as the feature
selection the paper relies on ("the entropy discretization algorithm also
performs feature selection as part of its process").

The resulting intervals become items: gene g with accepted cuts
``c_1 < ... < c_m`` yields items ``g[-inf,c_1), g[c_1,c_2), ...,
g[c_m,inf)``.  A fitted :class:`EntropyDiscretizer` can be applied to new
(test) samples so train and test share one item catalog.

All genes are fitted together: one sort per gene block, one prefix
class-count array, then the recursion runs level by level over every
open segment of every gene at once (:func:`_fit_block`).  Each float is
computed by the same expression as in the one-segment formula, so the
cuts are bit-identical to the per-gene recursion that
:func:`repro.audit.oracle.reference_mdl_cut_points` keeps as the
reference.  :meth:`EntropyDiscretizer.transform` likewise itemizes all
samples and kept genes in one pass.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .dataset import DiscretizedDataset, GeneExpressionDataset, Item

__all__ = ["EntropyDiscretizer", "mdl_cut_points", "entropy"]


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    probabilities = counts[counts > 0] / total
    return float(-(probabilities * np.log2(probabilities)).sum())


# Genes fitted (and itemized) together in one pass.  Bounds the per-block
# temporaries (about samples x genes x classes numbers each) while
# keeping every numpy call large.
_GENE_BLOCK = 256


def _row_entropy(block: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Entropy of every row of a class-count matrix with row sums ``sums``."""
    probs = block / np.maximum(sums, 1)[:, None]
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0)
    terms = probs * logs
    if terms.shape[1] == 2:
        # One addition, which rounds the same in whatever order numpy
        # would sum the row, without its per-row reduction overhead.
        return -(terms[:, 0] + terms[:, 1])
    return -terms.sum(axis=1)


def _present_entropy(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`entropy` of every (non-empty) row and its present-class count.

    :func:`entropy` sums only the positive terms, and numpy groups a
    sum by its length, so rows with the same number of present classes
    are summed together over their left-packed terms: bit for bit the
    one-row result.
    """
    present = counts > 0
    n_present = present.sum(axis=1)
    probs = counts / counts.sum(axis=1, keepdims=True)
    terms = np.zeros_like(probs)
    terms[present] = probs[present] * np.log2(probs[present])
    packed = np.take_along_axis(
        terms, np.argsort(~present, axis=1, kind="stable"), axis=1
    )
    result = np.empty(len(counts))
    for width in range(1, counts.shape[1] + 1):
        rows = n_present == width
        result[rows] = -np.ascontiguousarray(packed[rows, :width]).sum(axis=1)
    return result, n_present


def _fit_cuts(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> list[list[float]]:
    """Sorted MDL cut points of every column of ``values`` (samples x genes).

    Missing values (NaN) are ignored per gene.  Genes are fitted in
    blocks of :data:`_GENE_BLOCK`; see :func:`_fit_block`.
    """
    n_samples, n_genes = values.shape
    # math.log2, not np.log2, so the MDL threshold matches the scalar
    # formula to the last bit.
    log2_n1 = np.array(
        [0.0, 0.0, *(math.log2(n - 1) for n in range(2, n_samples + 1))]
    )
    log2_3k = np.array(
        [0.0, *(math.log2(3**k - 2) for k in range(1, n_classes + 1))]
    )
    cuts: list[list[float]] = [[] for _ in range(n_genes)]
    for start in range(0, n_genes, _GENE_BLOCK):
        block = values[:, start:start + _GENE_BLOCK]
        genes, cut_values = _fit_block(
            block, labels, n_classes, log2_n1, log2_3k
        )
        for gene, cut in zip(genes.tolist(), cut_values.tolist()):
            cuts[start + gene].append(cut)
    return cuts


def _fit_block(
    block: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    log2_n1: np.ndarray,
    log2_3k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fayyad–Irani recursion for a block of genes, level by level.

    Every open segment of every gene is split at once: the weighted
    class entropy is evaluated at each value-change boundary, the first
    minimum is tested against the MDL criterion, and accepted cuts open
    two child segments for the next level.  Returns parallel arrays of
    (block-local gene, cut value), ordered by gene and then by value.
    """
    n_samples, n_genes = block.shape
    # Gene-major flat layout with one NaN slot after each gene, so
    # position g * width + p is sorted position p of gene g and a
    # segment [lo, hi) never spans two genes.
    width = n_samples + 1
    order = np.argsort(block, axis=0, kind="mergesort")  # NaNs sort last
    ordered = np.full((width, n_genes), np.nan)
    ordered[:n_samples] = np.take_along_axis(block, order, axis=0)
    ordered = ordered.T.ravel()
    # changes[f - 1]: the value changes between flat positions f-1 and f.
    changes = ordered[1:] != ordered[:-1]
    # prefix[f]: class counts of the gene's sorted positions before f.
    prefix = np.zeros((n_genes, width, n_classes), dtype=np.int64)
    one_hot = labels[order].T[:, :, None] == np.arange(n_classes)
    np.cumsum(one_hot, axis=1, out=prefix[:, 1:])
    prefix = prefix.reshape(n_genes * width, n_classes)

    n_present = n_samples - np.isnan(block).sum(axis=0)
    seg_lo = np.flatnonzero(n_present >= 2) * width
    seg_hi = seg_lo + n_present[seg_lo // width]
    found: list[np.ndarray] = []
    while seg_lo.size:
        # Every interior position of every segment, then the boundaries.
        inner = seg_hi - seg_lo - 1
        segment = np.repeat(np.arange(seg_lo.size), inner)
        shift = seg_lo + 1 - (np.cumsum(inner) - inner)
        position = np.arange(segment.size) + shift.take(segment)
        boundary = changes.take(position - 1)
        segment, position = segment[boundary], position[boundary]
        if not segment.size:
            break
        base = prefix.take(seg_lo, axis=0)
        seg_total = prefix.take(seg_hi, axis=0) - base
        left = prefix.take(position, axis=0) - base.take(segment, axis=0)
        right = seg_total.take(segment, axis=0) - left
        size = (seg_hi - seg_lo).take(segment)
        n_left = position - seg_lo.take(segment)
        left_sizes = n_left / size
        right_sizes = 1.0 - left_sizes
        weighted = (
            left_sizes * _row_entropy(left, n_left)
            + right_sizes * _row_entropy(right, size - n_left)
        )

        # First argmin per segment (segment ids are non-decreasing).
        starts = np.flatnonzero(np.r_[True, segment[1:] != segment[:-1]])
        minima = np.minimum.reduceat(weighted, starts)
        hits = np.flatnonzero(
            weighted == np.repeat(minima, np.diff(np.r_[starts, segment.size]))
        )
        best = hits[np.r_[True, segment[hits[1:]] != segment[hits[:-1]]]]

        # Fayyad–Irani MDL stopping criterion for each segment's best cut.
        best_segment = segment.take(best)
        parent_entropy, k0 = _present_entropy(
            seg_total.take(best_segment, axis=0)
        )
        left_entropy, k1 = _present_entropy(left.take(best, axis=0))
        right_entropy, k2 = _present_entropy(right.take(best, axis=0))
        gain = parent_entropy - weighted.take(best)
        delta = log2_3k[k0] - (
            k0 * parent_entropy - k1 * left_entropy - k2 * right_entropy
        )
        n = size.take(best)
        threshold = (log2_n1[n] + delta) / n
        accepted = best[gain > threshold]

        cut_at = position.take(accepted)
        found.append(cut_at)
        parent = segment.take(accepted)
        seg_lo = np.concatenate([seg_lo.take(parent), cut_at])
        seg_hi = np.concatenate([cut_at, seg_hi.take(parent)])
        wide = seg_hi - seg_lo >= 2
        seg_lo, seg_hi = seg_lo[wide], seg_hi[wide]
    # Ascending flat positions are ordered by gene, then by cut value.
    cut_at = np.sort(np.concatenate([np.zeros(0, dtype=np.intp), *found]))
    return cut_at // width, (ordered[cut_at - 1] + ordered[cut_at]) / 2.0


def mdl_cut_points(
    values: Sequence[float], labels: Sequence[int], n_classes: Optional[int] = None
) -> list[float]:
    """Return the sorted MDL-accepted cut points for one gene.

    Args:
        values: expression values of the gene across samples.
        labels: class label per sample.
        n_classes: number of classes; inferred when omitted.

    Returns:
        Sorted list of cut values (possibly empty).  A value ``v`` falls in
        the interval whose edges satisfy ``low <= v < high``.
    """
    value_array = np.asarray(values, dtype=float)
    label_array = np.asarray(labels, dtype=int)
    if n_classes is None:
        # Missing measurements (NaN) carry no class information.
        present_labels = label_array[~np.isnan(value_array)]
        n_classes = int(present_labels.max()) + 1 if present_labels.size else 0
    return _fit_cuts(value_array[:, None], label_array, n_classes)[0]


class EntropyDiscretizer:
    """Fits MDL cut points on training data and itemizes datasets.

    Typical use::

        disc = EntropyDiscretizer().fit(train)
        train_items = disc.transform(train)
        test_items = disc.transform(test)

    Attributes (after :meth:`fit`):
        cuts_: mapping gene index -> sorted cut list, only for kept genes.
        items_: the item catalog shared by all transformed datasets.
        selected_genes_: sorted gene indices that received at least one cut.
    """

    def __init__(self, max_cuts_per_gene: Optional[int] = None) -> None:
        self.max_cuts_per_gene = max_cuts_per_gene
        self.cuts_: dict[int, list[float]] = {}
        self.items_: list[Item] = []
        self.selected_genes_: list[int] = []
        self._class_names: list[str] = []
        self._fitted = False

    @classmethod
    def from_cuts(
        cls,
        cuts: dict[int, list[float]],
        gene_names: Sequence[str],
        class_names: Optional[Sequence[str]] = None,
    ) -> "EntropyDiscretizer":
        """Rebuild a fitted discretizer from saved cut points.

        Args:
            cuts: gene index -> sorted cut list (only kept genes).
            gene_names: full gene name list (indexable by gene index).
            class_names: class display names, if known.

        The result transforms new data exactly like the discretizer the
        cuts came from — the deployment path for a trained pipeline.
        """
        discretizer = cls()
        discretizer.cuts_ = {
            int(gene): sorted(float(c) for c in cut_list)
            for gene, cut_list in cuts.items()
            if cut_list
        }
        discretizer.selected_genes_ = sorted(discretizer.cuts_)
        discretizer._build_items_from_names(list(gene_names))
        discretizer._class_names = list(class_names or [])
        discretizer._fitted = True
        return discretizer

    def fit(self, dataset: GeneExpressionDataset) -> "EntropyDiscretizer":
        """Learn cut points for every gene of ``dataset``."""
        self.cuts_ = {}
        self._class_names = list(dataset.class_names)
        all_cuts = _fit_cuts(dataset.values, dataset.labels, dataset.n_classes)
        for gene, cuts in enumerate(all_cuts):
            if self.max_cuts_per_gene is not None:
                cuts = cuts[: self.max_cuts_per_gene]
            if cuts:
                self.cuts_[gene] = cuts
        self.selected_genes_ = sorted(self.cuts_)
        self._build_items(dataset)
        self._fitted = True
        return self

    def _build_items(self, dataset: GeneExpressionDataset) -> None:
        self._build_items_from_names(dataset.gene_names)

    def _build_items_from_names(self, gene_names: Sequence[str]) -> None:
        self.items_ = []
        first_item = []
        for gene in self.selected_genes_:
            first_item.append(len(self.items_))
            edges = [float("-inf"), *self.cuts_[gene], float("inf")]
            for low, high in zip(edges[:-1], edges[1:]):
                self.items_.append(
                    Item(len(self.items_), gene, gene_names[gene], low, high)
                )
        # Transform tables: each kept gene's first item id and its cuts
        # padded with NaN (which no value is >= of).  Rows gather the
        # catalog's own id ints, so they share them.
        self._first_item = np.array(first_item, dtype=np.intp)
        cut_lists = [self.cuts_[gene] for gene in self.selected_genes_]
        width = max(map(len, cut_lists), default=0)
        self._edges = np.full((len(cut_lists), width), np.nan)
        for column, cuts in enumerate(cut_lists):
            self._edges[column, : len(cuts)] = cuts
        self._item_ids = np.array(
            [item.item_id for item in self.items_], dtype=object
        )

    def transform(self, dataset: GeneExpressionDataset) -> DiscretizedDataset:
        """Itemize ``dataset`` using the fitted cut points."""
        if not self._fitted:
            raise RuntimeError("EntropyDiscretizer must be fitted before transform")
        rows: list[list[int]] = [[] for _ in range(dataset.n_samples)]
        genes = self.selected_genes_
        for start in range(0, len(genes), _GENE_BLOCK):
            block = slice(start, start + _GENE_BLOCK)
            values = dataset.values[:, genes[block]]
            # The number of cuts <= v is searchsorted(cuts, v, side="right"):
            # v < c1 -> 0, c1 <= v < c2 -> 1, ...
            positions = (values[:, :, None] >= self._edges[block]).sum(axis=2)
            ids = self._item_ids[self._first_item[block] + positions]
            parts = ids.tolist()
            missing = np.isnan(values)
            for sample in np.flatnonzero(missing.any(axis=1)).tolist():
                # A missing measurement contributes no item — rows end
                # up with varying lengths, as in real microarray data
                # ("each row consists of one or more items").
                parts[sample] = ids[sample, ~missing[sample]].tolist()
            for row, part in zip(rows, parts):
                row += part
        return DiscretizedDataset(
            rows,
            dataset.labels,
            self.items_,
            class_names=list(dataset.class_names) or self._class_names,
            name=dataset.name,
        )

    def fit_transform(self, dataset: GeneExpressionDataset) -> DiscretizedDataset:
        """Fit on ``dataset`` and itemize it."""
        return self.fit(dataset).transform(dataset)

    @property
    def n_selected_genes(self) -> int:
        """Number of genes that survived discretization."""
        return len(self.selected_genes_)
