"""Tests for the Fayyad-Irani MDL discretization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.oracle import reference_discretize, reference_mdl_cut_points
from repro.data.dataset import GeneExpressionDataset
from repro.data.discretize import EntropyDiscretizer, entropy, mdl_cut_points
from repro.data.synthetic import PAPER_DATASETS, generate_dataset


class TestEntropy:
    def test_pure_is_zero(self):
        assert entropy(np.array([5, 0])) == 0.0

    def test_uniform_two_classes_is_one_bit(self):
        assert entropy(np.array([4, 4])) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert entropy(np.array([0, 0])) == 0.0

    def test_skewed(self):
        value = entropy(np.array([1, 3]))
        assert 0.0 < value < 1.0


class TestMdlCutPoints:
    def test_perfect_separation_accepted(self):
        values = [1, 2, 3, 4, 10, 11, 12, 13]
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        cuts = mdl_cut_points(values, labels)
        assert len(cuts) == 1
        assert 4 < cuts[0] < 10

    def test_cut_at_midpoint(self):
        values = [0.0, 0.0, 10.0, 10.0]
        labels = [0, 0, 1, 1]
        assert mdl_cut_points(values, labels) == [5.0]

    def test_random_labels_rejected(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        assert mdl_cut_points(values, labels) == []

    def test_constant_values_no_cut(self):
        assert mdl_cut_points([1.0] * 10, [0, 1] * 5) == []

    def test_single_value(self):
        assert mdl_cut_points([1.0], [0]) == []

    def test_three_segments_two_cuts(self):
        # class 0 low, class 1 middle, class 0 high -> two cuts (segments
        # must be large enough to pay the MDL model cost).
        values = list(range(60))
        labels = [0] * 20 + [1] * 20 + [0] * 20
        cuts = mdl_cut_points(values, labels)
        assert len(cuts) == 2
        assert cuts[0] < cuts[1]

    def test_cuts_sorted(self):
        values = list(range(40))
        labels = [0] * 10 + [1] * 10 + [0] * 10 + [1] * 10
        cuts = mdl_cut_points(values, labels)
        assert cuts == sorted(cuts)

    def test_weak_signal_rejected_by_mdl(self):
        # A slightly-shifted overlap should not pay the MDL cost.
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0, 1, 15), rng.normal(0.3, 1, 15)])
        labels = [0] * 15 + [1] * 15
        assert mdl_cut_points(values, labels) == []


def separable_dataset(n_informative=3, n_noise=5, n=30, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1] * (n // 2))
    informative = rng.normal(0, 0.5, size=(n, n_informative))
    informative += labels[:, None] * 4.0
    noise = rng.normal(size=(n, n_noise))
    values = np.hstack([informative, noise])
    return GeneExpressionDataset(values, labels)


class TestEntropyDiscretizer:
    def test_selects_informative_genes(self):
        disc = EntropyDiscretizer().fit(separable_dataset())
        assert disc.selected_genes_ == [0, 1, 2]

    def test_transform_items_match_cuts(self):
        ds = separable_dataset()
        disc = EntropyDiscretizer().fit(ds)
        items = disc.transform(ds)
        for row_items, label in zip(items.rows, items.labels):
            for item_id in row_items:
                item = items.items[item_id]
                assert item.gene_index in disc.cuts_

    def test_one_item_per_selected_gene_per_row(self):
        ds = separable_dataset()
        disc = EntropyDiscretizer().fit(ds)
        items = disc.transform(ds)
        for row in items.rows:
            genes = [items.items[i].gene_index for i in row]
            assert len(genes) == len(set(genes)) == disc.n_selected_genes

    def test_value_falls_in_item_interval(self):
        ds = separable_dataset()
        disc = EntropyDiscretizer().fit(ds)
        items = disc.transform(ds)
        for sample, row in enumerate(items.rows):
            for item_id in row:
                item = items.items[item_id]
                assert item.contains(ds.values[sample, item.gene_index])

    def test_transform_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            EntropyDiscretizer().transform(separable_dataset())

    def test_transform_new_data_shares_catalog(self):
        train = separable_dataset(seed=0)
        test = separable_dataset(seed=1)
        disc = EntropyDiscretizer().fit(train)
        train_items = disc.transform(train)
        test_items = disc.transform(test)
        assert train_items.items == test_items.items

    def test_max_cuts_per_gene(self):
        values = np.array([list(range(40))]).T.astype(float)
        labels = [0] * 10 + [1] * 10 + [0] * 10 + [1] * 10
        ds = GeneExpressionDataset(values, labels)
        disc = EntropyDiscretizer(max_cuts_per_gene=1).fit(ds)
        if disc.selected_genes_:
            assert all(len(c) <= 1 for c in disc.cuts_.values())

    def test_fit_transform_equals_fit_then_transform(self):
        ds = separable_dataset()
        a = EntropyDiscretizer().fit_transform(ds)
        disc = EntropyDiscretizer().fit(ds)
        b = disc.transform(ds)
        assert a.rows == b.rows

    def test_item_ids_dense_and_ordered(self):
        ds = separable_dataset()
        disc = EntropyDiscretizer().fit(ds)
        assert [item.item_id for item in disc.items_] == list(
            range(len(disc.items_))
        )

    def test_no_informative_genes_yields_empty_catalog(self):
        rng = np.random.default_rng(3)
        ds = GeneExpressionDataset(
            rng.normal(size=(20, 4)), rng.integers(0, 2, size=20)
        )
        disc = EntropyDiscretizer().fit(ds)
        items = disc.transform(ds)
        assert items.n_items == 0
        assert all(len(row) == 0 for row in items.rows)


class TestFromCuts:
    def test_rebuilt_discretizer_transforms_identically(self):
        ds = separable_dataset()
        fitted = EntropyDiscretizer().fit(ds)
        rebuilt = EntropyDiscretizer.from_cuts(
            fitted.cuts_, ds.gene_names, ds.class_names
        )
        assert rebuilt.transform(ds).rows == fitted.transform(ds).rows
        assert rebuilt.items_ == fitted.items_

    def test_empty_cut_lists_dropped(self):
        rebuilt = EntropyDiscretizer.from_cuts(
            {0: [1.0], 1: []}, ["g0", "g1"]
        )
        assert rebuilt.selected_genes_ == [0]

    def test_string_free_cut_coercion(self):
        rebuilt = EntropyDiscretizer.from_cuts({0: [2.0, 1.0]}, ["g0"])
        assert rebuilt.cuts_[0] == [1.0, 2.0]


class TestMissingValues:
    def test_mdl_ignores_nans(self):
        values = [1, 2, 3, 4, float("nan"), 10, 11, 12, 13]
        labels = [0, 0, 0, 0, 1, 1, 1, 1, 1]
        cuts = mdl_cut_points(values, labels)
        assert len(cuts) == 1

    def test_transform_skips_missing_measurements(self):
        ds = separable_dataset()
        disc = EntropyDiscretizer().fit(ds)
        holey = GeneExpressionDataset(
            ds.values.copy(), ds.labels, ds.gene_names, ds.class_names
        )
        holey.values[0, disc.selected_genes_[0]] = float("nan")
        items = disc.transform(holey)
        full = disc.transform(ds)
        assert len(items.rows[0]) == len(full.rows[0]) - 1
        assert items.rows[1] == full.rows[1]

    def test_generator_missing_rate(self):
        import dataclasses

        import numpy as np

        from repro.data.synthetic import ALL_AML, generate_dataset

        spec = dataclasses.replace(ALL_AML.scaled(0.05), missing_rate=0.1)
        train, test = generate_dataset(spec)
        train_missing = np.isnan(train.values).mean()
        assert 0.05 < train_missing < 0.15
        assert np.isnan(test.values).any()

    def test_pipeline_with_missing_values_end_to_end(self):
        import dataclasses

        from repro.classifiers import RCBTClassifier
        from repro.data.synthetic import ALL_AML, generate_dataset

        spec = dataclasses.replace(ALL_AML.scaled(0.05), missing_rate=0.05)
        train, test = generate_dataset(spec)
        disc = EntropyDiscretizer().fit(train)
        train_items = disc.transform(train)
        lengths = {len(row) for row in train_items.rows}
        assert len(lengths) > 1  # rows now vary in item count
        model = RCBTClassifier(k=3, nl=5).fit(train_items)
        assert model.score(disc.transform(test)) >= 0.7


@st.composite
def raw_matrices(draw):
    """Small raw matrices: ties, NaNs, 2-4 classes, down to 0 genes/1 sample."""
    n_samples = draw(st.integers(1, 30))
    n_genes = draw(st.integers(0, 5))
    n_classes = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, n_classes - 1),
                           min_size=n_samples, max_size=n_samples))
    levels = draw(st.integers(1, 8))
    cells = draw(st.lists(
        st.one_of(st.integers(0, levels - 1).map(float), st.just(float("nan"))),
        min_size=n_samples * n_genes, max_size=n_samples * n_genes,
    ))
    values = np.array(cells, dtype=float).reshape(n_samples, n_genes)
    # Shift by class so some genes carry signal worth a cut.
    values += np.array(labels)[:, None] * draw(st.sampled_from([0.0, 2.5, 9.0]))
    max_cuts = draw(st.sampled_from([None, 1, 2]))
    return values, labels, n_classes, max_cuts


def _hex(cuts):
    return {gene: [cut.hex() for cut in gene_cuts] for gene, gene_cuts in cuts.items()}


class TestBatchedAgainstReference:
    @given(raw_matrices())
    @settings(max_examples=150, deadline=None)
    def test_fit_and_transform_match_the_reference(self, raw):
        values, labels, n_classes, max_cuts = raw
        dataset = GeneExpressionDataset(
            values, labels, class_names=[f"c{i}" for i in range(n_classes)]
        )
        cuts, rows = reference_discretize(values, labels, n_classes, max_cuts)
        discretizer = EntropyDiscretizer(max_cuts).fit(dataset)
        assert _hex(discretizer.cuts_) == _hex(cuts)
        assert discretizer.transform(dataset).rows == [frozenset(r) for r in rows]
        for gene in range(values.shape[1]):
            assert _hex({0: mdl_cut_points(values[:, gene], labels)}) == _hex(
                {0: reference_mdl_cut_points(values[:, gene], labels)}
            )

    def test_zero_genes(self):
        dataset = GeneExpressionDataset(np.zeros((4, 0)), [0, 1, 0, 1])
        discretizer = EntropyDiscretizer().fit(dataset)
        assert discretizer.cuts_ == {}
        assert discretizer.transform(dataset).rows == [frozenset()] * 4

    def test_single_sample(self):
        dataset = GeneExpressionDataset(np.array([[1.0, 2.0]]), [1])
        discretizer = EntropyDiscretizer().fit(dataset)
        assert discretizer.cuts_ == {}
        assert discretizer.transform(dataset).rows == [frozenset()]


def _cohort_digest(name, scale):
    train, test = generate_dataset(PAPER_DATASETS[name].scaled(scale))
    discretizer = EntropyDiscretizer().fit(train)
    digest = hashlib.sha256()
    for gene, cuts in sorted(discretizer.cuts_.items()):
        digest.update(f"{gene}:{','.join(c.hex() for c in cuts)};".encode())
    for data in (train, test):
        for row in discretizer.transform(data).rows:
            digest.update((",".join(map(str, sorted(row))) + "|").encode())
    return digest.hexdigest()[:16]


class TestPinnedCohorts:
    """Cuts and rows of the paper-shaped cohorts, pinned bit for bit.

    The digests were taken with the one-gene-at-a-time recursion that
    the batched kernel replaced.
    """

    @pytest.mark.parametrize("name, scale, expected", [
        ("ALL", 0.5, "ddbff48bdd226261"),
        ("OC", 0.1, "0704e43b11496c44"),
        ("PC", 0.25, "ec24a046ed838f95"),
        ("LC", 0.1, "76926a7cb49e77ae"),
    ])
    def test_digest(self, name, scale, expected):
        assert _cohort_digest(name, scale) == expected


class TestOneRowTransform:
    def test_one_raw_row_matches_the_server_path(self):
        train = separable_dataset(seed=0)
        test = separable_dataset(seed=1)
        fitted = EntropyDiscretizer().fit(train)
        expected = fitted.transform(test).rows
        # The server rebuilds the discretizer from its saved cuts and
        # itemizes each raw sample with placeholder labels.
        served = EntropyDiscretizer.from_cuts(
            fitted.cuts_, train.gene_names, train.class_names
        )
        for sample in range(test.n_samples):
            one = GeneExpressionDataset(
                test.values[sample:sample + 1], [0],
                train.gene_names, train.class_names,
            )
            assert served.transform(one).rows == [expected[sample]]
