"""Tests for the classifiers' batched predict path.

The front end's coalescer around it is tested in ``test_service_aio.py``.
"""

import pytest

from repro.classifiers import CBAClassifier, RCBTClassifier
from repro.errors import NotFittedError


class TestPredictBatchEquivalence:
    """The bitset batch path must match per-row prediction exactly."""

    @pytest.mark.parametrize("factory", (
        lambda: RCBTClassifier(k=2, nl=2),
        lambda: RCBTClassifier(k=2, nl=2, use_voting=False),
        lambda: CBAClassifier(),
    ))
    def test_matches_predict_row(self, small_benchmark, factory):
        model = factory().fit(small_benchmark.train_items)
        rows = small_benchmark.test_items.rows
        expected = [model.predict_row(row) for row in rows]
        assert model.predict_batch(rows) == expected

    def test_empty_row_gets_default(self, small_benchmark):
        model = CBAClassifier().fit(small_benchmark.train_items)
        [(label, source)] = model.predict_batch([frozenset()])
        assert source == "default"
        assert label == model.default_class_

    def test_unfitted_batch_raises(self):
        with pytest.raises(NotFittedError):
            RCBTClassifier().predict_batch([frozenset()])
