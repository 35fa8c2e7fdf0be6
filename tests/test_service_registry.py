"""Tests for the model registry, including the persistence round-trip."""

import pytest

from repro.classifiers import CBAClassifier, RCBTClassifier
from repro.classifiers.persistence import load_classifier, save_classifier
from repro.errors import NotFittedError
from repro.service.registry import ModelRegistry


@pytest.fixture(scope="module")
def fitted_models(small_benchmark):
    rcbt = RCBTClassifier(k=2, nl=2).fit(small_benchmark.train_items)
    cba = CBAClassifier().fit(small_benchmark.train_items)
    return {"rcbt": rcbt, "cba": cba}


class TestRegistryBasics:
    def test_register_and_get_latest(self, fitted_models):
        registry = ModelRegistry()
        record = registry.register("all", fitted_models["rcbt"])
        assert (record.name, record.version, record.kind) == ("all", 1, "rcbt")
        registry.register("all", fitted_models["cba"])
        assert registry.get("all").version == 2
        assert registry.get("all", version=1).kind == "rcbt"
        assert registry.names() == ["all"]
        assert len(registry) == 2

    def test_unknown_lookups_raise(self, fitted_models):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.get("nope")
        registry.register("all", fitted_models["cba"])
        with pytest.raises(KeyError):
            registry.get("all", version=7)

    def test_unfitted_model_rejected(self):
        with pytest.raises(NotFittedError):
            ModelRegistry().register("all", RCBTClassifier())

    def test_bad_names_rejected(self, fitted_models):
        registry = ModelRegistry()
        for name in ("", "../evil", "a b", ".hidden"):
            with pytest.raises(ValueError):
                registry.register(name, fitted_models["cba"])

    def test_describe_lists_every_version(self, fitted_models):
        registry = ModelRegistry()
        registry.register("all", fitted_models["rcbt"])
        registry.register("all", fitted_models["rcbt"])
        listing = registry.describe()
        assert [entry["version"] for entry in listing] == [1, 2]
        assert all(entry["name"] == "all" for entry in listing)


class TestPersistenceRoundTrip:
    """A classifier saved by ``classifiers/persistence.py`` loads into the
    registry and predicts identically to the in-memory original."""

    @pytest.mark.parametrize("kind", ("rcbt", "cba"))
    def test_saved_file_loads_into_registry_and_predicts_identically(
        self, tmp_path, small_benchmark, fitted_models, kind
    ):
        original = fitted_models[kind]
        path = tmp_path / f"{kind}.model.json"
        save_classifier(original, path)

        registry = ModelRegistry()
        record = registry.register(kind, load_classifier(path))
        assert record.kind == kind

        test_items = small_benchmark.test_items
        expected = original.predict_with_sources(test_items)
        restored = record.model.predict_with_sources(test_items)
        assert restored == expected

    def test_warm_start_from_disk(self, tmp_path, small_benchmark,
                                  fitted_models):
        root = tmp_path / "models"
        first = ModelRegistry(root)
        first.register("all", fitted_models["rcbt"],
                       pipeline={"class_names": ["ALL", "AML"]})
        first.register("all", fitted_models["cba"])

        second = ModelRegistry(root)
        assert len(second) == 2
        assert second.get("all").version == 2
        assert second.get("all", version=1).pipeline == {
            "class_names": ["ALL", "AML"]
        }
        test_items = small_benchmark.test_items
        assert (
            second.get("all", version=1).model.predict_with_sources(test_items)
            == fitted_models["rcbt"].predict_with_sources(test_items)
        )

    def test_warm_start_versions_continue(self, tmp_path, fitted_models):
        root = tmp_path / "models"
        ModelRegistry(root).register("all", fitted_models["cba"])
        second = ModelRegistry(root)
        record = second.register("all", fitted_models["cba"])
        assert record.version == 2
        # And a third registry sees both versions back from disk.
        assert len(ModelRegistry(root)) == 2


class TestPipelineDiscretizer:
    def test_raw_values_build_the_discretizer_once(
        self, monkeypatch, small_benchmark, fitted_models
    ):
        from repro.classifiers.persistence import classifier_to_payload
        from repro.data.discretize import EntropyDiscretizer
        from repro.service.server import RuleService

        builds = []
        from_cuts = EntropyDiscretizer.from_cuts.__func__

        def counting_from_cuts(cls, *args, **kwargs):
            builds.append(args)
            return from_cuts(cls, *args, **kwargs)

        monkeypatch.setattr(
            EntropyDiscretizer, "from_cuts", classmethod(counting_from_cuts)
        )
        discretizer = small_benchmark.discretizer
        train = small_benchmark.train
        service = RuleService(mining_workers=1)
        try:
            service.register_model({
                "name": "piped",
                "model": classifier_to_payload(fitted_models["rcbt"]),
                "pipeline": {
                    "cuts": {str(g): c for g, c in discretizer.cuts_.items()},
                    "gene_names": train.gene_names,
                    "class_names": train.class_names,
                },
            })
            test_items = small_benchmark.test_items
            values = small_benchmark.test.values.tolist()
            record, by_rows = service.resolve_classify({
                "model": "piped",
                "rows": [sorted(row) for row in test_items.rows],
            })
            expected = record.model.predict_batch(by_rows)
            for _ in range(2):
                record, by_values = service.resolve_classify(
                    {"model": "piped", "values": values}
                )
                assert by_values == test_items.rows
                assert record.model.predict_batch(by_values) == expected
            assert len(builds) <= 1
        finally:
            service.shutdown()
