"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.cli import main
from repro.data.loaders import load_discretized, load_expression


@pytest.fixture
def dataset_files(tmp_path):
    """Generated train/test TSVs at tiny scale."""
    code = main(["generate", "ALL", "--scale", "0.02",
                 "--output", str(tmp_path)])
    assert code == 0
    return tmp_path / "ALL_train.tsv", tmp_path / "ALL_test.tsv"


class TestNoSubcommand:
    def test_no_subcommand_prints_usage_and_returns_2(self, capsys):
        code = main([])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_serve_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "--models-dir" in capsys.readouterr().out


class TestGenerate:
    def test_writes_both_splits(self, dataset_files):
        train_path, test_path = dataset_files
        assert train_path.exists() and test_path.exists()
        train = load_expression(train_path)
        assert train.n_samples == 38

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "XX", "--output", str(tmp_path)])


class TestDiscretize:
    def test_discretize_train_and_test(self, dataset_files, tmp_path, capsys):
        train_path, test_path = dataset_files
        items = tmp_path / "items.json"
        test_items = tmp_path / "test_items.json"
        code = main([
            "discretize", str(train_path), "--output", str(items),
            "--test", str(test_path), "--test-output", str(test_items),
        ])
        assert code == 0
        loaded = load_discretized(items)
        assert loaded.n_rows == 38
        assert load_discretized(test_items).items == loaded.items
        assert "genes kept" in capsys.readouterr().out


class TestMine:
    def test_mine_prints_groups(self, dataset_files, tmp_path, capsys):
        train_path, _ = dataset_files
        items = tmp_path / "items.json"
        main(["discretize", str(train_path), "--output", str(items)])
        capsys.readouterr()
        code = main(["mine", str(items), "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "covering rule groups" in out
        assert "sup=" in out

    def test_mine_explicit_minsup(self, dataset_files, tmp_path, capsys):
        train_path, _ = dataset_files
        items = tmp_path / "items.json"
        main(["discretize", str(train_path), "--output", str(items)])
        capsys.readouterr()
        code = main(["mine", str(items), "--minsup", "20"])
        assert code == 0
        assert "minsup=20" in capsys.readouterr().out


class TestMineFaultStrategy:
    """``mine --fault`` picks its path from the *resolved* strategy:
    ``--strategy auto`` plans from the row count, as without --fault."""

    @pytest.fixture
    def paths(self, tmp_path, monkeypatch):
        import repro.core.hybrid as hybrid
        import repro.parallel as parallel
        from repro.core.topk_miner import mine_topk
        from repro.data import random_discretized_dataset
        from repro.data.loaders import save_discretized

        items = tmp_path / "items.json"
        save_discretized(
            random_discretized_dataset(n_rows=20, n_items=12, seed=5), items
        )
        taken = []

        def recorder(name):
            def mine(dataset, consequent, minsup, k=1, engine="bitset",
                     **options):
                taken.append((name, options.get("fault")))
                return mine_topk(dataset, consequent, minsup, k=k,
                                 engine=engine)
            return mine

        monkeypatch.setattr(parallel, "mine_topk_parallel",
                            recorder("direct-parallel"))
        monkeypatch.setattr(hybrid, "mine_topk_hybrid", recorder("hybrid"))
        return items, taken

    def test_auto_on_a_small_dataset_takes_the_direct_parallel_path(
        self, paths, capsys
    ):
        items, taken = paths
        code = main(["mine", str(items), "--minsup", "2", "--jobs", "2",
                     "--strategy", "auto", "--fault", "kill@0.0"])
        assert code == 0
        assert [name for name, _fault in taken] == ["direct-parallel"]
        assert taken[0][1] is not None  # the fault plan rode along
        assert "covering rule groups" in capsys.readouterr().out

    def test_auto_follows_the_strategy_planner(self, paths, monkeypatch):
        import repro.core.hybrid as hybrid

        items, taken = paths
        monkeypatch.setattr(hybrid, "plan_auto_strategy",
                            lambda n_rows: "hybrid")
        code = main(["mine", str(items), "--minsup", "2", "--jobs", "2",
                     "--strategy", "auto", "--fault", "kill@0.0"])
        assert code == 0
        assert [name for name, _fault in taken] == ["hybrid"]


class TestClassify:
    @pytest.mark.parametrize("name", ("rcbt", "cba", "tree", "svm"))
    def test_classifiers_run(self, dataset_files, capsys, name):
        train_path, test_path = dataset_files
        code = main([
            "classify", name, "--train", str(train_path),
            "--test", str(test_path), "--k", "2", "--nl", "2",
        ])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out


class TestExperimentsForwarding:
    def test_forwards_to_driver(self, capsys):
        code = main([
            "experiments", "table1", "--scale", "0.02", "--datasets", "ALL",
        ])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out


class TestSaveAndPredict:
    def test_save_then_predict(self, dataset_files, tmp_path, capsys):
        train_path, test_path = dataset_files
        model_path = tmp_path / "model.json"
        code = main([
            "classify", "rcbt", "--train", str(train_path),
            "--test", str(test_path), "--k", "2", "--nl", "2",
            "--save", str(model_path),
        ])
        assert code == 0
        assert model_path.exists()
        assert model_path.with_suffix(".pipeline.json").exists()
        capsys.readouterr()
        code = main([
            "predict", "--model", str(model_path),
            "--pipeline", str(model_path.with_suffix(".pipeline.json")),
            "--data", str(test_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sample 0:" in out
        assert "accuracy=" in out

    def test_save_rejected_for_numeric(self, dataset_files, tmp_path):
        train_path, test_path = dataset_files
        code = main([
            "classify", "svm", "--train", str(train_path),
            "--test", str(test_path), "--save", str(tmp_path / "m.json"),
        ])
        assert code == 2
