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
    """``mine --fault`` needs workers to fault.  Only a hybrid mine's
    partitions run on workers; ``--strategy auto`` plans as without
    --fault, and a direct or column mine is refused."""

    @pytest.fixture
    def paths(self, tmp_path, monkeypatch):
        import repro.core.hybrid as hybrid
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

        monkeypatch.setattr(hybrid, "mine_topk_hybrid", recorder("hybrid"))
        return items, taken

    @pytest.mark.parametrize("strategy", ("auto", "direct"))
    def test_fault_on_a_direct_mine_exits_2(self, paths, capsys, strategy):
        """A direct mine (explicit, or ``auto`` on a small dataset) is
        one in-process enumeration with no workers to lose."""
        items, taken = paths
        code = main(["mine", str(items), "--minsup", "2", "--jobs", "2",
                     "--strategy", strategy, "--fault", "kill@0.0"])
        assert code == 2
        assert taken == []
        assert "--strategy hybrid" in capsys.readouterr().err

    def test_auto_follows_the_strategy_planner(self, paths, monkeypatch):
        import repro.core.hybrid as hybrid

        items, taken = paths
        monkeypatch.setattr(hybrid, "plan_auto_strategy",
                            lambda density: "hybrid")
        code = main(["mine", str(items), "--minsup", "2", "--jobs", "2",
                     "--strategy", "auto", "--fault", "kill@0.0"])
        assert code == 0
        assert [name for name, _fault in taken] == ["hybrid"]
        assert taken[0][1] is not None  # the fault plan rode along

    def test_fault_on_a_column_plan_exits_2(self, tmp_path, capsys):
        """``auto`` on a tall cohort plans the column walk, one walk in
        this process: refused, naming the strategy that has workers."""
        from repro.data.loaders import save_discretized
        from repro.data.synthetic import TALL_COHORTS, generate_tall_cohort

        items = tmp_path / "tall.json"
        save_discretized(
            generate_tall_cohort(TALL_COHORTS["tall-1k"].scaled(0.125)), items
        )
        code = main(["mine", str(items), "--jobs", "2", "--strategy", "auto",
                     "--fault", "kill@0.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--strategy hybrid" in err
        assert "plans column" in err

    def test_hybrid_mine_needs_workers(self, paths, capsys):
        items, taken = paths
        code = main(["mine", str(items), "--minsup", "2", "--jobs", "1",
                     "--strategy", "hybrid", "--fault", "kill@0.0"])
        assert code == 2
        assert taken == []

    def test_bad_fault_plan_exits_2(self, paths, capsys):
        items, taken = paths
        code = main(["mine", str(items), "--minsup", "2", "--jobs", "2",
                     "--strategy", "hybrid", "--fault", "delay@0.0:-1"])
        assert code == 2
        assert taken == []
        assert "finite and >= 0" in capsys.readouterr().err


class TestMineFaultRecovery:
    def test_hybrid_mine_survives_a_killed_worker(self, tmp_path, capsys):
        """The README recipe: a hybrid mine whose partition-0 worker is
        killed prints exactly what the fault-free mine prints."""
        from repro.data import random_discretized_dataset
        from repro.data.loaders import save_discretized

        items = tmp_path / "items.json"
        save_discretized(
            random_discretized_dataset(n_rows=20, n_items=12, seed=5), items
        )
        argv = ["mine", str(items), "--minsup", "2", "--k", "2",
                "--strategy", "hybrid", "--jobs", "2"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main([*argv, "--fault", "kill@0.0"]) == 0
        assert capsys.readouterr().out == clean
        assert "covering rule groups" in clean


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
