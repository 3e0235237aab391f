"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.data.io import load_clusters, load_matrix_npz, save_matrix_csv
from repro.data.synthetic import generate_embedded


@pytest.fixture
def workspace(tmp_path):
    """Generate a small workload on disk via the CLI itself."""
    matrix_path = tmp_path / "matrix.npz"
    truth_path = tmp_path / "truth.txt"
    code = main([
        "generate", "synthetic",
        "--rows", "150", "--cols", "30",
        "--clusters", "4", "--cluster-rows", "15", "--cluster-cols", "10",
        "--noise", "2", "--seed", "3",
        "--out", str(matrix_path),
        "--truth-out", str(truth_path),
    ])
    assert code == 0
    return tmp_path, matrix_path, truth_path


class TestGenerate:
    def test_creates_matrix_and_truth(self, workspace):
        __, matrix_path, truth_path = workspace
        matrix = load_matrix_npz(matrix_path)
        assert matrix.shape == (150, 30)
        truth = load_clusters(truth_path)
        assert len(truth) == 4

    def test_movielens_kind(self, tmp_path, capsys):
        out = tmp_path / "ratings.npz"
        code = main([
            "generate", "movielens",
            "--rows", "60", "--cols", "80", "--clusters", "2",
            "--missing", "0.15", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        assert "movielens" in capsys.readouterr().out

    def test_yeast_kind(self, tmp_path, capsys):
        out = tmp_path / "yeast.npz"
        code = main([
            "generate", "yeast",
            "--rows", "80", "--cols", "12", "--clusters", "2",
            "--cluster-rows", "10", "--cluster-cols", "5",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        matrix = load_matrix_npz(out)
        assert matrix.shape == (80, 12)


class TestMineAndEvaluate:
    def test_mine_writes_clusters(self, workspace, capsys):
        tmp_path, matrix_path, __ = workspace
        found_path = tmp_path / "found.txt"
        code = main([
            "mine", str(matrix_path),
            "--target", "5.0", "--k", "6", "--restarts", "1",
            "--reseed-rounds", "6", "--seed", "5",
            "--out", str(found_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta-clusters" in out
        found = load_clusters(found_path)
        assert found, "expected mined clusters on disk"

    def test_evaluate_with_truth(self, workspace, capsys):
        tmp_path, matrix_path, truth_path = workspace
        found_path = tmp_path / "found.txt"
        main([
            "mine", str(matrix_path),
            "--target", "5.0", "--k", "6", "--restarts", "1",
            "--reseed-rounds", "6", "--seed", "5",
            "--out", str(found_path),
        ])
        capsys.readouterr()
        code = main([
            "evaluate", str(matrix_path), str(found_path),
            "--truth", str(truth_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall" in out
        assert "precision" in out

    def test_mine_from_csv(self, tmp_path, capsys):
        dataset = generate_embedded(
            80, 20, 2, cluster_shape=(12, 8), noise=1.5, rng=7
        )
        csv_path = tmp_path / "matrix.csv"
        save_matrix_csv(csv_path, dataset.matrix, header=False)
        code = main([
            "mine", str(csv_path),
            "--target", "4.0", "--k", "3", "--restarts", "1",
            "--reseed-rounds", "4", "--seed", "1",
        ])
        assert code == 0

    def test_unsupported_format(self, tmp_path, capsys):
        bad = tmp_path / "matrix.xlsx"
        bad.write_text("nope")
        assert main(["mine", str(bad), "--target", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro mine: error: {bad}: unsupported")


class TestMineRejectsBadInput:
    @pytest.mark.parametrize("flag, value, message", [
        ("--p", "1.5", "in (0, 1]"),
        ("--workers", "0", "an integer >= 1"),
        ("--target", "-1", "a positive finite number"),
        ("--alpha", "2", "in [0, 1]"),
        ("--alpha", "nan", "in [0, 1]"),
        ("--min-rows", "0", "an integer >= 1"),
        ("--max-retries", "-1", "an integer >= 0"),
        ("--task-timeout", "0", "a positive finite number"),
        ("--reseed-rounds", "-1", "an integer >= 0"),
    ])
    def test_bad_flag_is_a_usage_error(
        self, workspace, capsys, flag, value, message
    ):
        __, matrix_path, __ = workspace
        argv = ["mine", str(matrix_path), "--target", "2.0", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro mine: error: argument " + flag in err
        assert message in err

    def test_overflowing_magnitude_exits_2(self, tmp_path, capsys):
        values = np.random.default_rng(0).normal(size=(40, 12)) * 1e300
        path = tmp_path / "huge.npz"
        np.savez(path, values=values)
        code = main(["mine", str(path), "--target", "1", "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro mine: error: ")
        assert "magnitude" in err


class TestBadInputFiles:
    """Every unreadable input file exits 2 with ``repro <cmd>: error:
    <path>[:line]: <reason>`` -- never a traceback."""

    @pytest.mark.parametrize("command", ["mine", "evaluate", "predict"])
    @pytest.mark.parametrize("name, content, reason", [
        ("missing.npz", None, "No such file or directory"),
        ("missing.csv", None, "No such file or directory"),
        ("matrix.xlsx", "nope", "unsupported matrix format"),
        ("ragged.csv", "1,2,3\n4,5\n", "2: expected 3 cells, got 2"),
    ])
    def test_bad_matrix_file_exits_2(
        self, workspace, capsys, command, name, content, reason
    ):
        tmp_path, __, truth_path = workspace
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        argv = {
            "mine": ["mine", str(path), "--target", "1.0"],
            "evaluate": ["evaluate", str(path), str(truth_path)],
            "predict": [
                "predict", str(path), str(truth_path),
                "--row", "0", "--col", "0",
            ],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: error: {path}")
        assert reason in err

    def test_missing_cluster_file_exits_2(self, workspace, capsys):
        tmp_path, matrix_path, __ = workspace
        missing = tmp_path / "missing.txt"
        assert main(["evaluate", str(matrix_path), str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro evaluate: error: {missing}: No such file")


class TestPredict:
    def test_predict_covered_cell(self, workspace, capsys):
        tmp_path, matrix_path, truth_path = workspace
        truth = load_clusters(truth_path)
        row = truth[0].rows[0]
        col = truth[0].cols[0]
        code = main([
            "predict", str(matrix_path), str(truth_path),
            "--row", str(row), "--col", str(col),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        assert "actual value" in out

    def test_predict_uncovered_cell(self, workspace, capsys):
        __, matrix_path, truth_path = workspace
        truth = load_clusters(truth_path)
        covered_rows = {r for c in truth for r in c.rows}
        uncovered = next(r for r in range(150) if r not in covered_rows)
        code = main([
            "predict", str(matrix_path), str(truth_path),
            "--row", str(uncovered), "--col", "0",
        ])
        assert code == 1
        assert "no cluster covers" in capsys.readouterr().out
