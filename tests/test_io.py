"""Unit tests for matrix and cluster persistence."""

import json

import numpy as np
import pytest

from repro.core.cluster import DeltaCluster
from repro.core.matrix import DataMatrix
from repro.data.io import (
    load_clusters,
    load_matrix_csv,
    load_matrix_npz,
    load_ratings_triples,
    save_clusters,
    save_matrix_csv,
    save_matrix_npz,
    write_json_atomic,
)

NAN = float("nan")


@pytest.fixture
def labeled_matrix():
    return DataMatrix(
        [[1.5, NAN, 3.0], [4.0, 5.5, NAN]],
        row_labels=["r0", "r1"],
        col_labels=["a", "b", "c"],
    )


class TestNpzRoundTrip:
    def test_values_and_labels(self, tmp_path, labeled_matrix):
        path = tmp_path / "matrix.npz"
        save_matrix_npz(path, labeled_matrix)
        loaded = load_matrix_npz(path)
        assert loaded == labeled_matrix
        assert loaded.row_labels == ("r0", "r1")
        assert loaded.col_labels == ("a", "b", "c")

    def test_unlabeled(self, tmp_path):
        matrix = DataMatrix(np.eye(3))
        path = tmp_path / "plain.npz"
        save_matrix_npz(path, matrix)
        loaded = load_matrix_npz(path)
        assert loaded == matrix
        assert loaded.row_labels is None


class TestCsvRoundTrip:
    def test_full_round_trip(self, tmp_path, labeled_matrix):
        path = tmp_path / "matrix.csv"
        save_matrix_csv(path, labeled_matrix)
        loaded = load_matrix_csv(path, header=True, row_labels=True)
        assert loaded == labeled_matrix
        assert loaded.col_labels == ("a", "b", "c")
        assert loaded.row_labels == ("r0", "r1")

    def test_missing_becomes_empty_cell(self, tmp_path, labeled_matrix):
        path = tmp_path / "matrix.csv"
        save_matrix_csv(path, labeled_matrix)
        text = path.read_text()
        assert ",," in text or text.rstrip().endswith(",")

    def test_no_header_no_labels(self, tmp_path):
        matrix = DataMatrix([[1.0, 2.0], [3.0, NAN]])
        path = tmp_path / "bare.csv"
        save_matrix_csv(path, matrix, header=False)
        loaded = load_matrix_csv(path, header=False)
        assert loaded == matrix

    def test_na_tokens_parsed_as_missing(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("1.0,NA\nNaN,4.0\n")
        loaded = load_matrix_csv(path, header=False)
        assert loaded.n_specified == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data"):
            load_matrix_csv(path, header=True)

    @pytest.mark.parametrize(
        "text, header, line, reason",
        [
            ("1,2,3\n4,5\n", False, 2, "expected 3 cells, got 2"),
            ("a,b\n1,2\n\n3,4,5\n", True, 4, "expected 2 cells, got 3"),
            ("1,2\n3,abc\n", False, 2, "not a number: 'abc'"),
            ("a,b\n1,2\n3,4\n5,x1\n", True, 4, "not a number: 'x1'"),
        ],
    )
    def test_malformed_rows_name_file_and_line(
        self, tmp_path, text, header, line, reason
    ):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_matrix_csv(path, header=header)
        assert str(info.value) == f"{path}:{line}: {reason}"


class TestRatingsTriples:
    """The MovieLens u.data format: 'user item rating timestamp'."""

    def test_basic_parse(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\t881250949\n1\t2\t3\t881250949\n2\t1\t4\t0\n")
        matrix = load_ratings_triples(path)
        assert matrix.shape == (2, 2)
        assert matrix.values[0, 0] == 5.0
        assert matrix.values[0, 1] == 3.0
        assert matrix.values[1, 0] == 4.0
        assert np.isnan(matrix.values[1, 1])

    def test_zero_indexed(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("0 0 2.5\n1 2 4.0\n")
        matrix = load_ratings_triples(path, one_indexed=False)
        assert matrix.shape == (2, 3)
        assert matrix.values[0, 0] == 2.5

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("# header\n\n1 1 3\n")
        matrix = load_ratings_triples(path)
        assert matrix.shape == (1, 1)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="user item rating"):
            load_ratings_triples(path)

    def test_bad_indexing_detected(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("0 1 3\n")
        with pytest.raises(ValueError, match="indexed"):
            load_ratings_triples(path, one_indexed=True)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no ratings"):
            load_ratings_triples(path)

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "csvish.txt"
        path.write_text("1,1,5\n2,2,1\n")
        matrix = load_ratings_triples(path, delimiter=",")
        assert matrix.shape == (2, 2)


class TestClusterRoundTrip:
    def test_round_trip(self, tmp_path):
        clusters = [
            DeltaCluster((0, 2, 5), (1, 3)),
            DeltaCluster((1,), (0, 1, 2)),
        ]
        path = tmp_path / "clusters.txt"
        save_clusters(path, clusters)
        loaded = load_clusters(path)
        assert loaded == clusters

    def test_empty_list(self, tmp_path):
        path = tmp_path / "none.txt"
        save_clusters(path, [])
        assert load_clusters(path) == []

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("rows: 1 2\n")
        with pytest.raises(ValueError, match="pairs"):
            load_clusters(path)

    def test_wrong_prefix_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("rows: 1\nrows: 2\n")
        with pytest.raises(ValueError, match="malformed"):
            load_clusters(path)


class TestWriteJsonAtomic:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        obj = {"b": [1, 2], "a": {"nested": True}, "x": 1.5}
        write_json_atomic(path, obj)
        assert json.loads(path.read_text()) == obj

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_json_atomic(path, {"version": 1})
        write_json_atomic(path, {"version": 2})
        assert json.loads(path.read_text()) == {"version": 2}

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_json_atomic(path, {"ok": True})
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        obj = {"z": 1, "a": 2, "m": [3, 4]}
        write_json_atomic(a, obj)
        write_json_atomic(b, dict(reversed(list(obj.items()))))
        assert a.read_bytes() == b.read_bytes()

    def test_unserializable_object_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_json_atomic(path, {"version": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"version": 1}
