import json

import numpy as np
import pytest

from oscluster import load_int_array, load_matrix, save_matrix


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 5))
    x[0, 0] = 1e-300
    x[1, 1] = 12345678901234567.0
    p = tmp_path / "m.csv"
    save_matrix(p, x)
    back = load_matrix(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_json_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 9))
    p = tmp_path / "m.json"
    save_matrix(p, x)
    back = load_matrix(p)
    assert np.array_equal(back, x)


def test_json_schema_row_major(tmp_path):
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    p = tmp_path / "m.json"
    save_matrix(p, x)
    doc = json.loads(p.read_text())
    assert doc["rows"] == 3
    assert doc["cols"] == 2
    assert doc["data"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_json_loads_from_schema_document(tmp_path):
    p = tmp_path / "hand.json"
    p.write_text('{"rows": 2, "cols": 3, "data": [0, 1, 2, 3, 4, 5]}')
    x = load_matrix(p)
    assert x.shape == (2, 3)
    assert np.array_equal(x, np.arange(6.0).reshape(2, 3))


def test_json_rejects_wrong_length(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"rows": 2, "cols": 3, "data": [1, 2, 3]}')
    with pytest.raises(ValueError):
        load_matrix(p)


@pytest.mark.parametrize(
    "rows, cols, data",
    [
        (2.5, 2, [1, 2, 3, 4, 5]),
        (2.0, 2, [1, 2, 3, 4]),
        ("2", 2, [1, 2, 3, 4]),
        (True, 4, [1, 2, 3, 4]),
        (4, False, []),
        (-2, -2, [1, 2, 3, 4]),
        (None, 2, [1, 2]),
    ],
)
def test_json_rejects_non_integer_shape(tmp_path, rows, cols, data):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"rows": rows, "cols": cols, "data": data}))
    with pytest.raises(ValueError, match="must be a non-negative int"):
        load_matrix(p)


@pytest.mark.parametrize(
    "data",
    [[True, 2.5, False], ["1", 2.5, 0], [1, None, 0], [[1, 2.5], 0], 1.0],
    ids=["bool", "string", "null", "list", "not-a-list"],
)
def test_json_rejects_entries_that_are_not_numbers(tmp_path, data):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"rows": 1, "cols": 3 if isinstance(data, list) else 1, "data": data}))
    with pytest.raises(ValueError, match=r"bad\.json: data must be a flat list of numbers"):
        load_matrix(p)


def test_unknown_suffix(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "m.npy", np.ones((2, 2)))
    with pytest.raises(ValueError):
        load_matrix(tmp_path / "m.txt")


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_matrix(tmp_path / "nope.csv")


def test_integer_labels_survive_round_trip(tmp_path):
    labels = np.array([[0, 1, 2, 1, 0]], dtype=float)
    p = tmp_path / "labels.csv"
    save_matrix(p, labels)
    back = load_matrix(p)
    assert np.array_equal(back, labels)
    assert np.array_equal(back.astype(int), [[0, 1, 2, 1, 0]])


def test_csv_rejects_ragged(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError):
        load_matrix(p)


def test_csv_rejects_non_numeric(tmp_path):
    p = tmp_path / "words.csv"
    p.write_text("1,foo\n2,3\n")
    with pytest.raises(ValueError):
        load_matrix(p)


@pytest.mark.parametrize("text", ["[true, false, 2]", "[0, 1, false]", "[1.0, 2]", '["1"]', "{}"])
def test_int_array_rejects_non_integers(tmp_path, text):
    p = tmp_path / "labels.json"
    p.write_text(text)
    with pytest.raises(ValueError, match="expected a JSON array of integers"):
        load_int_array(p)


def test_int_array_loads_integers(tmp_path):
    p = tmp_path / "labels.json"
    p.write_text("[0, 2, 1]")
    assert load_int_array(p).tolist() == [0, 2, 1]
