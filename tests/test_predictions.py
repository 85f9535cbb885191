import numpy as np
import pytest

from miniaffect.data import EMOTIONS
from miniaffect.errors import FormatError, RowError
from miniaffect.predictions import (
    ClassificationPredictions,
    RegressionPredictions,
    format_predictions,
    read_predictions,
    write_predictions,
)


def test_regression_round_trip(tmp_path):
    preds = RegressionPredictions(
        ids=["a", "b", "c"],
        empathy=np.array([1.23456789012345, 7.0, 3.3333333333333335]),
        distress=np.array([2.0, 6.999999999999999, 4.1]),
    )
    path = tmp_path / "p.tsv"
    write_predictions(preds, path)
    loaded = read_predictions(path)
    assert isinstance(loaded, RegressionPredictions)
    assert loaded.ids == preds.ids
    assert np.array_equal(loaded.empathy, preds.empathy)
    assert np.array_equal(loaded.distress, preds.distress)


def test_single_column_header_omits_absent_column(tmp_path):
    preds = RegressionPredictions(ids=["x"], distress=np.array([5.5]))
    text = format_predictions(preds)
    assert text.split("\n")[0] == "id\tdistress"
    path = tmp_path / "d.tsv"
    write_predictions(preds, path)
    loaded = read_predictions(path)
    assert loaded.empathy is None
    assert np.array_equal(loaded.distress, preds.distress)


def test_classification_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    scores = rng.dirichlet(np.ones(7), size=4)
    labels = [EMOTIONS[int(i)] for i in scores.argmax(axis=1)]
    preds = ClassificationPredictions(ids=[f"r{i}" for i in range(4)], scores=scores, labels=labels)
    path = tmp_path / "c.tsv"
    write_predictions(preds, path)
    crlf = tmp_path / "c_crlf.tsv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for p in (path, crlf):
        loaded = read_predictions(p)
        assert isinstance(loaded, ClassificationPredictions)
        assert loaded.ids == preds.ids
        assert np.array_equal(loaded.scores, scores)
        assert loaded.labels == labels


def test_classification_header_layout():
    preds = ClassificationPredictions(ids=["a"], scores=np.full((1, 7), 1 / 7), labels=["joy"])
    header = format_predictions(preds).split("\n")[0].split("\t")
    assert header == ["id", "p_anger", "p_disgust", "p_fear", "p_joy",
                      "p_neutral", "p_sadness", "p_surprise", "label"]


def test_read_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("id\tscore\na\t1.0\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_predictions(path)


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(FormatError):
        read_predictions(path)


@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_read_rejects_a_repeated_id_naming_line_and_id(tmp_path, kind):
    if kind == "regression":
        preds = RegressionPredictions(ids=["a", "b", "a"], empathy=np.array([1.0, 2.0, 3.0]))
    else:
        preds = ClassificationPredictions(ids=["a", "b", "a"], scores=np.full((3, 7), 1 / 7), labels=["joy"] * 3)
    path = tmp_path / "p.tsv"
    write_predictions(preds, path)
    with pytest.raises(RowError, match="^line 4: duplicate id 'a'$"):
        read_predictions(path)


def test_format_deterministic():
    preds = RegressionPredictions(ids=["a"], empathy=np.array([0.1 + 0.2]))
    assert format_predictions(preds) == format_predictions(preds)
