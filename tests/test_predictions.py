import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniaffect.data import EMOTIONS
from miniaffect.errors import FormatError, RowError, ValidationError
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
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: line 4: duplicate id 'a'$"):
        read_predictions(path)


def _preds(kind, ids):
    if kind == "regression":
        return RegressionPredictions(ids=ids, empathy=np.arange(len(ids), dtype=np.float64))
    return ClassificationPredictions(ids=ids, scores=np.full((len(ids), 7), 1 / 7), labels=["joy"] * len(ids))


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("bad_id", ["a\tb", "a\nb"])
def test_write_rejects_an_id_that_would_not_read_back(tmp_path, kind, bad_id):
    with pytest.raises(ValidationError, match=f"^line 3, column 'id': {re.escape(repr(bad_id))} would not read back"):
        write_predictions(_preds(kind, ["ok", bad_id]), tmp_path / "p.tsv")


# Values a repr round trip must keep bit for bit: signed zeros, subnormals and the extremes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_VALUE = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100)
@given(
    st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"), min_size=1, max_size=6),
             max_size=5, unique=True),
    st.sampled_from(["empathy", "distress", "both", "classification"]),
    st.data(),
)
def test_write_read_round_trip_property(ids, kind, data):
    values = np.array(data.draw(st.lists(_VALUE, min_size=len(ids) * 7, max_size=len(ids) * 7)), dtype=np.float64)
    if kind == "classification":
        labels = data.draw(st.lists(st.sampled_from(EMOTIONS), min_size=len(ids), max_size=len(ids)))
        preds = ClassificationPredictions(ids=ids, scores=values.reshape(len(ids), 7), labels=labels)
    else:
        columns = ["empathy", "distress"] if kind == "both" else [kind]
        preds = RegressionPredictions(ids=ids, **{name: values[i :: 7] for i, name in enumerate(columns)})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.tsv"
        write_predictions(preds, path)
        loaded = read_predictions(path)
    assert type(loaded) is type(preds) and loaded.ids == ids
    fields = ("scores", "labels") if kind == "classification" else ("empathy", "distress")
    for name in fields:
        want, got = getattr(preds, name), getattr(loaded, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name


def test_format_deterministic():
    preds = RegressionPredictions(ids=["a"], empathy=np.array([0.1 + 0.2]))
    assert format_predictions(preds) == format_predictions(preds)


def _classification_text(bad_cell=None, label="joy"):
    """A three-row classification file; row 2 (line 3) gets ``bad_cell`` as p_fear and ``label``."""
    header = "\t".join(["id", *(f"p_{e}" for e in EMOTIONS), "label"])
    rows = []
    for i in range(3):
        probs = [repr(1 / 7)] * 7
        if i == 1 and bad_cell is not None:
            probs[2] = bad_cell
        rows.append("\t".join([f"r{i}", *probs, label if i == 1 else "joy"]))
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_read_rejects_a_non_finite_regression_value(tmp_path, raw):
    path = tmp_path / "p.tsv"
    path.write_text(f"id\tempathy\tdistress\na\t2.0\t3.0\nb\t4.0\t{raw}\nc\t{raw}\t1.0\n", encoding="utf-8")
    message = f"^{re.escape(str(path))}: line 3: distress value '{raw}' is not finite$"
    with pytest.raises(RowError, match=message) as err:
        read_predictions(path)
    assert err.value.line == 3 and err.value.path == path


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_read_rejects_a_non_finite_probability(tmp_path, raw):
    path = tmp_path / "p.tsv"
    path.write_text(_classification_text(bad_cell=raw), encoding="utf-8")
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: line 3: p_fear value '{raw}' is not finite$") as err:
        read_predictions(path)
    assert err.value.line == 3 and err.value.path == path


def test_read_rejects_a_non_numeric_probability_naming_line_and_column(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text(_classification_text(bad_cell="high"), encoding="utf-8")
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: line 3: p_fear value 'high' is not a number$"):
        read_predictions(path)


def test_read_rejects_an_unknown_label_naming_its_line(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text(_classification_text(label="happy"), encoding="utf-8")
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: line 3: unknown emotion label 'happy'") as err:
        read_predictions(path)
    assert err.value.line == 3 and err.value.path == path


def test_read_rejects_an_empty_id(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("id\tempathy\na\t2.0\n\t3.0\n", encoding="utf-8")
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: line 3: empty id$"):
        read_predictions(path)


def test_read_header_only_file_gives_empty_arrays(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text(_classification_text().split("\n")[0] + "\n", encoding="utf-8")
    loaded = read_predictions(path)
    assert loaded.ids == [] and loaded.labels == [] and loaded.scores.shape == (0, 7)
