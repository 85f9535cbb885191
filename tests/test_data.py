import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miniaffect.data import (
    EMOTIONS,
    Dataset,
    EssayRecord,
    class_histogram,
    emotion_id,
    escape_field,
    format_table,
    gold_values,
    load_pool_tsv,
    load_task_tsv,
    number_columns,
    parse_emotion,
    read_table,
    save_dataset,
    serialize_dataset,
    unescape_field,
)
from miniaffect.errors import FormatError, RowError, ValidationError
from miniaffect.predictions import read_predictions
from miniaffect.text import load_vocab

from oracles import loop_unescape


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


def test_emotion_labels_canonical_order():
    assert EMOTIONS == ("anger", "disgust", "fear", "joy", "neutral", "sadness", "surprise")
    assert [emotion_id(e) for e in EMOTIONS] == list(range(7))


def test_parse_emotion_case_insensitive():
    assert parse_emotion("JOY") == "joy"
    assert parse_emotion(" Fear ") == "fear"
    with pytest.raises(ValidationError):
        parse_emotion("bored")


def test_load_task_two_rows(tmp_path):
    path = write(tmp_path, "t.tsv", "essay\tempathy\tdistress\nhello there\t3.5\t2.0\nanother essay\t1\t7\n")
    ds = load_task_tsv(path, "train")
    assert len(ds) == 2
    assert ds.records[0].text == "hello there"
    assert ds.records[0].empathy == 3.5
    assert ds.records[1].distress == 7.0
    assert ds.records[0].id == "0" and ds.records[1].id == "1"
    assert ds.records[0].emotion is None


def test_load_task_score_out_of_range(tmp_path):
    path = write(tmp_path, "t.tsv", "essay\tempathy\nbad row\t8.2\n")
    with pytest.raises(RowError, match=r"\[1,7\]") as err:
        load_task_tsv(path, "train")
    assert err.value.line == 2


def test_load_task_non_numeric_score(tmp_path):
    path = write(tmp_path, "t.tsv", "essay\tempathy\nbad row\thigh\n")
    with pytest.raises(RowError, match="not a number"):
        load_task_tsv(path, "train")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_load_task_non_finite_score_names_line_and_column(tmp_path, raw):
    path = write(tmp_path, "t.tsv", f"essay\tempathy\tdistress\nfine\t2\t3\nbad row\t4\t{raw}\n")
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: line 3: distress value '{raw}' is not finite$"):
        load_task_tsv(path, "train")


def test_read_table_returns_header_and_row_cells(tmp_path):
    path = write(tmp_path, "t.tsv", "id\tx\r\na\t1\r\nb\t\r\n")
    assert read_table(path) == (["id", "x"], [["a", "1"], ["b", ""]])


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("id\tx\tx\na\t1\t2\n", "repeats a column name"),
])
def test_read_table_rejects_a_bad_file(tmp_path, text, message):
    with pytest.raises(FormatError, match=message):
        read_table(write(tmp_path, "t.tsv", text))


@pytest.mark.parametrize("text, message", [
    ("id\tx\na\t1\nb\t2\t3\n", "line 3: expected 2 columns, found 3$"),
    ("id\tx\na\t1\nb\n", "line 3: expected 2 columns, found 1$"),
    ("x\tid\n1\ta\n2\t\n", "line 3: empty id$"),
    ("x\tid\n1\ta\n2\tb\n3\ta\n", "line 4: duplicate id 'a'$"),
])
def test_read_table_rejects_a_bad_row_naming_its_line(tmp_path, text, message):
    path = write(tmp_path, "t.tsv", text)
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: {message}") as err:
        read_table(path)
    assert err.value.path == path


def test_read_table_without_id_column_allows_repeated_cells(tmp_path):
    _, rows = read_table(write(tmp_path, "t.tsv", "x\n\n\n"))
    assert rows == [[""], [""]]


def test_number_columns_reads_named_columns_in_order():
    header = ["id", "a", "b"]
    rows = [["r0", "1.5", "-2"], ["r1", "1e3", " 7 "]]
    values = number_columns(header, rows, ["b", "a"])
    assert values.dtype == np.float64
    assert values.tolist() == [[-2.0, 1.5], [7.0, 1000.0]]
    assert number_columns(header, [], ["a", "b"]).shape == (0, 2)


@pytest.mark.parametrize("raw, message", [
    ("nan", "'nan' is not finite"),
    ("inf", "'inf' is not finite"),
    ("-inf", "'-inf' is not finite"),
    ("1e999", "'1e999' is not finite"),
    ("high", "'high' is not a number"),
    ("", "'' is not a number"),
])
def test_number_columns_names_the_first_bad_cell(raw, message):
    header = ["id", "a", "b"]
    rows = [["r0", "1", "2"], ["r1", "3", raw], ["r2", "nan", "x"]]
    with pytest.raises(RowError, match=f"^line 3: b value {message}$"):
        number_columns(header, rows, ["a", "b"])


_CELL = st.text(st.characters(blacklist_characters="\t\n"), max_size=4)


@settings(max_examples=100)
# a carriage return reads back anywhere but at the end of a row
@given(st.lists(st.tuples(_CELL, _CELL.filter(lambda c: not c.endswith("\r"))).map(list), max_size=5))
@example([["x\r", "\ry"], ["a\rb", "c"]])
def test_format_table_read_table_round_trip_property(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_text(format_table(["a", "b"], rows), encoding="utf-8", newline="")
        header, read_back = read_table(path)
    assert header == ["a", "b"]
    assert read_back == rows


@pytest.mark.parametrize("header, rows, message", [
    (["a", "b"], [["1", "2"], ["x\ty", "2"]], r"^line 3, column 'a': 'x\\ty' would not read back "),
    (["a", "b"], [["1", "2\n"]], r"^line 2, column 'b': '2\\n' would not read back "),
    (["a", "b"], [["1", "2"], ["3", "4\r"]], r"^line 3, column 'b': '4\\r' would not read back "),
    (["a", "b\r"], [], r"^line 1, column 'b\\r': 'b\\r' would not read back "),
    (["id", "essay", "emotion", "essay"], [], r"^header repeats column 'essay', which would not read back$"),
    (["a", "b"], [["1", "2"], ["3"]], r"^line 3: expected 2 columns, found 1, which would not read back$"),
    # the tab count alone matches: the cell's tab stands in for the short row's
    (["a", "b"], [["1", "x\ty"], ["3"]], r"^line 2, column 'b': 'x\\ty' would not read back "),
], ids=["tab", "newline", "row-ending-cr", "header-cr", "repeated-column", "short-row", "short-row-and-tab"])
def test_format_table_rejects_a_cell_that_would_not_read_back(header, rows, message):
    with pytest.raises(ValidationError, match=message):
        format_table(header, rows)


def test_format_table_rejects_an_empty_or_repeated_id_in_any_column():
    with pytest.raises(ValidationError, match=r"^line 3: duplicate id 'a', which would not read back$"):
        format_table(["text", "id"], [["x", "a"], ["y", "a"]])
    with pytest.raises(ValidationError, match=r"^line 2: empty id, which would not read back$"):
        format_table(["id"], [[""]])
    assert format_table(["text", "ids"], [["x", ""], ["y", ""]]) == "text\tids\nx\t\ny\t\n"


def test_load_task_missing_essay_column(tmp_path):
    path = write(tmp_path, "t.tsv", "text\tempathy\nhello\t3\n")
    with pytest.raises(FormatError, match="essay"):
        load_task_tsv(path, "train")


def test_load_task_unknown_emotion(tmp_path):
    path = write(tmp_path, "t.tsv", "essay\temotion\nhello\tmelancholy\n")
    with pytest.raises(RowError, match="melancholy"):
        load_task_tsv(path, "train")


def test_load_task_unknown_columns_to_extras(tmp_path):
    path = write(tmp_path, "t.tsv", "essay\tage\tincome\nhello\t33\t40000\n")
    ds = load_task_tsv(path, "train")
    assert ds.records[0].extras == {"age": "33", "income": "40000"}


def test_a_byte_order_mark_is_no_part_of_any_header(tmp_path):
    # Some editors start a UTF-8 file with U+FEFF; each table reads as it would without it.
    def both(name, text, load):
        return load(write(tmp_path, name, text)), load(write(tmp_path, "bom-" + name, "\ufeff" + text))

    plain, marked = both("t.tsv", "id\tessay\tempathy\na7\thello there\t3.5\nb9\tanother\t1\n",
                         lambda path: load_task_tsv(path, "train"))
    assert [r.id for r in marked.records] == ["a7", "b9"]
    assert all(r.extras == {} for r in marked.records)
    assert marked.records == plain.records
    plain, marked = both("p.tsv", "id\tempathy\na7\t3.25\nb9\t1.5\n", read_predictions)
    assert marked.ids == plain.ids == ["a7", "b9"] and np.array_equal(marked.empathy, plain.empathy)
    plain, marked = both("vocab.tsv", "token\nhello\nthere\n", load_vocab)
    assert marked.id_to_token == plain.id_to_token


def test_load_task_explicit_ids_and_duplicates(tmp_path):
    path = write(tmp_path, "t.tsv", "id\tessay\na\thello\nb\tworld\n")
    ds = load_task_tsv(path, "train")
    assert [r.id for r in ds.records] == ["a", "b"]
    dup = write(tmp_path, "dup.tsv", "id\tessay\na\thello\na\tworld\n")
    with pytest.raises(RowError, match="duplicate"):
        load_task_tsv(dup, "train")


def test_load_task_empty_text_rejected(tmp_path):
    path = write(tmp_path, "t.tsv", "essay\tempathy\n   \t3\n")
    with pytest.raises(RowError, match="empty"):
        load_task_tsv(path, "train")


def test_load_pool_basic(tmp_path):
    lines = ["text\temotion"] + [f"some pool text {i}\tjoy" for i in range(5)]
    path = write(tmp_path, "p.tsv", "\n".join(lines) + "\n")
    ds = load_pool_tsv(path)
    assert ds.split == "pool"
    assert len(ds) == 5
    assert all(r.empathy is None and r.distress is None for r in ds.records)


def test_load_pool_case_insensitive_label(tmp_path):
    path = write(tmp_path, "p.tsv", "text\temotion\nhappy words\tJOY\n")
    assert load_pool_tsv(path).records[0].emotion == "joy"


def test_load_pool_header_only(tmp_path):
    path = write(tmp_path, "p.tsv", "text\temotion\n")
    assert len(load_pool_tsv(path)) == 0


def test_load_pool_requires_emotion_value(tmp_path):
    path = write(tmp_path, "p.tsv", "text\temotion\nhello\t\n")
    with pytest.raises(RowError):
        load_pool_tsv(path)


def test_pool_scores_ignored_even_if_present(tmp_path):
    path = write(tmp_path, "p.tsv", "text\temotion\tempathy\nhello\tjoy\t9999\n")
    ds = load_pool_tsv(path)
    assert ds.records[0].empathy is None
    assert ds.records[0].extras == {}


def test_the_pool_split_alone_picks_the_text_column(tmp_path):
    path = write(tmp_path, "p.tsv", "id\ttext\temotion\na\tsome pool text\tjoy\nb\tmore pool text\tFear\n")
    pool = load_task_tsv(path, "pool")
    assert pool == load_pool_tsv(path)
    save_dataset(pool, tmp_path / "saved.tsv")
    assert load_task_tsv(tmp_path / "saved.tsv", "pool") == pool


def test_escape_round_trip():
    tricky = "line one\nline\ttwo \\ backslash \\t literal"
    assert unescape_field(escape_field(tricky)) == tricky


def test_unescape_leaves_unknown_sequences():
    assert unescape_field(r"a\qb") == r"a\qb"


# Backslashes, the letters that follow one in an escape, the characters that
# get escaped, and non-ASCII.
_ESCAPE_TEXT = st.text(st.sampled_from(["\\", "t", "n", "r", "q", "\t", "\n", "\r", "é", "字"]), max_size=24)


@settings(max_examples=400)
@given(_ESCAPE_TEXT)
def test_unescape_matches_character_loop_and_inverts_escape(text):
    assert unescape_field(text) == loop_unescape(text)
    assert unescape_field(escape_field(text)) == text


def test_unescape_carriage_return():
    assert escape_field("a\r") == "a\\r"
    assert unescape_field("a\\r") == "a\r"
    assert unescape_field("a\\\\r") == "a\\r"


_FIELD_CHARS = st.characters(blacklist_categories=("Cs",)) | st.sampled_from(["\\", "\t", "\n", "\r", "t", "n"])
_record = st.builds(
    EssayRecord,
    id=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"), min_size=1, max_size=6),
    # an essay that is all whitespace is rejected on save and on load
    text=st.text(_FIELD_CHARS, min_size=1, max_size=24).filter(lambda t: t.strip() != ""),
    empathy=st.none() | st.floats(1.0, 7.0),
    distress=st.none() | st.floats(1.0, 7.0),
    emotion=st.none() | st.sampled_from(EMOTIONS),
    extras=st.dictionaries(
        st.sampled_from(["age", "note"]),
        # an empty extras cell reads back as absent
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1, max_size=6),
    ),
)


@settings(max_examples=150)
@given(st.lists(_record, min_size=1, max_size=5, unique_by=lambda r: r.id), st.sampled_from(["train", "test"]))
@example([EssayRecord("a", "ends in a carriage return\r")], "test")  # the essay is the row's last cell
def test_serialize_load_round_trip_property(records, split):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.tsv"
        save_dataset(Dataset(split, records), path)
        loaded = load_task_tsv(path, split)
    assert loaded.records == records


# Edits that make a valid record one the loaders would refuse or read back changed; "scored" does so only in a pool.
_RECORD_FAULTS = {
    "emotion_bogus": lambda r: replace(r, emotion="bogus"),
    "emotion_capitalised": lambda r: replace(r, emotion="Joy"),
    "empathy_below_range": lambda r: replace(r, empathy=0.5),
    "empathy_nan": lambda r: replace(r, empathy=float("nan")),
    "empty_extra": lambda r: replace(r, extras={**r.extras, "note": ""}),
    "extra_named_as_a_label": lambda r: replace(r, extras={**r.extras, "distress": "3.0"}),
    "scored": lambda r: replace(r, empathy=3.0),
}


@settings(max_examples=100)
@given(
    st.lists(_record, max_size=4, unique_by=lambda r: r.id),
    st.sampled_from(["train", "pool"]),
    st.lists(st.tuples(st.sampled_from(list(_RECORD_FAULTS)), st.integers(0, 2**16)), max_size=2),
)
def test_save_dataset_refuses_or_writes_what_loads_back_equal(records, split, faults):
    """save_dataset either raises ValidationError and leaves no file, or writes a file that
    load_task_tsv reads back equal under the same split; only a faulty record is refused."""
    if split == "pool":  # a valid pool record has an emotion and no scores
        records = [replace(r, empathy=None, distress=None, emotion=r.emotion or "fear") for r in records]
    for kind, pick in faults:
        if records:
            records[pick % len(records)] = _RECORD_FAULTS[kind](records[pick % len(records)])
    faulty = bool(records) and any(kind != "scored" or split == "pool" for kind, _ in faults)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.tsv"
        try:
            save_dataset(Dataset(split, records), path)
        except ValidationError:
            assert not path.exists()
            assert faulty
            return
        loaded = load_task_tsv(path, split)
    assert loaded.records == records


def test_serialize_rejects_what_the_loader_would_not_read_back():
    with pytest.raises(ValidationError, match=r"^line 2, column 'id': 'a\\tb' would not read back"):
        serialize_dataset(Dataset("train", [EssayRecord("a\tb", "text")]))
    with pytest.raises(ValidationError, match="carriage return"):
        serialize_dataset(Dataset("train", [EssayRecord("a", "text", extras={"note": "x\r"})]))
    with pytest.raises(ValidationError, match="empty essay text"):
        serialize_dataset(Dataset("train", [EssayRecord("a", " \t\n")]))
    with pytest.raises(ValidationError, match=r"^line 2: empathy value 0\.5 outside the allowed range \[1,7\]$"):
        serialize_dataset(Dataset("train", [EssayRecord("a", "text", empathy=0.5)]))
    with pytest.raises(ValidationError, match="^record 'a': emotion 'Joy' would read back as 'joy'$"):
        serialize_dataset(Dataset("train", [EssayRecord("a", "text", emotion="Joy")]))
    with pytest.raises(ValidationError, match="^record 'a': empathy 3.0 would read back as None$"):
        serialize_dataset(Dataset("pool", [EssayRecord("a", "text", empathy=3.0, emotion="joy")]))
    with pytest.raises(ValidationError, match="^record 'a': extras {'note': ''} would read back as {}$"):
        serialize_dataset(Dataset("train", [EssayRecord("a", "text", extras={"note": ""})]))
    # A pool file has its emotion column even with no rows, which the pool loader requires.
    assert serialize_dataset(Dataset("pool", [])) == "id\ttext\temotion\n"


def test_serialize_load_round_trip(tmp_path):
    records = [
        EssayRecord("a", "text with\ttab and\nnewline and \\ slash", 2.5, 6.0, "fear", {"age": "30"}),
        EssayRecord("b", "plain text", 1.0, 7.0, "joy", {}),
        EssayRecord("c", "no scores here", None, None, None, {"note": "x"}),
    ]
    ds = Dataset("train", records)
    path = write(tmp_path, "rt.tsv", serialize_dataset(ds))
    loaded = load_task_tsv(path, "train")
    assert loaded.records == records


def test_serialize_is_deterministic():
    ds = Dataset("train", [EssayRecord("a", "hello", 3.0, None, "joy")])
    assert serialize_dataset(ds) == serialize_dataset(ds)


def test_load_order_stable(tmp_path):
    lines = ["essay\temotion"] + [f"essay number {i}\t{EMOTIONS[i % 7]}" for i in range(25)]
    path = write(tmp_path, "o.tsv", "\n".join(lines) + "\n")
    first = load_task_tsv(path, "train")
    second = load_task_tsv(path, "train")
    assert first.records == second.records


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValidationError):
        Dataset("train", [EssayRecord("a", "x"), EssayRecord("a", "y")])


def test_dataset_rejects_bad_split():
    with pytest.raises(ValidationError):
        Dataset("validation", [])


def test_class_histogram_counts():
    ds = Dataset("train", [EssayRecord(str(i), "t", emotion="joy") for i in range(3)]
                 + [EssayRecord("f", "t", emotion="fear")])
    hist = class_histogram(ds)
    assert hist["joy"] == 3 and hist["fear"] == 1
    assert sum(hist.values()) == 4
    assert set(hist) == set(EMOTIONS)


def test_class_histogram_empty():
    assert all(v == 0 for v in class_histogram(Dataset("train", [])).values())


def test_class_histogram_missing_label_names_record():
    ds = Dataset("train", [EssayRecord("r7", "t", emotion=None)])
    with pytest.raises(ValidationError, match="r7"):
        class_histogram(ds)


def test_gold_values_reads_class_ids_and_scores():
    records = [EssayRecord("a", "t", 2.5, 3.0, "joy"), EssayRecord("b", "t", 1.0, 7.0, "anger")]
    gold = gold_values(records, ("emotion", "empathy"), "dev")
    assert list(gold) == ["emotion", "empathy"]
    assert gold["emotion"].dtype == np.int64 and gold["emotion"].tolist() == [3, 0]
    assert gold["empathy"].dtype == np.float64 and gold["empathy"].tolist() == [2.5, 1.0]


@pytest.mark.parametrize("field, kind", [("emotion", "label"), ("distress", "score")])
def test_gold_values_names_the_first_record_without_a_value(field, kind):
    records = [EssayRecord("a", "t", 2.0, 2.0, "joy"), EssayRecord("b", "t", 2.0, None, None)]
    with pytest.raises(ValidationError, match=f"^train record 'b' has no {field} {kind}$"):
        gold_values(records, ("empathy", field), "train")


def test_class_histogram_total_random():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 7, size=100)
    ds = Dataset("train", [EssayRecord(str(i), "t", emotion=EMOTIONS[l]) for i, l in enumerate(labels)])
    hist = class_histogram(ds)
    # brute-force recount
    for c, name in enumerate(EMOTIONS):
        assert hist[name] == sum(1 for l in labels if l == c)
    assert sum(hist.values()) == 100
