"""Essay datasets and the TSV table format: records, ingestion/serialization, label histograms.

``read_table`` is the one reader of line-oriented TSV tables and
``format_table`` the one writer. Three layouts use them:

* task files       -- required column ``essay``; optional ``id``, ``empathy``,
                      ``distress``, ``emotion``; anything else is kept
                      verbatim in ``extras``.
* pool files       -- required columns ``text`` and ``emotion``; optional ``id``.
* prediction files -- see ``predictions``.

Inside the essay/text field a literal tab is written ``\\t``, a newline
``\\n``, a carriage return ``\\r`` and a backslash ``\\\\``; there is no
quoting, so every data row is exactly one physical line.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, RowError, ValidationError

# Canonical 7-class label set, alphabetical; integer code = position.
EMOTIONS = ("anger", "disgust", "fear", "joy", "neutral", "sadness", "surprise")
EMOTION_TO_ID = {name: i for i, name in enumerate(EMOTIONS)}

SPLITS = ("train", "dev", "test", "pool", "derived")

# Record fields that carry gold labels, in TSV column order.
LABEL_FIELDS = ("empathy", "distress", "emotion")

SCORE_MIN = 1.0
SCORE_MAX = 7.0


def parse_emotion(raw: str) -> str:
    """Map a label string (any casing) to its canonical lowercase form."""
    label = raw.strip().lower()
    if label not in EMOTION_TO_ID:
        raise ValidationError(f"unknown emotion label {raw!r} (expected one of {', '.join(EMOTIONS)})")
    return label


def emotion_id(label: str) -> int:
    return EMOTION_TO_ID[label]


@dataclass(frozen=True)
class EssayRecord:
    """One labeled essay; score and emotion fields are optional."""

    id: str
    text: str
    empathy: float | None = None
    distress: float | None = None
    emotion: str | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass
class Dataset:
    """Ordered collection of records with a split tag.

    Record order is preserved exactly as ingested; seeded sampling elsewhere
    relies on it. ``meta`` carries provenance markers (e.g. augmentation
    fallback flags) and never round-trips through TSV.
    """

    split: str
    records: list[EssayRecord]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValidationError(f"unknown split {self.split!r} (expected one of {', '.join(SPLITS)})")
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise ValidationError(f"duplicate record id {r.id!r} in dataset")
            seen.add(r.id)

    def __len__(self) -> int:
        return len(self.records)


def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


_UNESCAPES = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}


def unescape_field(text: str) -> str:
    """Inverse of escape_field; a backslash before any other character stays as is."""
    if "\\" not in text:
        return text
    return re.sub(r"\\([tnr\\])", lambda m: _UNESCAPES[m.group(1)], text)


def parse_number(raw: str, column: str, line_no: int) -> float:
    """A cell's finite float value; RowError naming the line and the column otherwise."""
    try:
        value = float(raw)
    except ValueError:
        raise RowError(line_no, f"{column} value {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise RowError(line_no, f"{column} value {raw!r} is not finite")
    return value


def number_columns(header: list[str], rows, columns) -> np.ndarray:
    """The named columns of ``read_table`` rows as a float64 [rows, columns] array.

    Every cell must hold a finite number. All cells are parsed with float() into
    one array whose finiteness is checked at once; only a faulty table is scanned
    again, cell by cell, to raise a RowError naming the first bad cell.
    """
    idx = [header.index(name) for name in columns]
    try:
        values = np.fromiter((float(cells[i]) for _, cells in rows for i in idx), np.float64, len(rows) * len(idx))
        valid = bool(np.isfinite(values).all())
    except ValueError:
        valid = False
    if not valid:
        for line_no, cells in rows:
            for name, i in zip(columns, idx):
                parse_number(cells[i], name, line_no)
    return values.reshape(len(rows), len(idx))


def parse_label(raw: str, line_no: int) -> str:
    """parse_emotion for a table cell: an unknown label is a RowError naming the line."""
    try:
        return parse_emotion(raw)
    except ValidationError as exc:
        raise RowError(line_no, str(exc)) from None


def _parse_score(raw: str, column: str, line_no: int) -> float | None:
    raw = raw.strip()
    if raw == "":
        return None
    value = parse_number(raw, column, line_no)
    if not (SCORE_MIN <= value <= SCORE_MAX):
        raise RowError(line_no, f"{column} value {raw} outside the allowed range [1,7]")
    return value


def read_lines(path) -> list[str]:
    """A text file's lines without their LF or CRLF endings; no trailing empty line."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [ln[:-1] if ln.endswith("\r") else ln for ln in lines]


@contextmanager
def rows_of(path):
    """Name ``path`` in a RowError raised inside the block."""
    try:
        yield
    except RowError as exc:
        raise RowError(exc.line, exc.message, path) from None


def read_table(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A TSV file's header and its data rows as (1-based line number, cells) pairs.

    FormatError for an empty file or a header that repeats a column name;
    RowError for a row whose cell count differs from the header's and, when
    the header has an ``id`` column, for an empty or repeated id.
    """
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file, expected a header line")
    header = lines[0].split("\t")
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: header repeats a column name (got {header})")
    id_col = header.index("id") if "id" in header else None
    rows = []
    seen_ids: set[str] = set()
    with rows_of(path):
        for line_no, line in enumerate(lines[1:], start=2):
            cells = line.split("\t")
            if len(cells) != len(header):
                raise RowError(line_no, f"expected {len(header)} columns, found {len(cells)}")
            if id_col is not None:
                rec_id = cells[id_col]
                if rec_id == "":
                    raise RowError(line_no, "empty id")
                if rec_id in seen_ids:
                    raise RowError(line_no, f"duplicate id {rec_id!r}")
                seen_ids.add(rec_id)
            rows.append((line_no, cells))
    return header, rows


def format_table(header, rows) -> str:
    """TSV text for a header and rows of already-escaped cells, one line each.

    ValidationError naming the line and column of a cell ``read_table`` would not read back.
    """
    lines = ["\t".join(header), *("\t".join(row) for row in rows)]
    text = "\n".join(lines) + "\n"
    # Only a faulty text is scanned again, cell by cell.
    if "\r\n" in text or text.count("\n") != len(lines) or text.count("\t") != len(lines) * (len(header) - 1):
        for line_no, row in enumerate([header, *rows], start=1):
            for col, (name, cell) in enumerate(zip(header, row)):
                if "\t" in cell or "\n" in cell or (col == len(row) - 1 and cell.endswith("\r")):
                    raise ValidationError(
                        f"line {line_no}, column {name!r}: {cell!r} would not read back"
                        " (a tab or a newline, or a carriage return ending the row)"
                    )
    return text


def _load_tsv(path, split: str, text_column: str) -> Dataset:
    header, rows = read_table(path)
    if text_column not in header:
        raise FormatError(f"{path}: header has no {text_column!r} column (got {header})")
    if split == "pool" and "emotion" not in header:
        raise FormatError(f"{path}: pool file header has no 'emotion' column")
    col = {name: idx for idx, name in enumerate(header)}
    text_idx, id_idx, emotion_idx = col[text_column], col.get("id"), col.get("emotion")
    # pool records never carry scores, whatever columns the file has
    empathy_idx, distress_idx = (None, None) if split == "pool" else (col.get("empathy"), col.get("distress"))
    known = {"id", text_column, *LABEL_FIELDS}
    extra_cols = [(name, idx) for idx, name in enumerate(header) if name not in known]

    records = []
    with rows_of(path):
        for row_idx, (line_no, cells) in enumerate(rows):
            text = unescape_field(cells[text_idx])
            if text.strip() == "":
                raise RowError(line_no, f"empty {text_column} text")
            empathy = None if empathy_idx is None else _parse_score(cells[empathy_idx], "empathy", line_no)
            distress = None if distress_idx is None else _parse_score(cells[distress_idx], "distress", line_no)
            emotion = None
            if emotion_idx is not None:
                raw = cells[emotion_idx].strip()
                if raw != "":
                    emotion = parse_label(raw, line_no)
                elif split == "pool":
                    raise RowError(line_no, "pool row without an emotion label")
            # empty extras cells mean "absent" so sparse columns round-trip cleanly
            extras = {name: cells[idx] for name, idx in extra_cols if cells[idx] != ""}
            rec_id = str(row_idx) if id_idx is None else cells[id_idx]
            records.append(EssayRecord(rec_id, text, empathy, distress, emotion, extras))

    return Dataset(split=split, records=records)


def load_task_tsv(path, split: str) -> Dataset:
    """Load a task TSV (labeled essays) into a Dataset tagged ``split``."""
    return _load_tsv(path, split, "essay")


def load_pool_tsv(path) -> Dataset:
    """Load an augmentation-pool TSV; records never carry scores."""
    return _load_tsv(path, "pool", "text")


def serialize_dataset(d: Dataset) -> str:
    """Render a Dataset back to TSV text.

    Loading the result reproduces every field value exactly. Column order is
    canonical (id, essay/text, empathy, distress, emotion, sorted extras), so
    two identical Datasets always serialize to identical bytes.
    """
    text_column = "text" if d.split == "pool" else "essay"
    labels = [name for name in LABEL_FIELDS if any(getattr(r, name) is not None for r in d.records)]
    extra_keys = sorted({k for r in d.records for k in r.extras})

    rows = []
    for r in d.records:
        if r.text.strip() == "":
            raise ValidationError(f"record {r.id!r} has an empty {text_column} text, which no loader accepts")
        row = [r.id, escape_field(r.text)]
        for name in labels:
            value = getattr(r, name)
            row.append("" if value is None else value if name == "emotion" else repr(float(value)))
        rows.append(row + [r.extras.get(key, "") for key in extra_keys])
    return format_table(["id", text_column, *labels, *extra_keys], rows)


def save_dataset(d: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_dataset(d))


def gold_values(records, fields, role: str) -> dict[str, np.ndarray]:
    """Gold values per label field: int64 class ids for emotion, float64 scores otherwise.

    Raises ValidationError naming the first record that lacks any of ``fields``.
    """
    for r in records:
        for name in fields:
            if getattr(r, name) is None:
                kind = "label" if name == "emotion" else "score"
                raise ValidationError(f"{role} record {r.id!r} has no {name} {kind}")
    return {
        name: np.array([EMOTION_TO_ID[r.emotion] for r in records], dtype=np.int64)
        if name == "emotion"
        else np.array([getattr(r, name) for r in records], dtype=np.float64)
        for name in fields
    }


def class_histogram(d: Dataset) -> dict[str, int]:
    """Count records per emotion label; all 7 labels appear as keys."""
    counts = np.bincount(gold_values(d.records, ("emotion",), d.split)["emotion"], minlength=len(EMOTIONS))
    return {name: int(n) for name, n in zip(EMOTIONS, counts)}
