"""Essay datasets: records, TSV ingestion/serialization, label histograms.

Two line-oriented TSV layouts are understood:

* task files    -- required column ``essay``; optional ``id``, ``empathy``,
                   ``distress``, ``emotion``; anything else is kept verbatim
                   in ``extras``.
* pool files    -- required columns ``text`` and ``emotion``; optional ``id``.

Inside the essay/text field a literal tab is written ``\\t``, a newline
``\\n``, a carriage return ``\\r`` and a backslash ``\\\\``; there is no
quoting, so every data row is exactly one physical line.
"""

from __future__ import annotations

import re
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


def _parse_score(raw: str, column: str, line_no: int) -> float | None:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise RowError(line_no, f"{column} value {raw!r} is not a number") from None
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


def _load_tsv(path, split: str, text_column: str) -> Dataset:
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file, expected a header line")
    header = lines[0].split("\t")
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: header repeats a column name (got {header})")
    if text_column not in header:
        raise FormatError(f"{path}: header has no {text_column!r} column (got {header})")
    if split == "pool" and "emotion" not in header:
        raise FormatError(f"{path}: pool file header has no 'emotion' column")
    col = {name: idx for idx, name in enumerate(header)}
    known = {"id", text_column, *LABEL_FIELDS}
    extra_cols = [name for name in header if name not in known]

    records = []
    seen_ids = set()
    for row_idx, line in enumerate(lines[1:]):
        line_no = row_idx + 2
        fields = line.split("\t")
        if len(fields) != len(header):
            raise RowError(line_no, f"expected {len(header)} columns, found {len(fields)}")

        text = unescape_field(fields[col[text_column]])
        if text.strip() == "":
            raise RowError(line_no, f"empty {text_column} text")

        rec_id = fields[col["id"]] if "id" in col else str(row_idx)
        if rec_id == "":
            raise RowError(line_no, "empty id")
        if rec_id in seen_ids:
            raise RowError(line_no, f"duplicate id {rec_id!r}")
        seen_ids.add(rec_id)

        if split == "pool":
            empathy = distress = None
        else:
            empathy = _parse_score(fields[col["empathy"]], "empathy", line_no) if "empathy" in col else None
            distress = _parse_score(fields[col["distress"]], "distress", line_no) if "distress" in col else None

        emotion = None
        if "emotion" in col:
            raw = fields[col["emotion"]].strip()
            if raw != "":
                try:
                    emotion = parse_emotion(raw)
                except ValidationError as exc:
                    raise RowError(line_no, str(exc)) from None
            elif split == "pool":
                raise RowError(line_no, "pool row without an emotion label")

        # empty extras cells mean "absent" so sparse columns round-trip cleanly
        extras = {name: fields[col[name]] for name in extra_cols if fields[col[name]] != ""}
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

    lines = ["\t".join(["id", text_column, *labels, *extra_keys])]
    for r in d.records:
        if "\t" in r.id or "\n" in r.id:
            raise ValidationError(f"record id {r.id!r} contains a tab or newline")
        if r.text.strip() == "":
            raise ValidationError(f"record {r.id!r} has an empty {text_column} text, which no loader accepts")
        row = [r.id, escape_field(r.text)]
        for name in labels:
            value = getattr(r, name)
            row.append("" if value is None else value if name == "emotion" else repr(float(value)))
        for key in extra_keys:
            value = r.extras.get(key, "")
            if "\t" in value or "\n" in value or "\r" in value:
                raise ValidationError(
                    f"extras value for {key!r} on record {r.id!r} contains a tab, newline or carriage return"
                )
            row.append(value)
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


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
