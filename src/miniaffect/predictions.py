"""Prediction files: per-record model outputs as TSV.

Regression layout: ``id`` plus an ``empathy`` and/or ``distress`` column.
Classification layout: ``id``, seven ``p_<label>`` probability columns in
canonical label order, then the argmax ``label``. Floats are written with
repr() so values round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EMOTION_TO_ID, EMOTIONS, format_table, number_columns, parse_label, read_table, rows_of
from .errors import FormatError, ValidationError

_PROB_COLUMNS = tuple(f"p_{label}" for label in EMOTIONS)


@dataclass
class RegressionPredictions:
    ids: list[str]
    empathy: np.ndarray | None = None
    distress: np.ndarray | None = None


@dataclass
class ClassificationPredictions:
    ids: list[str]
    scores: np.ndarray  # [n, 7]; probabilities from predict, any scores on read
    labels: list[str]


def format_predictions(preds) -> str:
    """TSV text for ``preds``; ValidationError, by line and column, for what ``read_predictions`` would not read back."""
    if isinstance(preds, RegressionPredictions):
        columns = [name for name in ("empathy", "distress") if getattr(preds, name) is not None]
        if not columns:
            raise ValidationError("regression predictions carry no score columns")
        values = np.column_stack([getattr(preds, name) for name in columns])
    elif isinstance(preds, ClassificationPredictions):
        columns, values = list(_PROB_COLUMNS), preds.scores
    else:
        raise TypeError(f"unsupported prediction object {type(preds).__name__}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape[1:] != (len(columns),):
        raise ValidationError(f"columns {columns} need a [rows, {len(columns)}] array, got shape {values.shape}")
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise ValidationError(f"line {row + 2}, column {columns[col]!r}: {float(values[row, col])!r} would not read back")
    # tolist() yields Python floats, whose repr() round-trips exactly
    rows = [[rec_id, *map(repr, row)] for rec_id, row in zip(preds.ids, values.tolist(), strict=True)]
    if isinstance(preds, ClassificationPredictions):
        columns.append("label")
        for line_no, (row, label) in enumerate(zip(rows, preds.labels, strict=True), start=2):
            if label not in EMOTION_TO_ID:
                raise ValidationError(f"line {line_no}, column 'label': {label!r} would not read back as an emotion")
            row.append(label)
    return format_table(["id", *columns], rows)


def write_predictions(preds, path) -> None:
    Path(path).write_text(format_predictions(preds), encoding="utf-8", newline="")


def read_predictions(path) -> RegressionPredictions | ClassificationPredictions:
    """Load a prediction TSV, inferring its kind from the header.

    Every value must be a finite number and every label a known emotion; a
    faulty row is a RowError naming the file and the line.
    """
    header, rows = read_table(path)
    if header[:1] != ["id"]:
        raise FormatError(f"{path}: prediction header must start with 'id', got {header}")
    ids = [cells[0] for cells in rows]

    if "label" in header:
        expected = ["id", *_PROB_COLUMNS, "label"]
        if header != expected:
            raise FormatError(f"{path}: classification header must be {expected}")
        with rows_of(path):
            scores = number_columns(header, rows, _PROB_COLUMNS)
            labels = [parse_label(cells[8], line_no) for line_no, cells in enumerate(rows, start=2)]
        return ClassificationPredictions(ids=ids, scores=scores, labels=labels)

    allowed = {"empathy", "distress"}
    value_cols = header[1:]
    if not value_cols or any(c not in allowed for c in value_cols):
        raise FormatError(f"{path}: regression columns must be a subset of {sorted(allowed)}, got {value_cols}")
    with rows_of(path):
        values = number_columns(header, rows, value_cols)
    series = dict(zip(value_cols, np.ascontiguousarray(values.T)))
    return RegressionPredictions(ids=ids, empathy=series.get("empathy"), distress=series.get("distress"))
