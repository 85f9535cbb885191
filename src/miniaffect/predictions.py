"""Prediction files: per-record model outputs as TSV.

Regression layout: ``id`` plus an ``empathy`` and/or ``distress`` column.
Classification layout: ``id``, seven ``p_<label>`` probability columns in
canonical label order, then the argmax ``label``. Floats are written with
repr() so values round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EMOTIONS, parse_emotion, read_lines
from .errors import FormatError, RowError

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
    if isinstance(preds, RegressionPredictions):
        columns = ["id"]
        series = []
        if preds.empathy is not None:
            columns.append("empathy")
            series.append(preds.empathy)
        if preds.distress is not None:
            columns.append("distress")
            series.append(preds.distress)
        if not series:
            raise ValueError("regression predictions carry no score columns")
        lines = ["\t".join(columns)]
        for i, rec_id in enumerate(preds.ids):
            lines.append("\t".join([rec_id, *(repr(float(s[i])) for s in series)]))
        return "\n".join(lines) + "\n"

    if isinstance(preds, ClassificationPredictions):
        lines = ["\t".join(["id", *_PROB_COLUMNS, "label"])]
        for i, rec_id in enumerate(preds.ids):
            row = [rec_id, *(repr(float(v)) for v in preds.scores[i]), preds.labels[i]]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"

    raise TypeError(f"unsupported prediction object {type(preds).__name__}")


def write_predictions(preds, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_predictions(preds))


def read_predictions(path) -> RegressionPredictions | ClassificationPredictions:
    """Load a prediction TSV, inferring its kind from the header."""
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty prediction file")
    header = lines[0].split("\t")
    if header[:1] != ["id"]:
        raise FormatError(f"{path}: prediction header must start with 'id', got {header}")

    if "label" in header:
        expected = ["id", *_PROB_COLUMNS, "label"]
        if header != expected:
            raise FormatError(f"{path}: classification header must be {expected}")
        ids: list[str] = []
        scores = []
        labels = []
        for line_idx, line in enumerate(lines[1:], start=2):
            fields = line.split("\t")
            if len(fields) != len(header):
                raise RowError(line_idx, f"expected {len(header)} columns, found {len(fields)}")
            ids.append(fields[0])
            try:
                scores.append([float(v) for v in fields[1:8]])
            except ValueError:
                raise RowError(line_idx, "non-numeric probability value") from None
            labels.append(parse_emotion(fields[8]))
        return ClassificationPredictions(ids=ids, scores=np.array(scores, dtype=np.float64), labels=labels)

    allowed = {"empathy", "distress"}
    value_cols = header[1:]
    if not value_cols or any(c not in allowed for c in value_cols) or len(set(value_cols)) != len(value_cols):
        raise FormatError(f"{path}: regression columns must be a subset of {sorted(allowed)}, got {value_cols}")
    ids = []
    values: dict[str, list[float]] = {c: [] for c in value_cols}
    for line_idx, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise RowError(line_idx, f"expected {len(header)} columns, found {len(fields)}")
        ids.append(fields[0])
        for col, raw in zip(value_cols, fields[1:]):
            try:
                values[col].append(float(raw))
            except ValueError:
                raise RowError(line_idx, f"non-numeric {col} value {raw!r}") from None
    return RegressionPredictions(
        ids=ids,
        empathy=np.array(values["empathy"], dtype=np.float64) if "empathy" in values else None,
        distress=np.array(values["distress"], dtype=np.float64) if "distress" in values else None,
    )
