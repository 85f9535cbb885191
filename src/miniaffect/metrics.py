"""Evaluation metrics and report assembly: Pearson r, accuracy, macro F1,
confusion matrices, JSON/CSV emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .data import EMOTIONS, Dataset, class_histogram, emotion_id, gold_values
from .errors import ValidationError
from .predictions import ClassificationPredictions, RegressionPredictions


def pearson(x, y) -> float:
    """Sample Pearson correlation, n-denominator on both covariance and sigmas.

    Raises on vectors shorter than 2 and on constant vectors: a degenerate
    variance usually means a collapsed model and should never read as r = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValidationError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("pearson needs two 1-d vectors of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValidationError("pearson undefined: input vector is constant")
    return float((dx * dy).sum() / (sx * sy))


def accuracy(preds, golds) -> float:
    preds = np.asarray(preds)
    golds = np.asarray(golds)
    if preds.shape != golds.shape or preds.size == 0:
        raise ValidationError(f"bad label vectors: {preds.shape} vs {golds.shape}")
    return float((preds == golds).mean())


def _check_labels(preds: np.ndarray, golds: np.ndarray, k: int) -> None:
    if preds.shape != golds.shape or preds.size == 0:
        raise ValidationError(f"bad label vectors: {preds.shape} vs {golds.shape}")
    for name, arr in (("pred", preds), ("gold", golds)):
        if arr.min() < 0 or arr.max() >= k:
            raise ValidationError(f"{name} label outside 0..{k - 1}")


def macro_f1(preds, golds, k: int = 7) -> tuple[float, list[float]]:
    """Unweighted mean of per-class F1 over all k classes.

    Per class: precision = TP/(TP+FP), recall = TP/(TP+FN), F1 = 2PR/(P+R);
    every zero-denominator quantity is defined as 0, and classes absent from
    both preds and golds contribute an F1 of 0.
    """
    preds = np.asarray(preds)
    golds = np.asarray(golds)
    _check_labels(preds, golds, k)
    per_class = []
    for c in range(k):
        tp = int(((preds == c) & (golds == c)).sum())
        fp = int(((preds == c) & (golds != c)).sum())
        fn = int(((preds != c) & (golds == c)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(f1)
    return sum(per_class) / k, per_class


def confusion(preds, golds, k: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Counts matrix indexed [gold][pred] plus its row-normalized copy.

    Rows with no gold examples stay all-zero in the normalized matrix.
    """
    preds = np.asarray(preds)
    golds = np.asarray(golds)
    _check_labels(preds, golds, k)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (golds, preds), 1)
    row_sums = counts.sum(axis=1, keepdims=True)
    normalized = np.divide(counts, row_sums, out=np.zeros((k, k)), where=row_sums > 0)
    return counts, normalized


def score(pred: dict[str, np.ndarray], gold: dict[str, np.ndarray]) -> dict[str, float]:
    """The paper's metrics over predictions and gold values keyed by label field.

    Emotion class ids get macro F1 and accuracy; empathy and distress scores
    get Pearson r each, plus their mean ``pearson_avg`` when both are present.
    """
    if "emotion" in gold:
        macro, _ = macro_f1(pred["emotion"], gold["emotion"])
        return {"macro_f1": macro, "accuracy": accuracy(pred["emotion"], gold["emotion"])}
    out = {f"pearson_{name}": pearson(pred[name], values) for name, values in gold.items()}
    if len(out) == 2:
        out["pearson_avg"] = (out["pearson_empathy"] + out["pearson_distress"]) / 2.0
    return out


@dataclass
class EvalReport:
    task: str  # "regression" or "classification"
    pearson_empathy: float | None = None
    pearson_distress: float | None = None
    pearson_avg: float | None = None
    accuracy: float | None = None
    macro_f1: float | None = None
    per_class_f1: list[float] | None = None
    confusion: list[list[int]] | None = None
    confusion_normalized: list[list[float]] | None = None
    n: int = field(kw_only=True)  # declared last so that it follows the metrics in to_dict

    def to_dict(self) -> dict:
        """The fields that are set, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _align(pred_ids: list[str], gold: Dataset) -> list:
    """Gold records in prediction order; every gold id must be predicted exactly once."""
    by_id = {r.id: r for r in gold.records}
    if len(pred_ids) != len(by_id):
        raise ValidationError(f"prediction count {len(pred_ids)} != gold count {len(by_id)}")
    records = []
    for pid in pred_ids:
        rec = by_id.pop(pid, None)
        if rec is None:
            if any(r.id == pid for r in records):
                raise ValidationError(f"prediction id {pid!r} appears more than once")
            raise ValidationError(f"prediction id {pid!r} not present in gold data")
        records.append(rec)
    return records


_PREDICTIONS = {"regression": RegressionPredictions, "classification": ClassificationPredictions}


def build_report(task: str, preds, gold: Dataset) -> EvalReport:
    """Score predictions against gold labels, aligned by record id."""
    if task not in _PREDICTIONS:
        raise ValidationError(f"unknown evaluation task {task!r} (expected regression or classification)")
    if not isinstance(preds, _PREDICTIONS[task]):
        raise ValidationError(f"{task} evaluation needs {task} predictions")
    records = _align(preds.ids, gold)
    if task == "classification":
        pred = {"emotion": np.array([emotion_id(label) for label in preds.labels], dtype=np.int64)}
    else:
        pred = {name: getattr(preds, name) for name in ("empathy", "distress") if getattr(preds, name) is not None}
        if not pred:
            raise ValidationError("prediction file has neither empathy nor distress columns")
    golds = gold_values(records, pred, "gold")
    report = EvalReport(task=task, n=len(records), **score(pred, golds))
    if task == "classification":
        _, report.per_class_f1 = macro_f1(pred["emotion"], golds["emotion"])
        counts, normalized = confusion(pred["emotion"], golds["emotion"])
        report.confusion = counts.tolist()
        report.confusion_normalized = normalized.tolist()
    return report


def confusion_csv(matrix) -> str:
    lines = ["gold," + ",".join(EMOTIONS)]
    for label, row in zip(EMOTIONS, matrix):
        lines.append(label + "," + ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def histogram_csv(gold: Dataset) -> str:
    hist = class_histogram(gold)
    lines = ["class,count"]
    lines.extend(f"{label},{hist[label]}" for label in EMOTIONS)
    return "\n".join(lines) + "\n"
