"""Combine prediction files from independently trained models.

Regression members are averaged element-wise. Classification members have
their per-class score vectors summed and the label taken as the argmax of the
sum (exact ties resolve to the lowest class index). Member summation sorts
the addends per cell first, so the result is bit-identical under any member
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EMOTIONS
from .errors import ValidationError
from .nn.autodiff import softmax
from .predictions import ClassificationPredictions, RegressionPredictions

PROB_ROW_SUM_TOL = 1e-6


@dataclass
class ClassificationEnsemble:
    ids: list[str]
    summed: np.ndarray  # raw per-class sums, unnormalized
    normalized: np.ndarray  # rows sum to 1; what gets written to TSV
    labels: list[str]


def _check_alignment(id_lists: list[list[str]]) -> list[str]:
    if not id_lists:
        raise ValidationError("ensemble needs at least one member")
    first = id_lists[0]
    for member_idx, ids in enumerate(id_lists[1:], start=2):
        if len(ids) != len(first):
            raise ValidationError(f"member {member_idx} has {len(ids)} rows, expected {len(first)}")
        if ids != first:
            pos = next(pos for pos, (a, b) in enumerate(zip(first, ids)) if a != b)
            raise ValidationError(f"member {member_idx} id mismatch at row {pos + 1}: {ids[pos]!r} != {first[pos]!r}")
    return list(first)


def _ordered_sum(stacked: np.ndarray) -> np.ndarray:
    # sort along the member axis so addition order never depends on member order
    return np.sort(stacked, axis=0).sum(axis=0)


# Finite members can sum to an infinity, which logit softmax turns into NaN: the prediction writer refuses it.
@np.errstate(all="ignore")
def ensemble_regression(members: list[RegressionPredictions]) -> RegressionPredictions:
    """Element-wise arithmetic mean of the members' score columns."""
    ids = _check_alignment([m.ids for m in members])

    def mean_column(name: str) -> np.ndarray | None:
        present = [getattr(m, name) is not None for m in members]
        if not any(present):
            return None
        if not all(present):
            raise ValidationError(f"some members lack the {name} column")
        return _ordered_sum(np.stack([getattr(m, name) for m in members])) / len(members)

    empathy = mean_column("empathy")
    distress = mean_column("distress")
    if empathy is None and distress is None:
        raise ValidationError("members carry no score columns")
    return RegressionPredictions(ids=ids, empathy=empathy, distress=distress)


@np.errstate(all="ignore")
def ensemble_classification(
    members: list[ClassificationPredictions], score_space: str = "probability"
) -> ClassificationEnsemble:
    """Sum the members' 7-vectors and pick the class with the highest total.

    Every score must be finite. In probability space every member row must
    sum to 1 (within 1e-6) and the
    normalized copy divides by the row sum; in logit space the raw scores are
    summed as-is and the normalized copy is the softmax of their mean.
    """
    if score_space not in ("probability", "logit"):
        raise ValidationError(f"unknown score space {score_space!r}")
    ids = _check_alignment([m.ids for m in members])
    for member_idx, m in enumerate(members, start=1):
        finite = np.isfinite(m.scores).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValidationError(f"member {member_idx} row for id {m.ids[row]!r} holds a non-finite score")
        if score_space == "probability":
            sums = m.scores.sum(axis=1)
            bad = np.abs(sums - 1.0) > PROB_ROW_SUM_TOL
            if bad.any():
                row = int(np.argmax(bad))
                raise ValidationError(
                    f"member {member_idx} row for id {m.ids[row]!r} is not a probability vector"
                    f" (sums to {float(sums[row])!r})"
                )

    summed = _ordered_sum(np.stack([m.scores for m in members]))
    if score_space == "probability":
        normalized = summed / summed.sum(axis=1, keepdims=True)
    else:
        normalized = softmax(summed / len(members), axis=1)
    labels = [EMOTIONS[int(i)] for i in np.argmax(summed, axis=1)]  # argmax takes the lowest index on ties
    return ClassificationEnsemble(ids=ids, summed=summed, normalized=normalized, labels=labels)
