"""Training losses, tape-recorded, with the shape and label checks the fused autodiff ops leave out."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape


def loss_mse(tape: Tape, pred: Node, target: np.ndarray) -> Node:
    """Mean squared error over the batch."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ValueError(f"prediction shape {pred.value.shape} != target shape {target.shape}")
    if target.size == 0:
        raise ValueError("empty batch")
    return ad.mse(tape, pred, target)


def loss_multitask(tape: Tape, pred_e: Node, pred_d: Node, gold_e: np.ndarray, gold_d: np.ndarray) -> Node:
    """Sum of the empathy and distress MSE losses, unit weights."""
    return ad.add(tape, loss_mse(tape, pred_e, gold_e), loss_mse(tape, pred_d, gold_d))


def loss_cross_entropy(tape: Tape, logits: Node, gold: np.ndarray) -> Node:
    """Mean negative log-likelihood of the gold classes, via max-shifted log-sum-exp."""
    gold = np.asarray(gold)
    if gold.ndim != 1 or logits.value.ndim != 2 or gold.shape[0] != logits.value.shape[0]:
        raise ValueError(f"logits {logits.value.shape} and gold {gold.shape} batch sizes differ")
    n_classes = logits.value.shape[1]
    if gold.size and (gold.min() < 0 or gold.max() >= n_classes):
        raise ValueError(f"gold label outside 0..{n_classes - 1}")
    return ad.cross_entropy(tape, logits, gold)
