import math

import numpy as np
import pytest

from miniaffect.nn.autodiff import Node, Tape, softmax
from miniaffect.nn.losses import loss_cross_entropy, loss_mse, loss_multitask


def test_softmax_uniform_on_zeros():
    out = softmax(np.zeros(7))
    assert np.allclose(out, 1.0 / 7.0, atol=1e-15)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(7)
    assert np.abs(softmax(x) - softmax(x + 123.456)).max() < 1e-12


def test_softmax_single_hot_hand_computed():
    # scalar arithmetic oracle: e/(e+6) for the active class, 1/(e+6) elsewhere
    out = softmax(np.array([1.0, 0, 0, 0, 0, 0, 0]))
    e = math.exp(1.0)
    assert abs(out[0] - e / (e + 6)) < 1e-12
    assert np.abs(out[1:] - 1.0 / (e + 6)).max() < 1e-12


def test_softmax_rows_sum_to_one_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal((4, 7)) * rng.uniform(0.1, 50)
        s = softmax(x, axis=1)
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(s > 0)


def test_softmax_extreme_scores_no_overflow():
    out = softmax(np.array([1e4, 0.0, -1e4, 0, 0, 0, 0]))
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_mse_perfect_prediction():
    tape = Tape()
    assert float(loss_mse(tape, Node(np.array([1.0, 2.0])), np.array([1.0, 2.0])).value) == 0.0


def test_mse_single_example():
    tape = Tape()
    assert float(loss_mse(tape, Node(np.array([0.0])), np.array([2.0])).value) == 4.0


def test_mse_matches_loop():
    rng = np.random.default_rng(2)
    pred = rng.uniform(1, 7, 5)
    gold = rng.uniform(1, 7, 5)
    tape = Tape()
    got = float(loss_mse(tape, Node(pred), gold).value)
    expected = sum((p - g) ** 2 for p, g in zip(pred, gold)) / 5
    assert abs(got - expected) < 1e-12


def test_mse_length_mismatch():
    tape = Tape()
    with pytest.raises(ValueError):
        loss_mse(tape, Node(np.ones(3)), np.ones(4))


def test_multitask_zero_when_both_perfect():
    tape = Tape()
    e = Node(np.array([2.0, 3.0]))
    d = Node(np.array([4.0, 5.0]))
    assert float(loss_multitask(tape, e, d, np.array([2.0, 3.0]), np.array([4.0, 5.0])).value) == 0.0


def test_multitask_additivity():
    tape = Tape()
    pred_e = Node(np.array([1.0]))  # MSE vs 2.0 -> 1
    pred_d = Node(np.array([1.0]))  # MSE vs 1 +/- sqrt(2) -> 2
    total = loss_multitask(tape, pred_e, pred_d, np.array([2.0]), np.array([1.0 + np.sqrt(2.0)]))
    assert abs(float(total.value) - 3.0) < 1e-12


def test_multitask_equals_sum_of_single_losses():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pe, pd = rng.uniform(1, 7, 4), rng.uniform(1, 7, 4)
        ge, gd = rng.uniform(1, 7, 4), rng.uniform(1, 7, 4)
        t1 = Tape()
        joint = float(loss_multitask(t1, Node(pe), Node(pd), ge, gd).value)
        t2 = Tape()
        separate = float(loss_mse(t2, Node(pe), ge).value) + float(loss_mse(t2, Node(pd), gd).value)
        assert abs(joint - separate) < 1e-12


def test_cross_entropy_uniform_logits_is_ln7():
    tape = Tape()
    logits = Node(np.zeros((3, 7)))
    got = float(loss_cross_entropy(tape, logits, np.array([0, 3, 6])).value)
    assert abs(got - math.log(7.0)) < 1e-12


def test_cross_entropy_saturated_gold_logit():
    tape = Tape()
    logits = np.zeros((1, 7))
    logits[0, 2] = 1000.0
    got = float(loss_cross_entropy(tape, Node(logits), np.array([2])).value)
    assert got < 1e-6


def test_cross_entropy_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((2, 7))
    gold = np.array([1, 5])
    per_example = []
    for i in range(2):
        z = logits[i]
        m = max(z)
        lse = m + math.log(sum(math.exp(v - m) for v in z))
        per_example.append(lse - z[gold[i]])
    tape = Tape()
    got = float(loss_cross_entropy(tape, Node(logits), gold).value)
    assert abs(got - sum(per_example) / 2) < 1e-12


def test_cross_entropy_label_out_of_range():
    tape = Tape()
    with pytest.raises(ValueError):
        loss_cross_entropy(tape, Node(np.zeros((2, 7))), np.array([0, 7]))
    tape = Tape()
    with pytest.raises(ValueError):
        loss_cross_entropy(tape, Node(np.zeros((2, 7))), np.array([-1, 0]))
