import numpy as np
import pytest

from miniaffect.data import EMOTIONS
from miniaffect.ensemble import ensemble_classification, ensemble_regression
from miniaffect.errors import ValidationError
from miniaffect.predictions import ClassificationPredictions, RegressionPredictions


def reg(ids, empathy=None, distress=None):
    return RegressionPredictions(
        ids=list(ids),
        empathy=None if empathy is None else np.asarray(empathy, dtype=np.float64),
        distress=None if distress is None else np.asarray(distress, dtype=np.float64),
    )


def clf(ids, scores):
    scores = np.asarray(scores, dtype=np.float64)
    labels = [EMOTIONS[int(i)] for i in scores.argmax(axis=1)]
    return ClassificationPredictions(ids=list(ids), scores=scores, labels=labels)


def rand_prob_member(rng, ids):
    return clf(ids, rng.dirichlet(np.ones(7), size=len(ids)))


def test_regression_mean_of_two():
    out = ensemble_regression([reg(["a"], empathy=[3.0]), reg(["a"], empathy=[5.0])])
    assert out.empathy[0] == 4.0


def test_regression_idempotent_on_identical_members():
    member = reg(["a", "b"], empathy=[2.5, 6.5], distress=[1.5, 3.5])
    out = ensemble_regression([member, member, member])
    assert np.array_equal(out.empathy, member.empathy)
    assert np.array_equal(out.distress, member.distress)


def test_regression_matches_loop_oracle():
    rng = np.random.default_rng(0)
    ids = [f"r{i}" for i in range(10)]
    members = [reg(ids, empathy=rng.uniform(1, 7, 10)) for _ in range(3)]
    out = ensemble_regression(members)
    for i in range(10):
        expected = sum(m.empathy[i] for m in members) / 3
        assert abs(out.empathy[i] - expected) < 1e-12


def test_regression_permutation_invariance_bitwise():
    rng = np.random.default_rng(1)
    ids = [f"r{i}" for i in range(25)]
    members = [reg(ids, empathy=rng.uniform(1, 7, 25)) for _ in range(5)]
    base = ensemble_regression(members)
    for perm_seed in range(5):
        order = np.random.default_rng(perm_seed).permutation(5)
        shuffled = ensemble_regression([members[i] for i in order])
        assert np.array_equal(base.empathy, shuffled.empathy)


def test_regression_id_misalignment_names_id():
    with pytest.raises(ValidationError, match="'b'"):
        ensemble_regression([reg(["a", "b"], empathy=[1, 2]), reg(["a", "c"], empathy=[1, 2])])


def test_regression_column_mismatch():
    with pytest.raises(ValidationError, match="distress"):
        ensemble_regression([reg(["a"], empathy=[1], distress=[2]), reg(["a"], empathy=[1])])


def test_regression_needs_members():
    with pytest.raises(ValidationError):
        ensemble_regression([])


def test_classification_identical_members_keep_argmax():
    rng = np.random.default_rng(2)
    member = rand_prob_member(rng, [f"r{i}" for i in range(6)])
    out = ensemble_classification([member, member])
    assert out.labels == member.labels


def test_classification_hand_added_case():
    a = clf(["x"], [[0.6, 0.4, 0, 0, 0, 0, 0]])
    b = clf(["x"], [[0.1, 0.9, 0, 0, 0, 0, 0]])
    out = ensemble_classification([a, b])
    assert np.allclose(out.summed[0][:2], [0.7, 1.3])
    assert out.labels == [EMOTIONS[1]]
    assert np.abs(out.normalized.sum(axis=1) - 1.0).max() < 1e-12


def test_classification_tie_breaks_to_lowest_index():
    row = [0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0]  # exact tie classes 2 and 5
    out = ensemble_classification([clf(["x"], [row]), clf(["x"], [row])])
    assert out.labels == [EMOTIONS[2]]


def test_classification_sum_equals_mean_argmax():
    rng = np.random.default_rng(3)
    ids = [f"r{i}" for i in range(8)]
    for _ in range(100):
        k = int(rng.integers(2, 7))
        members = [rand_prob_member(rng, ids) for _ in range(k)]
        out = ensemble_classification(members)
        mean_argmax = np.argmax(out.summed / k, axis=1)
        assert np.array_equal(np.argmax(out.summed, axis=1), mean_argmax)
        assert [EMOTIONS[int(i)] for i in mean_argmax] == out.labels


def test_classification_permutation_invariance_bitwise():
    rng = np.random.default_rng(4)
    ids = [f"r{i}" for i in range(12)]
    members = [rand_prob_member(rng, ids) for _ in range(5)]
    base = ensemble_classification(members)
    for perm_seed in range(6):
        order = np.random.default_rng(perm_seed).permutation(5)
        shuffled = ensemble_classification([members[i] for i in order])
        assert np.array_equal(base.summed, shuffled.summed)
        assert base.labels == shuffled.labels


def test_classification_positive_scaling_keeps_labels():
    rng = np.random.default_rng(5)
    ids = [f"r{i}" for i in range(10)]
    members = [rand_prob_member(rng, ids) for _ in range(3)]
    base = ensemble_classification(members)
    scaled_members = [
        ClassificationPredictions(ids=m.ids, scores=m.scores * 3.5, labels=m.labels) for m in members
    ]
    scaled = ensemble_classification(scaled_members, score_space="logit")
    assert scaled.labels == base.labels


def test_classification_rejects_non_probability_rows():
    bad = ClassificationPredictions(ids=["a"], scores=np.array([[0.5] * 7]), labels=["anger"])
    with pytest.raises(ValidationError, match="probability"):
        ensemble_classification([bad])


@pytest.mark.parametrize("score_space", ["probability", "logit"])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_classification_rejects_non_finite_rows_naming_member_and_id(score_space, bad_value):
    good = clf(["a", "b"], np.full((2, 7), 1 / 7))
    scores = np.full((2, 7), 1 / 7)
    scores[1] = bad_value
    bad = ClassificationPredictions(ids=["a", "b"], scores=scores, labels=["anger", "anger"])
    with pytest.raises(ValidationError, match="^member 2 row for id 'b' holds a non-finite score$"):
        ensemble_classification([good, bad], score_space=score_space)


def test_classification_logit_space_accepts_raw_scores():
    rng = np.random.default_rng(6)
    ids = ["a", "b"]
    members = [clf(ids, rng.standard_normal((2, 7))) for _ in range(2)]
    out = ensemble_classification(members, score_space="logit")
    assert np.abs(out.normalized.sum(axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(np.argmax(out.summed, axis=1), np.argmax(out.normalized, axis=1))


def test_classification_unknown_space():
    rng = np.random.default_rng(7)
    with pytest.raises(ValidationError):
        ensemble_classification([rand_prob_member(rng, ["a"])], score_space="odds")
