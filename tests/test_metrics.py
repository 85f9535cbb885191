import json

import numpy as np
import pytest

from miniaffect.data import EMOTIONS, Dataset, EssayRecord
from miniaffect.errors import ValidationError
from miniaffect.metrics import (
    EvalReport,
    accuracy,
    build_report,
    confusion,
    confusion_csv,
    histogram_csv,
    macro_f1,
    pearson,
    score,
)
from miniaffect.predictions import ClassificationPredictions, RegressionPredictions

from oracles import naive_accuracy, naive_confusion, naive_macro_f1, naive_pearson


def test_pearson_perfect_correlation():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_anticorrelation():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_evaluated_case():
    # cov*n = 4, var_x*n = var_y*n = 5 -> r = 4/5
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_constant_vector_raises():
    with pytest.raises(ValidationError, match="constant"):
        pearson([2, 2, 2], [1, 2, 3])
    with pytest.raises(ValidationError, match="constant"):
        pearson([1, 2, 3], [5, 5, 5])


@pytest.mark.parametrize("x", [[1e308, 1.7e308, -1e308], [1e200, -1e200, 0.0], [1e-320, 2e-320, 3e-320]],
                         ids=["sum_overflows", "squares_overflow", "squares_underflow"])
def test_pearson_refuses_values_beyond_float64_sums(x):
    # Each vector is finite and not constant, so it must read neither as NaN, nor as a wrong r, nor as constant.
    message = "pearson undefined: the values overflow float64 sums, or their deviations underflow"
    for args in ((x, [1.0, 2.0, 4.0]), ([1.0, 2.0, 4.0], x)):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            pearson(*args)


def test_pearson_too_short_raises():
    with pytest.raises(ValidationError):
        pearson([1], [2])


def test_pearson_length_mismatch():
    with pytest.raises(ValidationError):
        pearson([1, 2, 3], [1, 2])


def test_pearson_bounded_and_affine_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(2, 40)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        r = pearson(x, y)
        assert abs(r) <= 1.0 + 1e-12
        a, b = rng.uniform(0.1, 5.0), rng.uniform(-3, 3)
        assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-10)


def test_pearson_matches_oracle_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        x = rng.uniform(1, 7, n)
        y = x + rng.standard_normal(n)  # avoid exactly-constant draws
        assert pearson(x, y) == pytest.approx(naive_pearson(list(x), list(y)), abs=1e-12)


def test_accuracy_basic():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2, 3], [3, 1, 2]) == 0.0
    assert accuracy([0, 1, 2, 3], [0, 1, 2, 4]) == 0.75


def test_macro_f1_perfect_over_all_classes():
    labels = list(range(7)) * 3
    macro, per_class = macro_f1(labels, labels)
    assert macro == 1.0
    assert per_class == [1.0] * 7


def test_macro_f1_hand_counted_k3_case():
    # golds [0,0,1,2], preds [0,1,1,2] -> per-class F1 [2/3, 2/3, 1]
    macro, per_class = macro_f1([0, 1, 1, 2], [0, 0, 1, 2], k=3)
    assert per_class == pytest.approx([2 / 3, 2 / 3, 1.0], abs=1e-12)
    assert macro == pytest.approx(7 / 9, abs=1e-12)


def test_macro_f1_absent_class_counts_as_zero():
    macro, per_class = macro_f1([0, 0], [0, 0], k=7)
    assert per_class[0] == 1.0
    assert per_class[1:] == [0.0] * 6
    assert macro == pytest.approx(1 / 7, abs=1e-15)


def test_macro_f1_label_out_of_range():
    with pytest.raises(ValidationError):
        macro_f1([0, 7], [0, 1], k=7)


def test_macro_f1_from_confusion_counts_equals_per_class_counting_exactly():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        preds, golds = rng.integers(0, 7, n), rng.integers(0, 7, n)
        assert macro_f1(preds, golds) == naive_macro_f1(list(preds), list(golds), 7)


def test_macro_f1_matches_oracle_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 7, n)
        golds = rng.integers(0, 7, n)
        macro, per_class = macro_f1(preds, golds)
        oracle_macro, oracle_per = naive_macro_f1(list(preds), list(golds), 7)
        assert macro == pytest.approx(oracle_macro, abs=1e-12)
        assert per_class == pytest.approx(oracle_per, abs=1e-12)
        assert 0.0 <= macro <= 1.0
        assert macro == pytest.approx(sum(per_class) / 7, abs=1e-12)


def test_accuracy_matches_oracle_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 7, n)
        golds = rng.integers(0, 7, n)
        assert accuracy(preds, golds) == pytest.approx(naive_accuracy(list(preds), list(golds)), abs=1e-12)


def test_confusion_diagonal_for_perfect_predictions():
    labels = np.array(list(range(7)) * 2)
    counts, normalized = confusion(labels, labels)
    assert np.array_equal(counts, np.eye(7, dtype=int) * 2)
    assert np.array_equal(normalized, np.eye(7))


def test_confusion_single_off_diagonal():
    counts, normalized = confusion([0], [2])  # gold fear, predicted anger
    assert counts[2][0] == 1
    assert counts.sum() == 1
    assert normalized[2][0] == 1.0


def test_confusion_zero_gold_rows_stay_zero():
    counts, normalized = confusion([0, 1], [0, 1])
    assert np.all(normalized[2:] == 0.0)


def test_confusion_matches_oracle_and_histogram():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 7, n)
        golds = rng.integers(0, 7, n)
        counts, normalized = confusion(preds, golds)
        assert counts.tolist() == naive_confusion(list(preds), list(golds), 7)
        assert counts.sum() == n
        # row sums equal the gold class histogram
        for c in range(7):
            assert counts[c].sum() == int((golds == c).sum())
        nonzero = counts.sum(axis=1) > 0
        assert np.abs(normalized[nonzero].sum(axis=1) - 1.0).max() < 1e-12


def gold_dataset(records):
    return Dataset("dev", records)


def test_build_report_regression_perfect():
    gold = gold_dataset([EssayRecord(str(i), "t", float(i % 6 + 1), float(6 - i % 5), None) for i in range(8)])
    preds = RegressionPredictions(
        ids=[r.id for r in gold.records],
        empathy=np.array([r.empathy for r in gold.records]),
        distress=np.array([r.distress for r in gold.records]),
    )
    report = build_report("regression", preds, gold)
    assert report.pearson_empathy == pytest.approx(1.0, abs=1e-12)
    assert report.pearson_distress == pytest.approx(1.0, abs=1e-12)
    assert report.pearson_avg == pytest.approx(1.0, abs=1e-12)
    assert report.n == 8


def test_pearson_avg_is_mean_of_components():
    gold = gold_dataset([EssayRecord(str(i), "t", float(i % 6 + 1), float(i % 5 + 1), None) for i in range(30)])
    rng = np.random.default_rng(5)
    preds = RegressionPredictions(
        ids=[r.id for r in gold.records],
        empathy=np.array([r.empathy for r in gold.records]) + rng.standard_normal(30),
        distress=np.array([r.distress for r in gold.records]) + rng.standard_normal(30),
    )
    report = build_report("regression", preds, gold)
    assert report.pearson_avg == pytest.approx(
        (report.pearson_empathy + report.pearson_distress) / 2, abs=1e-15
    )
    # the averaging rule itself on a fixed pair of component scores
    assert (0.558 + 0.507) / 2 == pytest.approx(0.5325, abs=1e-12)


def test_build_report_single_column():
    gold = gold_dataset([EssayRecord(str(i), "t", float(i % 6 + 1), None, None) for i in range(6)])
    preds = RegressionPredictions(ids=[r.id for r in gold.records],
                                  empathy=np.array([r.empathy + 0.1 for r in gold.records]))
    report = build_report("regression", preds, gold)
    assert report.pearson_empathy is not None
    assert report.pearson_distress is None
    assert report.pearson_avg is None
    assert "pearson_distress" not in report.to_dict()


def test_build_report_classification_cross_checks():
    rng = np.random.default_rng(6)
    gold_labels = rng.integers(0, 7, 40)
    pred_labels = np.where(rng.random(40) < 0.7, gold_labels, rng.integers(0, 7, 40))
    gold = gold_dataset([EssayRecord(str(i), "t", None, None, EMOTIONS[g]) for i, g in enumerate(gold_labels)])
    probs = np.full((40, 7), 0.01)
    probs[np.arange(40), pred_labels] = 1 - 0.06
    preds = ClassificationPredictions(
        ids=[r.id for r in gold.records], scores=probs, labels=[EMOTIONS[p] for p in pred_labels]
    )
    report = build_report("classification", preds, gold)
    assert report.macro_f1 is not None and report.accuracy is not None
    counts = np.array(report.confusion)
    for c in range(7):
        assert counts[c].sum() == int((gold_labels == c).sum())
    payload = report.to_dict()
    assert list(payload) == ["task", "accuracy", "macro_f1", "per_class_f1",
                             "confusion", "confusion_normalized", "n"]
    json.loads(report.to_json())  # valid JSON


def test_build_report_id_mismatch():
    gold = gold_dataset([EssayRecord("a", "t", 2.0, None, None), EssayRecord("b", "t", 3.0, None, None)])
    preds = RegressionPredictions(ids=["a", "zzz"], empathy=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="zzz"):
        build_report("regression", preds, gold)


def test_build_report_rejects_a_repeated_prediction_id():
    # the counts agree, so only the repeat shows that gold record b goes unscored
    gold = gold_dataset([EssayRecord(rec_id, "t", float(i + 1), None, None) for i, rec_id in enumerate("abc")])
    preds = RegressionPredictions(ids=["a", "a", "c"], empathy=np.array([1.0, 1.0, 3.0]))
    with pytest.raises(ValidationError, match="'a' appears more than once"):
        build_report("regression", preds, gold)


def test_score_keys_per_label_set():
    ids = np.array([0, 1, 2, 1])
    assert list(score({"emotion": ids}, {"emotion": ids})) == ["macro_f1", "accuracy"]
    x, y = np.array([1.0, 2.0, 4.0]), np.array([2.0, 1.0, 5.0])
    one = score({"distress": x}, {"distress": y})
    assert one == {"pearson_distress": pearson(x, y)}
    both = score({"empathy": x, "distress": y}, {"empathy": y, "distress": y})
    assert list(both) == ["pearson_empathy", "pearson_distress", "pearson_avg"]
    assert both["pearson_avg"] == (pearson(x, y) + pearson(y, y)) / 2.0


def test_build_report_missing_gold_labels():
    gold = gold_dataset([EssayRecord("a", "t", None, None, None), EssayRecord("b", "t", None, None, None)])
    preds = RegressionPredictions(ids=["a", "b"], empathy=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="empathy"):
        build_report("regression", preds, gold)


def test_report_csv_emission():
    gold = gold_dataset([EssayRecord(str(i), "t", None, None, EMOTIONS[i % 7]) for i in range(14)])
    hist_csv = histogram_csv(gold)
    lines = hist_csv.strip().split("\n")
    assert lines[0] == "class,count"
    assert len(lines) == 8
    assert all(line.endswith(",2") for line in lines[1:])
    counts, _ = confusion(list(range(7)), list(range(7)))
    table = confusion_csv(counts.tolist())
    rows = table.strip().split("\n")
    assert rows[0] == "gold," + ",".join(EMOTIONS)
    assert rows[1].startswith("anger,1,0")


def test_eval_report_json_stable_order():
    report = EvalReport(task="regression", n=3, pearson_empathy=0.5)
    assert list(report.to_dict()) == ["task", "pearson_empathy", "n"]
