"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from miniaffect.augment import AugmentationSpec, balanced_augment, random_augment
from miniaffect.data import EMOTIONS, Dataset, class_histogram, emotion_id, serialize_dataset
from miniaffect.ensemble import ensemble_classification, ensemble_regression
from miniaffect.metrics import accuracy, confusion, macro_f1, pearson
from miniaffect.nn.autodiff import Node, Tape, dense
from miniaffect.nn.encoder import (
    EncoderConfig,
    collect_grads,
    forward,
    head_apply,
    init_params,
    wrap_params,
)
from miniaffect.nn.losses import loss_cross_entropy, loss_mse, loss_multitask
from miniaffect.optim import AdamW, AdamWConfig
from miniaffect.predictions import ClassificationPredictions, RegressionPredictions, format_predictions
from miniaffect.text import build_vocab
from miniaffect.train import (
    _TASKS,
    load_checkpoint,
    make_config,
    predict,
    save_checkpoint,
    seed_sweep,
    train,
)

from corpus import (
    keyword_classification_corpus,
    keyword_regression_corpus,
    skewed_classification_corpus,
    tiny_encoder_kwargs,
)
from oracles import (
    fd_gradients,
    max_relative_error,
    naive_accuracy,
    naive_confusion,
    naive_macro_f1,
    naive_pearson,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    print(f"criterion {number:2d} ({name}): PASS")


# --- criterion 1: autodiff gradients match central finite differences ---------


def test_criterion_01_gradient_correctness(monkeypatch):
    # the row-sparse tok_emb gradient, which this tiny vocabulary would not get by default
    monkeypatch.setattr("miniaffect.nn.autodiff.MIN_ROWS_PER_ENTRY", 0)
    with criterion(1, "gradient correctness"):
        started = time.perf_counter()
        rng = np.random.default_rng(20)
        base = dict(vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                    max_len=6, dropout_rate=0.0)
        batch = 3
        lengths = rng.integers(2, base["max_len"] + 1, size=batch)
        ids = np.zeros((batch, base["max_len"]), dtype=np.int64)
        ids[:, 0] = 2
        for b in range(batch):
            ids[b, 1:lengths[b]] = rng.integers(3, base["vocab_size"], size=lengths[b] - 1)

        # One task for each head layout: one score, two scores, 7 logits.
        for task in ("empathy", "multitask", "emotion"):
            cfg, heads = EncoderConfig(**base), _TASKS[task].heads
            params = init_params(cfg, heads, seed=21)
            targets = {
                "empathy": (rng.uniform(1, 7, batch),),
                "multitask": (rng.uniform(1, 7, batch), rng.uniform(1, 7, batch)),
                "emotion": (rng.integers(0, 7, batch),),
            }[task]

            def build_loss(p):
                tape = Tape()
                pnodes = wrap_params(p)
                cls = forward(pnodes, cfg, ids, lengths, tape, train_mode=True)
                out = head_apply(pnodes, heads, cls, tape)
                if task == "empathy":
                    node = loss_mse(tape, out[0], targets[0])
                elif task == "multitask":
                    node = loss_multitask(tape, out[0], out[1], targets[0], targets[1])
                else:
                    node = loss_cross_entropy(tape, out[0], targets[0])
                return node, tape, pnodes

            loss, tape, pnodes = build_loss(params)
            tape.backward(loss)
            ad_grads = {name: dense(g) for name, g in collect_grads(pnodes, params).items()}
            fd = fd_gradients(lambda p: float(build_loss(p)[0].value), params, eps=1e-5)
            worst = max_relative_error(ad_grads, fd)
            assert worst < 1e-4, f"{task}: max relative error {worst}"
        assert time.perf_counter() - started < 30.0


# --- criterion 2: metrics match independent brute-force oracles ---------------


def test_criterion_02_metric_oracle_equivalence():
    with criterion(2, "metric oracle equivalence"):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
        macro, per_class = macro_f1([0, 1, 1, 2], [0, 0, 1, 2], k=3)
        assert macro == pytest.approx(7 / 9, abs=1e-12)
        assert per_class == pytest.approx([2 / 3, 2 / 3, 1.0], abs=1e-12)

        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            x = rng.uniform(1, 7, n)
            y = x + rng.standard_normal(n)
            assert pearson(x, y) == pytest.approx(naive_pearson(list(x), list(y)), abs=1e-12)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, 7, n)
            golds = rng.integers(0, 7, n)
            got_macro, got_per = macro_f1(preds, golds)
            want_macro, want_per = naive_macro_f1(list(preds), list(golds), 7)
            assert got_macro == pytest.approx(want_macro, abs=1e-12)
            assert got_per == pytest.approx(want_per, abs=1e-12)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, 7, n)
            golds = rng.integers(0, 7, n)
            assert accuracy(preds, golds) == pytest.approx(
                naive_accuracy(list(preds), list(golds)), abs=1e-12
            )
        for _ in range(200):
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, 7, n)
            golds = rng.integers(0, 7, n)
            counts, normalized = confusion(preds, golds)
            assert counts.tolist() == naive_confusion(list(preds), list(golds), 7)
            nonzero = counts.sum(axis=1) > 0
            assert np.abs(normalized[nonzero].sum(axis=1) - 1.0).max() < 1e-12


# --- criterion 3: the joint loss is exactly the sum of the task losses --------


def test_criterion_03_multitask_loss_decomposition():
    with criterion(3, "multi-task loss decomposition"):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            pe, pd = rng.uniform(0, 8, n), rng.uniform(0, 8, n)
            ge, gd = rng.uniform(1, 7, n), rng.uniform(1, 7, n)
            joint = float(loss_multitask(Tape(), Node(pe), Node(pd), ge, gd).value)
            separate = float(loss_mse(Tape(), Node(pe), ge).value) + float(
                loss_mse(Tape(), Node(pd), gd).value
            )
            assert abs(joint - separate) < 1e-12


# --- criterion 4: ensemble combination rules ----------------------------------


def test_criterion_04_ensemble_invariants():
    with criterion(4, "ensemble invariants"):
        rng = np.random.default_rng(24)
        ids = [f"r{i}" for i in range(6)]

        member = RegressionPredictions(ids=ids, empathy=rng.uniform(1, 7, 6))
        merged = ensemble_regression([member] * 4)
        assert np.array_equal(merged.empathy, member.empathy)  # idempotence, exact

        members = [RegressionPredictions(ids=ids, empathy=rng.uniform(1, 7, 6)) for _ in range(5)]
        base = ensemble_regression(members)
        for perm_seed in range(10):
            order = np.random.default_rng(perm_seed).permutation(5)
            assert np.array_equal(base.empathy, ensemble_regression([members[i] for i in order]).empathy)

        def prob_member(k_rows):
            scores = rng.dirichlet(np.ones(7), size=k_rows)
            labels = [EMOTIONS[int(i)] for i in scores.argmax(axis=1)]
            return ClassificationPredictions(ids=ids[:k_rows], scores=scores, labels=labels)

        for _ in range(500):
            k = int(rng.integers(2, 8))
            clf_members = [prob_member(6) for _ in range(k)]
            out = ensemble_classification(clf_members)
            assert np.array_equal(np.argmax(out.summed, axis=1), np.argmax(out.summed / k, axis=1))
            scaled = [
                ClassificationPredictions(ids=m.ids, scores=m.scores * 2.5, labels=m.labels)
                for m in clf_members
            ]
            assert ensemble_classification(scaled, score_space="logit").labels == out.labels

        tie_row = [0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0]
        tie = ClassificationPredictions(ids=["t"], scores=np.array([tie_row]), labels=["fear"])
        assert ensemble_classification([tie, tie]).labels == [EMOTIONS[2]]  # lowest index wins


# --- criterion 5: augmentation balance at published scale ---------------------

FIG1_LIKE_SKEW = {"sadness": 650, "anger": 380, "fear": 230, "neutral": 220,
                  "disgust": 150, "surprise": 130, "joy": 100}  # sums to 1860


def test_criterion_05_augmentation_balance():
    with criterion(5, "augmentation balance"):
        base = Dataset("train", skewed_classification_corpus(FIG1_LIKE_SKEW, "b", 25))
        assert len(base) == 1860
        pool = Dataset("pool", skewed_classification_corpus({e: 420 for e in EMOTIONS}, "p", 26))

        ba_spec = AugmentationSpec("ba", total_target=2800, seed=27)
        balanced = balanced_augment(base, pool, ba_spec)
        hist = class_histogram(balanced)
        assert len(balanced) == 2800
        assert all(hist[e] == 400 for e in EMOTIONS)

        ra_spec = AugmentationSpec("ra", sample_count=1000, seed=27)
        random_out = random_augment(base, pool, ra_spec)
        assert len(random_out) == 2860

        # byte-identical reruns under the same seed
        assert serialize_dataset(balanced_augment(base, pool, ba_spec)) == serialize_dataset(balanced)
        assert serialize_dataset(random_augment(base, pool, ra_spec)) == serialize_dataset(random_out)


# --- criterion 6: the desk-scale preset actually trains ------------------------


def test_criterion_06_trainability():
    with criterion(6, "trainability at desk scale"):
        started = time.perf_counter()
        train_set = keyword_classification_corpus(32, "train", 1)
        dev_set = keyword_classification_corpus(16, "dev", 2)
        vocab = build_vocab(train_set)
        cfg = make_config(task="emotion", epochs=200, preset="desk_scale", seed=0)
        ckpt, report = train(train_set, dev_set, vocab, cfg)
        assert report.best_metric >= 0.9, f"dev macro F1 {report.best_metric}"
        preds = predict(ckpt, train_set, vocab)
        train_acc = accuracy(
            [emotion_id(l) for l in preds.labels],
            [emotion_id(r.emotion) for r in train_set.records],
        )
        assert train_acc == 1.0
        assert time.perf_counter() - started < 60.0

        reg_train = keyword_regression_corpus(32, "train", 1)
        reg_dev = keyword_regression_corpus(16, "dev", 2)
        reg_vocab = build_vocab(reg_train)
        reg_cfg = make_config(task="empathy", epochs=200, preset="desk_scale", seed=3)
        _, reg_report = train(reg_train, reg_dev, reg_vocab, reg_cfg)
        assert min(e.train_loss for e in reg_report.epochs) < 0.05


# --- criterion 7: balanced augmentation helps on an imbalanced corpus ----------


def test_criterion_07_augmentation_direction():
    with criterion(7, "augmentation direction"):
        skew = {"sadness": 30, "anger": 20, "fear": 10, "disgust": 8,
                "neutral": 5, "surprise": 4, "joy": 3}  # joy = 3.75% of 80
        base = Dataset("train", skewed_classification_corpus(skew, "b", 10))
        pool = Dataset("pool", skewed_classification_corpus({e: 40 for e in EMOTIONS}, "p", 11))
        dev = Dataset("dev", skewed_classification_corpus({e: 4 for e in EMOTIONS}, "d", 12))
        augmented = balanced_augment(base, pool, AugmentationSpec("ba", total_target=84, seed=5))

        def mean_macro(train_set):
            scores = []
            for seed in range(5):
                vocab = build_vocab(train_set)
                cfg = make_config(task="emotion", epochs=12, preset="desk_scale",
                                  seed=seed, encoder=tiny_encoder_kwargs())
                _, report = train(train_set, dev, vocab, cfg)
                scores.append(report.best_metric)
            return float(np.mean(scores))

        with_aug = mean_macro(augmented)
        without_aug = mean_macro(base)
        assert with_aug > without_aug, f"BA {with_aug:.4f} <= no-aug {without_aug:.4f}"


# --- criterion 8: determinism and persistence ----------------------------------


def test_criterion_08_determinism_and_persistence(tmp_path):
    with criterion(8, "determinism and persistence"):
        train_set = keyword_classification_corpus(21, "train", 1)
        dev_set = keyword_classification_corpus(14, "dev", 2)
        vocab = build_vocab(train_set)
        cfg = make_config(task="emotion", epochs=3, preset="desk_scale", seed=9,
                          encoder=tiny_encoder_kwargs())

        ckpt_a, report_a = train(train_set, dev_set, vocab, cfg)
        ckpt_b, report_b = train(train_set, dev_set, vocab, cfg)
        path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt_a, path_a)
        save_checkpoint(ckpt_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()  # bit-identical checkpoints
        assert report_a.best_metric == report_b.best_metric
        assert [e.train_loss for e in report_a.epochs] == [e.train_loss for e in report_b.epochs]

        loaded = load_checkpoint(path_a)
        for name in ckpt_a.params:
            assert np.array_equal(loaded.params[name], ckpt_a.params[name])

        before = predict(ckpt_a, dev_set, vocab)
        after = predict(loaded, dev_set, vocab)
        assert format_predictions(before) == format_predictions(after)
        assert np.array_equal(before.scores, after.scores)


# --- criterion 9: seed-sweep reporting machinery --------------------------------


def test_criterion_09_seed_sensitivity_machinery():
    with criterion(9, "seed sweep machinery"):
        train_set = keyword_classification_corpus(32, "train", 1)
        dev_set = keyword_classification_corpus(16, "dev", 2)
        vocab = build_vocab(train_set)
        cfg = make_config(task="emotion", epochs=15, preset="desk_scale", seed=0,
                          encoder=tiny_encoder_kwargs())
        seeds = [11, 12, 13, 14, 15]
        report = seed_sweep(train_set, dev_set, vocab, cfg, seeds)
        assert [e.seed for e in report.entries] == seeds
        values = [e.best_metric for e in report.entries]
        mean = sum(values) / 5
        assert report.mean == pytest.approx(mean, abs=1e-12)
        assert report.std == pytest.approx((sum((v - mean) ** 2 for v in values) / 5) ** 0.5, abs=1e-12)
        assert report.min == min(values)
        assert report.max == max(values)
        print(f"    (seed spread: mean {report.mean:.4f}, std {report.std:.4f})")


# --- criterion 10: the optimizer update rule -------------------------------------


def test_criterion_10_adamw_step_correctness():
    with criterion(10, "optimizer step correctness"):
        lr, eps = 1e-3, 1e-6
        params = {"w": np.array([0.0])}
        opt = AdamW(AdamWConfig(lr=lr, eps=eps))
        opt.step(params, {"w": np.array([1.0])})
        # m_hat = v_hat = 1 exactly after bias correction on the first step
        assert abs(params["w"][0] - (-lr / (1.0 + eps))) < 1e-12

        frozen = {"w": np.array([0.7, -0.3])}
        reference = frozen["w"].copy()
        opt2 = AdamW(AdamWConfig(lr=0.5, weight_decay=0.0))
        opt2.step(frozen, {"w": np.zeros(2)})
        assert np.array_equal(frozen["w"], reference)  # exact no-op

        # weight_decay=0 reduces to plain Adam over a trajectory
        from oracles import reference_adam_step

        rng = np.random.default_rng(30)
        theta = {"w": np.array([0.25])}
        opt3 = AdamW(AdamWConfig(lr=1e-2))
        ref_t, m, v = 0.25, 0.0, 0.0
        for t in range(1, 12):
            g = float(rng.standard_normal())
            opt3.step(theta, {"w": np.array([g])})
            ref_t, m, v = reference_adam_step(ref_t, g, m, v, t, 1e-2, 0.9, 0.99, 1e-6)
            assert abs(theta["w"][0] - ref_t) < 1e-12
