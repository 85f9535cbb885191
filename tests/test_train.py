import functools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miniaffect.train as train_module
from miniaffect.data import Dataset, EssayRecord
from miniaffect.errors import DivergenceError, FormatError, ValidationError
from miniaffect.metrics import build_report
from miniaffect.nn.autodiff import Node
from miniaffect.text import build_vocab
from miniaffect.train import (
    TrainConfig,
    load_checkpoint,
    make_batches,
    make_config,
    predict,
    save_checkpoint,
    seed_sweep,
    train,
)

from corpus import (
    FILLER,
    keyword_classification_corpus,
    keyword_regression_corpus,
    tiny_encoder_kwargs,
)


def tiny_config(task="emotion", epochs=2, seed=0, **overrides):
    return make_config(task=task, epochs=epochs, preset="desk_scale", seed=seed,
                       encoder=tiny_encoder_kwargs(), **overrides)


@pytest.fixture(scope="module")
def emotion_data():
    return keyword_classification_corpus(21, "train", 1), keyword_classification_corpus(14, "dev", 2)


@pytest.fixture(scope="module")
def regression_data():
    return keyword_regression_corpus(18, "train", 3), keyword_regression_corpus(12, "dev", 4)


def test_make_config_presets():
    desk = make_config(task="emotion", epochs=1)
    assert desk.optimizer.lr == 1e-3
    assert desk.batch_size == 8
    assert desk.snapshot_metric == "macro_f1"
    faithful = make_config(task="empathy", epochs=1, preset="paper_faithful")
    assert faithful.optimizer.lr == 1e-5
    assert faithful.batch_size == 16
    assert (faithful.optimizer.beta1, faithful.optimizer.beta2) == (0.9, 0.99)
    assert faithful.optimizer.eps == 1e-6
    assert faithful.optimizer.weight_decay == 0.0
    assert make_config(task="multitask", epochs=1, preset="paper_faithful").batch_size == 8
    assert make_config(task="emotion", epochs=1, preset="paper_faithful").batch_size == 8
    assert desk.encoder.d_model == 64
    assert desk.encoder.n_layers == 2
    assert desk.encoder.n_heads == 4
    assert desk.encoder.d_ff == 128
    assert desk.encoder.max_len == 64


def test_make_config_rejects_incompatible_snapshot_metric():
    with pytest.raises(ValidationError):
        make_config(task="emotion", epochs=1, snapshot_metric="pearson_avg")
    with pytest.raises(ValidationError):
        make_config(task="empathy", epochs=1, snapshot_metric="pearson_distress")
    assert make_config(task="multitask", epochs=1, snapshot_metric="pearson_empathy")


def test_config_dict_round_trip():
    cfg = tiny_config()
    assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_make_batches_sizes():
    ds = Dataset("train", [EssayRecord(str(i), "t") for i in range(10)])
    batches = make_batches(ds, 4, shuffle=True, seed=0, epoch=0)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(i for b in batches for i in b) == list(range(10))


def test_make_batches_no_shuffle_identity():
    ds = Dataset("train", [EssayRecord(str(i), "t") for i in range(7)])
    batches = make_batches(ds, 3, shuffle=False, seed=9, epoch=4)
    assert [i for b in batches for i in b] == list(range(7))


def test_make_batches_seeded_per_epoch():
    ds = Dataset("train", [EssayRecord(str(i), "t") for i in range(64)])
    a = make_batches(ds, 8, shuffle=True, seed=5, epoch=3)
    b = make_batches(ds, 8, shuffle=True, seed=5, epoch=3)
    assert a == b
    c = make_batches(ds, 8, shuffle=True, seed=5, epoch=4)
    assert a != c
    d = make_batches(ds, 8, shuffle=True, seed=6, epoch=3)
    assert a != d


def test_make_batches_empty_dataset():
    with pytest.raises(ValidationError):
        make_batches(Dataset("train", []), 4, shuffle=False, seed=0, epoch=0)


def test_train_zero_epochs_returns_initialization(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, report = train(train_set, dev_set, vocab, tiny_config(epochs=0))
    assert report.epochs == []
    assert ckpt.best_metric is None and ckpt.best_epoch is None
    from miniaffect.nn.encoder import init_params

    fresh = init_params(ckpt.config.encoder, ckpt.config.seed)
    for name in fresh:
        assert np.array_equal(ckpt.params[name], fresh[name])


def test_train_missing_labels_fails_before_first_step(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    broken = Dataset("train", train_set.records[:3] + [EssayRecord("nolabel", "some text")])
    with pytest.raises(ValidationError, match="nolabel"):
        train(broken, dev_set, vocab, tiny_config())


def test_train_deterministic_and_loss_decreases(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    cfg = tiny_config(epochs=3, seed=11)
    ckpt1, report1 = train(train_set, dev_set, vocab, cfg)
    ckpt2, report2 = train(train_set, dev_set, vocab, cfg)
    for name in ckpt1.params:
        assert np.array_equal(ckpt1.params[name], ckpt2.params[name])
    assert report1.best_metric == report2.best_metric
    assert report1.best_epoch == report2.best_epoch
    assert [e.train_loss for e in report1.epochs] == [e.train_loss for e in report2.epochs]
    assert [e.dev for e in report1.epochs] == [e.dev for e in report2.epochs]
    assert report1.epochs[-1].train_loss < report1.epochs[0].train_loss


def test_train_snapshot_is_max_over_epochs(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    _, report = train(train_set, dev_set, vocab, tiny_config(epochs=5, seed=3))
    series = [e.dev["macro_f1"] for e in report.epochs]
    assert report.best_metric == max(series)
    assert report.best_epoch == series.index(max(series))  # earlier epoch wins ties


def test_single_step_decreases_fixed_batch_loss():
    # one optimizer step at a modest lr should usually reduce that batch's loss
    from miniaffect.nn.autodiff import Tape
    from miniaffect.nn.encoder import collect_grads, forward, head_apply, init_params, wrap_params
    from miniaffect.nn.losses import loss_cross_entropy
    from miniaffect.optim import AdamW, AdamWConfig
    from miniaffect.train import encode_dataset

    train_set = keyword_classification_corpus(8, "train", 7)
    vocab = build_vocab(train_set)
    cfg = tiny_config().encoder
    from dataclasses import replace

    enc = replace(cfg, vocab_size=len(vocab), head_kind="classify7", dropout_rate=0.0)
    ids, lengths = encode_dataset(train_set, vocab, enc.max_len)
    from miniaffect.data import emotion_id

    gold = np.array([emotion_id(r.emotion) for r in train_set.records])

    wins = 0
    for seed in range(20):
        params = init_params(enc, seed)
        opt = AdamW(AdamWConfig(lr=1e-3))

        def batch_loss():
            tape = Tape()
            pnodes = wrap_params(params)
            cls = forward(pnodes, enc, ids, lengths, tape, train_mode=True)
            return loss_cross_entropy(tape, head_apply(pnodes, enc, cls, tape), gold), tape, pnodes

        loss0, tape, pnodes = batch_loss()
        tape.backward(loss0)
        opt.step(params, collect_grads(pnodes, params))
        loss1, _, _ = batch_loss()
        if float(loss1.value) < float(loss0.value):
            wins += 1
    assert wins >= 18


def test_checkpoint_round_trip(tmp_path, emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=1, seed=2))
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.vocab_hash == ckpt.vocab_hash
    assert loaded.best_metric == ckpt.best_metric
    assert loaded.best_epoch == ckpt.best_epoch
    assert set(loaded.params) == set(ckpt.params)
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name], ckpt.params[name])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path, emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(FormatError):
        load_checkpoint(truncated)


def test_checkpoint_rejects_wrong_version(tmp_path, emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(bad)


def test_predict_deterministic_and_consistent(tmp_path, emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=2, seed=8))
    first = predict(ckpt, dev_set, vocab)
    second = predict(ckpt, dev_set, vocab)
    assert np.array_equal(first.scores, second.scores)
    assert first.labels == second.labels
    assert first.ids == [r.id for r in dev_set.records]
    # probabilities sum to 1 and the label column matches recomputed argmax
    assert np.abs(first.scores.sum(axis=1) - 1.0).max() < 1e-9
    from miniaffect.data import EMOTIONS

    assert first.labels == [EMOTIONS[int(i)] for i in first.scores.argmax(axis=1)]


def test_predict_after_reload_identical(tmp_path, emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=1, seed=4))
    before = predict(ckpt, dev_set, vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    after = predict(load_checkpoint(path), dev_set, vocab)
    assert np.array_equal(before.scores, after.scores)
    assert before.labels == after.labels


def test_predict_vocab_hash_mismatch(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=0))
    other_vocab = build_vocab(dev_set)
    with pytest.raises(ValidationError, match="hash"):
        predict(ckpt, dev_set, other_vocab)


def test_predict_regression_columns_and_clamp(regression_data):
    train_set, dev_set = regression_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(task="empathy", epochs=1, seed=5))
    preds = predict(ckpt, dev_set, vocab)
    assert preds.empathy is not None and preds.distress is None
    clamped = predict(ckpt, dev_set, vocab, clamp=True)
    assert np.all(clamped.empathy >= 1.0) and np.all(clamped.empathy <= 7.0)

    multi_ckpt, _ = train(train_set, dev_set, vocab, tiny_config(task="multitask", epochs=1, seed=5))
    multi = predict(multi_ckpt, dev_set, vocab)
    assert multi.empathy is not None and multi.distress is not None


def test_multitask_symmetric_targets_converge_together():
    train_set = keyword_regression_corpus(18, "train", 9, distress_mirror=True)
    dev_set = keyword_regression_corpus(12, "dev", 10, distress_mirror=True)
    vocab = build_vocab(train_set)
    _, report = train(train_set, dev_set, vocab, tiny_config(task="multitask", epochs=25, seed=6))
    final = report.epochs[-1].dev
    assert abs(final["pearson_empathy"] - final["pearson_distress"]) < 0.2
    assert final["pearson_avg"] == pytest.approx(
        (final["pearson_empathy"] + final["pearson_distress"]) / 2, abs=1e-12
    )


def test_seed_sweep_report_arithmetic(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    cfg = tiny_config(epochs=2)
    report = seed_sweep(train_set, dev_set, vocab, cfg, seeds=[1, 2, 3])
    assert len(report.entries) == 3
    values = [e.best_metric for e in report.entries]
    assert report.mean == pytest.approx(sum(values) / 3, abs=1e-12)
    assert report.min == min(values) and report.max == max(values)
    hand_std = (sum((v - sum(values) / 3) ** 2 for v in values) / 3) ** 0.5
    assert report.std == pytest.approx(hand_std, abs=1e-12)


def test_seed_sweep_identical_seeds_zero_spread(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    report = seed_sweep(train_set, dev_set, vocab, tiny_config(epochs=1), seeds=[7, 7])
    assert report.entries[0].best_metric == report.entries[1].best_metric
    assert report.std == 0.0


def test_seed_sweep_needs_two_seeds(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    with pytest.raises(ValidationError):
        seed_sweep(train_set, dev_set, vocab, tiny_config(epochs=1), seeds=[1])


@pytest.mark.parametrize("task", ["emotion", "multitask", "empathy"])
def test_epoch_selection_and_eval_score_the_best_snapshot_alike(emotion_data, regression_data, task):
    train_set, dev_set = emotion_data if task == "emotion" else regression_data
    vocab = build_vocab(train_set)
    ckpt, report = train(train_set, dev_set, vocab, tiny_config(task, epochs=3))
    kind = "classification" if task == "emotion" else "regression"
    scored = build_report(kind, predict(ckpt, dev_set, vocab), dev_set).to_dict()
    assert scored[report.snapshot_metric] == report.best_metric
    best_dev = report.epochs[report.best_epoch].dev
    assert {name: scored[name] for name in best_dev} == best_dev


@pytest.mark.parametrize("task, field", [("empathy", "empathy"), ("multitask", "distress")])
def test_constant_dev_gold_rejected_before_any_forward(regression_data, monkeypatch, task, field):
    train_set, dev_set = regression_data
    flat_dev = Dataset(split="dev", records=[replace(r, **{field: 4.0}) for r in dev_set.records])
    forwards = []
    monkeypatch.setattr(train_module, "forward", lambda *args, **kwargs: forwards.append(1))
    with pytest.raises(ValidationError, match=f"dev '{field}' scores are constant"):
        train(train_set, flat_dev, build_vocab(train_set), tiny_config(task=task, epochs=1))
    assert forwards == []


def test_non_finite_loss_stops_training_naming_epoch_and_batch(emotion_data, monkeypatch):
    # A loss that is non-finite while every gradient stays finite (here: zero).
    train_set, dev_set = emotion_data
    batch_loss = train_module._batch_loss
    calls = []

    def infinite_third_loss(*args, **kwargs):
        calls.append(batch_loss(*args, **kwargs))
        return Node(np.array(np.inf)) if len(calls) == 3 else calls[-1]

    monkeypatch.setattr(train_module, "_batch_loss", infinite_third_loss)
    with pytest.raises(DivergenceError, match=r"epoch 1 of 2, batch 3 of 3: non-finite training loss"):
        train(train_set, dev_set, build_vocab(train_set), tiny_config())


def test_constant_dev_gold_allowed_with_zero_epochs(regression_data):
    train_set, dev_set = regression_data
    flat_dev = Dataset(split="dev", records=[replace(r, empathy=4.0) for r in dev_set.records])
    ckpt, report = train(train_set, flat_dev, build_vocab(train_set), tiny_config(task="empathy", epochs=0))
    assert report.best_metric is None and ckpt.best_epoch is None


# Essays of 1 to 20 words (max_len 16), so an eval chunk trims to whatever its longest member needs.
_POOL = [
    EssayRecord(f"pool-{i}", " ".join(FILLER[(i + j) % len(FILLER)] for j in range(1 + (7 * i) % 20)), None, None, None)
    for i in range(12)
]


@functools.cache
def _pool_model(task):
    if task == "emotion":
        train_set, dev_set = keyword_classification_corpus(21, "train", 1), keyword_classification_corpus(14, "dev", 2)
    else:
        train_set, dev_set = keyword_regression_corpus(18, "train", 3), keyword_regression_corpus(12, "dev", 4)
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(task=task, epochs=1, seed=11))
    return ckpt, vocab


def _per_essay_outputs(task, records):
    ckpt, vocab = _pool_model(task)
    preds = predict(ckpt, Dataset(split="test", records=records), vocab)
    rows = preds.scores if task == "emotion" else np.column_stack([preds.empathy, preds.distress])
    return dict(zip(preds.ids, rows))


@functools.cache
def _alone(task, i):
    return _per_essay_outputs(task, [_POOL[i]])[_POOL[i].id]


@pytest.mark.parametrize("task", ["emotion", "multitask"])
@settings(max_examples=25)
@given(picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=len(_POOL), unique=True))
def test_predict_output_independent_of_chunk_mates_and_order(task, picks):
    outputs = _per_essay_outputs(task, [_POOL[i] for i in picks])
    for i in picks:
        assert np.abs(outputs[_POOL[i].id] - _alone(task, i)).max() < 1e-12
