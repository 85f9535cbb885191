import functools
import json
import math
import re
import struct
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miniaffect.train as train_module
from miniaffect import blas
from miniaffect.data import Dataset, EssayRecord
from miniaffect.errors import DivergenceError, FormatError, ValidationError
from miniaffect.metrics import build_report
from miniaffect.nn import autodiff as ad
from miniaffect.nn.autodiff import Node, softmax
from miniaffect.nn.encoder import init_params, param_shapes, peak_bytes, run_model
from miniaffect.text import build_vocab
from miniaffect.train import (
    _TASKS,
    CHECKPOINT_VERSION,
    TASKS,
    Checkpoint,
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


def heads(cfg):
    """The heads of the model a TrainConfig describes, which its task names."""
    return _TASKS[cfg.task].heads


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
    # A preset picks the default lr and nothing else, and the config does not record it.
    assert replace(faithful, optimizer=desk.optimizer) == make_config(task="empathy", epochs=1)
    assert "preset" not in faithful.to_dict()
    with pytest.raises(ValidationError, match="unknown preset 'fast' "):
        make_config(task="emotion", epochs=1, preset="fast")
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
    assert report.best_metric is None and report.best_epoch is None
    from miniaffect.nn.encoder import init_params

    fresh = init_params(ckpt.config.encoder, heads(ckpt.config), ckpt.config.seed)
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
    cfg = tiny_config()
    from dataclasses import replace

    enc = replace(cfg.encoder, vocab_size=len(vocab), dropout_rate=0.0)
    ids, lengths = encode_dataset(train_set, vocab, enc.max_len)
    from miniaffect.data import emotion_id

    gold = np.array([emotion_id(r.emotion) for r in train_set.records])

    wins = 0
    for seed in range(20):
        params = init_params(enc, heads(cfg), seed)
        opt = AdamW(AdamWConfig(lr=1e-3))

        def batch_loss():
            tape = Tape()
            pnodes = wrap_params(params)
            cls = forward(pnodes, enc, ids, lengths, tape, train_mode=True)
            return loss_cross_entropy(tape, head_apply(pnodes, heads(cfg), cls, tape)[0], gold), tape, pnodes

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
    assert set(loaded.params) == set(ckpt.params)
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name], ckpt.params[name])


def _small_checkpoint() -> Checkpoint:
    """A freshly initialised two-layer multitask checkpoint, small enough to build per example."""
    encoder = tiny_encoder_kwargs(vocab_size=20, d_model=8, d_ff=8, n_layers=2)
    cfg = make_config(task="multitask", epochs=2, seed=5, encoder=encoder)
    return Checkpoint(config=cfg, vocab_hash="0" * 64, params=init_params(cfg.encoder, heads(cfg), 5))


@functools.cache
def _saved_checkpoint() -> tuple[bytes, int]:
    """A small trained-shape checkpoint's bytes and the offset where its tensor section starts."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(_small_checkpoint(), path)
        raw = path.read_bytes()
    return raw, 16 + int.from_bytes(raw[8:16], "little")


@settings(max_examples=300)
@given(
    kind=st.sampled_from(["truncate", "prefix", "header", "tensor_bits", "tensor_exponent"]),
    spots=st.lists(st.tuples(st.integers(0, 2**31), st.integers(0, 255)), min_size=1, max_size=3),
)
def test_checkpoint_mutation_loads_finite_tensors_or_raises_format_error(kind, spots):
    """A truncated file, overwritten magic, version, length or header bytes, or a corrupt tensor section
    either fails with FormatError or loads finite tensors of the shapes its config names."""
    raw, header_end = _saved_checkpoint()
    blob = bytearray(raw)
    for where, value in spots:
        if kind == "truncate":
            blob = blob[: where % len(blob)]
            break
        if kind in ("prefix", "header"):
            blob[where % 16 if kind == "prefix" else 16 + where % (header_end - 16)] = value
        else:
            element = header_end + 8 * (where % ((len(raw) - header_end) // 8))
            if kind == "tensor_bits":
                blob[element + value % 8] ^= 1 << (value // 32)
            else:  # an all-ones exponent: an infinity or a nan, whatever the mantissa
                blob[element + 7] |= 0x7F
                blob[element + 6] |= 0xF0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(bytes(blob))
        try:
            loaded = load_checkpoint(path)
        except FormatError:
            assert kind != "tensor_bits" or not all(np.isfinite(np.frombuffer(blob[header_end:], "<f8")))
            return
    assert kind != "tensor_exponent"
    shapes = {name: shape for name, shape, _ in param_shapes(loaded.config.encoder, heads(loaded.config))}
    assert {name: arr.shape for name, arr in loaded.params.items()} == shapes
    assert all(np.isfinite(arr).all() for arr in loaded.params.values())


@settings(max_examples=100)
@given(
    task=st.sampled_from(TASKS),
    n_heads=st.integers(1, 3),
    head_dim=st.integers(1, 3),
    n_layers=st.integers(1, 3),
    d_ff=st.integers(1, 6),
    vocab_size=st.integers(1, 9),
    max_len=st.integers(2, 6),
    dropout_rate=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**31),
    planted=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
def test_checkpoint_round_trip_property(task, n_heads, head_dim, n_layers, d_ff, vocab_size, max_len,
                                        dropout_rate, seed, planted):
    encoder = dict(vocab_size=vocab_size, d_model=n_heads * head_dim, n_layers=n_layers, n_heads=n_heads,
                   d_ff=d_ff, max_len=max_len, dropout_rate=dropout_rate)
    cfg = make_config(task=task, epochs=1, seed=seed, encoder=encoder)
    params = init_params(cfg.encoder, heads(cfg), seed)
    params["tok_emb"][-1, -1] = planted  # any float64, signed zeros, subnormals, infinities and nans included
    ckpt = Checkpoint(config=cfg, vocab_hash="0" * 64, params=params)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(ckpt, path)
        if not np.isfinite(planted):  # a non-finite tensor is refused on load, naming it
            with pytest.raises(FormatError, match=r"model\.ckpt: tensor 'tok_emb' holds a non-finite value$"):
                load_checkpoint(path)
            return
        loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.vocab_hash == ckpt.vocab_hash
    assert list(loaded.params) == list(params)
    for name, arr in params.items():
        got = loaded.params[name]
        assert got.dtype == np.float64 and got.shape == arr.shape and got.tobytes() == arr.tobytes(), name


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


def test_checkpoint_short_tensor_read_is_a_format_error(tmp_path):
    """A file that shrinks after its size was checked fails naming the tensor, not with a half-filled array."""
    raw, _ = _saved_checkpoint()
    path = tmp_path / "model.ckpt"
    path.write_bytes(raw[:-8])
    with mock.patch.object(train_module.os, "fstat", return_value=mock.Mock(st_size=len(raw))):
        with pytest.raises(FormatError, match=r"model\.ckpt: tensor 'head_distress\.b' is cut short$"):
            load_checkpoint(path)


def test_checkpoint_header_holds_each_fact_once():
    raw, header_end = _saved_checkpoint()
    assert raw[:4] == b"MTAF" and struct.unpack_from("<I", raw, 4) == (CHECKPOINT_VERSION,) == (6,)
    header = json.loads(raw[16:header_end])
    # The config echo names and shapes every tensor, so there is no tensor manifest; the best dev metric
    # and epoch are the train report's. The checkpoint holds only what loading needs.
    assert set(header) == {"config", "vocab_hash"}
    config = TrainConfig.from_dict(header["config"])
    shapes = [shape for _, shape, _ in param_shapes(config.encoder, heads(config))]
    assert len(raw) - header_end == sum(8 * math.prod(shape) for shape in shapes)


def test_checkpoint_bytes_do_not_depend_on_dict_order(tmp_path):
    ckpt = _small_checkpoint()
    save_checkpoint(ckpt, tmp_path / "ordered.ckpt")
    save_checkpoint(replace(ckpt, params=dict(reversed(ckpt.params.items()))), tmp_path / "reversed.ckpt")
    raw = (tmp_path / "ordered.ckpt").read_bytes()
    assert (tmp_path / "reversed.ckpt").read_bytes() == raw
    # The tensors lie back to back in the config's param_shapes order.
    shapes = param_shapes(ckpt.config.encoder, heads(ckpt.config))
    section = b"".join(ckpt.params[name].tobytes() for name, _, _ in shapes)
    assert raw.endswith(section) and len(raw) == 16 + int.from_bytes(raw[8:16], "little") + len(section)


@pytest.mark.parametrize("message, edit", [
    ("checkpoint lacks tensor 'head.w', which its config needs", lambda ckpt: ckpt.params.pop("head.w")),
    ("tensor 'pos_emb' has shape (10, 32), its config needs (16, 32)",
     lambda ckpt: ckpt.params.update(pos_emb=ckpt.params["pos_emb"][:10])),
    ("tensor 'zz' is not part of the model its config describes", lambda ckpt: ckpt.params.update(zz=np.zeros(1))),
], ids=["missing_head_w", "pos_emb_cut_to_10_rows", "extra_tensor"])
def test_save_checkpoint_refuses_a_checkpoint_that_would_not_load(tmp_path, emotion_data, message, edit):
    train_set, dev_set = emotion_data
    ckpt, _ = train(train_set, dev_set, build_vocab(train_set), tiny_config(epochs=0))
    edit(ckpt)
    path = tmp_path / "bad.ckpt"
    with pytest.raises(ValidationError, match=re.escape(message)):
        save_checkpoint(ckpt, path)
    assert not path.exists()


@pytest.mark.parametrize("message, edit", [
    ("10000000000 layers", lambda cfg: replace(cfg, encoder=replace(cfg.encoder, n_layers=10**10))),
    ("not divisible by n_heads 3", lambda cfg: replace(cfg, encoder=replace(cfg.encoder, n_heads=3))),
    ("epochs must be >= 0", lambda cfg: replace(cfg, epochs=-4)),
], ids=["n_layers_1e10", "n_heads_not_dividing_d_model", "epochs_negative"])
def test_a_config_that_would_not_load_cannot_be_built(message, edit):
    # A config is checked when it is built, so no checkpoint can carry one that would not load,
    # and 1e10 layers are never walked.
    with pytest.raises(ValidationError, match=re.escape(message)):
        edit(_small_checkpoint().config)


@settings(max_examples=100)
@given(faults=st.lists(st.tuples(st.sampled_from(["drop", "reshape", "extra", "reverse"]), st.integers(0, 2**16)),
                       max_size=3))
def test_save_checkpoint_refuses_or_writes_what_loads_back_equal(faults):
    """save_checkpoint either raises ValidationError and leaves no file, or writes a file that
    load_checkpoint reads back equal; only a reordered params dict is saved."""
    ckpt = _small_checkpoint()
    for kind, pick in faults:
        names = list(ckpt.params)
        name = names[pick % len(names)]
        if kind == "drop":
            del ckpt.params[name]
        elif kind == "reshape":
            ckpt.params[name] = ckpt.params[name][..., None]
        elif kind == "extra":
            ckpt.params[f"extra.{pick}"] = np.zeros(pick % 4)
        else:
            ckpt.params = dict(reversed(ckpt.params.items()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        try:
            save_checkpoint(ckpt, path)
        except ValidationError:
            assert not path.exists()
            assert any(kind != "reverse" for kind, _ in faults)
            return
        loaded = load_checkpoint(path)
    assert all(kind == "reverse" for kind, _ in faults)
    assert loaded.config == ckpt.config and loaded.vocab_hash == ckpt.vocab_hash
    assert loaded.params.keys() == ckpt.params.keys()
    for name, arr in loaded.params.items():
        assert arr.shape == ckpt.params[name].shape and arr.tobytes() == ckpt.params[name].tobytes(), name


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


def test_predict_clamp_refuses_a_classification_checkpoint(emotion_data):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=0))
    with pytest.raises(ValidationError, match="task 'emotion'"):
        predict(ckpt, dev_set, vocab, clamp=True)


@pytest.mark.parametrize("vocab_size", [0, 5])
def test_predict_refuses_a_checkpoint_sized_for_another_vocabulary(emotion_data, vocab_size):
    """A config echo and embedding cut to another vocab_size by hand load, but predict refuses them."""
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    ckpt, _ = train(train_set, dev_set, vocab, tiny_config(epochs=0))
    ckpt.config = replace(ckpt.config, encoder=replace(ckpt.config.encoder, vocab_size=vocab_size))
    ckpt.params["tok_emb"] = ckpt.params["tok_emb"][:vocab_size]
    with pytest.raises(ValidationError, match=f"checkpoint vocab_size {vocab_size} is not the vocabulary's {len(vocab)}"):
        predict(ckpt, dev_set, vocab)


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


def test_seed_sweep_refuses_a_repeated_seed(emotion_data, monkeypatch):
    # Two runs of one seed are one model: their spread would read 0 and say nothing.
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    trained = mock.Mock(side_effect=AssertionError("trained before the seeds were checked"))
    monkeypatch.setattr(train_module, "train", trained)
    with pytest.raises(ValidationError, match="seed 7 more than once"):
        seed_sweep(train_set, dev_set, vocab, tiny_config(epochs=1), seeds=[7, 8, 7])
    trained.assert_not_called()


def test_seed_sweep_validates_every_seed_before_the_first_run(emotion_data, monkeypatch):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    trained = mock.Mock(side_effect=AssertionError("trained before every seed was validated"))
    monkeypatch.setattr(train_module, "train", trained)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        seed_sweep(train_set, dev_set, vocab, tiny_config(epochs=1), seeds=[0, 1, -1])
    trained.assert_not_called()


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


def test_identically_encoded_dev_set_rejected_before_any_forward(regression_data, monkeypatch):
    # Two out-of-vocabulary essays of equal length both encode to CLS plus UNKs,
    # so every dev prediction would be the same although the gold scores differ.
    train_set, _ = regression_data
    oov_dev = Dataset(split="dev", records=[
        EssayRecord("d0", "zzyzx qwxrt", 2.0, 6.0, None),
        EssayRecord("d1", "plomb vrask", 5.0, 3.0, None),
    ])
    forwards = []
    monkeypatch.setattr(train_module, "forward", lambda *args, **kwargs: forwards.append(1))
    with pytest.raises(ValidationError, match="all 2 dev set essays encode to the same token ids"):
        train(train_set, oov_dev, build_vocab(train_set), tiny_config(task="multitask", epochs=1))
    assert forwards == []


def test_train_checks_the_memory_bound_at_the_vocabulary_size(emotion_data, monkeypatch):
    # make_config sizes the token table at vocab_size 0; train() checks again at the real size.
    train_set, dev_set = emotion_data
    cfg = tiny_config()
    eval_rows = train_module._EVAL_TOKENS // cfg.encoder.max_len
    bound = sum(peak_bytes(cfg.encoder, heads(cfg), cfg.batch_size, eval_rows).values())
    monkeypatch.setattr(train_module, "MAX_BYTES", bound)
    monkeypatch.setattr(train_module, "init_params", lambda *args: pytest.fail("built a model over the bound"))
    assert replace(cfg) == cfg  # exactly at the bound is allowed
    with pytest.raises(ValidationError, match="for 1 layers, more than the limit"):
        train(train_set, dev_set, build_vocab(train_set), cfg)


def test_dev_evaluation_that_overflows_stops_training(emotion_data):
    # Every step's loss and gradients stay finite, but the weights grow by a factor of lr * weight_decay
    # a step, until the dev forward's layer norm squares values past float64's range.
    train_set, dev_set = emotion_data
    cfg = tiny_config(epochs=1, optimizer={"lr": 2.0**40, "weight_decay": 2.0**40})
    with pytest.raises(DivergenceError, match=r"^training diverged in epoch 1 of 1: overflow .* in the dev evaluation$"):
        train(train_set, dev_set, build_vocab(train_set), cfg)


def test_training_step_that_overflows_stops_at_its_batch():
    # Weight decay at lr * weight_decay = 2**80 scales the weights by about -2**80 a step; the first step
    # whose forward overflows float64 stops the run, one batch before AdamW would see a non-finite gradient.
    train_set = keyword_classification_corpus(40, "train", 1)
    dev_set = keyword_classification_corpus(14, "dev", 2)
    cfg = make_config(task="emotion", epochs=3, seed=0, optimizer={"lr": 2.0**40, "weight_decay": 2.0**40})
    message = r"^training diverged in epoch 1 of 3, batch 4 of 5: overflow encountered in multiply$"
    with pytest.raises(DivergenceError, match=message):
        train(train_set, dev_set, build_vocab(train_set), cfg)


@pytest.mark.parametrize("entry", ["train", "predict", "seed_sweep"])
def test_every_model_pass_raises_on_overflow_invalid_and_divide(emotion_data, monkeypatch, entry):
    train_set, dev_set = emotion_data
    vocab = build_vocab(train_set)
    cfg = tiny_config(epochs=1)
    ckpt, _ = train(train_set, dev_set, vocab, cfg)
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append((fn.__name__, np.geterr()))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("_batch_loss", "_model_outputs"):
        monkeypatch.setattr(train_module, name, spy(getattr(train_module, name)))
    before = np.geterr()
    if entry == "train":
        train(train_set, dev_set, vocab, cfg)
    elif entry == "predict":
        predict(ckpt, dev_set, vocab)
    else:
        seed_sweep(train_set, dev_set, vocab, cfg, [1, 2])
    assert {name for name, _ in seen} == ({"_model_outputs"} if entry == "predict" else {"_batch_loss", "_model_outputs"})
    assert all((err["over"], err["invalid"], err["divide"]) == ("raise", "raise", "raise") for _, err in seen)
    assert np.geterr() == before


def test_seed_sweep_names_the_seed_whose_run_diverged(emotion_data, monkeypatch):
    train_set, dev_set = emotion_data
    runs = []

    def diverging_for_seed_5(train_set, dev_set, vocab, cfg):
        runs.append(cfg.seed)
        if cfg.seed == 5:
            raise DivergenceError("training diverged in epoch 1 of 1, batch 2 of 3: overflow encountered in multiply")
        return train(train_set, dev_set, vocab, cfg)

    monkeypatch.setattr(train_module, "train", diverging_for_seed_5)
    message = r"^seed 5: training diverged in epoch 1 of 1, batch 2 of 3: overflow encountered in multiply$"
    with pytest.raises(DivergenceError, match=message):
        seed_sweep(train_set, dev_set, build_vocab(train_set), tiny_config(epochs=1), [4, 5, 6])
    assert runs == [4, 5]


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
    _, report = train(train_set, flat_dev, build_vocab(train_set), tiny_config(task="empathy", epochs=0))
    assert report.best_metric is None and report.best_epoch is None


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
    # The defaults put the picks in a few chunks; 24 tokens (at most one essay of 13 or
    # more tokens) splits them by budget, and a padding cost of 0 gives every distinct
    # length its own chunk, so outputs cross chunk boundaries of both kinds.
    budget, cost = train_module._EVAL_TOKENS, train_module._CHUNK_COST_TOKENS
    for patched_budget, patched_cost in ((budget, cost), (24, cost), (budget, 0)):
        with mock.patch.multiple(train_module, _EVAL_TOKENS=patched_budget, _CHUNK_COST_TOKENS=patched_cost):
            outputs = _per_essay_outputs(task, [_POOL[i] for i in picks])
        for i in picks:
            assert np.abs(outputs[_POOL[i].id] - _alone(task, i)).max() < 1e-12


# Short essays share chunks; one of 1000 tokens or more runs alone, and some are over the budget on their own.
_LENGTH = st.one_of(st.integers(0, 80), st.integers(1000, 1100))


@settings(max_examples=200)
@given(lengths=st.lists(_LENGTH, max_size=60), cost=st.integers(0, 200))
def test_eval_chunks_group_the_essays_by_ascending_length_within_the_token_budget(lengths, cost):
    budget = train_module._EVAL_TOKENS
    with mock.patch.object(train_module, "_CHUNK_COST_TOKENS", cost):
        groups = [g.tolist() for g in train_module._eval_chunks(np.array(lengths, dtype=np.int64))]
    widths = [max(1, n) for n in lengths]
    # A partition of the essays in ascending length, ties in file order.
    assert [i for g in groups for i in g] == sorted(range(len(lengths)), key=lambda i: lengths[i])
    for k, g in enumerate(groups):
        rows, width = len(g), widths[g[-1]]
        assert rows == 1 or rows * width <= budget
        # Each essay joined within the padding cost, and each cut was for the budget or the padding.
        assert all(r * (widths[g[r]] - widths[g[r - 1]]) <= cost for r in range(1, rows))
        if k + 1 < len(groups):
            nxt = widths[groups[k + 1][0]]
            assert (rows + 1) * nxt > budget or rows * (nxt - width) > cost


def test_equal_length_essays_run_in_file_order_spans():
    # Every essay fills max_len 64, as on long-essay corpora: the chunks are the
    # consecutive 16-essay spans in file order, and predict is bit-identical to them.
    records = [
        EssayRecord(f"long-{i}", " ".join(FILLER[(i + j) % len(FILLER)] for j in range(70)), None, None, "joy")
        for i in range(40)
    ]
    d = Dataset(split="test", records=records)
    vocab = build_vocab(d)
    ckpt, _ = train(d, d, vocab, make_config(task="emotion", epochs=0, seed=5))
    cfg = ckpt.config.encoder
    ids, lengths = train_module.encode_dataset(d, vocab, cfg.max_len)
    assert (lengths == cfg.max_len).all()
    starts = range(0, 40, 16)
    assert [g.tolist() for g in train_module._eval_chunks(lengths)] == [list(range(a, min(a + 16, 40))) for a in starts]
    with blas.single_thread():  # as predict runs
        chunks = [run_model(ckpt.params, cfg, heads(ckpt.config), ids[a : a + 16], lengths[a : a + 16]) for a in starts]
    logits = np.concatenate([out for (out,) in chunks])
    assert np.array_equal(predict(ckpt, d, vocab).scores, softmax(logits, axis=1))


def test_desk_scale_eval_hands_attention_at_most_the_token_budget(monkeypatch):
    config = make_config(task="emotion", epochs=1, encoder={"vocab_size": 50})
    cfg = config.encoder
    params = init_params(cfg, heads(config), 3)
    rng = np.random.default_rng(0)
    ids = np.concatenate([np.full((64, 1), 2), rng.integers(3, 50, (64, cfg.max_len - 1))], axis=1)
    lengths = np.full(64, cfg.max_len)
    shapes = []

    def spy(op, keys_at):  # keys_at: the argument after the tape whose rows the keys span
        def spied(tape, *args):
            shapes.append(args[keys_at].value.shape[:2])  # [rows, seq_len]
            return op(tape, *args)
        return spied

    monkeypatch.setattr(ad, "attention", spy(ad.attention, 1))  # full-width layers: k
    monkeypatch.setattr(ad, "cls_attention", spy(ad.cls_attention, 0))  # the last layer: its normed rows
    out = train_module._model_outputs(params, config, ids, lengths)["emotion"]
    assert len(shapes) > cfg.n_layers  # more than one chunk
    assert all(rows * width <= train_module._EVAL_TOKENS for rows, width in shapes)
    assert sum(rows for rows, _ in shapes) == 64 * cfg.n_layers
    monkeypatch.undo()
    assert np.abs(out - run_model(params, cfg, heads(config), ids, lengths)[0]).max() < 1e-12
