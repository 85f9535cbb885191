import contextlib
import functools
import io
import json
import math
import platform
import struct
import tempfile
import typing
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniaffect import train as train_module
from miniaffect.augment import MAX_TOTAL
from miniaffect.cli import main
from miniaffect.data import EMOTIONS, load_task_tsv, save_dataset
from miniaffect.errors import FormatError, ValidationError
from miniaffect.nn.encoder import EncoderConfig, init_params
from miniaffect.optim import AdamWConfig
from miniaffect.predictions import read_predictions
from miniaffect.text import load_vocab
from miniaffect.train import _TASKS, Checkpoint, TrainConfig, load_checkpoint, make_config, save_checkpoint

from corpus import keyword_classification_corpus, keyword_regression_corpus, tiny_encoder_kwargs


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path):
    """A JSON file's value; NaN, Infinity and -Infinity, which strict parsers reject, raise ValueError."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_no_constant)


# The reader that consumes each TSV output a command can write.
_TSV_READERS = {
    "dataset.tsv": lambda path: load_task_tsv(path, "derived"),
    "augmented.tsv": lambda path: load_task_tsv(path, "derived"),
    "vocab.tsv": load_vocab,
    "predictions.tsv": read_predictions,
    "ensemble.tsv": read_predictions,
    "ensemble_summed.tsv": read_predictions,
}


def run(*argv):
    """main() on argv; after a success, every JSON file the command wrote must be strict JSON,
    and every TSV file must load through the reader that consumes it."""
    argv = [str(a) for a in argv]
    code = main(argv)
    if code == 0 and "--out" in argv:
        manifest = Path(argv[argv.index("--out") + 1]) / "manifest.json"
        outputs = strict_json(manifest)["outputs"]
        for path in [manifest, *(p for p in outputs if p.endswith(".json"))]:
            strict_json(path)
        for path in (p for p in outputs if p.endswith(".tsv")):
            _TSV_READERS[Path(path).name](path)
    return code


def _header_only(src, dst):
    """Copy just the header line of a TSV: a valid file with no records."""
    dst.write_text(src.read_text(encoding="utf-8").split("\n")[0] + "\n", encoding="utf-8")
    return dst


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    train_set = keyword_classification_corpus(21, "train", 1)
    dev_set = keyword_classification_corpus(14, "dev", 2)
    pool = keyword_classification_corpus(70, "pool", 3)
    save_dataset(train_set, root / "train.tsv")
    save_dataset(dev_set, root / "dev.tsv")
    save_dataset(pool, root / "pool.tsv")  # a pool's header names its text column text
    config = {"encoder": tiny_encoder_kwargs()}
    (root / "tiny.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def test_ingest_valid_file(tmp_path, corpora, capsys):
    out = tmp_path / "out"
    assert run("ingest", "--input", corpora / "train.tsv", "--out", out) == 0
    assert (out / "dataset.tsv").exists()
    hist_lines = (out / "histogram.csv").read_text().strip().split("\n")
    assert hist_lines[0] == "class,count"
    assert len(hist_lines) == 8
    total = sum(int(line.split(",")[1]) for line in hist_lines[1:])
    assert total == 21
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["config"] == {"records": 21}
    assert len(manifest["inputs"]) == 1


def test_ingest_invalid_row_exit_code_and_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("essay\tempathy\nfine text\t3.0\nbad text\t9.5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ingest", "--input", bad, "--out", out) == 1
    assert "line 3" in capsys.readouterr().err


def test_ingest_usage_error_exit_code():
    assert run("ingest", "--nonsense") == 2


def test_augment_ba_balances(tmp_path, corpora):
    out = tmp_path / "out"
    code = run("augment", "--base", corpora / "train.tsv",
               "--pool", corpora / "pool.tsv", "--total", 28, "--seed", 5, "--out", out)
    assert code == 0
    augmented = load_task_tsv(out / "augmented.tsv", "derived")
    from miniaffect.data import class_histogram

    assert all(v == 4 for v in class_histogram(augmented).values())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["with_replacement_used"] == "false"
    assert manifest["seeds"] == [5]


def test_augment_ra_count_zero_identity(tmp_path, corpora):
    out = tmp_path / "out"
    assert run("augment", "--base", corpora / "train.tsv",
               "--pool", corpora / "pool.tsv", "--count", 0, "--seed", 1, "--out", out) == 0
    assert load_task_tsv(out / "augmented.tsv", "train").records == load_task_tsv(corpora / "train.tsv", "train").records


def test_augment_same_seed_byte_identical(tmp_path, corpora):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("augment", "--base", corpora / "train.tsv",
                   "--pool", corpora / "pool.tsv", "--total", 28, "--seed", 9, "--out", out) == 0
    assert (out1 / "augmented.tsv").read_bytes() == (out2 / "augmented.tsv").read_bytes()


def test_augment_pool_column_repeating_essay_exits_1_writing_nothing(tmp_path, corpora, capsys):
    # A pool's extra columns become the output's extras, so a pool column named essay would name it twice.
    header, *rows = (corpora / "pool.tsv").read_text(encoding="utf-8").splitlines()
    pool = tmp_path / "pool.tsv"
    pool.write_text("\n".join([header + "\tessay", *(row + "\tx" for row in rows)]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("augment", "--base", corpora / "train.tsv", "--pool", pool,
               "--count", 3, "--seed", 1, "--out", out) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "header repeats column 'essay'" in err
    assert not (out / "augmented.tsv").exists()


@pytest.mark.parametrize("size", [("--total", 28), ("--count", 3)], ids=["ba", "ra"])
def test_augment_negative_seed_exits_1_naming_it(tmp_path, corpora, capsys, size):
    assert run("augment", "--base", corpora / "train.tsv", "--pool", corpora / "pool.tsv",
               *size, "--seed", -1, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "seed must be >= 0, got -1" in err


@pytest.mark.parametrize("total", [7 * 10**20, 7 * 10**10], ids=["7e20", "7e10"])
def test_augment_total_over_the_bound_exits_1_before_drawing(tmp_path, corpora, capsys, total):
    # 7e20 overflowed numpy's draw (exit 3); 7e10 would have tried to build that many records.
    out = tmp_path / "out"
    assert run("augment", "--base", corpora / "train.tsv", "--pool", corpora / "pool.tsv",
               "--total", total, "--seed", 1, "--out", out) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"total_target {total} is over {MAX_TOTAL}" in err
    assert not (out / "augmented.tsv").exists()


# The size flag picks the scheme (--total ba, --count ra), so exactly one must be given.
@pytest.mark.parametrize("sizes, message", [
    (("--total", 14, "--count", 5), "argument --count: not allowed with argument --total"),
    (("--count", 3, "--total", 700), "argument --total: not allowed with argument --count"),
    ((), "one of the arguments --total --count is required"),
], ids=["total_then_count", "count_then_total", "neither"])
def test_augment_size_flags_both_or_neither_exit_2_before_reading_input(tmp_path, sizes, message, capsys):
    missing = tmp_path / "missing.tsv"  # reading it would fail with another message
    out = tmp_path / "x"
    assert run("augment", *sizes, "--base", missing, "--pool", missing, "--out", out) == 2
    err = capsys.readouterr().err
    assert message in err
    assert str(missing) not in err
    assert not out.exists()


def test_ingest_train_predict_eval_pipeline(tmp_path, corpora):
    ingest_dir = tmp_path / "ingested"
    assert run("ingest", "--input", corpora / "train.tsv", "--out", ingest_dir, "--quiet") == 0
    out = tmp_path / "run"
    code = run("train", "--train", ingest_dir / "dataset.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 60, "--seed", 0,
               "--config", corpora / "tiny.json", "--out", out, "--quiet")
    assert code == 0
    assert (out / "model.ckpt").exists() and (out / "vocab.tsv").exists()
    report = json.loads((out / "train_report.json").read_text())
    assert len(report["epochs"]) == 60
    assert list(report) == ["task", "seed", "snapshot_metric", "best_epoch", "best_metric", "wall_time_s", "epochs"]
    assert list(report["epochs"][0]) == ["epoch", "train_loss", "dev"]
    assert list(report["epochs"][0]["dev"]) == ["macro_f1", "accuracy"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["encoder"]["d_model"] == 32  # config file honored
    assert manifest["seed_defaulted"] is False

    pred_dir = tmp_path / "preds"
    code = run("predict", "--model", out / "model.ckpt", "--vocab", out / "vocab.tsv",
               "--input", corpora / "train.tsv", "--out", pred_dir, "--quiet")
    assert code == 0
    preds = read_predictions(pred_dir / "predictions.tsv")
    assert np.abs(preds.scores.sum(axis=1) - 1.0).max() < 1e-9
    assert preds.labels == [EMOTIONS[int(i)] for i in preds.scores.argmax(axis=1)]

    eval_dir = tmp_path / "eval"
    code = run("eval", "--pred", pred_dir / "predictions.tsv",
               "--gold", corpora / "train.tsv", "--out", eval_dir, "--quiet")
    assert code == 0
    payload = json.loads((eval_dir / "report.json").read_text())
    assert payload["macro_f1"] == 1.0  # separable corpus memorized
    assert payload["accuracy"] == 1.0
    for key in ("task", "accuracy", "macro_f1", "per_class_f1", "confusion", "confusion_normalized", "n"):
        assert key in payload
    assert (eval_dir / "confusion.csv").exists()
    assert (eval_dir / "confusion_normalized.csv").exists()
    assert (eval_dir / "histogram.csv").exists()

    report_dir = tmp_path / "summary"
    assert run("report", str(eval_dir / "report.json"), "--out", report_dir) == 0
    table = (report_dir / "report.md").read_text()
    assert "macro_f1" in table and "report" in table


def test_train_missing_task_is_validation_error(tmp_path, corpora):
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--epochs", 1, "--out", tmp_path / "x") == 1


@pytest.mark.parametrize("config", [
    {"encoder": tiny_encoder_kwargs(n_heads=3)},
    {"encoder": tiny_encoder_kwargs(), "optimizer": {"lr": -1}},
], ids=["heads_do_not_divide_d_model", "negative_lr"])
def test_train_bad_config_is_validation_error(tmp_path, corpora, config, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 1, "--config", cfg_path,
               "--out", tmp_path / "x", "--quiet") == 1
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("key, config", [
    ("n_layer", {"encoder": {"n_layer": 1}}),
    ("lr", {"optimizer": {"lr": "fast"}}),
    ("epochs", {"epochs": "2"}),
    ("d_model", {"encoder": {"d_model": 32.0}}),
    ("seed", {"seed": "x"}),
    ("seed", {"seed": -1}),
    ("weight_decay", {"optimizer": {"weight_decay": float("inf")}}),
    ("largest term is training activations", {"encoder": {"max_len": 100000000000}}),
    ("epoch, learning_rate", {"epoch": 50, "learning_rate": 5}),
    ("unknown encoder key(s): head_kind", {"encoder": {"head_kind": "regression_single"}}),
    ("vocab_size 5", {"encoder": {"vocab_size": 5}}),
    ("vocab_size must be an integer", {"encoder": {"vocab_size": None}}),
    ("max_len 1 leaves no room after the CLS position", {"encoder": {"max_len": 1}}),
    ("vocab_max_size 2 cannot hold the 3 reserved ids", {"vocab_max_size": 2}),
    ("vocab_min_freq must be >= 1, got -5", {"vocab_min_freq": -5}),
    ("vocab_min_freq must be >= 1, got 0", {"vocab_min_freq": 0}),
    ("optimizer config must be an object, got [0.001]", {"optimizer": [1e-3]}),
])
def test_train_mistyped_config_exits_1(tmp_path, corpora, key, config, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"epochs": 1, **config}), encoding="utf-8")
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--config", cfg_path, "--out", tmp_path / "x", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert key in err


def test_train_vocab_min_freq_below_1_exits_1_before_reading_data(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vocab_min_freq": 0}), encoding="utf-8")
    missing = tmp_path / "missing.tsv"  # reading it would fail with another message
    assert run("train", "--train", missing, "--dev", missing, "--task", "emotion", "--epochs", 1,
               "--config", config, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "vocab_min_freq must be >= 1, got 0" in err
    assert str(missing) not in err


@pytest.mark.parametrize("encoder, term", [
    # One full-length essay's eval scores alone would take 8 heads x (2**22)**2 x 8 bytes, 1 PiB.
    ({"vocab_size": 600, "d_model": 8, "n_heads": 8, "d_ff": 8, "max_len": 2**22}, "training activations"),
    # A training step would keep three 4 GiB attention arrays per layer.
    ({"max_len": 4096}, "training activations"),
], ids=["max_len_2_22", "max_len_4096"])
def test_train_config_over_the_memory_bound_exits_1_before_reading_data(tmp_path, encoder, term, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"encoder": encoder}), encoding="utf-8")
    missing = tmp_path / "missing.tsv"  # reading it would fail with another message
    assert run("train", "--train", missing, "--dev", missing, "--task", "emotion", "--epochs", 1,
               "--config", config, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"for 2 layers, more than the limit of 16384 MiB; the largest term is {term}" in err
    assert str(missing) not in err


def test_train_empty_dev_is_validation_error(tmp_path, corpora, capsys):
    empty_dev = _header_only(corpora / "dev.tsv", tmp_path / "dev.tsv")
    assert run("train", "--train", corpora / "train.tsv", "--dev", empty_dev,
               "--task", "emotion", "--epochs", 1, "--config", corpora / "tiny.json",
               "--out", tmp_path / "x", "--quiet") == 1
    assert "dev set is empty" in capsys.readouterr().err


def test_predict_empty_input_is_validation_error(tmp_path, corpora, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    empty = _header_only(corpora / "train.tsv", tmp_path / "empty.tsv")
    assert run("predict", "--model", out / "model.ckpt", "--vocab", out / "vocab.tsv",
               "--input", empty, "--out", tmp_path / "preds", "--quiet") == 1
    assert "empty dataset" in capsys.readouterr().err


def _edit_header(src, dst, edit):
    """Copy a checkpoint with ``edit`` applied to its JSON header."""
    raw = src.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16 : 16 + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length :])


def _with_config(section=None, **changes):
    """Edit the header's config echo: a top-level field, or one in its encoder/optimizer section."""
    return lambda header: (header["config"] if section is None else header["config"][section]).update(changes)


def _with_layers(n_layers):
    return _with_config("encoder", n_layers=n_layers)


@pytest.mark.parametrize("message, edit", [
    ("10000000000 layers", _with_layers(10**10)),
    # 1000 tiny layers fit the memory bound, so the file is too short for them.
    ("tensor section is 82488 bytes, expected 68110392", _with_layers(1000)),
    # A second tiny layer is 8512 more float64 values, 68096 bytes.
    ("tensor section is 82488 bytes, expected 150584", _with_layers(2)),
    ("n_layers must be an integer", _with_layers("2")),
    ("not divisible by n_heads 3", _with_config("encoder", n_heads=3)),
    ("dropout_rate 5.0", _with_config("encoder", dropout_rate=5.0)),
    ("lr must be positive", _with_config("optimizer", lr=-1.0)),
    ("epochs must be >= 0", _with_config(epochs=-4)),
    ("unknown encoder key(s): head_kind", _with_config("encoder", head_kind="classify7")),
    ("unknown config key(s): preset", _with_config(preset="desk_scale")),
    ("max_len 1 leaves no room after the CLS position", _with_config("encoder", max_len=1)),
    ("vocab_max_size 2 cannot hold the 3 reserved ids", _with_config(vocab_max_size=2)),
    ("vocab_min_freq must be >= 1", _with_config(vocab_min_freq=0)),
], ids=["n_layers_1e10", "n_layers_past_manifest", "n_layers_2_of_1", "n_layers_not_int",
        "n_heads_not_dividing_d_model", "dropout_rate_5", "lr_negative", "epochs_negative",
        "head_kind_key", "preset_key", "max_len_1", "vocab_max_size_2", "vocab_min_freq_0"])
def test_predict_checkpoint_not_matching_config_exits_1(tmp_path, corpora, message, edit, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    _edit_header(out / "model.ckpt", out / "bad.ckpt", edit)
    assert run("predict", "--model", out / "bad.ckpt", "--vocab", out / "vocab.tsv",
               "--input", corpora / "dev.tsv", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert message in err


@pytest.mark.parametrize("message, edit", [
    ("corrupt checkpoint header: 'vocab_hash'", lambda header: header.pop("vocab_hash")),
], ids=["no_vocab_hash"])
def test_predict_checkpoint_header_fault_exits_1(tmp_path, corpora, message, edit, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    _edit_header(out / "model.ckpt", out / "bad.ckpt", edit)
    assert run("predict", "--model", out / "bad.ckpt", "--vocab", out / "vocab.tsv",
               "--input", corpora / "dev.tsv", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert message in err


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, corpora):
    """One epochs-0 emotion run's output directory, for tests that only read or copy its files."""
    out = tmp_path_factory.mktemp("trained")
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    return out


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_predict_older_checkpoint_version_exits_1(tmp_path, corpora, trained_model, version, capsys):
    # The version is read from bytes 4-8 before anything else in the file, so an old header adds nothing.
    raw = (trained_model / "model.ckpt").read_bytes()
    (tmp_path / "old.ckpt").write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
    assert run("predict", "--model", tmp_path / "old.ckpt", "--vocab", trained_model / "vocab.tsv",
               "--input", corpora / "dev.tsv", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"unsupported checkpoint version {version}" in err


@pytest.mark.parametrize("header", [
    '{"max_size": 8000, "min_freq": 1, "reserved": {"cls": 2, "pad": 0, "unk": 1}}',
    '{"max_size": 1e400, "min_freq": 1, "reserved": {"cls": 2, "pad": 0, "unk": 1}}',
], ids=["as_written", "max_size_overflows"])
def test_predict_json_header_vocabulary_exits_1_naming_it(tmp_path, corpora, header, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    # The format before the one-column table: a JSON header, then each token with its id.
    tokens = (out / "vocab.tsv").read_text(encoding="utf-8").splitlines()[1:]
    old = out / "old_vocab.tsv"
    old.write_text(header + "\n" + "".join(f"{tok}\t{i}\n" for i, tok in enumerate(tokens, start=3)), encoding="utf-8")
    assert run("predict", "--model", out / "model.ckpt", "--vocab", old,
               "--input", corpora / "dev.tsv", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"error: {old}: " in err
    assert not (tmp_path / "preds" / "predictions.tsv").exists()


def test_predict_clamp_on_classification_checkpoint_exits_1(tmp_path, corpora, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    assert run("predict", "--model", out / "model.ckpt", "--vocab", out / "vocab.tsv", "--clamp",
               "--input", corpora / "dev.tsv", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "task 'emotion'" in err
    assert not (tmp_path / "preds" / "predictions.tsv").exists()


@pytest.mark.parametrize("name, value", [("head.b", math.nan), ("tok_emb", math.inf), ("layers.0.ff.w2", -math.inf)])
def test_predict_checkpoint_with_non_finite_tensor_exits_1(tmp_path, corpora, name, value, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    ckpt = load_checkpoint(out / "model.ckpt")
    ckpt.params[name].flat[-1] = value
    save_checkpoint(ckpt, out / "bad.ckpt")
    assert run("predict", "--model", out / "bad.ckpt", "--vocab", out / "vocab.tsv",
               "--input", corpora / "dev.tsv", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert f"{out / 'bad.ckpt'}: tensor {name!r} holds a non-finite value" in err
    assert not (tmp_path / "preds").exists() or not any((tmp_path / "preds").iterdir())


def test_predict_of_a_checkpoint_whose_forward_overflows_exits_1_writing_nothing(tmp_path, capsys):
    # Finite but huge tensors, which load_checkpoint accepts: the forward overflows float64.
    train_path, dev_path, out = tmp_path / "train.tsv", tmp_path / "dev.tsv", tmp_path / "run"
    save_dataset(keyword_regression_corpus(40, "train", 1), train_path)
    save_dataset(keyword_regression_corpus(14, "dev", 2), dev_path)
    assert run("train", "--train", train_path, "--dev", dev_path, "--task", "empathy", "--epochs", 1,
               "--seed", 0, "--out", out, "--quiet") == 0
    ckpt = load_checkpoint(out / "model.ckpt")
    for name, arr in ckpt.params.items():
        if name == "tok_emb" or name.endswith(("attn.wv", "ff.w1")):
            arr *= 1e160
    save_checkpoint(ckpt, out / "huge.ckpt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("predict", "--model", out / "huge.ckpt", "--vocab", out / "vocab.tsv",
                   "--input", dev_path, "--out", tmp_path / "preds", "--quiet")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: prediction stopped: overflow encountered in multiply in the model's forward pass\n"
    )
    assert not (tmp_path / "preds" / "predictions.tsv").exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_train_divergence_exits_1_naming_epoch_batch_and_fault(tmp_path, capsys):
    train_path, dev_path, cfg_path = tmp_path / "train.tsv", tmp_path / "dev.tsv", tmp_path / "cfg.json"
    save_dataset(keyword_classification_corpus(40, "train", 1), train_path)
    save_dataset(keyword_classification_corpus(14, "dev", 2), dev_path)
    cfg_path.write_text(json.dumps({"optimizer": {"lr": 1e300}, "epochs": 3}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow stops the run without a warning
        code = run("train", "--train", train_path, "--dev", dev_path, "--task", "emotion",
                   "--config", cfg_path, "--out", tmp_path / "out", "--quiet")
    assert code == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "training diverged in epoch 1 of 3, batch 2 of 5: overflow encountered in multiply" in err


def test_train_seed_defaulting_noted(tmp_path, corpora):
    out = tmp_path / "out"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 1, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed_defaulted"] is True
    assert manifest["seeds"] == [0]


def test_flag_overrides_config_file(tmp_path, corpora):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "emotion", "epochs": 1, "batch_size": 4,
                                    "encoder": tiny_encoder_kwargs()}), encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--config", cfg_path, "--batch-size", 2, "--out", out, "--quiet") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["batch_size"] == 2
    assert manifest["config"]["epochs"] == 1


@pytest.mark.parametrize("given", [["--preset", "paper_faithful"], []], ids=["flag", "config_file"])
def test_preset_picks_the_default_lr_and_is_not_echoed(tmp_path, corpora, given):
    cfg_path = tmp_path / "cfg.json"
    settings = {"encoder": tiny_encoder_kwargs(), **({} if given else {"preset": "paper_faithful"})}
    cfg_path.write_text(json.dumps(settings), encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv", "--task", "emotion",
               "--epochs", 0, "--config", cfg_path, *given, "--out", out, "--quiet") == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["optimizer"]["lr"] == 1e-5
    assert "preset" not in config and "head_kind" not in config["encoder"]
    assert load_checkpoint(out / "model.ckpt").config.to_dict() == config


def test_manifest_config_reproduces_run(tmp_path, corpora):
    common = ["--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv", "--quiet"]
    assert run("train", *common, "--task", "emotion", "--epochs", 2, "--seed", 3,
               "--config", corpora / "tiny.json", "--out", tmp_path / "first") == 0
    resolved = json.loads((tmp_path / "first" / "manifest.json").read_text())["config"]
    assert resolved["encoder"]["vocab_size"] > 0
    (tmp_path / "resolved.json").write_text(json.dumps(resolved), encoding="utf-8")
    assert run("train", *common, "--config", tmp_path / "resolved.json", "--out", tmp_path / "second") == 0
    assert (tmp_path / "second" / "model.ckpt").read_bytes() == (tmp_path / "first" / "model.ckpt").read_bytes()


def test_ensemble_idempotent_on_duplicate_regression_file(tmp_path):
    pred = tmp_path / "m.tsv"
    pred.write_text("id\tempathy\na\t2.5\nb\t6.25\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ensemble", pred, pred, "--out", out) == 0
    merged = read_predictions(out / "ensemble.tsv")
    assert merged.empathy.tolist() == [2.5, 6.25]


def test_ensemble_classification_writes_both_files(tmp_path):
    rows = []
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(7), size=3)
    header = "id\t" + "\t".join(f"p_{e}" for e in EMOTIONS) + "\tlabel"
    for i, p in enumerate(probs):
        label = EMOTIONS[int(np.argmax(p))]
        rows.append(f"r{i}\t" + "\t".join(repr(float(v)) for v in p) + f"\t{label}")
    member = tmp_path / "m.tsv"
    member.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ensemble", member, member, "--out", out) == 0
    combined = read_predictions(out / "ensemble.tsv")
    assert np.abs(combined.scores.sum(axis=1) - 1.0).max() < 1e-9
    summed = read_predictions(out / "ensemble_summed.tsv")
    assert np.allclose(summed.scores, 2 * probs)
    assert json.loads((out / "manifest.json").read_text())["config"]["space"] == "probability"


def test_ensemble_classification_logit_space_writes_both_files(tmp_path):
    logits = np.random.default_rng(1).normal(size=(2, 3, 7))
    header = "id\t" + "\t".join(f"p_{e}" for e in EMOTIONS) + "\tlabel"
    members = []
    for k, scores in enumerate(logits):
        rows = [f"r{i}\t" + "\t".join(repr(float(v)) for v in row) + f"\t{EMOTIONS[int(np.argmax(row))]}"
                for i, row in enumerate(scores)]
        members.append(tmp_path / f"m{k}.tsv")
        members[-1].write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ensemble", "--space", "logit", *members, "--out", out) == 0
    summed = read_predictions(out / "ensemble_summed.tsv")
    assert np.allclose(summed.scores, logits.sum(axis=0))
    combined = read_predictions(out / "ensemble.tsv")
    mean = logits.mean(axis=0)
    assert np.allclose(combined.scores, np.exp(mean) / np.exp(mean).sum(axis=1, keepdims=True))
    assert combined.labels == [EMOTIONS[int(i)] for i in mean.argmax(axis=1)]
    assert json.loads((out / "manifest.json").read_text())["config"]["space"] == "logit"


@pytest.mark.parametrize("space", ["logit", "probability"])
def test_ensemble_regression_with_space_exits_1_before_writing(tmp_path, space, capsys):
    pred = tmp_path / "m.tsv"
    pred.write_text("id\tempathy\na\t2.5\nb\t6.25\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ensemble", "--space", space, pred, pred, "--out", out) == 1
    err = capsys.readouterr().err
    assert "error: --space does not apply to regression members, which are averaged" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("first", ["regression", "classification"])
def test_ensemble_of_mixed_kinds_exits_1_naming_the_first_other_member(tmp_path, first, capsys):
    regression, classification = tmp_path / "r.tsv", tmp_path / "c.tsv"
    regression.write_text("id\tempathy\na\t2.5\nb\t6.25\n", encoding="utf-8")
    classification.write_text(_PROB_HEADER + f"a\t{_UNIFORM}\tjoy\nb\t{_UNIFORM}\tjoy\n", encoding="utf-8")
    members = [regression, classification] if first == "regression" else [classification, regression]
    other = "classification" if first == "regression" else "regression"
    out = tmp_path / "out"
    assert run("ensemble", members[0], members[0], members[1], members[0], "--out", out) == 1
    err = capsys.readouterr().err
    assert f"error: {members[1]} holds {other} predictions, but {members[0]} holds {first} ones" in err
    assert not list(out.glob("ensemble*.tsv"))


def test_ensemble_manifest_records_the_space_used(tmp_path):
    pred = tmp_path / "m.tsv"
    pred.write_text("id\tempathy\na\t2.5\n", encoding="utf-8")
    assert run("ensemble", pred, "--out", tmp_path / "reg") == 0
    assert json.loads((tmp_path / "reg" / "manifest.json").read_text())["config"]["space"] is None


_PROB_HEADER = "id\t" + "\t".join(f"p_{e}" for e in EMOTIONS) + "\tlabel\n"
_UNIFORM = "\t".join([repr(1 / 7)] * 7)


def _logit_member(p_anger):
    rest = "\t0.0" * 6 + "\tanger\n"
    return _PROB_HEADER + f"a\t{p_anger}{rest}b\t1.0{rest}"


@pytest.mark.parametrize("space, member, fault", [
    (None, "id\tempathy\na\t1e308\nb\t2.0\n", "ensemble.tsv: line 2, column 'empathy': inf"),
    # the softmax of the mean turns the summed infinity into NaN
    ("logit", _logit_member("1e308"), "ensemble.tsv: line 2, column 'p_anger': nan"),
    # here ensemble.tsv, the softmax, is finite, and only ensemble_summed.tsv holds the infinity
    ("logit", _logit_member("-1e308"), "ensemble_summed.tsv: line 2, column 'p_anger': -inf"),
], ids=["regression_mean_overflows", "logit_softmax_of_an_infinity", "logit_sum_overflows_alone"])
def test_ensemble_of_finite_members_that_overflows_exits_1_writing_nothing(tmp_path, space, member, fault, capsys):
    path = tmp_path / "m.tsv"
    path.write_text(member, encoding="utf-8")
    out = tmp_path / "out"
    flags = ["--space", space] if space else []
    assert run("ensemble", *flags, path, path, "--out", out) == 1
    assert f"error: {fault} would not read back" in capsys.readouterr().err
    assert not list(out.glob("ensemble*.tsv"))


def test_ensemble_of_a_member_that_is_no_probability_vector_prints_its_sum_as_a_float(tmp_path, capsys):
    path = tmp_path / "m.tsv"
    path.write_text(_logit_member("1e308"), encoding="utf-8")
    out = tmp_path / "out"
    assert run("ensemble", path, path, "--out", out) == 1
    message = "member 1 row for id 'a' is not a probability vector (sums to 1e+308)"
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not list(out.glob("ensemble*.tsv"))


def test_eval_on_predictions_whose_sums_overflow_exits_1_writing_nothing(tmp_path, capsys):
    pred, gold = tmp_path / "p.tsv", tmp_path / "g.tsv"
    pred.write_text("id\tempathy\na\t1e308\nb\t1.7e308\nc\t-1e308\n", encoding="utf-8")
    gold.write_text("id\tessay\tempathy\na\tx\t1.0\nb\ty\t2.0\nc\tz\t4.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("eval", "--pred", pred, "--gold", gold, "--out", out) == 1
    assert "error: pearson undefined: the values overflow float64 sums" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_seed_sweep_cli(tmp_path, corpora):
    out = tmp_path / "out"
    code = run("seed-sweep", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 2, "--seeds", "1,2,3",
               "--config", corpora / "tiny.json", "--out", out, "--quiet")
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert len(payload["entries"]) == 3
    assert list(payload) == ["metric", "entries", "mean", "std", "min", "max"]
    assert list(payload["entries"][0]) == ["seed", "best_metric", "best_epoch"]
    values = [e["best_metric"] for e in payload["entries"]]
    assert payload["mean"] == pytest.approx(sum(values) / 3, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [1, 2, 3]
    assert manifest["seed_defaulted"] is False
    assert "seed" not in manifest["config"]  # only the swept seeds are recorded


def test_seed_sweep_divergence_exits_1_naming_the_seed(tmp_path, corpora, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"encoder": tiny_encoder_kwargs(), "optimizer": {"lr": 1e300}}), encoding="utf-8")
    code = run("seed-sweep", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 2, "--seeds", "3,4",
               "--config", cfg_path, "--out", tmp_path / "out", "--quiet")
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: seed 3: training diverged in epoch 1 of 2, batch 2 of 3: overflow encountered in multiply\n"
    assert not (tmp_path / "out" / "sweep.json").exists()


# Every config key, as its path in the config file's object.
_CONFIG_KEYS = [
    *((f.name,) for f in fields(TrainConfig)),
    *(("encoder", f.name) for f in fields(EncoderConfig)),
    *(("optimizer", f.name) for f in fields(AdamWConfig)),
]
# Keys whose null falls back to a default, so the run trains: every top-level key but the two with none.
_NULL_DEFAULTS = {(f.name,) for f in fields(TrainConfig)} - {("task",), ("epochs",)}
# No finite number is drawn and numeric keys reject bools, so no size is valid but huge enough to take gigabytes.
_WRONG_TYPED = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@settings(max_examples=100)
@given(key=st.sampled_from(_CONFIG_KEYS), value=_WRONG_TYPED)
def test_train_config_of_wrong_type_exits_0_or_1(corpora, key, value):
    config = {"task": "emotion", "epochs": 1, "encoder": tiny_encoder_kwargs(), "optimizer": {}}
    (config if len(key) == 1 else config[key[0]])[key[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
                   "--config", config_path, "--out", Path(tmp) / "out", "--quiet")
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue()
    if value is None and key in _NULL_DEFAULTS:
        assert code == 0, err.getvalue()


_SECTIONS = {"optimizer": AdamWConfig, "encoder": EncoderConfig}
# Values of the wrong type for each kind of config field; none of them is None, which means "unset" at the top level.
_WRONG_VALUES = {int: ["1", 1.5, True, [1]], float: ["0.5", True, [1]], bool: [1, "true", [1]], str: [1, [1]],
                 AdamWConfig: ["x", 1, [1]], EncoderConfig: ["x", 1, [1]]}


_NUMERIC_KEYS = [key for key in _CONFIG_KEYS
                 if typing.get_type_hints(TrainConfig if len(key) == 1 else _SECTIONS[key[0]])[key[-1]] in (int, float)]
# Zero, negative and fractional numbers, sizes past any memory, the largest float and the non-finite constants.
_SENTINELS = [0, -1, 0.5, 1.5, 2**40, 10**12, 1e308, math.inf, math.nan]


# Two keys at a time: almost every sentinel is refused, so more would rarely let a run train.
@settings(max_examples=300)
@given(values=st.dictionaries(st.sampled_from(_NUMERIC_KEYS), st.sampled_from(_SENTINELS), max_size=2))
def test_train_config_of_extreme_numbers_exits_0_or_1(corpora, values):
    config = {"task": "emotion", "epochs": 1, "encoder": tiny_encoder_kwargs(), "optimizer": {}}
    for key, value in values.items():
        if key == ("epochs",) and isinstance(value, int):
            value = min(value, 1)  # one epoch shows what more would
        (config if len(key) == 1 else config[key[0]])[key[-1]] = value
    # The bound, lowered so that no config it admits allocates more than a few tens of MB.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err, \
            mock.patch.object(train_module, "MAX_BYTES", 32 * 2**20):
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
                   "--config", config_path, "--out", Path(tmp) / "out", "--quiet")
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue()


@functools.cache
def _tiny_checkpoint_bytes() -> bytes:
    cfg = make_config("emotion", 1, encoder=tiny_encoder_kwargs(vocab_size=12, d_model=4, n_heads=1, d_ff=4))
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Checkpoint(config=cfg, vocab_hash="0" * 64, params=init_params(cfg.encoder, _TASKS["emotion"].heads, 0)),
                        Path(tmp) / "model.ckpt")
        return (Path(tmp) / "model.ckpt").read_bytes()


@settings(max_examples=60)
@given(fault=st.sampled_from(["unknown", "missing", "wrong_type"]), data=st.data())
def test_config_fault_fails_alike_on_every_path(fault, data):
    """An unknown key, a missing key or a wrong-typed value ends in a ValidationError that names the key,
    whether it reaches TrainConfig.from_dict through make_config, a train --config file or a checkpoint's
    config echo: never in a TypeError, a KeyError or exit 3."""
    if fault == "unknown":
        section = data.draw(st.sampled_from([None, *_SECTIONS]))
        names = {f.name for f in fields(_SECTIONS.get(section, TrainConfig))}
        key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).filter(lambda k: k not in names))
        path = (key,) if section is None else (section, key)
        value, expected = 1, f"key(s): {key}"
    elif fault == "missing":  # make_config and a config file take None as unset; the echo loses the key
        path, value = (data.draw(st.sampled_from(["task", "epochs"])),), None
        expected = path[0]
    else:
        path = data.draw(st.sampled_from(_CONFIG_KEYS))
        owner = TrainConfig if len(path) == 1 else _SECTIONS[path[0]]
        value = data.draw(st.sampled_from(_WRONG_VALUES[typing.get_type_hints(owner)[path[-1]]]))
        expected = path[-1]

    def with_fault(config, drop=False):
        target = config if len(path) == 1 else config[path[0]]
        if drop:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return config

    config = with_fault({"task": "emotion", "epochs": 1, "encoder": tiny_encoder_kwargs(), "optimizer": {}})
    with pytest.raises(ValidationError) as caught:
        make_config(**config)
    assert expected in str(caught.value)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        missing = tmp / "missing.tsv"  # the config fails before any data is read
        code = run("train", "--train", missing, "--dev", missing, "--config", tmp / "config.json", "--out", tmp / "out")
        assert code == 1, err.getvalue()
        assert "internal error" not in err.getvalue()
        assert expected in err.getvalue() and str(missing) not in err.getvalue()

        (tmp / "model.ckpt").write_bytes(_tiny_checkpoint_bytes())
        _edit_header(tmp / "model.ckpt", tmp / "bad.ckpt",
                     lambda header: with_fault(header["config"], drop=fault == "missing"))
        with pytest.raises(FormatError) as caught:
            load_checkpoint(tmp / "bad.ckpt")
        assert "invalid config echo" in str(caught.value) and expected in str(caught.value)


def test_seed_sweep_config_file_seed_exits_1_before_reading_data(tmp_path, corpora, capsys):
    config = tmp_path / "seeded.json"
    config.write_text(json.dumps({"seed": 7, "encoder": tiny_encoder_kwargs()}), encoding="utf-8")
    missing = tmp_path / "missing.tsv"  # reading it would fail with another message
    assert run("seed-sweep", "--train", missing, "--dev", missing, "--task", "emotion", "--epochs", 1,
               "--seeds", "1,2", "--config", config, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"config file {config} sets seed" in err and "--seeds" in err
    assert str(missing) not in err
    assert not any((tmp_path / "out").iterdir())


def test_seed_sweep_config_file_null_seed_is_unset(tmp_path, corpora):
    config = tmp_path / "unseeded.json"
    config.write_text(json.dumps({"seed": None, "encoder": tiny_encoder_kwargs()}), encoding="utf-8")
    assert run("seed-sweep", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv", "--task", "emotion",
               "--epochs", 1, "--seeds", "1,2", "--config", config, "--out", tmp_path / "out", "--quiet") == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seeds"] == [1, 2]


def test_seed_sweep_repeated_seed_exits_1(tmp_path, corpora, capsys):
    assert run("seed-sweep", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 1, "--seeds", "3,3", "--config", corpora / "tiny.json",
               "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "seed 3 more than once" in err
    assert not (tmp_path / "x" / "sweep.json").exists()


def test_seed_sweep_bad_seed_list(tmp_path, corpora):
    assert run("seed-sweep", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 1, "--seeds", "1,zebra",
               "--out", tmp_path / "x") == 1


def test_version_flag():
    assert run("--version") == 0


# Each command's argv with one input marked BAD; every other input is valid.
BAD = object()
_COMMAND_ARGS = {
    "ingest": ["ingest", "--input", BAD],
    "augment": ["augment", "--count", 1, "--base", "train.tsv", "--pool", BAD],
    "train": ["train", "--train", BAD, "--dev", "dev.tsv", "--task", "emotion", "--epochs", 1],
    "predict": ["predict", "--model", BAD, "--vocab", "train.tsv", "--input", "dev.tsv"],
    "ensemble": ["ensemble", BAD],
    "eval": ["eval", "--pred", BAD, "--gold", "dev.tsv"],
    "seed-sweep": ["seed-sweep", "--seeds", "1,2", "--train", "train.tsv", "--dev", BAD,
                   "--task", "emotion", "--epochs", 1],
    "report": ["report", BAD],
}


@pytest.mark.parametrize("fault", ["missing_input", "directory_input", "out_is_a_file", "non_utf8_input"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_unusable_path_exits_1_naming_it(tmp_path, corpora, command, fault, capsys):
    out = tmp_path / "out"
    bad = {
        "missing_input": tmp_path / "missing.tsv",
        "directory_input": corpora,
        "out_is_a_file": corpora / "dev.tsv",
        "non_utf8_input": tmp_path / "latin1.tsv",
    }[fault]
    (tmp_path / "latin1.tsv").write_bytes("essay\temotion\ncaf\xe9\tjoy\n".encode("latin-1"))
    if fault == "out_is_a_file":
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n", encoding="utf-8")
    argv = [bad if a is BAD else corpora / a if str(a).endswith(".tsv") else a for a in _COMMAND_ARGS[command]]
    assert run(*argv, "--out", out, "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert str(out if fault == "out_is_a_file" else bad) in err


# Each command's argv, run from a directory holding the corpora, a trained run and its predictions,
# and the output file it writes.
_WRITING_COMMANDS = {
    "train": (["train", "--train", "train.tsv", "--dev", "dev.tsv", "--task", "emotion", "--epochs", 0,
               "--config", "tiny.json"], "model.ckpt"),
    "predict": (["predict", "--model", "run/model.ckpt", "--vocab", "run/vocab.tsv", "--input", "dev.tsv"],
                "predictions.tsv"),
    "ensemble": (["ensemble", "preds/predictions.tsv"], "ensemble.tsv"),
}


@pytest.mark.parametrize("blocked", ["output", "manifest"])
@pytest.mark.parametrize("command", sorted(_WRITING_COMMANDS))
def test_output_path_taken_by_a_directory_exits_1_naming_it(tmp_path, corpora, monkeypatch, command, blocked, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("train.tsv", "dev.tsv", "tiny.json"):
        Path(name).symlink_to(corpora / name)
    assert run(*_WRITING_COMMANDS["train"][0], "--out", "run", "--quiet") == 0
    assert run(*_WRITING_COMMANDS["predict"][0], "--out", "preds", "--quiet") == 0
    argv, output = _WRITING_COMMANDS[command]
    taken = Path("out") / (output if blocked == "output" else "manifest.json")
    taken.mkdir(parents=True)
    assert run(*argv, "--out", "out", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"error: cannot write output {taken}: Is a directory" in err


@pytest.mark.parametrize("content, message", [
    ("not json at all", "is not JSON"),
    ("[0.5, 0.25]", "must hold a JSON object"),
    ('{"task": "classification", "macro_f1": "high"}', "macro_f1 must be a number"),
    ('{"task": "classification", "accuracy": true}', "accuracy must be a number"),
    # json reads NaN and the Infinity literals, and 1e400 as an infinity; eval writes none of them.
    ('{"task": "regression", "pearson_avg": NaN}', "pearson_avg must be a number and finite, got nan"),
    ('{"task": "regression", "pearson_empathy": Infinity}', "pearson_empathy must be a number and finite, got inf"),
    ('{"task": "classification", "accuracy": -Infinity}', "accuracy must be a number and finite, got -inf"),
    ('{"task": "classification", "macro_f1": 1e400}', "macro_f1 must be a number and finite, got inf"),
    pytest.param('{"macro_f1": 1%s}' % ("0" * 400), "macro_f1 must be a number and finite, got 1000",
                 id="int_past_float64"),
])
def test_report_bad_file_exits_1(tmp_path, content, message, capsys):
    path = tmp_path / "report.json"
    path.write_text(content, encoding="utf-8")
    assert run("report", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert message in err and str(path) in err


# JSON that Python's parser refuses with something other than a JSONDecodeError.
_JSON_FAULTS = {
    "int_of_5001_digits": ('{"epochs": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    "nested_100000_deep": ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("fault", sorted(_JSON_FAULTS))
@pytest.mark.parametrize("reader", ["report", "train_config", "predict_checkpoint_header"])
def test_json_the_parser_refuses_exits_1_naming_the_file(tmp_path, trained_model, reader, fault, capsys):
    text, message = _JSON_FAULTS[fault]
    missing = tmp_path / "missing.tsv"  # the JSON is read first, so no data file is
    if reader == "predict_checkpoint_header":
        raw = (trained_model / "model.ckpt").read_bytes()
        (length,) = struct.unpack_from("<Q", raw, 8)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text.encode("utf-8") + raw[16 + length :])
        argv = ["predict", "--model", path, "--vocab", missing, "--input", missing]
        prefix = f"{path}: corrupt checkpoint header"
    else:
        path = tmp_path / "file.json"
        path.write_text(text, encoding="utf-8")
        argv, prefix = {
            "report": (["report", path], f"report {path} is not JSON"),
            "train_config": (["train", "--train", missing, "--dev", missing, "--task", "emotion", "--config", path],
                             f"cannot read config file {path}"),
        }[reader]
    assert run(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"error: {prefix}: {message}" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_report_rows_named_by_path_tell_runs_apart(tmp_path):
    paths = [tmp_path / name / "report.json" for name in ("e1", "e2")]
    for accuracy, path in zip((0.5, 0.75), paths):
        path.parent.mkdir()
        path.write_text(json.dumps({"task": "classification", "n": 4, "accuracy": accuracy}), encoding="utf-8")
    assert run("report", *paths, "--out", tmp_path / "out", "--quiet") == 0
    rows = (tmp_path / "out" / "report.md").read_text(encoding="utf-8").splitlines()[2:]
    assert rows == [f"| {paths[0]} | classification | 4 | 0.5000 |", f"| {paths[1]} | classification | 4 | 0.7500 |"]


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in ("ensemble", "eval", "ingest", "predict", "report") for f in ("--seed", "--config")]
    + [("augment", "--config"), ("seed-sweep", "--seed")]
    # a task file's split tag changes nothing outside augment's pool, so no command takes one
    + [(c, "--split") for c in ("ingest", "predict", "eval")]
    # a prediction file's header decides its kind, and augment's size flag its scheme
    + [("eval", "--task"), ("ensemble", "--task"), ("augment", "--scheme")]
    # abbreviations of flags the command does read (--epochs, --seed, --count)
    + [("train", "--epoch"), ("train", "--se"), ("augment", "--co")],
)
def test_flag_the_command_never_reads_is_a_usage_error(tmp_path, command, flag, capsys):
    argv = [tmp_path / "x.tsv" if a is BAD else a for a in _COMMAND_ARGS[command]]
    assert run(*argv, flag, 5, "--out", tmp_path / "out") == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "ensemble"])
def test_repeated_prediction_id_exits_1_naming_line_and_id(tmp_path, command, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("id\tessay\tempathy\na\tx\t1.0\nb\ty\t2.0\nc\tz\t3.0\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("id\tempathy\na\t1.0\na\t1.0\nc\t3.0\n", encoding="utf-8")
    argv = {
        "eval": ["eval", "--pred", pred, "--gold", gold],
        "ensemble": ["ensemble", pred, pred],
    }[command]
    assert run(*argv, "--out", tmp_path / "out") == 1
    assert "line 3: duplicate id 'a'" in capsys.readouterr().err


def test_manifest_records_environment(tmp_path, corpora):
    out = tmp_path / "out"
    assert run("ingest", "--input", corpora / "train.tsv", "--out", out, "--quiet") == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "blas_name", "blas_version", "blas_threads", "usable_cores", "platform"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["usable_cores"] >= 1


def test_strict_json_rejects_non_finite_constants(tmp_path):
    path = tmp_path / "r.json"
    for constant in ("NaN", "Infinity", "-Infinity"):
        path.write_text(f'{{"pearson_empathy": {constant}}}', encoding="utf-8")
        with pytest.raises(ValueError, match="non-standard JSON constant"):
            strict_json(path)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["eval", "ensemble"])
def test_non_finite_prediction_value_exits_1_naming_its_line(tmp_path, command, raw, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("id\tessay\tempathy\na\tx\t1.0\nb\ty\t2.0\nc\tz\t3.0\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text(f"id\tempathy\na\t1.0\nb\t{raw}\nc\t3.0\n", encoding="utf-8")
    member = tmp_path / "member.tsv"
    member.write_text(_PROB_HEADER + f"a\t{_UNIFORM}\tjoy\nb\t" + "\t".join([raw] * 7) + "\tanger\n",
                      encoding="utf-8")
    argv = {
        "eval": ["eval", "--pred", pred, "--gold", gold],
        "ensemble": ["ensemble", member, member],
    }[command]
    assert run(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    column = "empathy" if command == "eval" else "p_anger"
    bad_file = pred if command == "eval" else member
    assert f"error: {bad_file}: line 3: {column} value '{raw}' is not finite" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_ensemble_row_fault_names_the_member_file(tmp_path, capsys):
    good, bad = tmp_path / "a.tsv", tmp_path / "b.tsv"
    good.write_text(_PROB_HEADER + f"a\t{_UNIFORM}\tjoy\nb\t{_UNIFORM}\tjoy\n", encoding="utf-8")
    bad.write_text(_PROB_HEADER + f"a\t{_UNIFORM}\tjoy\nb\t" + "\t".join(["nan"] * 7) + "\tanger\n",
                   encoding="utf-8")
    assert run("ensemble", good, bad, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: line 3: p_anger value 'nan' is not finite" in err
    assert str(good) not in err


@pytest.mark.parametrize("command", ["eval", "ensemble"])
def test_unknown_prediction_label_exits_1_naming_its_line(tmp_path, corpora, command, capsys):
    member = tmp_path / "member.tsv"
    member.write_text(_PROB_HEADER + f"a\t{_UNIFORM}\tjoy\nb\t{_UNIFORM}\thappy\n", encoding="utf-8")
    argv = {
        "eval": ["eval", "--pred", member, "--gold", corpora / "dev.tsv"],
        "ensemble": ["ensemble", member],
    }[command]
    assert run(*argv, "--out", tmp_path / "out") == 1
    assert f"error: {member}: line 3: unknown emotion label 'happy'" in capsys.readouterr().err
