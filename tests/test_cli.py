import contextlib
import io
import json
import math
import platform
import struct
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniaffect.cli import main
from miniaffect.data import EMOTIONS, load_task_tsv, save_dataset, serialize_dataset
from miniaffect.nn.encoder import EncoderConfig
from miniaffect.optim import AdamWConfig
from miniaffect.predictions import read_predictions
from miniaffect.train import TrainConfig, load_checkpoint, save_checkpoint

from corpus import keyword_classification_corpus, tiny_encoder_kwargs


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path):
    """A JSON file's value; NaN, Infinity and -Infinity, which strict parsers reject, raise ValueError."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_no_constant)


def run(*argv):
    """main() on argv; after a success, every JSON file the command wrote must be strict JSON."""
    argv = [str(a) for a in argv]
    code = main(argv)
    if code == 0 and "--out" in argv:
        manifest = Path(argv[argv.index("--out") + 1]) / "manifest.json"
        for path in [manifest, *(p for p in strict_json(manifest)["outputs"] if p.endswith(".json"))]:
            strict_json(path)
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
    pool_text = serialize_dataset(pool).replace("id\tessay", "id\ttext", 1)
    (root / "pool.tsv").write_text(pool_text, encoding="utf-8")
    config = {"encoder": tiny_encoder_kwargs()}
    (root / "tiny.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def test_ingest_valid_file(tmp_path, corpora, capsys):
    out = tmp_path / "out"
    assert run("ingest", "--input", corpora / "train.tsv", "--split", "train", "--out", out) == 0
    assert (out / "dataset.tsv").exists()
    hist_lines = (out / "histogram.csv").read_text().strip().split("\n")
    assert hist_lines[0] == "class,count"
    assert len(hist_lines) == 8
    total = sum(int(line.split(",")[1]) for line in hist_lines[1:])
    assert total == 21
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
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
    code = run("augment", "--scheme", "ba", "--base", corpora / "train.tsv",
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
    assert run("augment", "--scheme", "ra", "--base", corpora / "train.tsv",
               "--pool", corpora / "pool.tsv", "--count", 0, "--seed", 1, "--out", out) == 0
    assert load_task_tsv(out / "augmented.tsv", "train").records == load_task_tsv(corpora / "train.tsv", "train").records


def test_augment_same_seed_byte_identical(tmp_path, corpora):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("augment", "--scheme", "ba", "--base", corpora / "train.tsv",
                   "--pool", corpora / "pool.tsv", "--total", 28, "--seed", 9, "--out", out) == 0
    assert (out1 / "augmented.tsv").read_bytes() == (out2 / "augmented.tsv").read_bytes()


@pytest.mark.parametrize("scheme_flags", [("ba", "--total", 28), ("ra", "--count", 3)], ids=["ba", "ra"])
def test_augment_negative_seed_exits_1_naming_it(tmp_path, corpora, capsys, scheme_flags):
    scheme, *size = scheme_flags
    assert run("augment", "--scheme", scheme, "--base", corpora / "train.tsv", "--pool", corpora / "pool.tsv",
               *size, "--seed", -1, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "seed must be >= 0, got -1" in err


def test_augment_missing_flag_is_validation_error(tmp_path, corpora):
    assert run("augment", "--scheme", "ba", "--base", corpora / "train.tsv",
               "--pool", corpora / "pool.tsv", "--out", tmp_path / "x") == 1


def test_ingest_train_predict_eval_pipeline(tmp_path, corpora):
    ingest_dir = tmp_path / "ingested"
    assert run("ingest", "--input", corpora / "train.tsv", "--split", "train",
               "--out", ingest_dir, "--quiet") == 0
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
               "--input", corpora / "train.tsv", "--split", "train", "--out", pred_dir, "--quiet")
    assert code == 0
    preds = read_predictions(pred_dir / "predictions.tsv")
    assert np.abs(preds.scores.sum(axis=1) - 1.0).max() < 1e-9
    assert preds.labels == [EMOTIONS[int(i)] for i in preds.scores.argmax(axis=1)]

    eval_dir = tmp_path / "eval"
    code = run("eval", "--task", "classification", "--pred", pred_dir / "predictions.tsv",
               "--gold", corpora / "train.tsv", "--split", "train", "--out", eval_dir, "--quiet")
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
    ("pos_emb", {"encoder": {"max_len": 100000000000}}),
    ("epoch, learning_rate", {"epoch": 50, "learning_rate": 5}),
    ("head_kind 'regression_single'", {"encoder": {"head_kind": "regression_single"}}),
    ("vocab_size 5", {"encoder": {"vocab_size": 5}}),
    ("vocab_size must be an integer", {"encoder": {"vocab_size": None}}),
])
def test_train_mistyped_config_exits_1(tmp_path, corpora, key, config, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"epochs": 1, **config}), encoding="utf-8")
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--config", cfg_path, "--out", tmp_path / "x", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert key in err


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
               "--input", empty, "--split", "train", "--out", tmp_path / "preds", "--quiet") == 1
    assert "empty dataset" in capsys.readouterr().err


def _with_config(section=None, **changes):
    """Edit the checkpoint's config echo: a top-level field, or one in its encoder/optimizer section."""
    def edit(ckpt):
        top = changes if section is None else {section: replace(getattr(ckpt.config, section), **changes)}
        ckpt.config = replace(ckpt.config, **top)
    return edit


def _with_layers(n_layers):
    return _with_config("encoder", n_layers=n_layers)


def _single_regression_head(ckpt):
    """A self-consistent regression_single head under the emotion task's config echo."""
    _with_config("encoder", head_kind="regression_single")(ckpt)
    ckpt.params["head.w"] = ckpt.params["head.w"][:, :1]
    ckpt.params["head.b"] = ckpt.params["head.b"][:1]


@pytest.mark.parametrize("message, edit", [
    ("'head.w'", lambda ckpt: ckpt.params.pop("head.w")),
    ("'pos_emb'", lambda ckpt: ckpt.params.update(pos_emb=ckpt.params["pos_emb"][:10])),
    ("10000000000 layers", _with_layers(10**10)),
    ("1000 layers", _with_layers(1000)),
    ("'layers.1.attn_norm.gain'", _with_layers(2)),
    ("n_layers must be an integer", _with_layers("2")),
    ("not divisible by n_heads 3", _with_config("encoder", n_heads=3)),
    ("dropout_rate 5.0", _with_config("encoder", dropout_rate=5.0)),
    ("lr must be positive", _with_config("optimizer", lr=-1.0)),
    ("epochs must be >= 0", _with_config(epochs=-4)),
    ("does not fit task 'emotion'", _single_regression_head),
], ids=["missing_head_w", "pos_emb_cut_to_10_rows", "n_layers_1e10", "n_layers_past_manifest", "n_layers_2_of_1",
        "n_layers_not_int", "n_heads_not_dividing_d_model", "dropout_rate_5", "lr_negative",
        "epochs_negative", "head_kind_not_fitting_task"])
def test_predict_checkpoint_not_matching_config_exits_1(tmp_path, corpora, message, edit, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    ckpt = load_checkpoint(out / "model.ckpt")
    edit(ckpt)
    save_checkpoint(ckpt, out / "bad.ckpt")
    assert run("predict", "--model", out / "bad.ckpt", "--vocab", out / "vocab.tsv",
               "--input", corpora / "dev.tsv", "--split", "dev", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert message in err


def _edit_header(src, dst, edit):
    """Copy a checkpoint with ``edit`` applied to its JSON header."""
    raw = src.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16 : 16 + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length :])


def _with_head_b_offset(change):
    """Replace the manifest offset of ``head.b`` by ``change(true offset)``."""
    def edit(header):
        entry = next(e for e in header["tensors"] if e["name"] == "head.b")
        entry["offset"] = change(entry["offset"])
    return edit


@pytest.mark.parametrize("message, edit", [
    *((f"corrupt checkpoint header: '{key}'", lambda header, key=key: header.pop(key))
      for key in ("vocab_hash", "best_metric", "best_epoch", "seed")),
    ("header seed 1 differs from the config echo's seed 0", lambda header: header.update(seed=1)),
    *(("tensor 'head.b' has offset", _with_head_b_offset(change))
      for change in (str, float, lambda offset: None, lambda offset: [offset])),
    ("tensor 'head.b' has offset 0, expected", _with_head_b_offset(lambda offset: 0)),
    ("names a tensor more than once", lambda header: header["tensors"].append(dict(header["tensors"][-1]))),
], ids=["no_vocab_hash", "no_best_metric", "no_best_epoch", "no_seed", "seed_not_config_seed",
        "offset_string", "offset_float", "offset_null", "offset_list", "offset_overlapping", "tensor_named_twice"])
def test_predict_checkpoint_header_fault_exits_1(tmp_path, corpora, message, edit, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpora / "train.tsv", "--dev", corpora / "dev.tsv",
               "--task", "emotion", "--epochs", 0, "--config", corpora / "tiny.json",
               "--out", out, "--quiet") == 0
    _edit_header(out / "model.ckpt", out / "bad.ckpt", edit)
    assert run("predict", "--model", out / "bad.ckpt", "--vocab", out / "vocab.tsv",
               "--input", corpora / "dev.tsv", "--split", "dev", "--out", tmp_path / "preds", "--quiet") == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert message in err


def test_train_divergence_exits_1_naming_epoch_batch_and_tensor(tmp_path, capsys):
    train_path, dev_path, cfg_path = tmp_path / "train.tsv", tmp_path / "dev.tsv", tmp_path / "cfg.json"
    save_dataset(keyword_classification_corpus(40, "train", 1), train_path)
    save_dataset(keyword_classification_corpus(14, "dev", 2), dev_path)
    cfg_path.write_text(json.dumps({"optimizer": {"lr": 1e300}, "epochs": 3}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow on the way there stays silent
        code = run("train", "--train", train_path, "--dev", dev_path, "--task", "emotion",
                   "--config", cfg_path, "--out", tmp_path / "out", "--quiet")
    assert code == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "training diverged in epoch 1 of 3, batch 2 of 5: non-finite gradient for tensor 'tok_emb'" in err


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
    assert run("ensemble", "--task", "regression", pred, pred, "--out", out) == 0
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
    assert run("ensemble", "--task", "classification", member, member, "--out", out) == 0
    combined = read_predictions(out / "ensemble.tsv")
    assert np.abs(combined.scores.sum(axis=1) - 1.0).max() < 1e-9
    summed = read_predictions(out / "ensemble_summed.tsv")
    assert np.allclose(summed.scores, 2 * probs)


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


# Every config key, as its path in the config file's object.
_CONFIG_KEYS = [
    *((f.name,) for f in fields(TrainConfig)),
    *(("encoder", f.name) for f in fields(EncoderConfig)),
    *(("optimizer", f.name) for f in fields(AdamWConfig)),
]
# Keys whose null falls back to a default, so the run trains.
_NULL_DEFAULTS = {("seed",), ("batch_size",), ("snapshot_metric",), ("optimizer",), ("encoder",)}
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
    "augment": ["augment", "--scheme", "ra", "--count", 1, "--base", "train.tsv", "--pool", BAD],
    "train": ["train", "--train", BAD, "--dev", "dev.tsv", "--task", "emotion", "--epochs", 1],
    "predict": ["predict", "--model", BAD, "--vocab", "train.tsv", "--input", "dev.tsv"],
    "ensemble": ["ensemble", "--task", "classification", BAD],
    "eval": ["eval", "--task", "classification", "--pred", BAD, "--gold", "dev.tsv"],
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


@pytest.mark.parametrize("content, message", [
    ("not json at all", "is not JSON"),
    ("[0.5, 0.25]", "must hold a JSON object"),
    ('{"task": "classification", "macro_f1": "high"}', "macro_f1 must be a number"),
    ('{"task": "classification", "accuracy": true}', "accuracy must be a number"),
])
def test_report_bad_file_exits_1(tmp_path, content, message, capsys):
    path = tmp_path / "report.json"
    path.write_text(content, encoding="utf-8")
    assert run("report", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert message in err and str(path) in err


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in ("ensemble", "eval", "ingest", "predict", "report") for f in ("--seed", "--config")]
    + [("augment", "--config")],
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
        "eval": ["eval", "--task", "regression", "--pred", pred, "--gold", gold],
        "ensemble": ["ensemble", "--task", "regression", pred, pred],
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


_PROB_HEADER = "id\t" + "\t".join(f"p_{e}" for e in EMOTIONS) + "\tlabel\n"
_UNIFORM = "\t".join([repr(1 / 7)] * 7)


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
        "eval": ["eval", "--task", "regression", "--pred", pred, "--gold", gold],
        "ensemble": ["ensemble", "--task", "classification", member, member],
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
    assert run("ensemble", "--task", "classification", good, bad, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: line 3: p_anger value 'nan' is not finite" in err
    assert str(good) not in err


@pytest.mark.parametrize("command", ["eval", "ensemble"])
def test_unknown_prediction_label_exits_1_naming_its_line(tmp_path, corpora, command, capsys):
    member = tmp_path / "member.tsv"
    member.write_text(_PROB_HEADER + f"a\t{_UNIFORM}\tjoy\nb\t{_UNIFORM}\thappy\n", encoding="utf-8")
    argv = {
        "eval": ["eval", "--task", "classification", "--pred", member, "--gold", corpora / "dev.tsv"],
        "ensemble": ["ensemble", "--task", "classification", member],
    }[command]
    assert run(*argv, "--out", tmp_path / "out") == 1
    assert f"error: {member}: line 3: unknown emotion label 'happy'" in capsys.readouterr().err
