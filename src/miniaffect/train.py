"""Seeded training loop with per-epoch dev evaluation and best-snapshot retention.

A run is fully determined by (datasets, vocabulary, config): parameter init,
per-epoch shuffling and dropout noise all derive from the config seed, so
identical inputs reproduce the best checkpoint bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import blas
from . import metrics as M
from .data import EMOTIONS, Dataset, gold_values
from .errors import DivergenceError, FormatError, ValidationError, check_field_types
from .nn.autodiff import Tape
from .nn.encoder import (
    EncoderConfig,
    Parameters,
    collect_grads,
    forward,
    head_apply,
    init_params,
    param_shapes,
    run_model,
    wrap_params,
)
from .nn.losses import loss_cross_entropy, loss_mse, loss_multitask, softmax
from .optim import AdamW, AdamWConfig
from .predictions import ClassificationPredictions, RegressionPredictions
from .text import DEFAULT_MAX_SIZE, DEFAULT_MIN_FREQ, Vocab, encode

CHECKPOINT_MAGIC = b"MTAF"
CHECKPOINT_VERSION = 1

_EVAL_CHUNK = 64


@dataclass(frozen=True)
class _Task:
    head_kind: str
    labels: tuple[str, ...]  # record fields the task trains on and evaluates against
    batch_size: int  # default batch size
    snapshots: tuple[str, ...]  # snapshot metrics it allows; the first is the default


_TASKS = {
    "empathy": _Task("regression_single", ("empathy",), 16, ("pearson_empathy",)),
    "distress": _Task("regression_single", ("distress",), 16, ("pearson_distress",)),
    "multitask": _Task(
        "regression_dual", ("empathy", "distress"), 8, ("pearson_avg", "pearson_empathy", "pearson_distress")
    ),
    "emotion": _Task("classify7", ("emotion",), 8, ("macro_f1",)),
}
TASKS = tuple(_TASKS)
PRESETS = ("paper_faithful", "desk_scale")

_PRESET_LR = {"paper_faithful": 1e-5, "desk_scale": 1e-3}


@dataclass(frozen=True)
class TrainConfig:
    task: str
    epochs: int
    batch_size: int
    seed: int
    shuffle: bool
    snapshot_metric: str
    optimizer: AdamWConfig
    encoder: EncoderConfig
    preset: str
    vocab_max_size: int = DEFAULT_MAX_SIZE
    vocab_min_freq: int = DEFAULT_MIN_FREQ

    def validate(self) -> None:
        check_field_types(self)
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r} (expected one of {', '.join(TASKS)})")
        if self.preset not in PRESETS:
            raise ValidationError(f"unknown preset {self.preset!r}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        spec = _TASKS[self.task]
        if self.snapshot_metric not in spec.snapshots:
            raise ValidationError(f"snapshot metric {self.snapshot_metric!r} is incompatible with task {self.task!r}")
        self.optimizer.validate()
        # vocab_size 0 means train() fills it in from the built vocabulary; the
        # types are checked first so that no falsy non-integer passes as that 0.
        check_field_types(self.encoder)
        replace(self.encoder, vocab_size=self.encoder.vocab_size or 1).validate()
        if self.encoder.head_kind != spec.head_kind:
            raise ValidationError(f"head_kind {self.encoder.head_kind!r} does not fit task {self.task!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**{**d, "optimizer": AdamWConfig(**d["optimizer"]), "encoder": EncoderConfig(**d["encoder"])})


def _config_section(cls, defaults: dict, overrides, section: str):
    """Build a config dataclass from defaults plus the caller's overrides, rejecting unknown keys."""
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ValidationError(f"{section} config must be an object, got {overrides!r}")
    unknown = sorted(set(overrides) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {section} key(s): {', '.join(unknown)}")
    return cls(**{**defaults, **overrides})


def make_config(
    task: str,
    epochs: int,
    preset: str = "desk_scale",
    seed: int = 0,
    batch_size: int | None = None,
    shuffle: bool = True,
    snapshot_metric: str | None = None,
    optimizer: dict | None = None,
    encoder: dict | None = None,
    vocab_max_size: int = DEFAULT_MAX_SIZE,
    vocab_min_freq: int = DEFAULT_MIN_FREQ,
) -> TrainConfig:
    """Resolve a full TrainConfig from a preset plus selective overrides.

    The presets differ only in the default lr: ``desk_scale`` (default) uses
    1e-3 so the randomly initialized micro encoder trains in minutes, and
    ``paper_faithful`` the finetuning-style 1e-5. Both share the encoder,
    the AdamW betas, eps and weight decay, and the per-task batch sizes.
    """
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r} (expected one of {', '.join(TASKS)})")
    if preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r} (expected one of {', '.join(PRESETS)})")
    spec = _TASKS[task]
    cfg = TrainConfig(
        task=task,
        epochs=epochs,
        batch_size=batch_size if batch_size is not None else spec.batch_size,
        seed=seed,
        shuffle=shuffle,
        snapshot_metric=snapshot_metric if snapshot_metric is not None else spec.snapshots[0],
        optimizer=_config_section(AdamWConfig, {"lr": _PRESET_LR[preset]}, optimizer, "optimizer"),
        encoder=_config_section(EncoderConfig, {"head_kind": spec.head_kind}, encoder, "encoder"),
        preset=preset,
        vocab_max_size=vocab_max_size,
        vocab_min_freq=vocab_min_freq,
    )
    cfg.validate()
    return cfg


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev: dict[str, float]


@dataclass
class TrainReport:
    task: str
    seed: int
    snapshot_metric: str
    best_epoch: int | None = None
    best_metric: float | None = None
    wall_time_s: float = 0.0
    epochs: list[EpochStats] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Checkpoint:
    config: TrainConfig
    vocab_hash: str
    params: Parameters
    best_metric: float | None
    best_epoch: int | None


def make_batches(d: Dataset, batch_size: int, shuffle: bool, seed: int, epoch: int) -> list[list[int]]:
    """Chunk a (possibly reshuffled) index permutation into batches.

    The permutation seed mixes the run seed with the epoch index, so every
    epoch reshuffles differently but reproducibly. The last batch may be
    short. shuffle=False keeps the original order.
    """
    n = len(d.records)
    if n == 0:
        raise ValidationError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    if shuffle:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, epoch])))
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    return [order[i : i + batch_size].tolist() for i in range(0, n, batch_size)]


def encode_dataset(d: Dataset, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    seqs = [encode(r.text, vocab, max_len) for r in d.records]
    ids = np.array([s.ids for s in seqs], dtype=np.int64)
    lengths = np.array([s.true_length for s in seqs], dtype=np.int64)
    return ids, lengths


def _batch_loss(pnodes, enc_cfg, cfg, ids, lengths, targets, idxs, tape):
    cls = forward(pnodes, enc_cfg, ids[idxs], lengths[idxs], tape, train_mode=True)
    out = head_apply(pnodes, enc_cfg, cls, tape)
    # One head output per label field, then the gold values in the same order.
    args = (*(out if isinstance(out, tuple) else (out,)), *(gold[idxs] for gold in targets.values()))
    if enc_cfg.head_kind == "classify7":
        return loss_cross_entropy(tape, *args)
    if enc_cfg.head_kind == "regression_dual":
        return loss_multitask(tape, *args)
    return loss_mse(tape, *args)


def _model_outputs(params, enc_cfg, labels, ids, lengths) -> dict[str, np.ndarray]:
    """Eval-mode head outputs over a whole dataset, chunked, keyed by the label field each predicts."""
    chunks = []
    for start in range(0, ids.shape[0], _EVAL_CHUNK):
        out = run_model(params, enc_cfg, ids[start : start + _EVAL_CHUNK], lengths[start : start + _EVAL_CHUNK])
        chunks.append(out if isinstance(out, tuple) else (out,))
    return {name: np.concatenate([chunk[i] for chunk in chunks]) for i, name in enumerate(labels)}


def _dev_metrics(params, enc_cfg, dev_ids, dev_lengths, dev_targets) -> dict[str, float]:
    out = _model_outputs(params, enc_cfg, dev_targets, dev_ids, dev_lengths)
    if "emotion" in out:
        out["emotion"] = np.argmax(out["emotion"], axis=1)
    return M.score(out, dev_targets)


@blas.single_thread()
def train(train_set: Dataset, dev_set: Dataset, vocab: Vocab, cfg: TrainConfig) -> tuple[Checkpoint, TrainReport]:
    """Run the configured number of epochs and keep the best-on-dev snapshot.

    Ties on the snapshot metric keep the earlier epoch. With epochs=0 the
    checkpoint holds the untouched initialization and no metric.
    """
    cfg.validate()
    if not dev_set.records:
        raise ValidationError("dev set is empty: it is needed to pick the best epoch")
    targets = gold_values(train_set.records, _TASKS[cfg.task].labels, "train")
    dev_targets = gold_values(dev_set.records, _TASKS[cfg.task].labels, "dev")
    if cfg.encoder.vocab_size not in (0, len(vocab)):
        raise ValidationError(f"encoder vocab_size {cfg.encoder.vocab_size} must be 0 or the vocabulary size {len(vocab)}")
    enc_cfg = replace(cfg.encoder, vocab_size=len(vocab))

    started = time.perf_counter()
    ids, lengths = encode_dataset(train_set, vocab, enc_cfg.max_len)
    dev_ids, dev_lengths = encode_dataset(dev_set, vocab, enc_cfg.max_len)
    # Only a run with epochs correlates predictions against dev gold.
    for name, gold in dev_targets.items():
        if cfg.epochs and name != "emotion" and (gold.size < 2 or np.all(gold == gold[0])):
            raise ValidationError(
                f"dev {name!r} scores are constant over {gold.size} record(s):"
                " the pearson correlation that picks the best epoch is undefined"
            )

    params = init_params(enc_cfg, cfg.seed)
    optimizer = AdamW(cfg.optimizer)
    report = TrainReport(task=cfg.task, seed=cfg.seed, snapshot_metric=cfg.snapshot_metric)

    best_params = {name: arr.copy() for name, arr in params.items()}
    best_metric: float | None = None
    best_epoch: int | None = None

    for epoch in range(cfg.epochs):
        batches = make_batches(train_set, cfg.batch_size, cfg.shuffle, cfg.seed, epoch)
        loss_sum = 0.0
        for batch_idx, idxs in enumerate(batches):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, epoch, batch_idx])))
            tape = Tape(rng=rng)
            pnodes = wrap_params(params)
            # A diverging run overflows long before it fails a check; the checks below report it.
            with np.errstate(over="ignore", invalid="ignore"):
                loss = _batch_loss(pnodes, enc_cfg, cfg, ids, lengths, targets, idxs, tape)
                tape.backward(loss)
                try:
                    optimizer.step(params, collect_grads(pnodes, params))
                    if not math.isfinite(loss.value):
                        raise DivergenceError("non-finite training loss")
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"training diverged in epoch {epoch + 1} of {cfg.epochs},"
                        f" batch {batch_idx + 1} of {len(batches)}: {exc}"
                    ) from None
            loss_sum += float(loss.value) * len(idxs)

        dev = _dev_metrics(params, enc_cfg, dev_ids, dev_lengths, dev_targets)
        report.epochs.append(EpochStats(epoch=epoch, train_loss=loss_sum / len(train_set), dev=dev))
        metric = dev[cfg.snapshot_metric]
        if best_metric is None or metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_params = {name: arr.copy() for name, arr in params.items()}

    report.best_epoch = best_epoch
    report.best_metric = best_metric
    report.wall_time_s = time.perf_counter() - started

    ckpt = Checkpoint(
        config=replace(cfg, encoder=enc_cfg),
        vocab_hash=vocab.sha256,
        params=best_params,
        best_metric=best_metric,
        best_epoch=best_epoch,
    )
    return ckpt, report


@blas.single_thread()
def predict(
    ckpt: Checkpoint, d: Dataset, vocab: Vocab, clamp: bool = False
) -> RegressionPredictions | ClassificationPredictions:
    """Eval-mode predictions over a dataset in its original record order.

    ``clamp`` clips regression outputs into the [1, 7] score range; raw
    outputs are the default.
    """
    if vocab.sha256 != ckpt.vocab_hash:
        raise ValidationError("vocabulary hash does not match the one used to train this checkpoint")
    if not d.records:
        raise ValidationError("cannot predict on an empty dataset")
    enc_cfg = ckpt.config.encoder
    ids, lengths = encode_dataset(d, vocab, enc_cfg.max_len)
    rec_ids = [r.id for r in d.records]
    out = _model_outputs(ckpt.params, enc_cfg, _TASKS[ckpt.config.task].labels, ids, lengths)
    if "emotion" not in out:
        return RegressionPredictions(ids=rec_ids, **{k: np.clip(v, 1.0, 7.0) if clamp else v for k, v in out.items()})
    probs = softmax(out["emotion"], axis=1)
    labels = [EMOTIONS[int(i)] for i in np.argmax(probs, axis=1)]
    return ClassificationPredictions(ids=rec_ids, scores=probs, labels=labels)


@dataclass
class SweepEntry:
    seed: int
    best_metric: float
    best_epoch: int


@dataclass
class SweepReport:
    metric: str
    entries: list[SweepEntry]
    mean: float
    std: float
    min: float
    max: float

    def to_dict(self) -> dict:
        return asdict(self)


def seed_sweep(
    train_set: Dataset, dev_set: Dataset, vocab: Vocab, cfg: TrainConfig, seeds: list[int]
) -> SweepReport:
    """Train once per seed and summarize the best dev metrics.

    ``std`` is the population standard deviation of the per-seed values.
    """
    if len(seeds) < 2:
        raise ValidationError("seed sweep needs at least 2 seeds")
    if cfg.epochs < 1:
        raise ValidationError("seed sweep needs at least 1 epoch")
    entries = []
    for seed in seeds:
        _, report = train(train_set, dev_set, vocab, replace(cfg, seed=seed))
        entries.append(SweepEntry(seed=seed, best_metric=report.best_metric, best_epoch=report.best_epoch))
    values = np.array([e.best_metric for e in entries], dtype=np.float64)
    return SweepReport(
        metric=cfg.snapshot_metric,
        entries=entries,
        mean=float(values.mean()),
        std=float(values.std()),
        min=float(values.min()),
        max=float(values.max()),
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the binary checkpoint format.

    Layout: magic ``MTAF``, little-endian u32 format version, little-endian
    u64 JSON header length, the UTF-8 JSON header (config echo, vocab hash,
    best metric/epoch, seed, tensor manifest with name/shape/offset), then the
    tensors as raw little-endian float64 in manifest order. Offsets are
    relative to the start of the tensor section.
    """
    manifest = []
    blobs = []
    offset = 0
    for name, arr in ckpt.params.items():
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": ckpt.config.to_dict(),
        "vocab_hash": ckpt.vocab_hash,
        "best_metric": ckpt.best_metric,
        "best_epoch": ckpt.best_epoch,
        "seed": ckpt.config.seed,
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header_end = 16 + header_len
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[16:header_end].decode("utf-8"))
        config = TrainConfig.from_dict(header["config"])
        keys = ("vocab_hash", "best_metric", "best_epoch", "seed")
        vocab_hash, best_metric, best_epoch, seed = (header[key] for key in keys)
        manifest = header["tensors"]
        shapes = {entry["name"]: tuple(entry["shape"]) for entry in manifest}
        offsets = [entry["offset"] for entry in manifest]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: corrupt checkpoint header: {exc}") from None
    try:
        config.validate()
    except ValidationError as exc:
        raise FormatError(f"{path}: invalid config echo: {exc}") from None
    if seed != config.seed:
        raise FormatError(f"{path}: header seed {seed!r} differs from the config echo's seed {config.seed}")
    needed = {name: shape for name, shape, _ in param_shapes(config.encoder)}
    if shapes != needed:
        for name, shape in needed.items():
            if name not in shapes:
                raise FormatError(f"{path}: checkpoint lacks tensor {name!r}, which its config needs")
            if shapes[name] != shape:
                raise FormatError(f"{path}: tensor {name!r} has shape {shapes[name]}, its config needs {shape}")
        extra = min(shapes.keys() - needed.keys())
        raise FormatError(f"{path}: tensor {extra!r} is not part of the model its config describes")
    if len(manifest) != len(shapes):
        raise FormatError(f"{path}: tensor manifest names a tensor more than once")

    data = memoryview(raw)[header_end:]
    expected = sum(math.prod(shape) * 8 for shape in needed.values())
    if len(data) != expected:
        raise FormatError(f"{path}: tensor section is {len(data)} bytes, expected {expected}")
    params: Parameters = {}
    start = 0
    # Tensors lie back to back in manifest order, as save_checkpoint writes them.
    for entry, offset in zip(manifest, offsets):
        name, shape = entry["name"], needed[entry["name"]]
        if type(offset) is not int or offset != start:
            raise FormatError(f"{path}: tensor {name!r} has offset {offset!r}, expected {start}")
        end = start + math.prod(shape) * 8
        params[name] = np.frombuffer(data[start:end], dtype="<f8").reshape(shape).copy()
        start = end
    return Checkpoint(
        config=config, vocab_hash=vocab_hash, params=params, best_metric=best_metric, best_epoch=best_epoch
    )
