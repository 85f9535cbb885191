"""Seeded training loop with per-epoch dev evaluation and best-snapshot retention.

A run is fully determined by (datasets, vocabulary, config): parameter init,
per-epoch shuffling and dropout noise all derive from the config seed, so
identical inputs reproduce the best checkpoint bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain

import numpy as np

from . import blas
from . import metrics as M
from .data import EMOTIONS, Dataset, gold_values
from .errors import DivergenceError, FormatError, ValidationError, check_field_types, parse_json
from .nn.autodiff import Tape, softmax
from .nn.encoder import (
    EncoderConfig,
    Heads,
    Parameters,
    collect_grads,
    forward,
    head_apply,
    init_params,
    param_shapes,
    peak_bytes,
    run_model,
    wrap_params,
)
from .nn.losses import loss_cross_entropy, loss_mse, loss_multitask
from .optim import AdamW, AdamWConfig
from .predictions import ClassificationPredictions, RegressionPredictions
from .text import DEFAULT_MAX_SIZE, DEFAULT_MIN_FREQ, PAD_ID, Vocab, encode

CHECKPOINT_MAGIC = b"MTAF"
CHECKPOINT_VERSION = 6

# Tokens (rows × longest true length) one eval forward may take. At 64 tokens a
# chunk is 16 essays, whose [rows, heads, S, S] attention scores take 2 MB, the
# size of a core's L2 on the 2-vCPU machine this was tuned on; 64-essay chunks
# were slower and page-faulted on every call as glibc mapped and unmapped them.
_EVAL_TOKENS = 1024
# Padding tokens that cost about as much as one more eval forward: on that
# machine, with one BLAS thread, run_model took about 0.3 ms plus 7-9 µs a token.
_CHUNK_COST_TOKENS = 40
# Most bytes a run's estimated peak (see peak_bytes) may reach; 2**28 parameter values still fit.
MAX_BYTES = 2**34


@dataclass(frozen=True)
class _Task:
    labels: tuple[str, ...]  # record fields the task trains on and evaluates against
    heads: Heads  # the model's heads, one per label field, in the same order
    batch_size: int  # default batch size
    snapshots: tuple[str, ...]  # snapshot metrics it allows; the first is the default


_TASKS = {
    "empathy": _Task(("empathy",), (("head", 1),), 16, ("pearson_empathy",)),
    "distress": _Task(("distress",), (("head", 1),), 16, ("pearson_distress",)),
    "multitask": _Task(
        ("empathy", "distress"), (("head_empathy", 1), ("head_distress", 1)), 8,
        ("pearson_avg", "pearson_empathy", "pearson_distress"),
    ),
    "emotion": _Task(("emotion",), (("head", 7),), 8, ("macro_f1",)),
}
TASKS = tuple(_TASKS)
_PRESET_LR = {"paper_faithful": 1e-5, "desk_scale": 1e-3}  # a preset picks the default lr and nothing else
PRESETS = tuple(_PRESET_LR)


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
    vocab_max_size: int
    vocab_min_freq: int

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r} (expected one of {', '.join(TASKS)})")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.vocab_max_size < 3:
            raise ValidationError(f"vocab_max_size {self.vocab_max_size} cannot hold the 3 reserved ids")
        if self.vocab_min_freq < 1:
            raise ValidationError(f"vocab_min_freq must be >= 1, got {self.vocab_min_freq}")
        spec = _TASKS[self.task]
        if self.snapshot_metric not in spec.snapshots:
            raise ValidationError(f"snapshot metric {self.snapshot_metric!r} is incompatible with task {self.task!r}")
        terms = peak_bytes(self.encoder, spec.heads, self.batch_size, max(1, _EVAL_TOKENS // self.encoder.max_len))
        if (total := sum(terms.values())) > MAX_BYTES:
            largest = max(terms, key=terms.get)
            raise ValidationError(
                f"config needs about {total >> 20} MiB for {self.encoder.n_layers} layers, more than the limit"
                f" of {MAX_BYTES >> 20} MiB; the largest term is {largest}, {terms[largest] >> 20} MiB"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config ``d`` describes: the one way a dict, from any source, becomes a TrainConfig."""

        def checked(kind, d, name: str) -> dict:
            if not isinstance(d, dict):
                section = name if name == "config" else f"{name} config"
                raise ValidationError(f"{section} must be an object, got {d!r}")
            names = {f.name for f in fields(kind)}
            for problem, keys in (("unknown", d.keys() - names), ("missing", names - d.keys())):
                if keys:
                    raise ValidationError(f"{problem} {name} key(s): {', '.join(sorted(keys))}")
            return d

        checked(cls, d, "config")
        optimizer = AdamWConfig(**checked(AdamWConfig, d["optimizer"], "optimizer"))
        encoder = EncoderConfig(**checked(EncoderConfig, d["encoder"], "encoder"))
        return cls(**{**d, "optimizer": optimizer, "encoder": encoder})


def make_config(task: str, epochs: int, preset: str | None = None, **settings) -> TrainConfig:
    """Resolve a full TrainConfig: ``settings`` over the preset's and the task's defaults.

    A top-level None keeps the default, and ``optimizer`` and ``encoder`` merge
    key by key. The presets differ only in the default lr: ``desk_scale``
    (default) uses 1e-3 so the randomly initialized micro encoder trains in
    minutes, and ``paper_faithful`` the finetuning-style 1e-5. The config does
    not record which preset picked its lr.
    """
    preset = "desk_scale" if preset is None else preset
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r} (expected one of {', '.join(TASKS)})")
    if preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r} (expected one of {', '.join(PRESETS)})")
    spec = _TASKS[task]
    config = {
        "task": task,
        "epochs": epochs,
        "batch_size": spec.batch_size,
        "seed": 0,
        "shuffle": True,
        "snapshot_metric": spec.snapshots[0],
        "optimizer": asdict(AdamWConfig(lr=_PRESET_LR[preset])),
        "encoder": asdict(EncoderConfig()),
        "vocab_max_size": DEFAULT_MAX_SIZE,
        "vocab_min_freq": DEFAULT_MIN_FREQ,
    }
    for key, value in settings.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key] = {**config[key], **value}
        elif value is not None or key not in config:
            config[key] = value
    return TrainConfig.from_dict(config)


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


def make_batches(d: Dataset, batch_size: int, shuffle: bool, seed: int, epoch: int) -> list[list[int]]:
    """Chunk a (possibly reshuffled) index permutation into batches.

    The permutation seed mixes the run seed with the epoch index, so every
    epoch reshuffles differently but reproducibly. The last batch may be
    short. shuffle=False keeps the original order.
    """
    n = len(d.records)
    if n == 0:
        raise ValidationError("cannot batch an empty dataset")
    if shuffle:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, epoch])))
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    return [order[i : i + batch_size].tolist() for i in range(0, n, batch_size)]


def encode_dataset(d: Dataset, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The records' ids as the rows of one PAD-filled [n, max_len] matrix, and each row's true length."""
    seqs = [encode(r.text, vocab, max_len) for r in d.records]
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.full((len(seqs), max_len), PAD_ID, dtype=np.int64)
    ids[np.arange(max_len) < lengths[:, None]] = list(chain.from_iterable(seqs))  # row by row, as the mask runs
    return ids, lengths


def _batch_loss(pnodes, cfg, ids, lengths, targets, idxs, tape):
    cls = forward(pnodes, cfg.encoder, ids[idxs], lengths[idxs], tape, train_mode=True)
    # One head output per label field, then the gold values in the same order.
    args = (*head_apply(pnodes, _TASKS[cfg.task].heads, cls, tape), *(gold[idxs] for gold in targets.values()))
    if cfg.task == "emotion":
        return loss_cross_entropy(tape, *args)
    if cfg.task == "multitask":
        return loss_multitask(tape, *args)
    return loss_mse(tape, *args)


def _eval_chunks(lengths: np.ndarray) -> list[np.ndarray]:
    """Groups of essay indices for one eval forward each, in ascending true length, ties in file order.

    A group is padded to its longest essay. It takes the next essay unless that
    would push rows × width past ``_EVAL_TOKENS`` or add more than
    ``_CHUNK_COST_TOKENS`` padding tokens (rows × the width it grows by); an
    essay over the budget on its own runs alone.
    """
    order = np.argsort(lengths, kind="stable")
    widths = np.maximum(lengths[order], 1).tolist()
    groups, start = [], 0
    for i, width in enumerate(widths):
        rows = i - start
        if rows and ((rows + 1) * width > _EVAL_TOKENS or rows * (width - widths[i - 1]) > _CHUNK_COST_TOKENS):
            groups.append(order[start:i])
            start = i
    return [*groups, order[start:]] if widths else []


def _model_outputs(params, cfg, ids, lengths) -> dict[str, np.ndarray]:
    """Eval-mode head outputs over a whole dataset, in file order, keyed by the label field each predicts."""
    spec = _TASKS[cfg.task]
    out: dict[str, np.ndarray] = {}
    for idx in _eval_chunks(lengths):
        chunk = run_model(params, cfg.encoder, spec.heads, ids[idx], lengths[idx])
        for name, values in zip(spec.labels, chunk):
            if name not in out:
                out[name] = np.empty((len(lengths), *values.shape[1:]))
            out[name][idx] = values
    return out


def _dev_metrics(params, cfg, dev_ids, dev_lengths, dev_targets) -> dict[str, float]:
    out = _model_outputs(params, cfg, dev_ids, dev_lengths)
    if "emotion" in out:
        out["emotion"] = np.argmax(out["emotion"], axis=1)
    return M.score(out, dev_targets)


# One float64 rule for every forward, backward and AdamW step of train() and predict(): an overflow,
# invalid value or division by zero raises FloatingPointError, as its result means nothing.
@np.errstate(over="raise", invalid="raise", divide="raise")
@blas.single_thread()
def train(train_set: Dataset, dev_set: Dataset, vocab: Vocab, cfg: TrainConfig) -> tuple[Checkpoint, TrainReport]:
    """Run the configured number of epochs and keep the best-on-dev snapshot.

    Ties on the snapshot metric keep the earlier epoch. With epochs=0 the
    checkpoint holds the untouched initialization and no metric.
    """
    if not dev_set.records:
        raise ValidationError("dev set is empty: it is needed to pick the best epoch")
    spec = _TASKS[cfg.task]
    targets = gold_values(train_set.records, spec.labels, "train")
    dev_targets = gold_values(dev_set.records, spec.labels, "dev")
    if cfg.encoder.vocab_size not in (0, len(vocab)):
        raise ValidationError(f"encoder vocab_size {cfg.encoder.vocab_size} must be 0 or the vocabulary size {len(vocab)}")
    run_cfg = replace(cfg, encoder=replace(cfg.encoder, vocab_size=len(vocab)))

    started = time.perf_counter()
    ids, lengths = encode_dataset(train_set, vocab, cfg.encoder.max_len)
    dev_ids, dev_lengths = encode_dataset(dev_set, vocab, cfg.encoder.max_len)
    # Only a run with epochs correlates predictions against dev gold.
    for name, gold in dev_targets.items():
        if cfg.epochs and name != "emotion" and (gold.size < 2 or np.all(gold == gold[0])):
            raise ValidationError(
                f"dev {name!r} scores are constant over {gold.size} record(s):"
                " the pearson correlation that picks the best epoch is undefined"
            )
    # Essays that encode alike get alike predictions, which no gold correlates with.
    alike = (dev_ids == dev_ids[0]).all() and (dev_lengths == dev_lengths[0]).all()
    if cfg.epochs and "emotion" not in dev_targets and alike:
        raise ValidationError(
            f"all {len(dev_set)} dev set essays encode to the same token ids, so every dev prediction"
            " is the same: the pearson correlation that picks the best epoch is undefined"
        )

    params = init_params(run_cfg.encoder, spec.heads, cfg.seed)
    optimizer = AdamW(cfg.optimizer)
    report = TrainReport(task=cfg.task, seed=cfg.seed, snapshot_metric=cfg.snapshot_metric)

    best_params = {name: arr.copy() for name, arr in params.items()}

    for epoch in range(cfg.epochs):
        batches = make_batches(train_set, cfg.batch_size, cfg.shuffle, cfg.seed, epoch)
        loss_sum = 0.0
        for batch_idx, idxs in enumerate(batches):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, epoch, batch_idx])))
            tape = Tape(rng=rng)
            pnodes = wrap_params(params)
            try:
                loss = _batch_loss(pnodes, run_cfg, ids, lengths, targets, idxs, tape)
                tape.backward(loss)
                optimizer.step(params, collect_grads(pnodes, params))
                if not math.isfinite(loss.value):
                    raise DivergenceError("non-finite training loss")
            except (FloatingPointError, DivergenceError) as exc:
                raise DivergenceError(
                    f"training diverged in epoch {epoch + 1} of {cfg.epochs},"
                    f" batch {batch_idx + 1} of {len(batches)}: {exc}"
                ) from None
            loss_sum += float(loss.value) * len(idxs)

        try:
            dev = _dev_metrics(params, run_cfg, dev_ids, dev_lengths, dev_targets)
        except FloatingPointError as exc:
            raise DivergenceError(f"training diverged in epoch {epoch + 1} of {cfg.epochs}: {exc} in the dev evaluation") from None
        report.epochs.append(EpochStats(epoch=epoch, train_loss=loss_sum / len(train_set), dev=dev))
        metric = dev[cfg.snapshot_metric]
        if report.best_metric is None or metric > report.best_metric:
            report.best_metric, report.best_epoch = metric, epoch
            best_params = {name: arr.copy() for name, arr in params.items()}

    report.wall_time_s = time.perf_counter() - started
    return Checkpoint(config=run_cfg, vocab_hash=vocab.sha256, params=best_params), report


@np.errstate(over="raise", invalid="raise", divide="raise")  # the float64 rule above train()
@blas.single_thread()
def predict(
    ckpt: Checkpoint, d: Dataset, vocab: Vocab, clamp: bool = False
) -> RegressionPredictions | ClassificationPredictions:
    """Eval-mode predictions over a dataset in its original record order.

    ``clamp`` clips regression outputs into the [1, 7] score range; raw
    outputs are the default. A classification checkpoint refuses it.
    """
    if clamp and ckpt.config.task == "emotion":
        raise ValidationError(f"clamp clips regression scores; task {ckpt.config.task!r} predicts classes")
    if vocab.sha256 != ckpt.vocab_hash:
        raise ValidationError("vocabulary hash does not match the one used to train this checkpoint")
    if ckpt.config.encoder.vocab_size != len(vocab):
        raise ValidationError(f"checkpoint vocab_size {ckpt.config.encoder.vocab_size} is not the vocabulary's {len(vocab)}")
    if not d.records:
        raise ValidationError("cannot predict on an empty dataset")
    ids, lengths = encode_dataset(d, vocab, ckpt.config.encoder.max_len)
    rec_ids = [r.id for r in d.records]
    try:
        out = _model_outputs(ckpt.params, ckpt.config, ids, lengths)
    except FloatingPointError as exc:
        raise ValidationError(f"prediction stopped: {exc} in the model's forward pass") from None
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

    Every seed must be listed once, and its config is built before the first run.
    ``std`` is the population standard deviation of the per-seed values.
    """
    if len(seeds) < 2:
        raise ValidationError("seed sweep needs at least 2 seeds")
    if cfg.epochs < 1:
        raise ValidationError("seed sweep needs at least 1 epoch")
    configs = []
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValidationError(f"seed sweep lists seed {seed} more than once")
        configs.append(replace(cfg, seed=seed))
    entries = []
    for run_cfg in configs:
        try:
            _, report = train(train_set, dev_set, vocab, run_cfg)
        except DivergenceError as exc:
            raise DivergenceError(f"seed {run_cfg.seed}: {exc}") from None
        entries.append(SweepEntry(seed=run_cfg.seed, best_metric=report.best_metric, best_epoch=report.best_epoch))
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
    """Write the binary checkpoint format, version 6.

    Layout: magic ``MTAF``, little-endian u32 format version, little-endian
    u64 JSON header length, the UTF-8 JSON header (config echo and vocab
    hash), then the tensors as raw little-endian float64, back to back in
    the config's ``param_shapes`` order: the config alone (its encoder and
    its task's heads) names and shapes them. ValidationError, before the
    file is opened, for a checkpoint that would not load: a missing,
    misshapen or extra tensor.
    """
    shapes = {name: shape for name, shape, _ in param_shapes(ckpt.config.encoder, _TASKS[ckpt.config.task].heads)}
    for name, shape in shapes.items():
        if name not in ckpt.params:
            raise ValidationError(f"checkpoint lacks tensor {name!r}, which its config needs")
        if ckpt.params[name].shape != shape:
            raise ValidationError(f"tensor {name!r} has shape {ckpt.params[name].shape}, its config needs {shape}")
    if extra := ckpt.params.keys() - shapes.keys():
        raise ValidationError(f"tensor {min(extra)!r} is not part of the model its config describes")
    header = {"config": ckpt.config.to_dict(), "vocab_hash": ckpt.vocab_hash}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)) + header_bytes)
        for name in shapes:
            fh.write(np.ascontiguousarray(ckpt.params[name], dtype="<f8"))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (bad magic)")
        version, header_len = struct.unpack_from("<IQ", prefix, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        # Sizes come from the file's length, never from a read, so a huge length field allocates nothing.
        section = os.fstat(fh.fileno()).st_size - 16 - header_len
        if section < 0:
            raise FormatError(f"{path}: truncated checkpoint header")
        try:
            header = parse_json(fh.read(header_len), f"{path}: corrupt checkpoint header")
            echo, vocab_hash = header["config"], header["vocab_hash"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: corrupt checkpoint header: {exc}") from None
        try:
            config = TrainConfig.from_dict(echo)
        except ValidationError as exc:
            raise FormatError(f"{path}: invalid config echo: {exc}") from None
        shapes = param_shapes(config.encoder, _TASKS[config.task].heads)
        expected = sum(math.prod(shape) * 8 for _, shape, _ in shapes)
        if section != expected:
            raise FormatError(f"{path}: tensor section is {section} bytes, expected {expected}")
        params: Parameters = {}
        for name, shape, _ in shapes:  # straight from the file into each array, with no second copy
            arr = params[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: tensor {name!r} is cut short")
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} holds a non-finite value")
    return Checkpoint(config=config, vocab_hash=vocab_hash, params=params)
