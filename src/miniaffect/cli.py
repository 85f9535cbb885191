"""Command-line entry point.

Every command resolves its configuration (for train and seed-sweep: flags >
config file > preset defaults), runs, and writes a ``manifest.json`` next to
its outputs recording the resolved config, input file hashes, output paths,
seeds, wall time and the software and machine it ran on, so any reported
number can be traced back to its inputs and reproduced.

Exit codes: 0 success, 1 data/validation error, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, blas
from .augment import AugmentationSpec, balanced_augment, random_augment
from .data import SPLITS, class_histogram, load_pool_tsv, load_task_tsv, save_dataset
from .ensemble import ensemble_classification, ensemble_regression
from .errors import FormatError, ValidationError
from .metrics import build_report, confusion_csv, histogram_csv
from .predictions import (
    ClassificationPredictions,
    RegressionPredictions,
    read_predictions,
    write_predictions,
)
from .text import build_vocab, load_vocab, save_vocab
from .train import (
    PRESETS,
    TASKS,
    TrainConfig,
    load_checkpoint,
    make_config,
    predict,
    save_checkpoint,
    seed_sweep,
    train,
)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def _environment() -> dict:
    """The interpreter, numpy and its BLAS, and the machine a command ran on."""
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_build = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas_build.get("name"),
        "blas_version": blas_build.get("version"),
        # the process default; train and predict run on one thread (see blas.py)
        "blas_threads": blas.threads(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


class _Run:
    """Collects manifest fields while a command executes."""

    def __init__(self, args):
        self.command = args.command
        self.out_dir = Path(args.out)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {self.out_dir}: {exc.strerror}") from None
        self.quiet = args.quiet
        self.started = time.perf_counter()
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.config: dict = {}
        self.seeds: list[int] = []
        self.seed_defaulted = False
        self.notes: dict = {}

    def add_input(self, path) -> Path:
        """Record the file's hash; a missing or unreadable input is a ValidationError naming it."""
        path = Path(path)
        try:
            self.inputs[str(path)] = _sha256(path)
        except OSError as exc:
            raise ValidationError(f"cannot read input {path}: {exc.strerror}") from None
        return path

    def out_path(self, name: str) -> Path:
        path = self.out_dir / name
        self.outputs.append(str(path))
        return path

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seeds": self.seeds,
            "seed_defaulted": self.seed_defaulted,
            "notes": self.notes,
            "wall_time_s": time.perf_counter() - self.started,
            "environment": _environment(),
        }
        _write_text(self.out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_seed(run: _Run, seed: int | None) -> int:
    run.seed_defaulted = seed is None
    return 0 if seed is None else seed


def cmd_ingest(run: _Run, args) -> None:
    path = run.add_input(args.input)
    dataset = load_task_tsv(path, args.split)
    save_dataset(dataset, run.out_path("dataset.tsv"))
    run.config = {"split": args.split, "records": len(dataset)}
    if all(r.emotion is not None for r in dataset.records):
        hist = class_histogram(dataset)
        _write_text(run.out_path("histogram.csv"), histogram_csv(dataset))
        run.notes["histogram"] = hist
        run.say(f"{len(dataset)} records; histogram: {hist}")
    else:
        run.notes["histogram"] = "skipped: not all records carry emotion labels"
        run.say(f"{len(dataset)} records (no full emotion labeling, histogram skipped)")


def cmd_augment(run: _Run, args) -> None:
    base = load_task_tsv(run.add_input(args.base), "train")
    pool = load_pool_tsv(run.add_input(args.pool))
    seed = _resolve_seed(run, args.seed)
    run.seeds = [seed]
    if args.scheme == "ba":
        if args.total is None:
            raise ValidationError("--scheme ba requires --total")
        spec = AugmentationSpec(scheme="ba", total_target=args.total, seed=seed)
        out = balanced_augment(base, pool, spec)
    else:
        if args.count is None:
            raise ValidationError("--scheme ra requires --count")
        spec = AugmentationSpec(scheme="ra", sample_count=args.count, seed=seed)
        out = random_augment(base, pool, spec)
    save_dataset(out, run.out_path("augmented.tsv"))
    run.config = {"scheme": args.scheme, "total": args.total, "count": args.count, "seed": seed}
    run.notes.update(out.meta)
    run.notes["records"] = len(out)
    run.say(f"wrote {len(out)} records ({args.scheme}, seed {seed})")


def _load_file_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return loaded


def _resolve_train_config(args, run: _Run):
    """The config file's settings overlaid with the flags that were given; make_config fills in the rest."""
    settings = _load_file_config(args.config)
    if args.config:
        run.add_input(args.config)
    unknown = sorted(settings.keys() - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
    for key in ("task", "epochs", "preset", "seed", "batch_size", "snapshot_metric"):
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    if args.no_shuffle:
        settings["shuffle"] = False
    if settings.get("task") is None or settings.get("epochs") is None:
        raise ValidationError("task and epochs are required (flag or config file)")
    settings["seed"] = _resolve_seed(run, settings.get("seed"))
    return make_config(**settings)


def _train_inputs(run: _Run, args):
    """The resolved config, the train and dev sets, and the vocabulary built from the train set."""
    cfg = _resolve_train_config(args, run)
    train_set = load_task_tsv(run.add_input(args.train), "train")
    dev_set = load_task_tsv(run.add_input(args.dev), "dev")
    return cfg, train_set, dev_set, build_vocab(train_set, cfg.vocab_max_size, cfg.vocab_min_freq)


def cmd_train(run: _Run, args) -> None:
    cfg, train_set, dev_set, vocab = _train_inputs(run, args)
    ckpt, report = train(train_set, dev_set, vocab, cfg)
    save_checkpoint(ckpt, run.out_path("model.ckpt"))
    save_vocab(vocab, run.out_path("vocab.tsv"))
    _write_text(run.out_path("train_report.json"), json.dumps(report.to_dict(), indent=2) + "\n")
    run.config = ckpt.config.to_dict()
    run.seeds = [cfg.seed]
    best = "n/a" if report.best_metric is None else f"{report.best_metric:.4f}"
    run.say(f"trained {cfg.epochs} epochs; best {cfg.snapshot_metric} {best} at epoch {report.best_epoch}")


def cmd_predict(run: _Run, args) -> None:
    ckpt = load_checkpoint(run.add_input(args.model))
    vocab = load_vocab(run.add_input(args.vocab))
    dataset = load_task_tsv(run.add_input(args.input), args.split)
    preds = predict(ckpt, dataset, vocab, clamp=args.clamp)
    write_predictions(preds, run.out_path("predictions.tsv"))
    run.config = {"task": ckpt.config.task, "clamp": args.clamp, "records": len(dataset)}
    run.say(f"wrote predictions for {len(dataset)} records ({ckpt.config.task})")


def cmd_ensemble(run: _Run, args) -> None:
    members = [read_predictions(run.add_input(p)) for p in args.files]
    if args.task == "regression":
        if not all(isinstance(m, RegressionPredictions) for m in members):
            raise ValidationError("regression ensemble requires regression prediction files")
        merged = ensemble_regression(members)
        write_predictions(merged, run.out_path("ensemble.tsv"))
    else:
        if not all(isinstance(m, ClassificationPredictions) for m in members):
            raise ValidationError("classification ensemble requires classification prediction files")
        combined = ensemble_classification(members, score_space=args.space)
        for name, scores in (("ensemble.tsv", combined.normalized), ("ensemble_summed.tsv", combined.summed)):
            preds = ClassificationPredictions(ids=combined.ids, scores=scores, labels=combined.labels)
            write_predictions(preds, run.out_path(name))
    run.config = {"task": args.task, "space": args.space, "members": len(members)}
    run.say(f"combined {len(members)} member files")


def cmd_eval(run: _Run, args) -> None:
    preds = read_predictions(run.add_input(args.pred))
    gold = load_task_tsv(run.add_input(args.gold), args.split)
    report = build_report(args.task, preds, gold)
    _write_text(run.out_path("report.json"), report.to_json())
    if args.task == "classification":
        _write_text(run.out_path("confusion.csv"), confusion_csv(report.confusion))
        _write_text(run.out_path("confusion_normalized.csv"), confusion_csv(report.confusion_normalized))
        _write_text(run.out_path("histogram.csv"), histogram_csv(gold))
    run.config = {"task": args.task, "n": report.n}
    summary = {k: v for k, v in report.to_dict().items() if isinstance(v, float)}
    run.say(f"eval over {report.n} records: " + json.dumps(summary, sort_keys=True))


def cmd_seed_sweep(run: _Run, args) -> None:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ValidationError(f"--seeds must be a comma-separated integer list, got {args.seeds!r}") from None
    cfg, train_set, dev_set, vocab = _train_inputs(run, args)
    report = seed_sweep(train_set, dev_set, vocab, cfg, seeds)
    _write_text(run.out_path("sweep.json"), json.dumps(report.to_dict(), indent=2) + "\n")
    run.config = cfg.to_dict()
    run.seeds = seeds
    run.say(
        f"swept {len(seeds)} seeds: mean {report.mean:.4f} std {report.std:.4f}"
        f" min {report.min:.4f} max {report.max:.4f}"
    )


_REPORT_COLUMNS = ("pearson_empathy", "pearson_distress", "pearson_avg", "accuracy", "macro_f1")


def _load_report(path: Path) -> dict:
    """An eval report's JSON object; FormatError if it is not JSON, not an object or a metric is not a number."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"report {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"report {path} must hold a JSON object")
    for column in _REPORT_COLUMNS:
        value = payload.get(column)
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise FormatError(f"report {path}: {column} must be a number, got {value!r}")
    return payload


def cmd_report(run: _Run, args) -> None:
    rows = [(Path(path).stem, _load_report(run.add_input(path))) for path in args.files]
    columns = [c for c in _REPORT_COLUMNS if any(c in payload for _, payload in rows)]
    lines = ["| run | task | n | " + " | ".join(columns) + " |"]
    lines.append("|" + "---|" * (len(columns) + 3))
    for name, payload in rows:
        cells = [name, str(payload.get("task", "?")), str(payload.get("n", "?"))]
        for c in columns:
            value = payload.get(c)
            cells.append("-" if value is None else f"{value:.4f}")
        lines.append("| " + " | ".join(cells) + " |")
    table = "\n".join(lines) + "\n"
    _write_text(run.out_path("report.md"), table)
    run.config = {"reports": len(rows)}
    run.say(table.rstrip("\n"))


# Splits a task TSV can carry; pool files load only through augment.
_TASK_SPLITS = tuple(split for split in SPLITS if split != "pool")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current directory)")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0, noted in the manifest)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    _add_seed(p)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--train", required=True, help="training TSV")
    p.add_argument("--dev", required=True, help="development TSV")
    p.add_argument("--task", choices=TASKS, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--preset", choices=PRESETS, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--snapshot-metric", default=None)
    p.add_argument("--no-shuffle", action="store_true", help="disable per-epoch shuffling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="miniaffect", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"miniaffect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a TSV and emit its class histogram")
    p.add_argument("--input", required=True)
    p.add_argument("--split", choices=_TASK_SPLITS, default="train")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("augment", help="combine a base set with an external pool")
    p.add_argument("--scheme", choices=["ba", "ra"], required=True, help="ba: balanced top-up, ra: random draw")
    p.add_argument("--base", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--total", type=int, default=None, help="balanced output size (ba)")
    p.add_argument("--count", type=int, default=None, help="number of pool records to append (ra)")
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a model and keep the best-on-dev snapshot")
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a checkpoint over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--split", choices=_TASK_SPLITS, default="test")
    p.add_argument("--clamp", action="store_true", help="clip regression outputs into [1, 7]")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="combine member prediction files")
    p.add_argument("--task", choices=["regression", "classification"], required=True)
    p.add_argument("--space", choices=["probability", "logit"], default="probability")
    p.add_argument("files", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--task", choices=["regression", "classification"], required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--split", choices=_TASK_SPLITS, default="dev")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("seed-sweep", help="train across seeds and summarize metric spread")
    _add_train_flags(p)
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    _add_common(p)
    p.set_defaults(func=cmd_seed_sweep)

    p = sub.add_parser("report", help="tabulate one or more eval report JSONs")
    p.add_argument("files", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        run = _Run(args)
        args.func(run, args)
        run.finish()
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
