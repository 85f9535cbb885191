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
from pathlib import Path

import numpy as np

from . import __version__, blas
from .augment import AugmentationSpec, balanced_augment, random_augment
from .data import class_histogram, load_pool_tsv, load_task_tsv, save_dataset
from .ensemble import ensemble_classification, ensemble_regression
from .errors import FormatError, ValidationError, parse_json
from .metrics import build_report, confusion_csv, histogram_csv
from .predictions import (
    ClassificationPredictions,
    format_predictions,
    read_predictions,
    write_predictions,
)
from .text import build_vocab, load_vocab, save_vocab
from .train import (
    PRESETS,
    TASKS,
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


def _write_text(text: str, path: Path) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def _environment() -> dict:
    """The interpreter, numpy and its BLAS, and the machine a command ran on."""
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except KeyError:  # a numpy built without a BLAS
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

    def write(self, name: str, save, obj) -> None:
        """``save(obj, path)`` for the output file ``name``; a path it cannot write is a ValidationError naming it."""
        path = self.out_dir / name
        try:
            save(obj, path)
        except OSError as exc:
            raise ValidationError(f"cannot write output {path}: {exc.strerror}") from None
        self.outputs.append(str(path))

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
        self.write("manifest.json", _write_text, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_seed(run: _Run, seed: int | None) -> int:
    run.seed_defaulted = seed is None
    return 0 if seed is None else seed


def cmd_ingest(run: _Run, args) -> None:
    path = run.add_input(args.input)
    dataset = load_task_tsv(path, "train")
    run.write("dataset.tsv", save_dataset, dataset)
    run.config = {"records": len(dataset)}
    if all(r.emotion is not None for r in dataset.records):
        hist = class_histogram(dataset)
        run.write("histogram.csv", _write_text, histogram_csv(dataset))
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
    if args.total is not None:  # the parser takes exactly one of --total (ba) and --count (ra)
        scheme, out = "ba", balanced_augment(base, pool, AugmentationSpec("ba", total_target=args.total, seed=seed))
    else:
        scheme, out = "ra", random_augment(base, pool, AugmentationSpec("ra", sample_count=args.count, seed=seed))
    run.write("augmented.tsv", save_dataset, out)
    run.config = {"scheme": scheme, "total": args.total, "count": args.count, "seed": seed}
    run.notes.update(out.meta)
    run.notes["records"] = len(out)
    run.say(f"wrote {len(out)} records ({scheme}, seed {seed})")


def _resolve_train_config(args, run: _Run):
    """The config file's settings overlaid with the flags that were given; make_config fills in the rest."""
    settings = {}
    if args.config:
        settings = parse_json(run.add_input(args.config).read_bytes(), f"cannot read config file {args.config}")
        if not isinstance(settings, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
    if args.command == "seed-sweep" and settings.get("seed") is not None:
        raise ValidationError(
            f"config file {args.config} sets seed, which seed-sweep replaces: give the seeds with --seeds"
        )
    for key in ("task", "epochs", "preset", "seed", "batch_size", "snapshot_metric"):
        if getattr(args, key, None) is not None:
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
    run.write("model.ckpt", save_checkpoint, ckpt)
    run.write("vocab.tsv", save_vocab, vocab)
    run.write("train_report.json", _write_text, json.dumps(report.to_dict(), indent=2) + "\n")
    run.config = ckpt.config.to_dict()
    run.seeds = [cfg.seed]
    best = "n/a" if report.best_metric is None else f"{report.best_metric:.4f}"
    run.say(f"trained {cfg.epochs} epochs; best {cfg.snapshot_metric} {best} at epoch {report.best_epoch}")


def cmd_predict(run: _Run, args) -> None:
    ckpt = load_checkpoint(run.add_input(args.model))
    vocab = load_vocab(run.add_input(args.vocab))
    dataset = load_task_tsv(run.add_input(args.input), "test")
    preds = predict(ckpt, dataset, vocab, clamp=args.clamp)
    run.write("predictions.tsv", write_predictions, preds)
    run.config = {"task": ckpt.config.task, "clamp": args.clamp, "records": len(dataset)}
    run.say(f"wrote predictions for {len(dataset)} records ({ckpt.config.task})")


def _kind(preds) -> str:
    """The evaluation task a prediction file's header decided: regression or classification."""
    return "classification" if isinstance(preds, ClassificationPredictions) else "regression"


def cmd_ensemble(run: _Run, args) -> None:
    members = [read_predictions(run.add_input(p)) for p in args.files]
    task = _kind(members[0])
    for path, member in zip(args.files, members):
        if _kind(member) != task:
            raise ValidationError(f"{path} holds {_kind(member)} predictions, but {args.files[0]} holds {task} ones")
    if task == "regression":
        if args.space is not None:
            raise ValidationError("--space does not apply to regression members, which are averaged")
        space, outputs = None, {"ensemble.tsv": ensemble_regression(members)}
    else:
        space = args.space or "probability"
        combined = ensemble_classification(members, score_space=space)
        scores = {"ensemble.tsv": combined.normalized, "ensemble_summed.tsv": combined.summed}
        outputs = {name: ClassificationPredictions(combined.ids, values, combined.labels) for name, values in scores.items()}
    # Every file is formatted, and so checked, before any is written.
    texts = {}
    for name, preds in outputs.items():
        try:
            texts[name] = format_predictions(preds)
        except ValidationError as exc:
            raise ValidationError(f"{name}: {exc}") from None
    for name, text in texts.items():
        run.write(name, _write_text, text)
    run.config = {"task": task, "space": space, "members": len(members)}
    run.say(f"combined {len(members)} member files")


def cmd_eval(run: _Run, args) -> None:
    preds = read_predictions(run.add_input(args.pred))
    gold = load_task_tsv(run.add_input(args.gold), "dev")
    report = build_report(_kind(preds), preds, gold)
    run.write("report.json", _write_text, report.to_json())
    if report.task == "classification":
        run.write("confusion.csv", _write_text, confusion_csv(report.confusion))
        run.write("confusion_normalized.csv", _write_text, confusion_csv(report.confusion_normalized))
        run.write("histogram.csv", _write_text, histogram_csv(gold))
    run.config = {"task": report.task, "n": report.n}
    summary = {k: v for k, v in report.to_dict().items() if isinstance(v, float)}
    run.say(f"eval over {report.n} records: " + json.dumps(summary, sort_keys=True))


def cmd_seed_sweep(run: _Run, args) -> None:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ValidationError(f"--seeds must be a comma-separated integer list, got {args.seeds!r}") from None
    cfg, train_set, dev_set, vocab = _train_inputs(run, args)
    report = seed_sweep(train_set, dev_set, vocab, cfg, seeds)
    run.write("sweep.json", _write_text, json.dumps(report.to_dict(), indent=2) + "\n")
    run.config = {key: value for key, value in cfg.to_dict().items() if key != "seed"}  # --seeds replaces it
    run.seeds = seeds
    run.seed_defaulted = False
    run.say(
        f"swept {len(seeds)} seeds: mean {report.mean:.4f} std {report.std:.4f}"
        f" min {report.min:.4f} max {report.max:.4f}"
    )


_REPORT_COLUMNS = ("pearson_empathy", "pearson_distress", "pearson_avg", "accuracy", "macro_f1")


def _load_report(path: Path) -> dict:
    """An eval report's JSON object; FormatError if it is not JSON, not an object or a metric is not a finite number."""
    payload = parse_json(path.read_bytes(), f"report {path} is not JSON")
    if not isinstance(payload, dict):
        raise FormatError(f"report {path} must hold a JSON object")
    for column in _REPORT_COLUMNS:
        value = payload.get(column)
        # A bool is no number here; nan, the infinities and ints beyond float64 fail the bound.
        if value is not None and not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
            raise FormatError(f"report {path}: {column} must be a number and finite, got {value!r}")
    return payload


def cmd_report(run: _Run, args) -> None:
    # A row is named by its path as given: eval writes every report as report.json.
    rows = [(path, _load_report(run.add_input(path))) for path in args.files]
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
    run.write("report.md", _write_text, table)
    run.config = {"reports": len(rows)}
    run.say(table.rstrip("\n"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current directory)")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0, noted in the manifest)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
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

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # No abbreviated flags: a later flag sharing a prefix (as --seeds does
        # --seed) would silently change what an existing command line means.
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = command("ingest", "validate a TSV and emit its class histogram")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = command("augment", "combine a base set with an external pool")
    p.add_argument("--base", required=True)
    p.add_argument("--pool", required=True)
    size = p.add_mutually_exclusive_group(required=True)  # the size flag given picks the scheme
    size.add_argument("--total", type=int, help="ba: balanced top-up to this output size")
    size.add_argument("--count", type=int, help="ra: random draw of this many pool records to append")
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=cmd_augment)

    p = command("train", "train a model and keep the best-on-dev snapshot")
    _add_train_flags(p)
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = command("predict", "run a checkpoint over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--clamp", action="store_true", help="clip regression outputs into [1, 7]")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = command("ensemble", "combine member prediction files of one kind")
    p.add_argument("--space", choices=["probability", "logit"], default=None,
                   help="score space of a classification ensemble (default: probability)")
    p.add_argument("files", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_ensemble)

    p = command("eval", "score predictions against gold labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = command("seed-sweep", "train across seeds and summarize metric spread")
    _add_train_flags(p)
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    _add_common(p)
    p.set_defaults(func=cmd_seed_sweep)

    p = command("report", "tabulate one or more eval report JSONs")
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
