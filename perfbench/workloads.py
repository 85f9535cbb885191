"""The three benchmark workloads, driven through miniaffect's public Python API.

A run is a sequence of identical rounds, repeated until ``--seconds`` is used
up. Each round makes one ``train()`` call and a few ``predict()`` calls, with
set-up repetitions and dev-set-sized evaluation requests spread between them.
Interleaving spreads every metric's samples over the whole run, so a slow
spell of a shared machine weighs on all metrics alike instead of on whichever
phase it happened to hit.

Every timed call is an operation; an operation whose output check fails, or
that raises, counts as failed.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import gen
from miniaffect import augment, data, ensemble, metrics, predictions, text
from miniaffect import train as mt

MIN_DEV_REQUESTS = 100  # the p90 then has at least ten samples beyond it


@dataclass(frozen=True)
class Round:
    """Fixed work of one round."""

    setups: int
    predicts: int  # predict calls, or scoring passes on score_ensemble
    dev_requests: int


ROUNDS = {
    "train_long": Round(setups=2, predicts=3, dev_requests=20),
    "train_short_widevocab": Round(setups=2, predicts=9, dev_requests=20),
    "score_ensemble": Round(setups=2, predicts=1, dev_requests=18),
}


class Run:
    """Samples and operation counts of one benchmark run."""

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.train_steps = 0
        self.train_tokens = 0
        self.train_s: list[float] = []
        self.predict_essays = 0
        self.predict_s: list[float] = []
        self.dev_eval_ms: list[float] = []
        self._cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self._turn = 0

    def op(self, label: str, fn) -> None:
        """Run one operation; fn returns the list of checks it failed."""
        self._next_cpu()
        self.attempted += 1
        try:
            problems = fn()
        except Exception:  # an operation that raises is a failed operation; keep measuring
            self.failed += 1
            print(f"{label}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return
        if problems:
            self.failed += 1
            print(f"{label}: check failed: {'; '.join(problems)}", file=sys.stderr)

    def rounds(self, setup, main_ops: list, dev_request, spec: Round) -> None:
        """Repeat rounds until the next one would end more than half a round late.

        A round runs ``main_ops`` in order. The first ``spec.setups`` of them
        are preceded by a timed call of ``setup``, and each is followed by its
        share of the round's ``spec.dev_requests`` calls of ``dev_request``.
        So set-up and dev samples are spread over the round instead of bunched
        into one spell of it. At least enough rounds run for MIN_DEV_REQUESTS
        dev samples.
        """
        n_ops = len(main_ops)
        dev_after = [spec.dev_requests // n_ops + (i < spec.dev_requests % n_ops) for i in range(n_ops)]
        minimum = max(2, math.ceil(MIN_DEV_REQUESTS / spec.dev_requests))
        started = time.perf_counter()
        done = 0
        while True:
            t0 = time.perf_counter()
            for i, main_op in enumerate(main_ops):
                if i < spec.setups:
                    self._next_cpu()
                    gc.collect()  # start each repetition without earlier phases' garbage
                    t_setup = time.perf_counter()
                    setup()
                    self.setup_s.append(time.perf_counter() - t_setup)
                main_op()
                for _ in range(dev_after[i]):
                    dev_request()
            done += 1
            now = time.perf_counter()
            if done >= minimum and (now - started) + 0.5 * (now - t0) > self.seconds:
                return

    def _next_cpu(self) -> None:
        """Move this thread to the next usable CPU in turn, then unpin it again.

        Called before every timed operation. On a shared machine one CPU can
        run markedly slower than another for long spells, and a thread tends
        to stay on the CPU it started on. Without this, a whole run would land
        on a fast or a slow CPU by chance; rotating makes every run sample
        every CPU alike.
        """
        if len(self._cpus) < 2:
            return
        cpu = self._cpus[self._turn % len(self._cpus)]
        self._turn += 1
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, self._cpus)

    @contextlib.contextmanager
    def paused(self):
        """No tracing inside the block; nests, restoring the state it found."""
        if self.tracer is None:
            yield
            return
        was_active, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = was_active


def _train_checks(report: mt.TrainReport) -> list[str]:
    losses = [e.train_loss for e in report.epochs]
    if not all(math.isfinite(v) for v in losses):
        return [f"non-finite epoch loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"last epoch loss {losses[-1]} not below first {losses[0]}"]
    return []


def _timed_train(run: Run, train_set, dev, vocab, cfg, ckpt_path: str) -> tuple[bytes, list[str]]:
    """One train() call, timed; saves the checkpoint and returns its bytes and failed checks."""
    with run.paused():
        _, lengths = mt.encode_dataset(train_set, vocab, cfg.encoder.max_len)
    t0 = time.perf_counter()
    ckpt, report = mt.train(train_set, dev, vocab, cfg)
    run.train_s.append(time.perf_counter() - t0)
    run.train_steps += cfg.epochs * math.ceil(len(train_set) / cfg.batch_size)
    run.train_tokens += cfg.epochs * int(lengths.sum())
    mt.save_checkpoint(ckpt, ckpt_path)
    with open(ckpt_path, "rb") as fh:
        return fh.read(), _train_checks(report)


def _prediction_array(preds) -> np.ndarray:
    if isinstance(preds, predictions.ClassificationPredictions):
        return preds.scores
    return np.stack([v for v in (preds.empathy, preds.distress) if v is not None])


def _prediction_checks(preds, reference, n: int) -> list[str]:
    problems = []
    values = _prediction_array(preds)
    if len(preds.ids) != n:
        problems.append(f"{len(preds.ids)} predictions for {n} essays")
    if not np.isfinite(values).all():
        problems.append("non-finite prediction")
    if isinstance(preds, predictions.ClassificationPredictions):
        if np.abs(values.sum(axis=1) - 1.0).max() > 1e-9:
            problems.append("probability row does not sum to 1")
    if reference is not None and not np.array_equal(values, _prediction_array(reference)):
        problems.append("repeated predict differs from the first call")
    return problems


def _predict(run: Run, ckpt, dataset, vocab, timed: bool):
    t0 = time.perf_counter()
    preds = mt.predict(ckpt, dataset, vocab)
    if timed:
        run.predict_s.append(time.perf_counter() - t0)
        run.predict_essays += len(dataset)
    return preds


def _dev_request(run: Run, evaluate) -> list[str]:
    t0 = time.perf_counter()
    problems = evaluate()
    run.dev_eval_ms.append((time.perf_counter() - t0) * 1e3)
    return problems


# ---------------------------------------------------------------- training


def run_train_workload(run: Run, workload: str, seed: int, paths: dict, work: str) -> None:
    state: dict[str, object] = {}  # the latest set-up's inputs and the loaded checkpoint
    if workload == "train_long":
        task, epochs, report_kind = "emotion", 3, "classification"

        def setup():
            base = data.load_task_tsv(paths["base"], "train")
            pool = data.load_pool_tsv(paths["pool"])
            dev = data.load_task_tsv(paths["dev"], "dev")
            test = data.load_task_tsv(paths["test"], "test")
            spec = augment.AugmentationSpec("ba", total_target=gen.LONG_TOTAL, seed=seed)
            train_set = augment.balanced_augment(base, pool, spec)
            state["inputs"] = train_set, dev, test, text.build_vocab(train_set)

    else:
        task, epochs, report_kind = "multitask", 2, "regression"

        def setup():
            train_set = data.load_task_tsv(paths["train"], "train")
            dev = data.load_task_tsv(paths["dev"], "dev")
            test = data.load_task_tsv(paths["test"], "test")
            state["inputs"] = train_set, dev, test, text.build_vocab(train_set)

    spec = ROUNDS[workload]
    cfg = mt.make_config(task=task, epochs=epochs, seed=seed)
    ckpt_path = os.path.join(work, "model.ckpt")
    first_blob: list[bytes] = []
    reference: dict[str, object] = {}

    def train_once():
        train_set, dev, _, vocab = state["inputs"]
        blob, problems = _timed_train(run, train_set, dev, vocab, cfg, ckpt_path)
        if not first_blob:
            first_blob.append(blob)
        elif blob != first_blob[0]:
            problems.append("repeated train() with the same seed gave a different checkpoint")
        state["ckpt"] = mt.load_checkpoint(ckpt_path)
        return problems

    def predict_once(dataset, key, timed):
        _, _, _, vocab = state["inputs"]
        preds = _predict(run, state["ckpt"], dataset, vocab, timed)
        problems = _prediction_checks(preds, reference.get(key), len(dataset))
        reference.setdefault(key, preds)
        return preds, problems

    def evaluate_dev():
        dev = state["inputs"][1]
        preds, problems = predict_once(dev, "dev", False)
        report = metrics.build_report(report_kind, preds, dev)
        if report.n != len(dev):
            problems.append(f"report scored {report.n} of {len(dev)} essays")
        return problems

    def predict_test():
        run.op("predict", lambda: predict_once(state["inputs"][2], "test", True)[1])

    main_ops = [lambda: run.op("train", train_once)] + [predict_test] * spec.predicts
    run.rounds(setup, main_ops, lambda: run.op("dev_eval", lambda: _dev_request(run, evaluate_dev)), spec)


# ---------------------------------------------------------------- scoring


N_MEMBERS = 3


def run_score_workload(run: Run, seed: int, paths: dict, work: str) -> None:
    spec = ROUNDS["score_ensemble"]
    vocab_path = os.path.join(work, "vocab.tsv")
    member_paths = [os.path.join(work, f"member{k}.ckpt") for k in range(N_MEMBERS)]
    member_cfgs = [mt.make_config(task="emotion", epochs=3, seed=seed * N_MEMBERS + k) for k in range(N_MEMBERS)]

    # The members are inputs to scoring, made before set-up. Each round also
    # re-makes one member and checks it comes out bit-identical: that samples
    # the training rate across the run. Member training is never traced and
    # never part of the scoring timings.
    with run.paused():
        member_train = data.load_task_tsv(paths["train"], "train")
        member_dev = data.load_task_tsv(paths["dev"], "dev")
        member_vocab = text.build_vocab(member_train)
        text.save_vocab(member_vocab, vocab_path)
    blobs: dict[int, bytes] = {}

    def make_member(k: int):
        with run.paused():
            blob, problems = _timed_train(run, member_train, member_dev, member_vocab, member_cfgs[k], member_paths[k])
        if k not in blobs:
            blobs[k] = blob
        elif blob != blobs[k]:
            problems.append(f"re-made member {k} differs from the first one made with the same seed")
        return problems

    for k in range(N_MEMBERS):
        run.op("train_member", lambda: make_member(k))

    state: dict[str, object] = {}  # the latest set-up's inputs

    def setup():
        dev = data.load_task_tsv(paths["dev"], "dev")
        test = data.load_task_tsv(paths["test"], "test")
        vocab = text.load_vocab(vocab_path)
        state["inputs"] = dev, test, vocab, [mt.load_checkpoint(p) for p in member_paths]

    reference: dict[tuple[str, int], object] = {}

    def score(dataset, key, timed: bool) -> list[str]:
        """predict per member, write and read back, ensemble, report."""
        _, _, vocab, members = state["inputs"]
        problems = []
        read_back = []
        for k, ckpt in enumerate(members):
            preds = _predict(run, ckpt, dataset, vocab, timed)
            problems += _prediction_checks(preds, reference.get((key, k)), len(dataset))
            reference.setdefault((key, k), preds)
            path = os.path.join(work, f"pred-{key}-{k}.tsv")
            predictions.write_predictions(preds, path)
            back = predictions.read_predictions(path)
            if back.ids != preds.ids or back.labels != preds.labels or not np.array_equal(back.scores, preds.scores):
                problems.append(f"member {k} predictions changed in the write/read round trip")
            read_back.append(back)
        ens = ensemble.ensemble_classification(read_back)
        summed = np.sum([m.scores for m in read_back], axis=0)
        if ens.labels != [data.EMOTIONS[i] for i in np.argmax(summed, axis=1)]:
            problems.append("ensemble labels differ from the argmax of the summed scores")
        combined = predictions.ClassificationPredictions(ids=ens.ids, scores=ens.normalized, labels=ens.labels)
        report = metrics.build_report("classification", combined, dataset)
        if report.n != len(dataset):
            problems.append(f"report scored {report.n} of {len(dataset)} essays")
        return problems

    next_member = itertools.cycle(range(N_MEMBERS))

    def remake_member():
        k = next(next_member)
        run.op("train_member", lambda: make_member(k))

    def score_test():
        run.op("score", lambda: score(state["inputs"][1], "test", True))

    def dev_request():
        run.op("dev_eval", lambda: _dev_request(run, lambda: score(state["inputs"][0], "dev", False)))

    run.rounds(setup, [remake_member] + [score_test] * spec.predicts, dev_request, spec)


def run_workload(run: Run, workload: str, seed: int, paths: dict, work: str) -> None:
    if workload == "score_ensemble":
        run_score_workload(run, seed, paths, work)
    else:
        run_train_workload(run, workload, seed, paths, work)
