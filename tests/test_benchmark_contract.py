"""The benchmark's traced mode wraps program entry points by name; a rename here breaks it."""

import importlib.util
from pathlib import Path

import pytest

from miniaffect import train as mt
from miniaffect.nn import autodiff as ad
from miniaffect.nn import losses
from miniaffect.text import build_vocab

from corpus import keyword_classification_corpus, keyword_regression_corpus, tiny_encoder_kwargs

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# two batches of 7: two training steps, each with one loss call and one
# loss node per objective
@pytest.mark.parametrize("task, corpus, loss_op, loss_nodes", [
    ("multitask", keyword_regression_corpus, "mse", 4),
    ("emotion", keyword_classification_corpus, "cross_entropy", 2),
])
def test_tracer_wraps_one_training_run(task, corpus, loss_op, loss_nodes):
    tracing = _load_tracing()
    train_set, dev_set = corpus(14, "train", 1), corpus(7, "dev", 2)
    vocab = build_vocab(train_set)
    cfg = mt.make_config(task=task, epochs=1, preset="desk_scale", seed=0, batch_size=7,
                         encoder=tiny_encoder_kwargs(d_model=8, d_ff=16))
    originals = {name: getattr(losses, name) for name in ("loss_mse", "loss_multitask", "loss_cross_entropy")}
    original_op = getattr(ad, loss_op)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        mt.train(train_set, dev_set, vocab, cfg)
    finally:
        patches.restore()
    table = tracing.summarize(tracer.spans)
    assert table["train.train"]["calls"] == 1
    assert table["losses.loss"]["calls"] >= 2
    assert table[f"autodiff.{loss_op}.fwd"]["calls"] == loss_nodes
    assert table[f"autodiff.{loss_op}.bwd"]["calls"] == loss_nodes
    assert tracer.backward_calls == 2
    # the spans that time the optimizer and the embedding's row-sparse gradient
    assert table["optim.step"]["calls"] == 2
    assert table["autodiff.take.bwd"]["calls"] >= 2  # at least the token lookup's, once per step
    # the dropout draws: embedding, attention output and feed-forward of the one
    # layer in each step, plus the attention node, which draws its own
    assert table["autodiff.dropout.fwd"]["calls"] == table["autodiff.dropout.bwd"]["calls"] == 6
    assert table["autodiff.attention.fwd"]["calls"] >= 2  # the dev evaluation runs it too
    assert table["autodiff.attention.bwd"]["calls"] == 2
    assert all(getattr(losses, name) is fn and getattr(mt, name) is fn for name, fn in originals.items())
    assert getattr(ad, loss_op) is original_op
