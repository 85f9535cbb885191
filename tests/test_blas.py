import numpy as np
import pytest

import miniaffect.train as mt
from miniaffect import blas
from miniaffect.nn.encoder import EncoderConfig, init_params, run_model
from miniaffect.text import build_vocab

from corpus import keyword_classification_corpus, tiny_encoder_kwargs

needs_openblas = pytest.mark.skipif(blas.threads() is None, reason="numpy's BLAS thread count is not readable")


@needs_openblas
def test_single_thread_sets_one_and_restores():
    before = blas.threads()
    with blas.single_thread():
        assert blas.threads() == 1
    assert blas.threads() == before


@needs_openblas
def test_single_thread_restores_after_an_exception():
    before = blas.threads()
    with pytest.raises(RuntimeError):
        with blas.single_thread():
            raise RuntimeError("boom")
    assert blas.threads() == before


@needs_openblas
def test_train_and_predict_run_on_one_thread(monkeypatch):
    seen = []

    def spy(original):
        def wrapped(*args, **kwargs):
            seen.append(blas.threads())
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(mt, "forward", spy(mt.forward))
    monkeypatch.setattr(mt, "run_model", spy(mt.run_model))
    before = blas.threads()
    train_set = keyword_classification_corpus(14, "train", 1)
    dev_set = keyword_classification_corpus(7, "dev", 2)
    vocab = build_vocab(train_set)
    cfg = mt.make_config(task="emotion", epochs=1, seed=0, encoder=tiny_encoder_kwargs())
    ckpt, _ = mt.train(train_set, dev_set, vocab, cfg)
    mt.predict(ckpt, dev_set, vocab)
    assert seen and set(seen) == {1}
    assert blas.threads() == before


@pytest.mark.skipif((blas.threads() or 1) < 2, reason="needs more than one BLAS thread to compare against")
def test_thread_count_does_not_change_encoder_outputs():
    # desk_scale widths and 16 x 64 tokens: the products are large enough for
    # OpenBLAS to split them across threads outside single_thread().
    cfg = EncoderConfig(vocab_size=50, d_model=64, n_layers=2, n_heads=4, d_ff=128, max_len=64, dropout_rate=0.0)
    heads = mt._TASKS["emotion"].heads
    params = init_params(cfg, heads, 3)
    rng = np.random.default_rng(0)
    ids = rng.integers(3, cfg.vocab_size, size=(16, cfg.max_len))
    ids[:, 0] = 2
    lengths = np.full(16, cfg.max_len)
    (threaded,) = run_model(params, cfg, heads, ids, lengths)
    with blas.single_thread():
        (single,) = run_model(params, cfg, heads, ids, lengths)
    assert np.array_equal(threaded, single)
