import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from miniaffect.errors import ValidationError
from miniaffect.nn import autodiff as ad
from miniaffect.nn.autodiff import Node, Tape
from miniaffect.nn.encoder import (
    EncoderConfig,
    collect_grads,
    forward,
    head_apply,
    init_params,
    param_shapes,
    peak_bytes,
    run_model,
    wrap_params,
)
from miniaffect.nn.losses import loss_cross_entropy, loss_mse, loss_multitask
from miniaffect.train import _TASKS, make_config

from oracles import backward_keeping_grads, fd_gradients, full_width_forward, max_relative_error

@pytest.fixture(autouse=True)
def row_sparse_token_gradients(monkeypatch):
    # These tiny vocabularies would get a dense tok_emb gradient; the checks here cover the row-sparse one.
    monkeypatch.setattr(ad, "MIN_ROWS_PER_ENTRY", 0)


def dense_grads(pnodes, params):
    """collect_grads with the token embedding's row-sparse gradient made a full array."""
    return {name: ad.dense(g) for name, g in collect_grads(pnodes, params).items()}


# The three head layouts the tasks use, named by their shape.
HEADS = {
    "regression_single": _TASKS["empathy"].heads,
    "regression_dual": _TASKS["multitask"].heads,
    "classify7": _TASKS["emotion"].heads,
}
LAYOUTS = list(HEADS)
SINGLE, DUAL, CLASSIFY = HEADS.values()

TINY = EncoderConfig(vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=6, dropout_rate=0.0)


def batch_inputs(seed=0, batch=3, cfg=TINY):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, cfg.max_len + 1, size=batch)
    ids = np.zeros((batch, cfg.max_len), dtype=np.int64)
    ids[:, 0] = 2
    for b in range(batch):
        ids[b, 1:lengths[b]] = rng.integers(3, cfg.vocab_size, size=lengths[b] - 1)
    return ids, lengths


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, dropout_rate=1.0)
    with pytest.raises(ValueError, match="max_len 1 leaves no room after the CLS position"):
        EncoderConfig(vocab_size=10, max_len=1)
    with pytest.raises(ValidationError, match="vocab_size must be >= 0, got -1"):
        EncoderConfig(vocab_size=-1)
    with pytest.raises(ValidationError, match="n_heads must be positive, got 0"):
        replace(TINY, n_heads=0)  # replace() builds, and so checks, a new config
    # vocab_size 0 stands for the vocabulary's size, which train() fills in; no model is built at 0.
    with pytest.raises(ValidationError, match="vocab_size must be positive to build a model, got 0"):
        init_params(EncoderConfig(vocab_size=0), CLASSIFY, seed=0)


@pytest.mark.parametrize("n_layers, total", [(1, 537219463), (3, 537879175)])
def test_config_validation_caps_parameter_values(n_layers, total):
    # A single layer is already over the memory bound; the parameter term still counts every
    # layer's values, five float64 copies each, plus a fixed cost per array.
    encoder = {"vocab_size": 2**21, "d_model": 256, "n_layers": n_layers}
    with pytest.raises(ValidationError, match=f"for {n_layers} layers, .* the largest term is parameters"):
        make_config("emotion", 1, encoder=encoder)
    cfg = EncoderConfig(**encoder)
    shapes = param_shapes(cfg, CLASSIFY)
    assert sum(math.prod(shape) for _, shape, _ in shapes) == total
    per_array, rest = divmod(peak_bytes(cfg, CLASSIFY, 8, 16)["parameters"] - 5 * 8 * total, 5 * len(shapes))
    assert rest == 0 and 112 <= per_array <= 1024  # at least numpy's array header


def test_config_validation_caps_tensor_count():
    # 10**7 layers of width 1 hold about 10 GB of float64 values, parameters and activations
    # together, under the 16 GiB bound; but every array also costs its header, node and closure,
    # and counting that refuses them, without building one layer.
    encoder = dict(vocab_size=50, d_model=1, n_heads=1, d_ff=1, max_len=2)
    started = time.perf_counter()
    with pytest.raises(ValidationError, match="for 10000000 layers, .* the largest term is parameters"):
        make_config("emotion", 1, batch_size=1, encoder={**encoder, "n_layers": 10**7})
    assert time.perf_counter() - started < 0.1
    # The bound caps bytes, not tensors: a thousand tiny layers fit.
    assert make_config("emotion", 1, batch_size=1, encoder={**encoder, "n_layers": 1000}).encoder.n_layers == 1000


@pytest.mark.parametrize("seq", [64, 32])
def test_peak_bytes_training_term_tracks_a_measured_step(seq):
    cfg = EncoderConfig(vocab_size=100, max_len=seq)  # default dims, dropout on
    params = init_params(cfg, CLASSIFY, seed=0)
    ids, lengths = np.full((8, seq), 3), np.full(8, seq)
    tracemalloc.start()
    try:
        tape = Tape(rng=np.random.default_rng(0))
        pnodes = wrap_params(params)
        (logits,) = head_apply(pnodes, CLASSIFY, forward(pnodes, cfg, ids, lengths, tape, train_mode=True), tape)
        tape.backward(loss_cross_entropy(tape, logits, np.zeros(8, dtype=np.int64)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = peak_bytes(cfg, CLASSIFY, 8, 16)["training activations"]
    assert peak / 1.5 <= estimate <= peak * 1.5, (estimate, peak)


def test_init_deterministic_and_seed_sensitive():
    a = init_params(TINY, SINGLE, seed=42)
    b = init_params(TINY, SINGLE, seed=42)
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name])
    c = init_params(TINY, SINGLE, seed=43)
    assert any(not np.array_equal(a[name], c[name]) for name in a)


def test_init_biases_zero_norms_one():
    params = init_params(TINY, SINGLE, seed=0)
    for name, shape, kind in param_shapes(TINY, SINGLE):
        assert params[name].shape == shape
        if kind == "zeros":
            assert np.all(params[name] == 0.0)
        elif kind == "ones":
            assert np.all(params[name] == 1.0)


def test_init_xavier_bounds():
    params = init_params(TINY, SINGLE, seed=0)
    for name, shape, kind in param_shapes(TINY, SINGLE):
        if kind == "xavier":
            bound = np.sqrt(6.0 / (shape[0] + shape[-1]))
            assert np.abs(params[name]).max() <= bound


def test_forward_attention_rows_sum_to_one(monkeypatch):
    # Every attention call of a 2-layer forward (full-width, then CLS-only) is
    # rerun on its own q, k and key mask with probe values: v all ones gives
    # outputs of 1 when each probability row sums to one, and v zero on
    # attendable keys and 1 on masked keys gives exactly 0 when masked keys
    # carry exactly zero attention. Each call is also probed with q scaled by
    # 1000, whose scores an unshifted exp would overflow.
    cfg = replace(TINY, n_layers=2)
    params = init_params(cfg, SINGLE, seed=1)
    ids, lengths = batch_inputs(cfg=cfg)
    calls = []
    attention = ad.attention

    def capture(tape, q, k, v, key_mask, scale, n_heads, *args):
        calls.append((q, k, v, key_mask, scale, n_heads))
        return attention(tape, q, k, v, key_mask, scale, n_heads, *args)

    monkeypatch.setattr(ad, "attention", capture)
    forward(wrap_params(params), cfg, ids, lengths, Tape())
    assert [q.value.shape[1] for q, *_ in calls] == [int(lengths.max()), 1]
    assert not calls[0][3].all()  # some keys are masked
    for q, k, v, key_mask, scale, n_heads in calls:
        for probe in (q, Node(q.value * 1000.0)):
            ones = attention(Tape(), probe, k, Node(np.ones_like(v.value)), key_mask, scale, n_heads)
            assert np.allclose(ones.value, 1.0, atol=1e-10)
            masked_keys = np.broadcast_to(~key_mask[:, :, None], v.value.shape).astype(np.float64)
            zeros = attention(Tape(), probe, k, Node(masked_keys), key_mask, scale, n_heads)
            assert np.all(zeros.value == 0.0)


def test_forward_all_pad_after_cls_finite():
    params = init_params(TINY, SINGLE, seed=2)
    ids = np.zeros((1, TINY.max_len), dtype=np.int64)
    ids[0, 0] = 2
    lengths = np.array([1])
    (out,) = run_model(params, TINY, SINGLE, ids, lengths)
    assert np.isfinite(out).all()


def test_forward_duplicate_examples_identical_rows():
    params = init_params(TINY, SINGLE, seed=3)
    ids, lengths = batch_inputs(seed=5, batch=1)
    dup_ids = np.repeat(ids, 4, axis=0)
    dup_lengths = np.repeat(lengths, 4)
    tape = Tape()
    cls = forward(wrap_params(params), TINY, dup_ids, dup_lengths, tape)
    for row in range(1, 4):
        assert np.array_equal(cls.value[0], cls.value[row])


def test_forward_eval_deterministic():
    params = init_params(TINY, SINGLE, seed=4)
    ids, lengths = batch_inputs(seed=6)
    (first,), (second,) = (run_model(params, TINY, SINGLE, ids, lengths) for _ in range(2))
    assert np.array_equal(first, second)


def test_run_model_matches_a_recorded_eval_forward():
    params = init_params(TINY, SINGLE, seed=4)
    ids, lengths = batch_inputs(seed=6)
    tape = Tape()
    pnodes = wrap_params(params)
    (recorded,) = head_apply(pnodes, SINGLE, forward(pnodes, TINY, ids, lengths, tape, train_mode=False), tape)
    assert np.array_equal(run_model(params, TINY, SINGLE, ids, lengths)[0], recorded.value)


def test_forward_padding_trim_is_exact():
    # same example padded into a longer max_len gives identical outputs
    short_cfg = TINY
    long_cfg = EncoderConfig(**{**vars(TINY), "max_len": 12})
    params = init_params(short_cfg, SINGLE, seed=5)
    long_params = dict(params)
    long_params["pos_emb"] = np.concatenate([params["pos_emb"], np.zeros((6, 8))])
    ids, lengths = batch_inputs(seed=7)
    long_ids = np.concatenate([ids, np.zeros((3, 6), dtype=np.int64)], axis=1)
    assert np.array_equal(
        run_model(params, short_cfg, SINGLE, ids, lengths)[0],
        run_model(long_params, long_cfg, SINGLE, long_ids, lengths)[0],
    )


def test_forward_rejects_wrong_width():
    params = init_params(TINY, SINGLE, seed=0)
    ids, lengths = batch_inputs()
    with pytest.raises(ValueError, match="max_len"):
        run_model(params, TINY, SINGLE, ids[:, :4], lengths)


def test_forward_train_mode_dropout_changes_output():
    cfg = EncoderConfig(**{**vars(TINY), "dropout_rate": 0.3})
    params = init_params(cfg, SINGLE, seed=8)
    ids, lengths = batch_inputs(seed=8)
    tape1 = Tape(rng=np.random.Generator(np.random.PCG64(1)))
    tape2 = Tape(rng=np.random.Generator(np.random.PCG64(2)))
    out1 = forward(wrap_params(params), cfg, ids, lengths, tape1, train_mode=True).value
    out2 = forward(wrap_params(params), cfg, ids, lengths, tape2, train_mode=True).value
    assert not np.array_equal(out1, out2)
    # same rng seed -> identical noise
    tape3 = Tape(rng=np.random.Generator(np.random.PCG64(1)))
    out3 = forward(wrap_params(params), cfg, ids, lengths, tape3, train_mode=True).value
    assert np.array_equal(out1, out3)


@pytest.mark.parametrize("layout, head", [
    ("regression_single", [("head.w", (8, 1), "xavier"), ("head.b", (1,), "zeros")]),
    ("regression_dual", [("head_empathy.w", (8, 1), "xavier"), ("head_empathy.b", (1,), "zeros"),
                         ("head_distress.w", (8, 1), "xavier"), ("head_distress.b", (1,), "zeros")]),
    ("classify7", [("head.w", (8, 7), "xavier"), ("head.b", (7,), "zeros")]),
])
def test_param_shapes_end_with_the_head_tensors(layout, head):
    shapes = param_shapes(TINY, HEADS[layout])
    assert shapes[-len(head) - 1:] == [("final_norm.bias", (8,), "zeros"), *head]


def test_zero_cls_and_zero_bias_heads_output_zero():
    for layout, heads in HEADS.items():
        params = init_params(TINY, heads, seed=0)
        tape = Tape()
        pnodes = wrap_params(params)
        zero_cls = Node(np.zeros((2, TINY.d_model)))
        out = head_apply(pnodes, heads, zero_cls, tape)
        assert len(out) == (2 if layout == "regression_dual" else 1)
        if layout == "classify7":
            assert out[0].value.shape == (2, 7)
        assert all(np.all(node.value == 0.0) for node in out)


def test_dual_head_parameter_independence():
    params = init_params(TINY, DUAL, seed=9)
    ids, lengths = batch_inputs(seed=9)
    _, base_distress = run_model(params, TINY, DUAL, ids, lengths)
    perturbed = {k: v.copy() for k, v in params.items()}
    perturbed["head_empathy.w"] += 0.5
    perturbed["head_empathy.b"] += 1.0
    empathy2, distress2 = run_model(perturbed, TINY, DUAL, ids, lengths)
    assert np.array_equal(base_distress, distress2)
    assert not np.array_equal(run_model(params, TINY, DUAL, ids, lengths)[0], empathy2)


def test_unused_head_gets_zero_gradient():
    params = init_params(TINY, DUAL, seed=10)
    ids, lengths = batch_inputs(seed=10)
    tape = Tape()
    pnodes = wrap_params(params)
    cls = forward(pnodes, TINY, ids, lengths, tape)
    pred_e, pred_d = head_apply(pnodes, DUAL, cls, tape)
    loss = loss_mse(tape, pred_e, np.array([3.0, 4.0, 5.0]))  # empathy-only loss
    tape.backward(loss)
    grads = collect_grads(pnodes, params)
    assert np.all(grads["head_distress.w"] == 0.0)
    assert np.all(grads["head_distress.b"] == 0.0)
    assert np.any(grads["head_empathy.w"] != 0.0)


def test_multitask_encoder_gradient_is_sum_of_task_gradients():
    params = init_params(TINY, DUAL, seed=11)
    ids, lengths = batch_inputs(seed=11)
    gold_e = np.array([2.0, 3.0, 4.0])
    gold_d = np.array([6.0, 5.0, 4.0])

    def run(loss_kind):
        tape = Tape()
        pnodes = wrap_params(params)
        cls = forward(pnodes, TINY, ids, lengths, tape)
        pred_e, pred_d = head_apply(pnodes, DUAL, cls, tape)
        if loss_kind == "e":
            loss = loss_mse(tape, pred_e, gold_e)
        elif loss_kind == "d":
            loss = loss_mse(tape, pred_d, gold_d)
        else:
            loss = loss_multitask(tape, pred_e, pred_d, gold_e, gold_d)
        tape.backward(loss)
        return dense_grads(pnodes, params)

    g_e, g_d, g_sum = run("e"), run("d"), run("both")
    for name in params:
        assert np.abs(g_sum[name] - (g_e[name] + g_d[name])).max() < 1e-10


def head_loss(tape, heads, out, targets):
    """The loss the task with these heads trains on."""
    if len(heads) == 2:
        return loss_multitask(tape, *out, *targets)
    if heads[0][1] == 7:
        return loss_cross_entropy(tape, out[0], targets[0])
    return loss_mse(tape, out[0], targets[0])


def random_targets(heads, batch, seed):
    """Gold values per head: class ids for the 7-way head, scores in [1, 7] for a scalar one."""
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, 7, batch) if width == 7 else rng.uniform(1, 7, batch) for _, width in heads)


# One layer checks the CLS-only last layer alone; two check a full-width layer under it.
@pytest.mark.parametrize(
    "layout, n_layers",
    [(layout, 1) for layout in LAYOUTS] + [(layout, 2) for layout in LAYOUTS],
    ids=LAYOUTS + [f"{layout}-2_layers" for layout in LAYOUTS],
)
def test_gradients_match_finite_differences(layout, n_layers):
    cfg = EncoderConfig(vocab_size=12, d_model=4, n_layers=n_layers, n_heads=2, d_ff=8, max_len=5, dropout_rate=0.0)
    heads = HEADS[layout]
    params = init_params(cfg, heads, seed=12)
    ids, lengths = batch_inputs(seed=13, batch=2, cfg=cfg)
    targets = random_targets(heads, 2, seed=13)

    def build_loss(p):
        tape = Tape()
        pnodes = wrap_params(p)
        cls = forward(pnodes, cfg, ids, lengths, tape, train_mode=True)
        node = head_loss(tape, heads, head_apply(pnodes, heads, cls, tape), targets)
        return node, tape, pnodes

    loss_node, tape, pnodes = build_loss(params)
    tape.backward(loss_node)
    ad_grads = dense_grads(pnodes, params)

    fd = fd_gradients(lambda p: float(build_loss(p)[0].value), params)
    assert max_relative_error(ad_grads, fd) < 1e-4


@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train_dropout"])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_forward_matches_full_width_reference(layout, n_layers, train_mode):
    # Same rng seed on both sides, so in train mode this also pins the dropout stream.
    cfg = EncoderConfig(vocab_size=20, d_model=8, n_layers=n_layers, n_heads=2, d_ff=16, max_len=7, dropout_rate=0.3)
    heads = HEADS[layout]
    params = init_params(cfg, heads, seed=20 + n_layers)
    ids, lengths = batch_inputs(seed=21, batch=4, cfg=cfg)
    targets = random_targets(heads, 4, seed=22)

    def run(encode, params):
        tape = Tape(rng=np.random.Generator(np.random.PCG64(23)))
        pnodes = wrap_params(params)
        out = head_apply(pnodes, heads, encode(pnodes, cfg, ids, lengths, tape, train_mode=train_mode), tape)
        tape.backward(head_loss(tape, heads, out, targets))
        values = [o.value for o in out]
        return values + [tape.rng.random(3)], dense_grads(pnodes, params)

    values, grads = run(forward, params)
    # The reference still projects keys with a bias; at zero it is the same model.
    key_biases = {f"layers.{i}.attn.bk": np.zeros(cfg.d_model) for i in range(n_layers)}
    ref_values, ref_grads = run(full_width_forward, {**params, **key_biases})
    for value, ref in zip(values, ref_values):
        assert np.abs(value - ref).max() < 1e-12
    for name in params:
        assert np.abs(grads[name] - ref_grads[name]).max() < 1e-12, name
    # The softmax cancels a key bias, so the reference's gradient for it is rounding noise.
    for name in key_biases:
        wk = name.replace(".bk", ".wk")
        assert np.abs(ref_grads[name]).max() <= 1e-12 * np.abs(ref_grads[wk]).max(), name


@pytest.mark.parametrize("batch, n_heads, d_model, max_len", [(4, 2, 8, 7), (3, 4, 12, 10)],
                         ids=["b4_h2_d8", "b3_h4_d12"])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_train_forward_draws_exactly_the_noise_it_masks(n_layers, batch, n_heads, d_model, max_len):
    # The rng advances by the elements each dropout masks: B*S*d for the
    # embedding, B*H*S*S + 2*B*S*d per full-width layer and B*H*S + 2*B*d for
    # the CLS-only last layer, whose other rows reach no output.
    cfg = EncoderConfig(vocab_size=20, d_model=d_model, n_layers=n_layers, n_heads=n_heads, d_ff=16,
                        max_len=max_len, dropout_rate=0.3)
    ids, lengths = batch_inputs(seed=24, batch=batch, cfg=cfg)
    b, s, d, h = batch, int(lengths.max()), cfg.d_model, cfg.n_heads
    drawn = b * s * d + (n_layers - 1) * (b * h * s * s + 2 * b * s * d) + b * h * s + 2 * b * d
    tape = Tape(rng=np.random.Generator(np.random.PCG64(25)))
    forward(wrap_params(init_params(cfg, CLASSIFY, seed=26)), cfg, ids, lengths, tape, train_mode=True)
    fresh = np.random.Generator(np.random.PCG64(25))
    fresh.random(drawn)
    assert np.array_equal(tape.rng.random(4), fresh.random(4))


@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("train_mode, dropout_rate", [(False, 0.3), (True, 0.0)], ids=["eval", "train_no_dropout"])
def test_forward_without_dropout_draws_nothing(train_mode, dropout_rate, n_layers):
    # Eval outputs and dropout-0 training runs must not depend on the rng.
    cfg = EncoderConfig(vocab_size=20, d_model=8, n_layers=n_layers, n_heads=2, d_ff=16,
                        max_len=7, dropout_rate=dropout_rate)
    ids, lengths = batch_inputs(seed=27, batch=4, cfg=cfg)
    tape = Tape(rng=np.random.Generator(np.random.PCG64(28)))
    forward(wrap_params(init_params(cfg, CLASSIFY, seed=29)), cfg, ids, lengths, tape, train_mode=train_mode)
    assert np.array_equal(tape.rng.random(4), np.random.Generator(np.random.PCG64(28)).random(4))


@pytest.mark.parametrize("task, nodes", [("emotion", 38), ("multitask", 43), ("empathy", 39)])
def test_training_step_tape_node_count(task, nodes):
    # desk_scale shapes: d 64, 2 layers, 4 heads, d_ff 128, max_len 64, dropout
    # on. Every projection is one linear node, each layer's attention, from
    # q, k and v to merged heads, is one attention node, and each loss is one
    # node (plus the add that sums the two MSEs); re-expanding any of them into
    # a chain of ops changes this count. The CLS-only last layer adds its two
    # row takes (of x and of its attn_norm), and each scalar head one take of
    # its single output column.
    cfg, heads = EncoderConfig(vocab_size=50), _TASKS[task].heads
    params = init_params(cfg, heads, seed=0)
    ids, lengths = batch_inputs(seed=9, batch=8, cfg=cfg)
    tape = Tape(rng=np.random.Generator(np.random.PCG64(0)))
    pnodes = wrap_params(params)
    out = head_apply(pnodes, heads, forward(pnodes, cfg, ids, lengths, tape, train_mode=True), tape)
    head_loss(tape, heads, out, random_targets(heads, 8, seed=0))
    assert len(tape._ops) == nodes


@pytest.mark.parametrize("layout", LAYOUTS)
def test_training_step_parameter_gradients_share_no_memory(layout):
    # A node keeps the first gradient array it receives, so an op that passed
    # on its incoming gradient, or a view of it, would let one parameter's
    # later += reach another's gradient.
    cfg, heads = EncoderConfig(vocab_size=50), HEADS[layout]
    ids, lengths = batch_inputs(seed=9, batch=8, cfg=cfg)
    tape = Tape(rng=np.random.Generator(np.random.PCG64(0)))
    params = init_params(cfg, heads, seed=0)
    pnodes = wrap_params(params)
    out = head_apply(pnodes, heads, forward(pnodes, cfg, ids, lengths, tape, train_mode=True), tape)
    tape.backward(head_loss(tape, heads, out, random_targets(heads, 8, seed=0)))
    grads = [g.values if isinstance(g, ad.RowSparse) else g for g in collect_grads(pnodes, params).values()]
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_backward_frees_op_output_grads_and_leaves_parameter_grads_bit_identical(layout):
    cfg, heads = EncoderConfig(vocab_size=50), HEADS[layout]  # default dims, dropout on
    ids, lengths = batch_inputs(seed=9, batch=8, cfg=cfg)
    targets = random_targets(heads, 8, seed=0)
    params = init_params(cfg, heads, seed=0)

    def step(backward):
        tape = Tape(rng=np.random.Generator(np.random.PCG64(0)))
        pnodes = wrap_params(params)
        out = head_apply(pnodes, heads, forward(pnodes, cfg, ids, lengths, tape, train_mode=True), tape)
        backward(tape, head_loss(tape, heads, out, targets))
        return tape, pnodes

    tape, pnodes = step(Tape.backward)
    ref_tape, ref_pnodes = step(backward_keeping_grads)
    assert all(out.grad is None for out, _ in tape._ops)
    assert all(out.grad is not None for out, _ in ref_tape._ops)
    for name, node in pnodes.items():
        grad, ref = node.grad, ref_pnodes[name].grad
        assert type(grad) is type(ref)
        assert ad.dense(grad).tobytes() == ad.dense(ref).tobytes(), name
