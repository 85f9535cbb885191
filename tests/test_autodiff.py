import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniaffect.nn import autodiff as ad
from miniaffect.nn.autodiff import Node, Tape

from oracles import (
    fd_gradients,
    gelu_reference,
    layer_norm_reference,
    masked_softmax,
    max_relative_error,
    reshape,
    transpose,
    unfused_attention,
)


def scalar_fd(fn, x, eps=1e-6):
    """Finite-difference gradient of a scalar fn over a flat array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_unary(op, x, tol=1e-7, **kwargs):
    def value(arr):
        tape = Tape()
        return float(ad.mean_all(tape, op(tape, Node(arr), **kwargs)).value)

    tape = Tape()
    node = Node(x)
    loss = ad.mean_all(tape, op(tape, node, **kwargs))
    tape.backward(loss)
    fd = scalar_fd(value, x.copy())
    assert np.abs(node.grad - fd).max() < tol


def test_add_broadcast_gradients():
    rng = np.random.default_rng(0)
    a = Node(rng.standard_normal((3, 4)))
    b = Node(rng.standard_normal((4,)))
    tape = Tape()
    loss = ad.mean_all(tape, ad.add(tape, a, b))
    tape.backward(loss)
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.allclose(b.grad, np.full(4, 3 / 12))


def test_op_kinds():
    # Every public function whose first parameter is the tape records nodes;
    # perfbench's tracer times exactly this set.
    ops = {
        name
        for name, fn in vars(ad).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == ad.__name__
        and next(iter(inspect.signature(fn).parameters), None) == "tape"
    }
    assert ops == {"add", "matmul", "linear", "take", "layer_norm", "gelu", "dropout", "attention",
                   "mean_all", "mse", "cross_entropy"}


def test_mse_gradient_matches_fd():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3))
    target = rng.standard_normal((2, 3))

    def value(arr):
        return float(ad.mse(Tape(), Node(arr), target).value)

    tape = Tape()
    node = Node(x)
    tape.backward(ad.mse(tape, node, target))
    assert np.abs(node.grad - scalar_fd(value, x.copy())).max() < 1e-6


def test_mse_matches_sub_mul_mean_chain_bit_for_bit():
    rng = np.random.default_rng(16)
    pred = rng.uniform(1, 7, 9)
    target = rng.uniform(1, 7, 9)
    tape = Tape()
    node = Node(pred)
    loss = ad.mse(tape, node, target)
    tape.backward(loss)
    # The arithmetic of sub -> mul -> mean_all: mean_all hands (1/size) to every
    # entry, mul routes it times diff to both of its (identical) inputs.
    diff = pred - target
    g_diff = np.full_like(diff, 1.0 / diff.size) * diff
    assert loss.value == (diff * diff).mean()
    assert np.array_equal(node.grad, g_diff + g_diff)


def _ce_inputs():
    """Logits with repeated gold classes, rows of +-1000 and one saturated gold logit."""
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((6, 7)) * 3
    logits[1, 4] = 1000.0
    logits[2] = -1000.0 + rng.standard_normal(7)
    logits[3, 0] = 1000.0
    logits[3, 5] = -1000.0
    gold = np.array([2, 4, 2, 5, 2, 6])
    return logits, gold


def test_cross_entropy_gradient_matches_fd():
    logits, gold = _ce_inputs()

    def value(arr):
        return float(ad.cross_entropy(Tape(), Node(arr), gold).value)

    tape = Tape()
    node = Node(logits.copy())
    tape.backward(ad.cross_entropy(tape, node, gold))
    assert np.abs(node.grad - scalar_fd(value, logits.copy())).max() < 1e-6


def test_cross_entropy_matches_logsumexp_take_sub_mean_chain_bit_for_bit():
    logits, gold = _ce_inputs()
    tape = Tape()
    node = Node(logits.copy())
    loss = ad.cross_entropy(tape, node, gold)
    tape.backward(loss)
    # The arithmetic of logsumexp_rows and take -> sub -> mean_all: the take's
    # backward writes -1/batch at the gold entries first, then the
    # log-sum-exp's adds (1/batch) * softmax.
    rows = np.arange(gold.size)
    m = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - m)
    total = exp.sum(axis=-1, keepdims=True)
    lse = (m + np.log(total)).reshape(gold.size)
    g_rows = np.full(gold.size, 1.0 / gold.size)
    grad = np.zeros_like(logits)
    np.add.at(grad, (rows, gold), -g_rows)
    grad += g_rows[:, None] * (exp / total)
    assert loss.value == (lse - logits[rows, gold]).mean()
    assert np.array_equal(node.grad, grad)


def test_cross_entropy_extreme_logits_stay_finite():
    tape = Tape()
    node = Node(np.array([[1000.0, 0.0], [-1000.0, -1000.0]]))
    loss = ad.cross_entropy(tape, node, np.array([0, 1]))
    tape.backward(loss)
    assert np.isclose(loss.value, np.log(2.0) / 2)
    assert np.isfinite(node.grad).all()
    assert np.allclose(node.grad, [[0.0, 0.0], [0.25, -0.25]])


def test_matmul_2d_gradients():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def value(arrs):
        tape = Tape()
        return float(ad.mean_all(tape, ad.matmul(tape, Node(arrs["a"]), Node(arrs["b"]))).value)

    params = {"a": a.copy(), "b": b.copy()}
    tape = Tape()
    na, nb = Node(params["a"]), Node(params["b"])
    loss = ad.mean_all(tape, ad.matmul(tape, na, nb))
    tape.backward(loss)
    fd = fd_gradients(value, params, eps=1e-6)
    assert max_relative_error({"a": na.grad, "b": nb.grad}, fd) < 1e-7


def test_matmul_batched_gradients():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2, 3, 4))
    b = rng.standard_normal((2, 2, 4, 3))

    def value(arrs):
        tape = Tape()
        return float(ad.mean_all(tape, ad.matmul(tape, Node(arrs["a"]), Node(arrs["b"]))).value)

    params = {"a": a.copy(), "b": b.copy()}
    tape = Tape()
    na, nb = Node(params["a"]), Node(params["b"])
    loss = ad.mean_all(tape, ad.matmul(tape, na, nb))
    tape.backward(loss)
    fd = fd_gradients(value, params, eps=1e-6)
    assert max_relative_error({"a": na.grad, "b": nb.grad}, fd) < 1e-7


def test_matmul_broadcast_size_1_axis_gradients():
    # a's leading axis of size 1 is broadcast against b's 2, so a's gradient sums over that axis.
    rng = np.random.default_rng(5)
    params = {"a": rng.standard_normal((1, 3, 4)), "b": rng.standard_normal((2, 4, 5))}
    target = rng.standard_normal((2, 3, 5))

    def value(arrs):
        return float(ad.mse(Tape(), ad.matmul(Tape(), Node(arrs["a"]), Node(arrs["b"])), target).value)

    tape = Tape()
    na, nb = Node(params["a"].copy()), Node(params["b"].copy())
    tape.backward(ad.mse(tape, ad.matmul(tape, na, nb), target))
    assert na.grad.shape == (1, 3, 4) and nb.grad.shape == (2, 4, 5)
    assert max_relative_error({"a": na.grad, "b": nb.grad}, fd_gradients(value, params, eps=1e-6)) < 1e-7


def test_reshape_transpose_roundtrip_grad():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4))
    tape = Tape()
    node = Node(x)
    out = transpose(tape, reshape(tape, node, (2, 2, 3, 2)), (0, 2, 1, 3))
    loss = ad.mean_all(tape, out)
    tape.backward(loss)
    assert np.allclose(node.grad, np.full_like(x, 1 / x.size))


def test_embedding_gradient_accumulates_repeats(monkeypatch):
    monkeypatch.setattr(ad, "MIN_ROWS_PER_ENTRY", 0)  # row-sparse although 6 ids cover most of 4 rows
    table = Node(np.arange(12, dtype=np.float64).reshape(4, 3))
    ids = np.array([[0, 1, 1], [2, 1, 0]])
    tape = Tape()
    out = ad.take(tape, table, ids)
    loss = ad.mean_all(tape, out)
    tape.backward(loss)
    g = 1.0 / out.value.size
    assert isinstance(table.grad, ad.RowSparse)
    assert table.grad.rows.tolist() == [0, 1, 2]  # row 3 is never read
    grad = ad.dense(table.grad)
    assert np.allclose(grad[1], 3 * g)  # id 1 used three times
    assert np.allclose(grad[3], 0.0)


@pytest.mark.parametrize("ids, sparse", [([[3, 7, 3]], True), ([[3, 7, 3, 5]], False)])
def test_take_gradient_is_row_sparse_only_for_a_short_index(ids, sparse):
    # 24 rows admit 3 ids at MIN_ROWS_PER_ENTRY 8 but not 4; either way the full gradient
    # has the bits of np.add.at into a zeroed table.
    assert ad.MIN_ROWS_PER_ENTRY == 8
    ids = np.array(ids)
    table = Node(np.zeros((24, 2)))
    g = np.random.default_rng(3).standard_normal((*ids.shape, 2))
    tape = Tape()
    out = ad.take(tape, table, ids)
    tape._ops[-1][1](g)
    assert out.value.shape == g.shape
    assert isinstance(table.grad, ad.RowSparse) == sparse
    expected = np.zeros((24, 2))
    np.add.at(expected, ids, g)
    assert np.array_equal(ad.dense(table.grad), expected)


def test_take_slice_and_cls_index():
    x = Node(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    tape = Tape()
    out = ad.take(tape, x, (slice(None), 0))
    assert out.value.shape == (2, 4)
    loss = ad.mean_all(tape, out)
    tape.backward(loss)
    assert np.count_nonzero(x.grad) == 8
    assert np.all(x.grad[:, 0] == 1.0 / 8)
    rows = Node(np.arange(10, dtype=np.float64).reshape(5, 2))
    tape = Tape()
    trimmed = ad.take(tape, rows, slice(0, 3))
    assert trimmed.value.shape == (3, 2)
    loss = ad.mean_all(tape, trimmed)
    tape.backward(loss)
    assert np.all(rows.grad[:3] == 1.0 / 6)
    assert np.all(rows.grad[3:] == 0.0)


def test_layer_norm_gradients_match_fd():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 6))
    gain = rng.standard_normal(6)
    bias = rng.standard_normal(6)
    target = rng.standard_normal((2, 3, 6))
    params = {"x": x.copy(), "gain": gain.copy(), "bias": bias.copy()}

    def value(arrs):
        tape = Tape()
        out = ad.layer_norm(tape, Node(arrs["x"]), Node(arrs["gain"]), Node(arrs["bias"]))
        return float(ad.mse(tape, out, target).value)

    tape = Tape()
    nodes = {k: Node(v) for k, v in params.items()}
    out = ad.layer_norm(tape, nodes["x"], nodes["gain"], nodes["bias"])
    loss = ad.mse(tape, out, target)
    tape.backward(loss)
    fd = fd_gradients(value, params, eps=1e-6)
    assert max_relative_error({k: n.grad for k, n in nodes.items()}, fd) < 1e-6


def test_gelu_gradient_matches_fd():
    rng = np.random.default_rng(6)
    check_unary(ad.gelu, rng.standard_normal((3, 5)) * 2)


def test_gelu_known_values():
    tape = Tape()
    out = ad.gelu(tape, Node(np.array([0.0, 100.0, -100.0])))
    assert out.value[0] == 0.0
    assert np.isclose(out.value[1], 100.0)
    assert np.isclose(out.value[2], 0.0)


def _kernel_run(op, arrays, target, fan_out):
    """Output and input gradients of ``op`` under an MSE loss.

    With fan_out, every input also feeds an MSE node recorded after op, whose
    backward runs first, so op's backward adds into gradients already held.
    """
    tape = Tape()
    nodes = [Node(arr.copy()) for arr in arrays]
    out = op(tape, *nodes)
    loss = ad.mse(tape, out, target)
    if fan_out:
        for node in nodes:
            loss = ad.add(tape, loss, ad.mse(tape, node, np.ones_like(node.value)))
    tape.backward(loss)
    return [out.value] + [node.grad for node in nodes]


@settings(max_examples=120)
@given(
    kind=st.sampled_from(["batch_seq", "cls_row", "rows"]),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 12)),
    spread=st.sampled_from([1e-3, 0.1, 1.0, 30.0, 1e3]),
    shift=st.sampled_from([0.0, 1.0, -250.0, 1e3]),
    fan_out=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_layer_norm_and_gelu_match_plain_expressions_bit_for_bit(kind, dims, spread, shift, fan_out, seed):
    batch, seq, d = dims
    shape = {"batch_seq": (batch, seq, d), "cls_row": (batch, 1, d), "rows": (batch * seq, d)}[kind]
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal(shape) * spread + shift, -1e3, 1e3)
    gain, bias = rng.standard_normal(d), rng.standard_normal(d)
    target = rng.standard_normal(shape)
    cases = [((x, gain, bias), ad.layer_norm, layer_norm_reference), ((x,), ad.gelu, gelu_reference)]
    for arrays, op, reference in cases:
        got = _kernel_run(op, arrays, target, fan_out)
        expected = _kernel_run(reference, arrays, target, fan_out)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


def test_masked_softmax_rows_sum_to_one_over_unmasked():
    rng = np.random.default_rng(7)
    scores = Node(rng.standard_normal((2, 1, 4, 4)))
    mask = np.array([[True, True, True, False], [True, True, False, False]])[:, None, None, :]
    tape = Tape()
    probs = masked_softmax(tape, scores, mask, 1.0)
    sums = probs.value.sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-10)
    assert np.all(probs.value[0, :, :, 3] == 0.0)
    assert np.all(probs.value[1, :, :, 2:] == 0.0)


def test_masked_softmax_gradient_matches_fd():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2, 3, 3))
    mask = np.array([[True, True, False], [True, True, True]])[:, None, None, :]
    target = rng.standard_normal((2, 2, 3, 3))
    scale = 1.0 / np.sqrt(2.0)

    def value(arr):
        tape = Tape()
        probs = masked_softmax(tape, Node(arr), mask, scale)
        return float(ad.mse(tape, probs, target).value)

    tape = Tape()
    node = Node(x)
    probs = masked_softmax(tape, node, mask, scale)
    loss = ad.mse(tape, probs, target)
    tape.backward(loss)
    fd = scalar_fd(value, x.copy())
    assert np.abs(node.grad - fd).max() < 1e-7


def test_masked_softmax_matches_unfused_scale_mask_softmax():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 2, 5, 5))
    mask = (np.arange(5)[None, :] < np.array([5, 3, 1])[:, None])[:, None, None, :]
    g = rng.standard_normal(x.shape)
    scale = 1.0 / np.sqrt(8.0)  # not a power of two, so operand order shows in the bits
    tape = Tape()
    node = Node(x)
    probs = masked_softmax(tape, node, mask, scale)
    tape.backward(ad.mse(tape, probs, g))

    # Reference: scale, then mask with -inf, then a plain max-shifted softmax.
    z = np.where(mask, x * scale, -np.inf)
    exp = np.exp(z - z.max(axis=-1, keepdims=True))
    ref = exp / exp.sum(axis=-1, keepdims=True)
    gp = (ref - g) * (1.0 / g.size) * 2.0  # the gradient mse passes down
    ref_grad = ((gp - (gp * ref).sum(axis=-1, keepdims=True)) * ref) * scale
    assert np.array_equal(probs.value, ref)
    assert np.array_equal(node.grad, ref_grad)


def test_linear_gradients_match_fd():
    rng = np.random.default_rng(12)
    params = {
        "x": rng.standard_normal((2, 3, 4)),
        "w": rng.standard_normal((4, 5)),
        "b": rng.standard_normal(5),
    }
    target = rng.standard_normal((2, 3, 5))

    def value(arrs):
        tape = Tape()
        out = ad.linear(tape, Node(arrs["x"]), Node(arrs["w"]), Node(arrs["b"]))
        return float(ad.mse(tape, out, target).value)

    tape = Tape()
    nodes = {k: Node(v.copy()) for k, v in params.items()}
    out = ad.linear(tape, nodes["x"], nodes["w"], nodes["b"])
    assert out.value.shape == (2, 3, 5)
    tape.backward(ad.mse(tape, out, target))
    fd = fd_gradients(value, params, eps=1e-6)
    assert max_relative_error({k: n.grad for k, n in nodes.items()}, fd) < 1e-7


def test_linear_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 7, 6))
    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(4)
    target = rng.standard_normal((3, 7, 4))

    def run(fused):
        tape = Tape()
        nx, nw, nb = Node(x.copy()), Node(w.copy()), Node(b.copy())
        if fused:
            out = ad.linear(tape, nx, nw, nb)
        else:  # the reshape -> matmul -> add -> reshape chain linear replaces
            flat = reshape(tape, nx, (-1, 6))
            out = reshape(tape, ad.add(tape, ad.matmul(tape, flat, nw), nb), (3, 7, 4))
        tape.backward(ad.mse(tape, out, target))
        return out.value, nx.grad, nw.grad, nb.grad

    for fused, chain in zip(run(True), run(False)):
        assert np.array_equal(fused, chain)


def test_dropout_scales_and_masks():
    rng = np.random.Generator(np.random.PCG64(0))
    tape = Tape(rng=rng)
    x = Node(np.ones((100, 100)))
    out = ad.dropout(tape, x, 0.5)
    kept = out.value != 0.0
    assert np.all(out.value[kept] == 2.0)  # inverted scaling by 1/keep
    assert 0.4 < kept.mean() < 0.6
    loss = ad.mean_all(tape, out)
    tape.backward(loss)
    assert np.all((x.grad != 0) == kept)


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (4, 1, 8)])
def test_dropout_draws_exactly_the_shape_it_masks(shape):
    tape = Tape(rng=np.random.Generator(np.random.PCG64(30)))
    x = Node(np.arange(1.0, np.prod(shape) + 1).reshape(shape))
    out = ad.dropout(tape, x, 0.4)
    fresh = np.random.Generator(np.random.PCG64(30))
    kept = fresh.random(shape) < 0.6
    assert np.array_equal(out.value, np.where(kept, x.value / 0.6, 0.0))
    assert np.array_equal(tape.rng.random(4), fresh.random(4))


@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("cls_only", [False, True], ids=["all_rows", "cls_row"])
def test_attention_draws_exactly_its_probabilities(cls_only, rate):
    # With dropout, the noise is [B, H, Sq, S] and nothing more; without, none.
    rng = np.random.default_rng(31)
    batch, seq, n_heads, d = 3, 5, 2, 6
    rows = 1 if cls_only else seq
    q, k, v = (rng.standard_normal((batch, n, d)) for n in (rows, seq, seq))
    key_mask = np.arange(seq)[None, :] < np.array([5, 3, 1])[:, None]
    tape = Tape(rng=np.random.Generator(np.random.PCG64(32)))
    ad.attention(tape, Node(q), Node(k), Node(v), key_mask, 1 / np.sqrt(3), n_heads, rate)
    fresh = np.random.Generator(np.random.PCG64(32))
    fresh.random(batch * n_heads * rows * seq if rate > 0.0 else 0)
    assert np.array_equal(tape.rng.random(4), fresh.random(4))


@pytest.mark.parametrize(
    "cls_only, rate, q_gain",
    [
        pytest.param(cls_only, rate, q_gain, id="-".join(filter(None, (rows, drop, over))))
        for q_gain, over in ((1.0, ""), (12.0, "over_bound"))
        for cls_only, rows in ((False, "all_rows"), (True, "cls_row"))
        for rate, drop in ((0.0, "no_dropout"), (0.3, "dropout"))
    ],
)
def test_attention_gradients_match_fd(cls_only, rate, q_gain):
    rng = np.random.default_rng(14)
    batch, seq, n_heads, d = 3, 5, 2, 6
    rows = 1 if cls_only else seq
    params = {
        "q": rng.standard_normal((batch, rows, d)) * q_gain,
        "k": rng.standard_normal((batch, seq, d)),
        "v": rng.standard_normal((batch, seq, d)),
    }
    lengths = np.array([5, 3, 1])
    key_mask = np.arange(seq)[None, :] < lengths[:, None]
    target = rng.standard_normal((batch, rows, d))
    # over_bound takes the row-max path, under_bound the unshifted exp
    bound = np.linalg.norm(params["q"] / np.sqrt(3), axis=-1).max() * np.linalg.norm(params["k"], axis=-1).max()
    assert (bound > ad.EXP_BOUND) == (q_gain > 1.0)

    def build(arrs):
        tape = Tape(rng=np.random.Generator(np.random.PCG64(15)))  # the same dropout mask every call
        nodes = {name: Node(arr) for name, arr in arrs.items()}
        out = ad.attention(tape, nodes["q"], nodes["k"], nodes["v"], key_mask, 1 / np.sqrt(3), n_heads, rate)
        return tape, nodes, ad.mse(tape, out, target)

    tape, nodes, loss = build({name: arr.copy() for name, arr in params.items()})
    tape.backward(loss)
    grads = {name: node.grad for name, node in nodes.items()}
    fd = fd_gradients(lambda p: float(build(p)[2].value), params, eps=1e-6)
    assert max_relative_error(grads, fd) < 1e-6
    for b, n in enumerate(lengths):  # masked keys get no weight, so no gradient
        assert np.all(grads["k"][b, n:] == 0.0) and np.all(grads["v"][b, n:] == 0.0)


@settings(max_examples=60)
@given(
    batch=st.integers(1, 3),
    seq=st.integers(1, 6),
    n_heads=st.integers(1, 3),
    d_head=st.integers(1, 3),
    cls_only=st.booleans(),
    rate=st.sampled_from([0.0, 0.1, 0.5]),
    pad_scale=st.sampled_from([1.0, 30.0, 300.0]),
    data=st.data(),
)
def test_attention_matches_unfused_chain(batch, seq, n_heads, d_head, cls_only, rate, pad_scale, data):
    # ad.attention folds the scale into q, exponentiates unshifted under
    # EXP_BOUND and divides after P V, so it matches the chain up to rounding.
    # pad_scale enlarges the padded keys: they count in the score bound but
    # get no weight, so 30 and 300 push the bound past EXP_BOUND (the
    # row-max path) while every softmax row stays as it was. Scaling the
    # scores themselves would saturate rows, where both sides' q and k
    # gradients are rounding noise.
    lengths = np.array(data.draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    key_mask = np.arange(seq)[None, :] < lengths[:, None]
    d, rows = n_heads * d_head, 1 if cls_only else seq
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((batch, n, d)) for n in (rows, seq, seq))
    k[~key_mask] *= pad_scale
    target = rng.standard_normal((batch, rows, d))
    scale = 1.0 / np.sqrt(d_head + 4.0)

    def run(op):
        tape = Tape(rng=np.random.Generator(np.random.PCG64(seed)))
        nodes = [Node(arr.copy()) for arr in (q, k, v)]
        out = op(tape, *nodes, key_mask, scale, n_heads, rate)
        tape.backward(ad.mse(tape, out, target))
        return [out.value] + [node.grad for node in nodes], tape.rng.random(3)

    (got, got_draws), (expected, expected_draws) = run(ad.attention), run(unfused_attention)
    assert np.array_equal(got_draws, expected_draws)
    # A row with one attendable key has zero q and k gradients in the chain;
    # dividing by its row sum after the products leaves rounding there, so
    # the output gradient's size is the floor of each comparison.
    floor = np.abs(2.0 * (expected[0] - target) / target.size).max()
    for got_array, expected_array in zip(got, expected):
        assert np.abs(got_array - expected_array).max() <= 1e-12 * max(np.abs(expected_array).max(), floor)


@settings(max_examples=60)
@given(
    batch=st.integers(1, 3),
    seq=st.integers(1, 6),
    n_heads=st.integers(1, 3),
    d_head=st.integers(1, 3),
    cls_only=st.booleans(),
    rate=st.sampled_from([0.0, 0.3]),
    shift=st.sampled_from([0.1, 1.0, 10.0]),
    data=st.data(),
)
def test_attention_ignores_a_vector_added_to_every_key(batch, seq, n_heads, d_head, cls_only, rate, shift, data):
    # A vector c added to every key, as a key bias would add, adds the same
    # q.c to every score of a row, and the softmax cancels it. So the output
    # does not depend on c, and the gradient a key bias would get, the sum of
    # dK over the keys, is zero up to rounding.
    lengths = np.array(data.draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    key_mask = np.arange(seq)[None, :] < lengths[:, None]
    d, rows = n_heads * d_head, 1 if cls_only else seq
    rng = np.random.default_rng(seed)
    q, k, v, target = (rng.standard_normal((batch, n, d)) for n in (rows, seq, seq, rows))
    c = shift * rng.standard_normal(d)

    def run(keys):
        tape = Tape(rng=np.random.Generator(np.random.PCG64(seed)))  # the same dropout mask on both sides
        nodes = [Node(arr.copy()) for arr in (q, keys, v)]
        out = ad.attention(tape, *nodes, key_mask, 1.0 / np.sqrt(d_head), n_heads, rate)
        tape.backward(ad.mse(tape, out, target))
        return out.value, nodes[1].grad

    out, dk = run(k)
    shifted, _ = run(k + c)
    assert np.abs(shifted - out).max() <= 1e-12
    # Where every row has one attendable key, dK is itself zero up to rounding,
    # so the output gradient's size is the floor, as in the chain comparison above.
    floor = np.abs(2.0 * (out - target) / target.size).max()
    assert np.abs(dk.sum(axis=1)).max() <= 1e-12 * max(np.abs(dk).max(), floor)


@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no_dropout", "dropout"])
def test_attention_shifts_scores_an_unshifted_exp_would_overflow(rate):
    # Every key lies near one direction u, and the two query rows are +-700 u,
    # so row 0 scores near +1000 (exp overflows) and row 1 near -1000 (every
    # exp underflows to 0, and so would its row sum). The bound is far above
    # EXP_BOUND, so the row max is subtracted first and both rows stay finite.
    rng = np.random.default_rng(33)
    batch, seq, d, n_heads = 2, 4, 4, 2
    u = np.array([1.0, 1.0, 1.0, 1.0])
    k = u + 0.01 * rng.standard_normal((batch, seq, d))
    q = np.stack([700.0 * u, -700.0 * u])[None].repeat(batch, axis=0)
    key_mask = np.arange(seq)[None, :] < np.array([4, 2])[:, None]
    scale = 1 / np.sqrt(2)

    def run(v):
        tape = Tape(rng=np.random.Generator(np.random.PCG64(34)))
        return ad.attention(tape, Node(q), Node(k), Node(v), key_mask, scale, n_heads, rate).value

    assert np.abs(q[:, :, :2] @ k[:, :, :2].swapaxes(1, 2) * scale).min() > 900  # head 0; head 1 alike
    ones = run(np.ones((batch, seq, d)))
    assert np.isfinite(ones).all()
    if rate == 0.0:
        assert np.allclose(ones, 1.0, rtol=0.0, atol=1e-12)  # each row's weights sum to one
    masked_keys = np.broadcast_to(~key_mask[:, :, None], (batch, seq, d)).astype(np.float64)
    assert np.all(run(masked_keys) == 0.0)  # masked keys get exactly zero weight


@pytest.mark.parametrize("rate", [0.0, 0.5], ids=["no_dropout", "dropout"])
def test_attention_shifts_scores_when_query_and_key_norms_are_balanced(rate):
    # |scale q|^2 and |k|^2 are both near 2e3, so their product, not their ratio, is what
    # exceeds EXP_BOUND^2: each head's scores lie near +-990, and unshifted exps would overflow.
    rng = np.random.default_rng(35)
    batch, seq, d, n_heads = 2, 4, 4, 2
    scale = 1 / np.sqrt(2)
    u = np.ones(d)
    k = 22.25 * u + 0.01 * rng.standard_normal((batch, seq, d))
    q = np.stack([22.25 / scale * u, -22.25 / scale * u])[None].repeat(batch, axis=0)
    assert 1e3 < np.sum((scale * q) ** 2, axis=-1).min() and 1e3 < np.sum(k**2, axis=-1).min()
    assert np.abs(q[:, :, :2] @ k[:, :, :2].swapaxes(1, 2) * scale).min() > 900
    key_mask = np.arange(seq)[None, :] < np.array([4, 2])[:, None]
    tape = Tape(rng=np.random.Generator(np.random.PCG64(36)))
    out = ad.attention(tape, Node(q), Node(k), Node(np.ones((batch, seq, d))), key_mask, scale, n_heads, rate).value
    assert np.isfinite(out).all()
    if rate == 0.0:
        assert np.allclose(out, 1.0, rtol=0.0, atol=1e-12)


def test_dropout_requires_rng():
    tape = Tape()
    with pytest.raises(ValueError):
        ad.dropout(tape, Node(np.ones(3)), 0.1)


def test_tape_consumed_twice_raises():
    tape = Tape()
    x = Node(np.array([1.0, 2.0]))
    loss = ad.mean_all(tape, x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_eval_tape_records_nothing_and_refuses_backward():
    tape = ad.EvalTape()
    x = Node(np.array([1.0, 2.0]))
    loss = ad.mse(tape, x, np.zeros(2))
    assert loss.value == 2.5
    assert tape._ops == []
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_requires_scalar():
    tape = Tape()
    x = Node(np.ones(3))
    out = ad.add(tape, x, 2.0)
    with pytest.raises(ValueError):
        tape.backward(out)


def test_fanout_accumulates_gradients():
    tape = Tape()
    x = Node(np.array([2.0]))
    # x feeds two consumers: loss = x**2 + x**2, so dloss/dx = 4x
    loss = ad.add(tape, ad.mse(tape, x, np.zeros(1)), ad.mse(tape, x, np.zeros(1)))
    tape.backward(loss)
    assert np.allclose(x.grad, [8.0])


def _zero_then_add(node, g):
    """Node.accumulate as a zeroed buffer plus +=, the reference for the first-write copy."""
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _fanout_graph():
    """Grads of x through add(x, x) and of y through two view-passing consumers.

    backward frees an op output's gradient once its closure has run, so the
    three op outputs' gradients are taken as their closures receive them.
    """
    rng = np.random.default_rng(13)
    c1, c2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 3))
    tape = Tape()
    x = Node(rng.standard_normal((3, 4)))
    y = Node(rng.standard_normal((3, 4)))
    doubled = ad.add(tape, x, x)
    r = reshape(tape, y, (4, 3))
    t = transpose(tape, y, (1, 0))
    loss = ad.add(tape, ad.mse(tape, doubled, c1), ad.mse(tape, ad.add(tape, r, t), c2))
    received = {}

    def receiving(out, fn):
        def closure(g):
            received[out] = g
            fn(g)

        return closure

    tape._ops = [(out, receiving(out, fn)) for out, fn in tape._ops]
    tape.backward(loss)
    return [x.grad, y.grad, *(received[node] for node in (doubled, r, t))]


def test_first_write_grads_match_zero_then_add_without_aliasing(monkeypatch):
    grads = _fanout_graph()
    with monkeypatch.context() as m:
        m.setattr(Node, "accumulate", _zero_then_add)
        reference = _fanout_graph()
    for grad, ref in zip(grads, reference):
        assert np.array_equal(grad, ref)
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_take_into_node_with_grad_accumulates_repeats():
    table = Node(np.arange(12, dtype=np.float64).reshape(4, 3))
    ids = np.array([0, 1, 1, 3, 1])
    tape = Tape()
    picked = ad.take(tape, table, ids)
    # recorded after the take, so its backward writes table.grad first: 2 * 1 / 12 everywhere
    offset = ad.mse(tape, table, table.value - 1.0)
    tape.backward(ad.add(tape, ad.mean_all(tape, picked), offset))
    expected = np.full((4, 3), 2.0 / 12)
    expected += np.array([1, 3, 0, 1])[:, None] * (1.0 / 15)
    assert np.allclose(table.grad, expected, rtol=0, atol=1e-15)
    assert np.array_equal(table.grad[2], np.full(3, 2.0 / 12))
