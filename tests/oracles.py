"""Independent brute-force oracles used to cross-check the library.

Everything here is written as plainly as possible (explicit loops, scalar
math) and must stay independent of the implementation paths it verifies.
"""

import math
import string

import numpy as np

from miniaffect.nn import autodiff as ad
from miniaffect.nn.autodiff import Node, Tape
from miniaffect.nn.encoder import EncoderConfig


def fd_gradients(loss_fn, params, eps=1e-5):
    """Central finite-difference gradients of loss_fn w.r.t. every tensor."""
    grads = {}
    for name, arr in params.items():
        flat = arr.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn(params)
            flat[i] = orig - eps
            lo = loss_fn(params)
            flat[i] = orig
            g[i] = (hi - lo) / (2 * eps)
        grads[name] = g.reshape(arr.shape)
    return grads


def max_relative_error(ad_grads, fd_grads):
    worst = 0.0
    for name, fd in fd_grads.items():
        diff = np.abs(ad_grads[name] - fd)
        rel = diff / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    return worst


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def naive_accuracy(preds, golds):
    return sum(1 for p, g in zip(preds, golds) if p == g) / len(golds)


def naive_confusion(preds, golds, k):
    counts = [[0] * k for _ in range(k)]
    for p, g in zip(preds, golds):
        counts[g][p] += 1
    return counts


def naive_macro_f1(preds, golds, k):
    f1s = []
    for c in range(k):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
    return sum(f1s) / k, f1s


def loop_unescape(text):
    """unescape_field as a character loop: backslash before t, n, r or backslash is an escape."""
    escapes = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in escapes:
            out.append(escapes[text[i + 1]])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def peel_tokenize(text):
    """tokenize as a character loop: lowercase, split on whitespace, peel edge punctuation one character at a time."""
    punct = set(string.punctuation)
    tokens = []
    for unit in text.lower().split():
        lead = []
        while unit and unit[0] in punct:
            lead.append(unit[0])
            unit = unit[1:]
        trail = []
        while unit and unit[-1] in punct:
            trail.append(unit[-1])
            unit = unit[:-1]
        tokens.extend(lead)
        if unit:
            tokens.append(unit)
        tokens.extend(reversed(trail))
    return tokens


def reference_adam_step(theta, g, m, v, t, lr, beta1, beta2, eps):
    """One plain-Adam scalar update, written out the long way."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta, m, v


class ReferenceAdamW:
    """AdamW as one whole-tensor numpy expression per term, a fresh temporary for each.

    The optimizer's blocked in-place update must match this bit for bit.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient for tensor {name!r}")
        cfg = self.cfg
        self.t += 1
        root_bc2 = math.sqrt(1.0 - cfg.beta2**self.t)
        step = cfg.lr * root_bc2 / (1.0 - cfg.beta1**self.t)
        eps_hat = cfg.eps * root_bc2
        for name, theta in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(theta)
                self.v[name] = np.zeros_like(theta)
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            update = step * (m / (np.sqrt(v) + eps_hat))
            if cfg.weight_decay != 0.0:
                update = update + cfg.lr * cfg.weight_decay * theta
            theta -= update


# The layer_norm and GELU kernels as plain whole-array expressions, kept
# verbatim from before they ran in place; ad.layer_norm and ad.gelu must match
# them bit for bit, outputs and gradients alike.

def layer_norm_reference(tape: Tape, x: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
    xv = x.value
    mean = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mean) * inv_std
    out = Node(xhat * gain.value + bias.value)

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        gain.accumulate((g * xhat).sum(axis=reduce_axes))
        bias.accumulate(g.sum(axis=reduce_axes))
        gxhat = g * gain.value
        # d/dx of (x - mean)/std with mean/var over the last axis
        x.accumulate(
            inv_std
            * (
                gxhat
                - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
            )
        )

    tape.record(out, backward)
    return out


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu_reference(tape: Tape, x: Node) -> Node:
    """Tanh-form GELU; the backward derivative matches this approximation exactly."""
    xv = x.value
    inner = _GELU_C * (xv + 0.044715 * (xv * xv * xv))
    tanh = np.tanh(inner)
    out = Node(0.5 * xv * (1.0 + tanh))

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (xv * xv))
        x.accumulate(g * (0.5 * (1.0 + tanh) + 0.5 * xv * (1.0 - tanh**2) * d_inner))

    tape.record(out, backward)
    return out


# The unfused attention ops the encoder used before its attention became one
# node, kept verbatim as the chain that ad.attention must match bit for bit,
# except that reshape and transpose copy the view of g they pass on, since a
# node now keeps the first gradient array it receives.

def reshape(tape: Tape, a: Node, shape) -> Node:
    out = Node(a.value.reshape(shape))

    def backward(g):
        a.accumulate(np.array(g.reshape(a.value.shape)))

    tape.record(out, backward)
    return out


def transpose(tape: Tape, a: Node, axes) -> Node:
    out = Node(a.value.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a.accumulate(np.array(g.transpose(inverse)))

    tape.record(out, backward)
    return out


def masked_softmax(tape: Tape, scores: Node, key_mask: np.ndarray, scale: float) -> Node:
    """Softmax over the last axis of ``scores * scale``, masked positions forced to 0.

    key_mask broadcasts against scores; True marks attendable positions. Every
    row must keep at least one attendable key (the CLS position guarantees it).
    The additive mask is built at key_mask's own (small) shape and every later
    step runs in place on the one [..., S] probability buffer.
    """
    probs = scores.value * scale
    probs += np.where(key_mask, 0.0, -np.inf)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = Node(probs)

    def backward(g):
        scores.accumulate(((g - (g * probs).sum(axis=-1, keepdims=True)) * probs) * scale)

    tape.record(out, backward)
    return out


def full_width_dropout(tape: Tape, x: Node, rate: float, cls_axis: int | None = None) -> Node:
    """Inverted dropout over all of x, or with ``cls_axis`` only over index 0 of that axis (the CLS rows).

    The noise is drawn at the shape it masks; rows outside the CLS rows are
    left undropped.
    """
    keep = 1.0 - rate
    shape = tuple(1 if axis == cls_axis else n for axis, n in enumerate(x.value.shape))
    mask = np.ones_like(x.value)
    mask[tuple(slice(0, n) for n in shape)] = (tape.rng.random(shape) < keep) / keep
    out = Node(x.value * mask)

    def backward(g):
        x.accumulate(g * mask)

    tape.record(out, backward)
    return out


def unfused_attention(tape: Tape, q: Node, k: Node, v: Node, key_mask, scale, n_heads, rate=0.0, cls_axis=None):
    """ad.attention as the chain of 13 nodes (12 without dropout) that it replaces.

    ``cls_axis`` 2 drops only the CLS query row's probabilities (see ``full_width_dropout``).
    """
    batch, n_q, d = q.value.shape

    def split_heads(node: Node) -> Node:
        r = reshape(tape, node, (batch, node.value.shape[1], n_heads, d // n_heads))
        return transpose(tape, r, (0, 2, 1, 3))  # [batch, heads, rows, d_head]

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    scores = ad.matmul(tape, qh, transpose(tape, kh, (0, 1, 3, 2)))
    probs = masked_softmax(tape, scores, key_mask[:, None, None, :], scale)
    if rate > 0.0:
        probs = full_width_dropout(tape, probs, rate, cls_axis)
    ctx = transpose(tape, ad.matmul(tape, probs, vh), (0, 2, 1, 3))
    return reshape(tape, ctx, (batch, n_q, d))


def full_width_forward(
    pnodes: dict[str, Node],
    cfg: EncoderConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
    tape: Tape,
    train_mode: bool = False,
) -> Node:
    """Encode a [batch, max_len] id matrix to per-example CLS vectors [batch, d_model].

    The encoder forward as it was before its last layer became CLS-only and its
    attention one node: every layer runs on all rows, through the unfused
    attention chain. Kept as the reference that the forward must match,
    outputs, gradients and dropout stream alike.

    Internally the batch is trimmed to its longest true length: PAD keys are
    masked out of every attention row, so positions beyond the longest real
    token cannot influence any output and dropping them is exact.

    With train_mode, dropout (rate cfg.dropout_rate) is applied to the embedding
    sum, the attention probabilities and each sublayer output, drawing noise
    from the tape's rng. The last layer draws noise only for the CLS rows, the
    only ones that reach an output, and leaves its other rows undropped.
    """
    batch, width = ids.shape
    if width != cfg.max_len:
        raise ValueError(f"sequence length {width} != configured max_len {cfg.max_len}")
    seq_len = max(1, int(lengths.max()))
    ids = ids[:, :seq_len]
    key_mask = np.arange(seq_len)[None, :] < lengths[:, None]  # [batch, seq]

    drop = train_mode and cfg.dropout_rate > 0.0

    def dropped(node: Node, cls_axis: int | None = None) -> Node:
        return full_width_dropout(tape, node, cfg.dropout_rate, cls_axis) if drop else node

    x = ad.add(
        tape,
        ad.take(tape, pnodes["tok_emb"], ids),
        ad.take(tape, pnodes["pos_emb"], slice(0, seq_len)),
    )
    x = dropped(x)

    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
    rate = cfg.dropout_rate if drop else 0.0

    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        last = i == cfg.n_layers - 1
        h = ad.layer_norm(tape, x, pnodes[p + "attn_norm.gain"], pnodes[p + "attn_norm.bias"])
        q = ad.linear(tape, h, pnodes[p + "attn.wq"], pnodes[p + "attn.bq"])
        k = ad.linear(tape, h, pnodes[p + "attn.wk"], pnodes[p + "attn.bk"])
        v = ad.linear(tape, h, pnodes[p + "attn.wv"], pnodes[p + "attn.bv"])
        ctx = unfused_attention(tape, q, k, v, key_mask, scale, cfg.n_heads, rate, 2 if last else None)
        attn_out = dropped(ad.linear(tape, ctx, pnodes[p + "attn.wo"], pnodes[p + "attn.bo"]), 1 if last else None)
        x = ad.add(tape, x, attn_out)

        h = ad.layer_norm(tape, x, pnodes[p + "ff_norm.gain"], pnodes[p + "ff_norm.bias"])
        f = ad.linear(tape, h, pnodes[p + "ff.w1"], pnodes[p + "ff.b1"])
        f = ad.gelu(tape, f)
        f = ad.linear(tape, f, pnodes[p + "ff.w2"], pnodes[p + "ff.b2"])
        x = ad.add(tape, x, dropped(f, 1 if last else None))

    x = ad.layer_norm(tape, x, pnodes["final_norm.gain"], pnodes["final_norm.bias"])
    return ad.take(tape, x, (slice(None), 0))


def backward_keeping_grads(tape: Tape, loss: Node) -> None:
    """Tape.backward as it was before it freed op outputs' gradients: every node keeps its own."""
    loss.grad = np.ones_like(loss.value)
    for out, fn in reversed(tape._ops):
        if out.grad is not None:
            fn(ad.dense(out.grad))
