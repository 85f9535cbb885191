"""Reverse-mode automatic differentiation over numpy arrays.

Ops append themselves to a Tape as they run (a Wengert list); since every op
is recorded after its inputs exist, the list order is already topological and
the backward pass is a single reverse sweep. Each entry pairs the output node
with a closure that routes the output gradient to the input nodes.

All values are float64. A node takes ownership of the first gradient array
it receives and adds later ones into it with ``+=``, so a node feeding several
consumers collects every contribution. Each op must therefore hand every
input an array that nothing else holds or will write: a fresh result, never
its incoming ``g`` or a view of it (``add`` copies ``g`` when it passes it
through unchanged).

The one exception is a short integer-array ``take`` (the token-embedding
lookup): it hands its input a ``RowSparse`` gradient, the summed rows its
indices touched, which a node keeps if it arrives first. Any later addition
makes the sum dense, and the backward sweep hands ops only dense arrays;
``dense`` gives the full array of either kind.
"""

from __future__ import annotations

import numpy as np


class RowSparse:
    """A gradient that is zero outside ``rows``: the full array is zeros of ``shape`` with ``values`` at ``rows``.

    rows is sorted and unique, and values[i] is the gradient of row rows[i].
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
        self.rows = rows
        self.values = values
        self.shape = shape


def dense(grad):
    """The full gradient array, whether ``grad`` is an ndarray or a ``RowSparse``."""
    if not isinstance(grad, RowSparse):
        return grad
    out = np.zeros(grad.shape)
    out[grad.rows] = grad.values
    return out


class Node:
    """A value in the computation graph; Tape.backward fills a leaf's ``grad`` and frees an op output's."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None

    def accumulate(self, g):
        if self.grad is None:
            # Kept, not copied: the producer hands over an array no one else
            # holds (see the module docstring), so a later += reaches only this
            # node. asarray only wraps the numpy scalar a full reduction yields.
            self.grad = g if isinstance(g, RowSparse) else np.asarray(g, dtype=np.float64)
        else:
            self.grad = dense(self.grad)
            self.grad += dense(g)


class Tape:
    """Ordered record of forward ops, consumable once by backward().

    ``rng`` supplies dropout noise during training-mode forwards; eval-mode
    graphs never touch it.
    """

    def __init__(self, rng: np.random.Generator | None = None):
        self._ops: list[tuple[Node, object]] = []
        self._consumed = False
        self.rng = rng

    def record(self, out: Node, backward) -> None:
        self._ops.append((out, backward))

    def backward(self, loss: Node) -> None:
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward pass")
        self._consumed = True
        if loss.value.ndim != 0:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
        loss.grad = np.ones_like(loss.value)
        for out, fn in reversed(self._ops):
            # Every consumer of out ran before it, so its gradient is complete, and no closure reads it
            # again: it is freed here rather than held until the tape goes. Leaves keep theirs.
            g, out.grad = out.grad, None
            if g is not None:
                fn(dense(g))


class EvalTape(Tape):
    """Tape for eval-mode forwards: ops run as usual but nothing is recorded.

    No backward closure keeps an intermediate array alive, so each one is
    freed as soon as the forward moves past it, instead of every array of the
    whole forward being held until the tape is dropped. Freeing that much at
    once let glibc hand it back to the OS, and on some runs every later eval
    call page-faulted it in again.
    """

    def record(self, out: Node, backward) -> None:
        pass

    def backward(self, loss: Node) -> None:
        raise RuntimeError("an EvalTape records nothing to backpropagate")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_value(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def add(tape: Tape, a, b) -> Node:
    av, bv = _as_value(a), _as_value(b)
    out = Node(av + bv)

    def backward(g):
        for node, value in ((a, av), (b, bv)):
            if isinstance(node, Node):
                grad = _unbroadcast(g, value.shape)
                # np.array, not .copy(): it keeps g's memory layout
                node.accumulate(np.array(grad) if grad is g else grad)

    tape.record(out, backward)
    return out


def matmul(tape: Tape, a: Node, b) -> Node:
    av, bv = _as_value(a), _as_value(b)
    out = Node(av @ bv)

    def backward(g):
        if isinstance(a, Node):
            a.accumulate(_unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
        if isinstance(b, Node):
            b.accumulate(_unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))

    tape.record(out, backward)
    return out


def linear(tape: Tape, x: Node, w: Node, b: Node | None, gain: Node | None = None, shift: Node | None = None) -> Node:
    """Affine map ``x @ w + b`` over the last axis of x, recorded as one node; ``b`` None adds no bias.

    With ``gain`` and ``shift``, the affine of the layer norm that made x, the
    map is ``(x * gain + shift) @ w + b``. It runs as ``x @ w' + b'`` with
    ``w' = gain[:, None] * w`` and ``b' = shift @ w + b``, so the affine costs
    weight-sized work instead of passes over x; the gradients of gain and
    shift come back from those of w' and b'. Either may be None.
    """
    xv = x.value
    flat = xv.reshape(-1, xv.shape[-1])
    w_fold = w.value if gain is None else gain.value[:, None] * w.value
    b_fold = None if b is None else b.value
    if shift is not None:
        b_fold = shift.value @ w.value if b is None else shift.value @ w.value + b_fold
    y = flat @ w_fold
    if b_fold is not None:
        y += b_fold
    out = Node(y.reshape(*xv.shape[:-1], y.shape[-1]))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        x.accumulate((g2 @ w_fold.T).reshape(xv.shape))
        gw = flat.T @ g2
        gb = g2.sum(axis=0) if b is not None or shift is not None else None
        if gain is not None:
            gain.accumulate(np.einsum("ij,ij->i", gw, w.value))
            gw *= gain.value[:, None]
        if shift is not None:
            shift.accumulate(w.value @ gb)
            gw += np.multiply.outer(shift.value, gb)
        w.accumulate(gw)
        if b is not None:
            b.accumulate(gb)

    tape.record(out, backward)
    return out


# Fewest rows of the table per index entry for which an integer-array take
# leaves a RowSparse gradient. A longer index touches so large a share of the
# rows that sorting it and copying the touched rows (here and in AdamW) cost
# more than the dense gradient's passes that they save. On 2 vCPUs, timing
# this backward plus the AdamW step on 1000- and 5509-row tables of width 64,
# the two broke even near one entry per 5 to 6 rows.
MIN_ROWS_PER_ENTRY = 8


def take(tape: Tape, a: Node, index) -> Node:
    """``a.value[index]`` for an integer-array index into a's rows, or a basic index (slices and ints).

    An integer-array index may repeat rows, and a negative id counts toward
    the row it aliases. The backward sums the repeats with one ``np.bincount``
    over (row, column) positions in index order, as adding them one by one
    into zeros would. A short index (see ``MIN_ROWS_PER_ENTRY``) hands a the
    unique rows as a ``RowSparse``, a longer one their ``dense`` table. A
    basic index selects each entry at most once: its gradient is assigned.
    """
    out = Node(a.value[index])

    def backward(g):
        if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
            n_rows, *row_shape = a.value.shape
            width = int(np.prod(row_shape))
            rows, inverse = np.unique(index % n_rows, return_inverse=True)
            positions = (inverse.reshape(-1, 1) * width + np.arange(width)).ravel()
            values = np.bincount(positions, weights=g.ravel(), minlength=rows.size * width)
            grad = RowSparse(rows, values.reshape(rows.size, *row_shape), a.value.shape)
            a.accumulate(grad if index.size * MIN_ROWS_PER_ENTRY <= n_rows else dense(grad))
        else:
            grad = np.zeros_like(a.value)
            grad[index] = g
            a.accumulate(grad)

    tape.record(out, backward)
    return out


def layer_norm(tape: Tape, x: Node, eps: float = 1e-5) -> Node:
    """Normalise the last axis of x to zero mean and unit variance, with no gain or bias.

    Every norm's affine folds into the ``linear`` that reads it, the heads
    included. The row means are products with a ones vector divided by d, and
    the sums of squares row-wise ``einsum`` products, so no squared array is
    formed; the variance is the mean of the squared centred values.
    """
    xv = x.value
    d = xv.shape[-1]
    ones = np.ones(d)
    flat = xv.reshape(-1, d)
    xhat = flat - (flat @ ones / d)[:, None]
    inv_std = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / d + eps)[:, None]
    xhat *= inv_std
    result = Node(xhat.reshape(xv.shape))

    def backward(g):
        # d/dx of (x - mean)/std with mean/var over the last axis:
        # inv_std * (g - mean(g) - xhat * mean(g * xhat))
        g2 = g.reshape(-1, d)
        grad = g2 - (g2 @ ones / d)[:, None]
        grad -= np.multiply(xhat, (np.einsum("ij,ij->i", g2, xhat) / d)[:, None])
        grad *= inv_std
        x.accumulate(grad.reshape(xv.shape))

    tape.record(result, backward)
    return result


_GELU_C = np.sqrt(2.0 / np.pi)

# Cap on GELU's exponent -2z: exp(700) is finite, and where the cap binds,
# x / (1 + exp(-2z)) is below |x| * 1e-304 either way.
GELU_EXP_CAP = 700.0


def gelu(tape: Tape, x: Node) -> Node:
    """Tanh-form GELU ``0.5 x (1 + tanh z)``, z = C (x + 0.044715 x^3); the backward differentiates this form exactly.

    Since 0.5 (1 + tanh z) = 1 / (1 + exp(-2z)) = s, the forward runs as
    ``x / (1 + exp(-2z))``, with -2z capped at ``GELU_EXP_CAP`` so that no exp
    overflows. The backward takes tanh z = 2s - 1, so that
    0.5 (1 - tanh^2 z) = 2 s (1 - s).
    """
    xv = x.value
    denom = np.multiply(xv, xv)
    denom *= -2.0 * _GELU_C * 0.044715
    denom += -2.0 * _GELU_C
    denom *= xv
    np.minimum(denom, GELU_EXP_CAP, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    result = Node(np.divide(xv, denom))

    def backward(g):
        # g * (s + x * 2 s (1 - s) * dz/dx), dz/dx = C (1 + 3 * 0.044715 x^2)
        s = np.reciprocal(denom)
        d_inner = np.multiply(xv, xv)
        d_inner *= 3 * 0.044715
        d_inner += 1.0
        d_inner *= 2.0 * _GELU_C
        grad = np.subtract(1.0, s)
        grad *= s
        grad *= xv
        grad *= d_inner
        grad += s
        grad *= g
        x.accumulate(grad)

    tape.record(result, backward)
    return result


def _dropout_mask(tape: Tape, rate: float, shape: tuple[int, ...]) -> np.ndarray:
    """Inverted-dropout multipliers (0 or 1/keep) at ``shape``, from one ``tape.rng.random(shape)`` draw."""
    if tape.rng is None:
        raise ValueError("dropout requires a Tape constructed with an rng")
    keep = 1.0 - rate
    noise = tape.rng.random(shape)
    return np.divide(noise < keep, keep, out=noise)


def dropout(tape: Tape, x: Node, rate: float) -> Node:
    """Inverted dropout; requires the tape to carry an rng."""
    mask = _dropout_mask(tape, rate, x.value.shape)
    out = Node(x.value * mask)

    def backward(g):
        x.accumulate(g * mask)

    tape.record(out, backward)
    return out


# Largest score bound under which attention exponentiates its scores without
# subtracting the row max. Every exp then lies in [e^-64, e^64], about
# [1.6e-28, 6.2e27], which leaves headroom both ways: a row sum l over at
# least one attendable key stays far above the subnormals, so dividing by it
# loses no bits, and E @ V overflows only where |v| times the row length
# passes about 1e280, and g / l only where |g| does.
EXP_BOUND = 64.0


def _softmax_forward(tape: Tape, scores: np.ndarray, key_mask: np.ndarray, factors, rate: float):
    """The attention nodes' masked softmax over scores [B, H, Sq, S], in place, up to its division.

    The scores of keys that key_mask [B, S] marks False become -inf, and
    E = exp(scores - shift). The shift, which E / l cancels, is 0 when the
    Cauchy-Schwarz bound on every score, the product of the largest row norms
    of the two ``factors``, is at most ``EXP_BOUND`` (every exp then lies in
    [e^-64, e^64]), and the row max otherwise (an inf or NaN bound included).
    Returns the row sums l [B, H, Sq, 1], taken as one product with a ones
    vector, the dropout mask drawn at the scores' shape (None at rate 0) and
    the dropped numerators E * mask. No probabilities are formed: each node
    divides by l later.
    """
    padded_rows, padded_keys = np.nonzero(~key_mask)
    if padded_rows.size:
        scores.transpose(0, 3, 1, 2)[padded_rows, padded_keys] = -np.inf
    sq_norm_q, sq_norm_k = (float(np.einsum("...i,...i->...", f, f).max(initial=0.0)) for f in factors)
    if not sq_norm_q * sq_norm_k <= EXP_BOUND**2:
        scores -= np.fmax.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    n_k = scores.shape[-1]
    sums = (scores.reshape(-1, n_k) @ np.ones(n_k)).reshape(*scores.shape[:-1], 1)
    mask = _dropout_mask(tape, rate, scores.shape) if rate > 0.0 else None
    return sums, mask, scores if mask is None else scores * mask


def _softmax_backward(ds: np.ndarray, exps: np.ndarray, sums: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """In place, the scores' gradient from ds, that of the numerators E * mask with l held fixed.

    Through l = rowsum(E), every entry of E's gradient also gets
    -rowsum(ds * mask * E) / l, the stable form of -rowsum(dP * P) with
    P = E / l; the result is E * (ds * mask - rowsum(ds * mask * E) / l).
    """
    if mask is not None:
        ds *= mask
    ds -= np.einsum("...i,...i->...", ds, exps)[..., None] / sums
    ds *= exps
    return ds


def attention(
    tape: Tape,
    q: Node,
    k: Node,
    v: Node,
    key_mask: np.ndarray,
    scale: float,
    n_heads: int,
    rate: float = 0.0,
) -> Node:
    """Multi-head scaled dot-product attention over PAD-masked keys, recorded as one node.

    q is [B, Sq, d] and k, v are [B, S, d]; each splits its last axis into
    n_heads heads. key_mask [B, S] is True at attendable keys, and every row
    must keep at least one (the CLS position guarantees it). The probabilities
    ``P = softmax(q k^T * scale)`` get inverted dropout at ``rate`` (drawn
    from tape.rng like ``dropout``, at their shape [B, H, Sq, S]) and weight
    v; the heads are merged back to [B, Sq, d].

    The scale is folded into q, so the scores are S = (scale q) k^T, and
    their bound is max_i |scale q_i| * max_j |k_j| over the full d, which
    bounds every head's scores. With E, l and Ed = E * mask from
    ``_softmax_forward``, the output is (Ed V) / l, so the division runs on
    the context, in its contiguous [B, Sq, H, d/H] layout, instead of on the
    H * S / (d/H) times larger probabilities.

    The backward keeps E, the mask, Ed and l, but no scores, probabilities or
    head-split copies. The scale goes onto g: dV = Ed^T (g / l),
    ``_softmax_backward`` of (g * scale / l) V^T gives dS * scale, and
    dQ = (dS * scale) K and dK = (dS * scale)^T q.
    """
    batch, n_q, d = q.value.shape
    n_k = k.value.shape[1]

    def heads(a: np.ndarray, rows: int) -> np.ndarray:  # [B, rows, d] -> [B, H, rows, d/H] view
        return a.reshape(batch, rows, n_heads, d // n_heads).transpose(0, 2, 1, 3)

    q_scaled = q.value * scale
    qh, kh, vh = heads(q.value, n_q), heads(k.value, n_k), heads(v.value, n_k)
    exps = heads(q_scaled, n_q) @ kh.transpose(0, 1, 3, 2)
    sums, mask, dropped = _softmax_forward(tape, exps, key_mask, (q_scaled, k.value), rate)
    out = np.empty((batch, n_q, d))
    merged = out.reshape(batch, n_q, n_heads, d // n_heads)  # [B, Sq, H, d/H], contiguous
    np.matmul(dropped, vh, out=merged.transpose(0, 2, 1, 3))
    merged /= sums.transpose(0, 2, 1, 3)

    def backward(g):
        g_over_sums = heads(g, n_q) / sums
        gv = np.empty_like(v.value)
        np.matmul(dropped.swapaxes(-1, -2), g_over_sums, out=heads(gv, n_k))
        v.accumulate(gv)
        g_over_sums *= scale
        ds = _softmax_backward(g_over_sums @ vh.swapaxes(-1, -2), exps, sums, mask)
        gq = np.empty_like(q.value)
        np.matmul(ds, kh, out=heads(gq, n_q))
        q.accumulate(gq)
        gk = np.empty_like(k.value)
        np.matmul(ds.swapaxes(-1, -2), qh, out=heads(gk, n_k))
        k.accumulate(gk)

    result = Node(out)
    tape.record(result, backward)
    return result


def cls_attention(
    tape: Tape,
    xhat: Node,
    q: Node,
    gain: Node,
    shift: Node,
    wk: Node,
    wv: Node,
    bv: Node,
    key_mask: np.ndarray,
    scale: float,
    n_heads: int,
    rate: float = 0.0,
) -> Node:
    """``attention`` for one query row per example, whose keys and values come from normed rows, as one node.

    xhat [B, S, d] holds the rows of a layer norm without its affine, which
    is ``gain`` and ``shift``; q [B, d] is the query, and the output is
    [B, d]. The keys would be ``(xhat * gain + shift) wk`` and the values
    ``(xhat * gain + shift) wv + bv``, but neither is formed. Per head h, with
    u_h = gain * (wk_h scale q_h), the scores are ``xhat u_h``: the shift's
    share, ``shift wk_h scale q_h``, is the same for every key, and the
    softmax cancels it. With the dropped-out probabilities
    p = (E * mask) / l and sigma = rowsum(p), the context is
    ``((p xhat) * gain + shift * sigma) wv_h + bv_h * sigma``.

    The scores [B, H, S] go through attention's softmax core as a
    [B, H, 1, S] view, under the bound max |u_h| * max_j |xhat_j|.
    """
    batch, n_k, d = xhat.value.shape
    xv = xhat.value
    wk_heads = wk.value.reshape(d, n_heads, -1).transpose(1, 0, 2)  # [H, d, d/H]
    wv_heads = wv.value.reshape(d, n_heads, -1).transpose(1, 0, 2)
    bv_heads = bv.value.reshape(n_heads, -1)
    q_scaled = (q.value * scale).reshape(batch, n_heads, -1)  # [B, H, d/H]

    def per_head(a, w):  # a [B, H, m] times w [H, m, n], one product per head: [B, H, n]
        return (a.transpose(1, 0, 2) @ w).transpose(1, 0, 2)

    def weight_grad(a, g):  # the [d, d] gradient of w in per_head(a, w's heads) with output gradient g
        return np.ascontiguousarray((a.transpose(1, 2, 0) @ g.transpose(1, 0, 2)).transpose(1, 0, 2)).reshape(d, d)

    u = per_head(q_scaled, wk_heads.transpose(0, 2, 1))  # [B, H, d]
    u_gain = u * gain.value
    exps = u_gain @ xv.transpose(0, 2, 1)  # [B, H, S]
    sums, mask, dropped = _softmax_forward(tape, exps[:, :, None], key_mask, (u_gain, xv), rate)
    sums, dropped = sums[..., 0], dropped[:, :, 0]  # [B, H, 1] and [B, H, S]
    mixed = dropped @ xv  # [B, H, d]
    mixed /= sums
    sigma = (dropped.reshape(-1, n_k) @ np.ones(n_k)).reshape(batch, n_heads, 1) / sums
    z = mixed * gain.value
    z += sigma * shift.value
    ctx = per_head(z, wv_heads)
    ctx += sigma * bv_heads
    result = Node(ctx.reshape(batch, d))

    def backward(g):
        g_heads = g.reshape(batch, n_heads, -1)
        bv.accumulate((g_heads * sigma).sum(axis=0).reshape(d))
        wv.accumulate(weight_grad(z, g_heads))
        gz = per_head(g_heads, wv_heads.transpose(0, 2, 1))  # [B, H, d]
        gsigma = (g_heads * bv_heads).sum(axis=-1, keepdims=True) + gz @ shift.value[:, None]
        shift.accumulate((gz * sigma).sum(axis=(0, 1)))
        gain_grad = (gz * mixed).sum(axis=(0, 1))
        gz *= gain.value
        gz /= sums  # the gradient of p xhat, over l
        gx = dropped.transpose(0, 2, 1) @ gz  # [B, S, d]
        ds = gz @ xv.transpose(0, 2, 1)
        ds += gsigma / sums
        _softmax_backward(ds[:, :, None], exps[:, :, None], sums[..., None], mask)
        gx += ds.transpose(0, 2, 1) @ u_gain
        xhat.accumulate(gx)
        gu = ds @ xv
        gain_grad += (gu * u).sum(axis=(0, 1))
        gain.accumulate(gain_grad)
        gu *= gain.value
        gq = per_head(gu, wk_heads)
        gq *= scale
        q.accumulate(gq.reshape(batch, d))
        wk.accumulate(weight_grad(gu, q_scaled))

    tape.record(result, backward)
    return result


def mean_all(tape: Tape, x: Node) -> Node:
    out = Node(x.value.mean())
    size = x.value.size

    def backward(g):
        x.accumulate(np.full_like(x.value, g / size))

    tape.record(out, backward)
    return out


def mse(tape: Tape, pred: Node, target: np.ndarray) -> Node:
    """Mean of ``(pred - target) ** 2`` over every entry, recorded as one node."""
    diff = pred.value - target
    out = Node((diff * diff).mean())

    def backward(g):
        grad = diff * (g / diff.size)
        grad *= 2.0
        pred.accumulate(grad)

    tape.record(out, backward)
    return out


def shifted_exp(x: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, e, e.sum(axis))`` with m the max along axis and ``e = exp(x - m)``, so no exp overflows."""
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return m, e, e.sum(axis=axis, keepdims=True)


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain array; rows sum to 1 to within accumulated rounding."""
    _, exp, total = shifted_exp(np.asarray(scores, dtype=np.float64), axis)
    return exp / total


def cross_entropy(tape: Tape, logits: Node, gold: np.ndarray) -> Node:
    """Mean over rows of ``logsumexp(logits[i]) - logits[i, gold[i]]``, recorded as one node.

    logits is [batch, k] and gold holds one class index per row. The backward
    is ``(softmax(logits) - onehot(gold)) / batch``.
    """
    rows = np.arange(gold.shape[0])
    m, e, total = shifted_exp(logits.value)
    out = Node(((m + np.log(total))[:, 0] - logits.value[rows, gold]).mean())

    def backward(g):
        scale = g / rows.size
        grad = e / total * scale
        grad[rows, gold] -= scale
        logits.accumulate(grad)

    tape.record(out, backward)
    return out
