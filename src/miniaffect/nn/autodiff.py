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
lookup): when it is the first to reach its input, it leaves a ``RowSparse``
gradient there, the summed rows its indices touched. Any later contribution
turns it back into a dense array, and the backward sweep hands ops only dense
arrays; ``dense`` gives the full array of either kind.
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
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = dense(self.grad)
            self.grad += g


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


def linear(tape: Tape, x: Node, w: Node, b: Node | None) -> Node:
    """Affine map ``x @ w + b`` over the last axis of x, recorded as one node; ``b`` None adds no bias."""
    xv = x.value
    flat = xv.reshape(-1, xv.shape[-1])
    y = flat @ w.value
    if b is not None:
        y += b.value
    out = Node(y.reshape(*xv.shape[:-1], y.shape[-1]))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        x.accumulate((g2 @ w.value.T).reshape(xv.shape))
        w.accumulate(flat.T @ g2)
        if b is not None:
            b.accumulate(g2.sum(axis=0))

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
    """``a.value[index]`` for any numpy index; the ``np.add.at`` backward accumulates repeats.

    A short integer-array index (see ``MIN_ROWS_PER_ENTRY``) that reaches
    a.grad first leaves a ``RowSparse``: its unique rows, with the repeats
    summed by ``np.add.at`` in the same order as into a zeroed full table, so
    every row has the same bits.
    """
    out = Node(a.value[index])

    def backward(g):
        by_rows = (
            isinstance(index, np.ndarray)
            and index.dtype.kind in "iu"
            and index.size * MIN_ROWS_PER_ENTRY <= a.value.shape[0]
            and not (index < 0).any()  # a negative index would alias a row under a second number
        )
        if a.grad is None and by_rows:
            rows, inverse = np.unique(index, return_inverse=True)
            values = np.zeros((rows.size, *a.value.shape[1:]))
            np.add.at(values, inverse.reshape(index.shape), g)
            a.grad = RowSparse(rows, values, a.value.shape)
            return
        a.grad = np.zeros_like(a.value) if a.grad is None else dense(a.grad)
        np.add.at(a.grad, index, g)

    tape.record(out, backward)
    return out


def layer_norm(tape: Tape, x: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
    """Normalise the last axis of x to zero mean and unit variance, then scale by gain and shift by bias.

    Forward and backward run in place on two full-size arrays each, with the
    operations and operand order of the plain expressions, so the bits are
    theirs: the variance is ``ndarray.var``'s, the sum of the squared centred
    values divided by d.
    """
    xv = x.value
    xhat = xv - xv.mean(axis=-1, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv_std = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / xv.shape[-1] + eps)
    xhat *= inv_std
    np.multiply(xhat, gain.value, out=out)
    out += bias.value
    result = Node(out)

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        scratch = np.multiply(g, xhat)
        gain.accumulate(scratch.sum(axis=reduce_axes))
        bias.accumulate(g.sum(axis=reduce_axes))
        # d/dx of (x - mean)/std with mean/var over the last axis:
        # inv_std * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g * gain
        gx = np.multiply(g, gain.value)
        mean_gx = gx.mean(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=scratch)
        mean_gx_xhat = scratch.mean(axis=-1, keepdims=True)
        gx -= mean_gx
        gx -= np.multiply(xhat, mean_gx_xhat, out=scratch)
        gx *= inv_std
        x.accumulate(gx)

    tape.record(result, backward)
    return result


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(tape: Tape, x: Node) -> Node:
    """Tanh-form GELU ``0.5 x (1 + tanh(C (x + 0.044715 x^3)))``; the backward differentiates this form exactly.

    Both passes run in place on two full-size arrays. They keep the plain
    expressions' operations and operand order up to commutativity and
    exact scalings by 0.5, so the bits are the same.
    """
    xv = x.value
    tanh = np.multiply(xv, xv)
    tanh *= xv
    tanh *= 0.044715
    tanh += xv
    tanh *= _GELU_C
    np.tanh(tanh, out=tanh)
    out = np.add(tanh, 1.0)
    out *= xv
    out *= 0.5
    result = Node(out)

    def backward(g):
        # g * (0.5 (1 + tanh) + 0.5 x (1 - tanh^2) d_inner), d_inner = C (1 + 3 * 0.044715 x^2),
        # with the two exact halvings taken once, after the sum
        d_inner = np.multiply(xv, xv)
        d_inner *= 3 * 0.044715
        d_inner += 1.0
        d_inner *= _GELU_C
        grad = np.multiply(tanh, tanh)
        np.subtract(1.0, grad, out=grad)
        grad *= xv
        grad *= d_inner
        grad += np.add(tanh, 1.0, out=d_inner)
        grad *= 0.5
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


def _max_sq_norm(a: np.ndarray) -> float:
    """Largest squared Euclidean norm over the last axis of a (0 for an empty a)."""
    return float(np.einsum("...i,...i->...", a, a).max(initial=0.0))


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

    The softmax is never formed as P. The scale is folded into q, so the
    scores are S = (scale q) k^T, and the scores of padded keys are set to
    -inf (only when some key is padded). E = exp(S - shift) and its row sums
    l, taken as one product with a ones vector, give the output as
    ((E * mask) V) / l, so the division runs on the [B, H, Sq, d/H] context
    instead of on the H * S / (d/H) times larger probabilities. The shift
    cancels in E / l, so either choice gives P up to rounding:

    - 0, when the Cauchy-Schwarz bound c = max_i |scale q_i| * max_j |k_j|
      over the full d, which bounds every head's scores, is at most
      ``EXP_BOUND``: every exp then lies in [e^-64, e^64];
    - the row max otherwise (an inf or NaN c included), as in any softmax.

    The backward keeps E, the dropout mask, Ed = E * mask and l, but no
    scores, probabilities or head-split copies. With P = E / l,
    rowsum(dP * P) = rowsum(dP * E) / l, and the scale goes onto g:
    dV = Ed^T (g / l), D = ((g * scale / l) V^T) * mask = scale dP / l,
    dS * scale = E * (D - rowsum(D * E) / l), dQ = (dS * scale) K and
    dK = (dS * scale)^T q.
    """
    batch, n_q, d = q.value.shape
    n_k = k.value.shape[1]

    def heads(a: np.ndarray, rows: int) -> np.ndarray:  # [B, rows, d] -> [B, H, rows, d/H] view
        return a.reshape(batch, rows, n_heads, d // n_heads).transpose(0, 2, 1, 3)

    q_scaled = q.value * scale
    qh, kh, vh = heads(q.value, n_q), heads(k.value, n_k), heads(v.value, n_k)
    exps = heads(q_scaled, n_q) @ kh.transpose(0, 1, 3, 2)
    padded_rows, padded_keys = np.nonzero(~key_mask)
    if padded_rows.size:
        exps.transpose(0, 3, 1, 2)[padded_rows, padded_keys] = -np.inf
    if not _max_sq_norm(q_scaled) * _max_sq_norm(k.value) <= EXP_BOUND**2:
        exps -= np.fmax.reduce(exps, axis=-1, keepdims=True)
    np.exp(exps, out=exps)
    sums = (exps.reshape(-1, n_k) @ np.ones(n_k)).reshape(batch, n_heads, n_q, 1)
    mask = _dropout_mask(tape, rate, exps.shape) if rate > 0.0 else None
    dropped = exps if mask is None else exps * mask
    out = np.empty((batch, n_q, d))
    out_heads = heads(out, n_q)
    np.matmul(dropped, vh, out=out_heads)
    out_heads /= sums

    def backward(g):
        g_over_sums = heads(g, n_q) / sums
        gv = np.empty_like(v.value)
        np.matmul(dropped.swapaxes(-1, -2), g_over_sums, out=heads(gv, n_k))
        v.accumulate(gv)
        g_over_sums *= scale
        ds = g_over_sums @ vh.swapaxes(-1, -2)
        if mask is not None:
            ds *= mask
        ds -= np.einsum("...i,...i->...", ds, exps)[..., None] / sums
        ds *= exps
        gq = np.empty_like(q.value)
        np.matmul(ds, kh, out=heads(gq, n_q))
        q.accumulate(gq)
        gk = np.empty_like(k.value)
        np.matmul(ds.swapaxes(-1, -2), qh, out=heads(gk, n_k))
        k.accumulate(gk)

    result = Node(out)
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
