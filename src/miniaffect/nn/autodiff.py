"""Reverse-mode automatic differentiation over numpy arrays.

Ops append themselves to a Tape as they run (a Wengert list); since every op
is recorded after its inputs exist, the list order is already topological and
the backward pass is a single reverse sweep. Each entry pairs the output node
with a closure that routes the output gradient to the input nodes.

All values are float64. A node's first gradient is stored as a copy and
later ones accumulate with ``+=``, so a node feeding several consumers
collects every contribution.
"""

from __future__ import annotations

import numpy as np


class Node:
    """A value in the computation graph; ``grad`` is filled by Tape.backward."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None

    def accumulate(self, g):
        if self.grad is None:
            # A copy, never g itself: add, reshape and transpose pass views of
            # their output gradient through, and a later += must not reach it.
            self.grad = np.array(g, dtype=np.float64)
        else:
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
            if out.grad is not None:
                fn(out.grad)


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
        if isinstance(a, Node):
            a.accumulate(_unbroadcast(g, av.shape))
        if isinstance(b, Node):
            b.accumulate(_unbroadcast(g, bv.shape))

    tape.record(out, backward)
    return out


def sub(tape: Tape, a, b) -> Node:
    av, bv = _as_value(a), _as_value(b)
    out = Node(av - bv)

    def backward(g):
        if isinstance(a, Node):
            a.accumulate(_unbroadcast(g, av.shape))
        if isinstance(b, Node):
            b.accumulate(-_unbroadcast(g, bv.shape))

    tape.record(out, backward)
    return out


def mul(tape: Tape, a, b) -> Node:
    av, bv = _as_value(a), _as_value(b)
    out = Node(av * bv)

    def backward(g):
        if isinstance(a, Node):
            a.accumulate(_unbroadcast(g * bv, av.shape))
        if isinstance(b, Node):
            b.accumulate(_unbroadcast(g * av, bv.shape))

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


def linear(tape: Tape, x: Node, w: Node, b: Node) -> Node:
    """Affine map ``x @ w + b`` over the last axis of x, recorded as one node."""
    xv = x.value
    flat = xv.reshape(-1, xv.shape[-1])
    y = flat @ w.value
    y += b.value
    out = Node(y.reshape(*xv.shape[:-1], y.shape[-1]))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        x.accumulate((g2 @ w.value.T).reshape(xv.shape))
        w.accumulate(flat.T @ g2)
        b.accumulate(g2.sum(axis=0))

    tape.record(out, backward)
    return out


def reshape(tape: Tape, a: Node, shape) -> Node:
    out = Node(a.value.reshape(shape))

    def backward(g):
        a.accumulate(g.reshape(a.value.shape))

    tape.record(out, backward)
    return out


def transpose(tape: Tape, a: Node, axes) -> Node:
    out = Node(a.value.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a.accumulate(g.transpose(inverse))

    tape.record(out, backward)
    return out


def take(tape: Tape, a: Node, index) -> Node:
    """``a.value[index]`` for any numpy index; the ``np.add.at`` backward accumulates repeats."""
    out = Node(a.value[index])

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        np.add.at(a.grad, index, g)

    tape.record(out, backward)
    return out


def layer_norm(tape: Tape, x: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
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


def gelu(tape: Tape, x: Node) -> Node:
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


def dropout(tape: Tape, x: Node, rate: float, shape: tuple[int, ...] | None = None) -> Node:
    """Inverted dropout; requires the tape to carry an rng.

    The noise is drawn at ``shape`` (default: x's own) and its leading corner
    of x's shape is used, so a forward that keeps only the first rows of a
    tensor consumes the same rng stream as one that keeps them all.
    """
    if tape.rng is None:
        raise ValueError("dropout requires a Tape constructed with an rng")
    keep = 1.0 - rate
    noise = tape.rng.random(x.value.shape if shape is None else shape)
    mask = (noise[tuple(slice(0, n) for n in x.value.shape)] < keep) / keep
    out = Node(x.value * mask)

    def backward(g):
        x.accumulate(g * mask)

    tape.record(out, backward)
    return out


def mean_all(tape: Tape, x: Node) -> Node:
    out = Node(x.value.mean())
    size = x.value.size

    def backward(g):
        x.accumulate(np.full_like(x.value, g / size))

    tape.record(out, backward)
    return out


def logsumexp_rows(tape: Tape, x: Node) -> Node:
    """Row-wise log-sum-exp of a [batch, k] node, max-shifted for stability."""
    xv = x.value
    m = xv.max(axis=-1, keepdims=True)
    exp = np.exp(xv - m)
    total = exp.sum(axis=-1, keepdims=True)
    out = Node((m + np.log(total)).reshape(xv.shape[:-1]))
    soft = exp / total

    def backward(g):
        x.accumulate(g[..., None] * soft)

    tape.record(out, backward)
    return out
