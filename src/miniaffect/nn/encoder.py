"""Micro transformer encoder with pluggable output heads.

Architecture: learned token + position embeddings, then n_layers of pre-norm
blocks (multi-head self-attention with PAD masking, residual; GELU feed-forward,
residual), a final layer norm, and the position-0 (CLS) hidden state as the
sequence summary; the last block computes only that CLS row. The caller names
the linear heads on that vector as (tensor name prefix, output width) pairs; a
width-1 head yields one scalar per example.

Parameters live in a plain name -> float64 ndarray dict so the optimizer and
checkpoint code can stay shape-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ValidationError, check_field_types
from . import autodiff as ad
from .autodiff import EvalTape, Node, RowSparse, Tape

Parameters = dict[str, np.ndarray]
Heads = tuple[tuple[str, int], ...]  # (tensor name prefix, output width) per head, in output order


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = 0  # 0 = fill in from the built vocabulary; init_params refuses it
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_len: int = 64
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.vocab_size < 0:
            raise ValidationError(f"vocab_size must be >= 0, got {self.vocab_size}")
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_len < 2:
            raise ValidationError(f"max_len {self.max_len} leaves no room after the CLS position")
        if self.d_model % self.n_heads != 0:
            raise ValidationError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout_rate {self.dropout_rate} outside [0, 1)")


def param_shapes(cfg: EncoderConfig, heads: Heads) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (name, shape, init kind) manifest; kinds: xavier, zeros, ones."""
    d, f = cfg.d_model, cfg.d_ff
    shapes: list[tuple[str, tuple[int, ...], str]] = [
        ("tok_emb", (cfg.vocab_size, d), "xavier"),
        ("pos_emb", (cfg.max_len, d), "xavier"),
    ]
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        shapes += [
            (p + "attn_norm.gain", (d,), "ones"),
            (p + "attn_norm.bias", (d,), "zeros"),
            (p + "attn.wq", (d, d), "xavier"),
            (p + "attn.bq", (d,), "zeros"),
            (p + "attn.wk", (d, d), "xavier"),
            (p + "attn.wv", (d, d), "xavier"),
            (p + "attn.bv", (d,), "zeros"),
            (p + "attn.wo", (d, d), "xavier"),
            (p + "attn.bo", (d,), "zeros"),
            (p + "ff_norm.gain", (d,), "ones"),
            (p + "ff_norm.bias", (d,), "zeros"),
            (p + "ff.w1", (d, f), "xavier"),
            (p + "ff.b1", (f,), "zeros"),
            (p + "ff.w2", (f, d), "xavier"),
            (p + "ff.b2", (d,), "zeros"),
        ]
    shapes += [
        ("final_norm.gain", (d,), "ones"),
        ("final_norm.bias", (d,), "zeros"),
    ]
    for prefix, width in heads:
        shapes += [(prefix + ".w", (d, width), "xavier"), (prefix + ".b", (width,), "zeros")]
    return shapes


def init_params(cfg: EncoderConfig, heads: Heads, seed: int) -> Parameters:
    """Seeded Xavier-uniform weights (PCG64); biases zero, norm gains one."""
    if cfg.vocab_size == 0:
        raise ValidationError("vocab_size must be positive to build a model, got 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    params: Parameters = {}
    for name, shape, kind in param_shapes(cfg, heads):
        if kind == "xavier":
            fan_in, fan_out = shape[0], shape[-1]
            a = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-a, a, size=shape)
        elif kind == "zeros":
            params[name] = np.zeros(shape)
        else:
            params[name] = np.ones(shape)
    return params


def wrap_params(params: Parameters) -> dict[str, Node]:
    return {name: Node(arr) for name, arr in params.items()}


def collect_grads(pnodes: dict[str, Node], params: Parameters) -> dict[str, np.ndarray | RowSparse]:
    """Gradients per tensor after backward; unused tensors get exact zeros.

    A short token lookup leaves the token embedding a ``RowSparse`` gradient
    (see ``ad.take``), which ``AdamW.step`` takes as it is; ``ad.dense`` gives
    the full array.
    """
    return {
        name: pnodes[name].grad if pnodes[name].grad is not None else np.zeros_like(arr)
        for name, arr in params.items()
    }


def peak_bytes(cfg: EncoderConfig, heads: Heads, batch_size: int, eval_rows: int) -> dict[str, int]:
    """Estimated peak bytes of a training run by term, with B = batch_size and S = max_len.

    Parameters count five copies (values, m, v, gradient, best snapshot). A
    step keeps 14 [B, S, d], 3 [B, S, d_ff] and 3 [B, H, S, S] arrays a layer
    (the CLS-only last layer at full width, no gradients); one eval chunk's scores
    sit beside 2 [eval_rows, S, d] and 3 [eval_rows, S, d_ff] arrays. Each array
    costs 240 bytes besides its values, as tracemalloc measured on width-1 layers.
    """
    per_array = 240
    shapes = param_shapes(replace(cfg, n_layers=1), heads)
    one_layer = [(name, 8 * math.prod(shape) + per_array) for name, shape, _ in shapes]
    layer = sum(size for name, size in one_layer if name.startswith("layers."))
    b, s, d, f, h = batch_size, cfg.max_len, cfg.d_model, cfg.d_ff, cfg.n_heads
    return {
        "parameters": 5 * (sum(size for _, size in one_layer) + (cfg.n_layers - 1) * layer),
        "training activations": cfg.n_layers * (8 * b * s * (14 * d + 3 * f + 3 * h * s) + 22 * per_array),
        "eval forward": 8 * eval_rows * s * (h * s + 2 * d + 3 * f),
    }


def forward(
    pnodes: dict[str, Node],
    cfg: EncoderConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
    tape: Tape,
    train_mode: bool = False,
) -> Node:
    """Encode a [batch, max_len] id matrix to CLS vectors [batch, d_model], normed but without the final affine.

    ``head_apply`` folds the final norm's gain and bias into each head.
    Internally the batch is trimmed to its longest true length: PAD keys are
    masked out of every attention row, so positions beyond the longest real
    token cannot influence any output and dropping them is exact.

    The last layer computes only the CLS rows, [batch, d_model]. Its attention
    still reads every position, but no output reads any other row of its
    queries, attention, feed-forward or final norm, so dropping them is exact.

    With train_mode, dropout (rate cfg.dropout_rate) is applied to the embedding
    sum, the attention probabilities and each sublayer output, drawing noise
    from the tape's rng at exactly the shape each one masks.
    """
    width = ids.shape[1]
    if width != cfg.max_len:
        raise ValueError(f"sequence length {width} != configured max_len {cfg.max_len}")
    seq_len = max(1, int(lengths.max()))
    ids = ids[:, :seq_len]
    key_mask = np.arange(seq_len)[None, :] < lengths[:, None]  # [batch, seq]

    drop = train_mode and cfg.dropout_rate > 0.0

    def dropped(node: Node) -> Node:
        return ad.dropout(tape, node, cfg.dropout_rate) if drop else node

    x = ad.add(
        tape,
        ad.take(tape, pnodes["tok_emb"], ids),
        ad.take(tape, pnodes["pos_emb"], slice(0, seq_len)),
    )
    x = dropped(x)

    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
    attn_rate = cfg.dropout_rate if drop else 0.0
    cls_rows = (slice(None), 0)

    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        # Each norm's gain and bias fold into the projections that read it.
        gain, shift = pnodes[p + "attn_norm.gain"], pnodes[p + "attn_norm.bias"]
        h = ad.layer_norm(tape, x)
        wk, wv, bv = pnodes[p + "attn.wk"], pnodes[p + "attn.wv"], pnodes[p + "attn.bv"]
        if i < cfg.n_layers - 1:
            # Keys carry no bias and no norm shift: either would add q·c to every score of a row,
            # which the softmax cancels.
            k = ad.linear(tape, h, wk, None, gain)
            v = ad.linear(tape, h, wv, bv, gain, shift)
            q = ad.linear(tape, h, pnodes[p + "attn.wq"], pnodes[p + "attn.bq"], gain, shift)
            ctx = ad.attention(tape, q, k, v, key_mask, scale, cfg.n_heads, attn_rate)
        else:
            # From here on, only the CLS rows [B, d]; their attention reads keys and values off every normed row.
            x = ad.take(tape, x, cls_rows)
            q = ad.linear(tape, ad.take(tape, h, cls_rows), pnodes[p + "attn.wq"], pnodes[p + "attn.bq"], gain, shift)
            ctx = ad.cls_attention(tape, h, q, gain, shift, wk, wv, bv, key_mask, scale, cfg.n_heads, attn_rate)
        attn_out = dropped(ad.linear(tape, ctx, pnodes[p + "attn.wo"], pnodes[p + "attn.bo"]))
        x = ad.add(tape, x, attn_out)

        h = ad.layer_norm(tape, x)
        gain, shift = pnodes[p + "ff_norm.gain"], pnodes[p + "ff_norm.bias"]
        f = ad.linear(tape, h, pnodes[p + "ff.w1"], pnodes[p + "ff.b1"], gain, shift)
        f = ad.gelu(tape, f)
        f = ad.linear(tape, f, pnodes[p + "ff.w2"], pnodes[p + "ff.b2"])
        x = ad.add(tape, x, dropped(f))

    return ad.layer_norm(tape, x)


def head_apply(pnodes: dict[str, Node], heads: Heads, cls_vectors: Node, tape: Tape) -> tuple[Node, ...]:
    """Map the normed CLS vectors to raw head outputs: one Node per head, in ``heads`` order.

    Each head's ``linear`` folds in the final norm's gain and bias. A width-1
    head gives [batch] scores, raw and unclipped; a wider one [batch, width] logits.
    """
    gain, shift = pnodes["final_norm.gain"], pnodes["final_norm.bias"]
    outs = []
    for prefix, width in heads:
        out = ad.linear(tape, cls_vectors, pnodes[prefix + ".w"], pnodes[prefix + ".b"], gain, shift)
        outs.append(ad.take(tape, out, (slice(None), 0)) if width == 1 else out)
    return tuple(outs)


def run_model(
    params: Parameters, cfg: EncoderConfig, heads: Heads, ids: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Eval-mode forward + head on raw parameter arrays: ``head_apply``'s outputs as plain ndarrays."""
    tape = EvalTape()
    pnodes = wrap_params(params)
    cls = forward(pnodes, cfg, ids, lengths, tape, train_mode=False)
    return tuple(out.value for out in head_apply(pnodes, heads, cls, tape))
