"""AdamW with bias correction and decoupled weight decay.

Update per tensor, with t the 1-based step count:

    m = b1*m + (1-b1)*g          v = b2*v + (1-b2)*g^2
    m_hat = m / (1 - b1^t)       v_hat = v / (1 - b2^t)
    theta = theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * theta

The decay term uses the pre-update theta, decoupled from the gradient path;
with weight_decay = 0 this is exactly plain Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError, check_field_types
from .nn.autodiff import RowSparse


@dataclass(frozen=True)
class AdamWConfig:
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-6
    weight_decay: float = 0.0

    def validate(self) -> None:
        check_field_types(self)
        if self.lr <= 0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError(f"betas must lie in [0, 1): got ({self.beta1}, {self.beta2})")
        if self.eps <= 0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be non-negative, got {self.weight_decay}")


# Elements per block of the in-place update (for a row-sparse gradient, the
# most whole rows that fit). A block's theta, g, m, v and the two scratch
# buffers (6 x 128 KB) stay in L2 across the whole ufunc sequence.
BLOCK = 16384


class AdamW:
    """Optimizer instance owning per-tensor moment state; one per training run.

    Parameters must be C-contiguous: the update walks each tensor's flat view
    in blocks of ``BLOCK`` elements and writes theta, m and v in place.
    """

    def __init__(self, cfg: AdamWConfig):
        cfg.validate()
        self.cfg = cfg
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._s1 = np.empty(BLOCK)
        self._s2 = np.empty(BLOCK)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowSparse]) -> None:
        """Apply one update in place. Raises DivergenceError, before any update, on a non-finite gradient.

        A ``RowSparse`` gradient is read on its rows only. The other rows get
        the update of a zero gradient, bit for bit, without reading one.
        """
        # A finite sum proves every entry finite; a huge but finite g can still
        # overflow its sum, so only then is every entry checked.
        with np.errstate(over="ignore", invalid="ignore"):
            for name, g in grads.items():
                g = g.values if isinstance(g, RowSparse) else g
                if not np.isfinite(g.sum()) and not np.isfinite(g).all():
                    raise DivergenceError(f"non-finite gradient for tensor {name!r}")
        for name, theta in params.items():
            if not theta.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous")
        cfg = self.cfg
        self.t += 1
        b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.lr, cfg.eps
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, theta in params.items():
            if name not in self.m:
                self.m[name] = np.zeros(theta.shape)
                self.v[name] = np.zeros(theta.shape)
            g = grads[name]
            sparse = isinstance(g, RowSparse)
            if sparse:
                # Blocks of whole rows (of the flattened trailing axes), so that
                # the touched rows of each block are one run of g.rows.
                width = math.prod(theta.shape[1:]) or 1
                block_rows = max(1, BLOCK // width)
                step = block_rows * width
                if step > self._s1.size:
                    self._s1, self._s2 = np.empty(step), np.empty(step)
                # The touched rows' new moments, from the same operations as below.
                gv = g.values.reshape(g.rows.size, width)
                m_rows = self.m[name].reshape(-1, width)[g.rows]
                m_rows *= b1
                s = gv * (1.0 - b1)
                m_rows += s
                v_rows = self.v[name].reshape(-1, width)[g.rows]
                v_rows *= b2
                np.multiply(gv, 1.0 - b2, out=s)
                s *= gv
                v_rows += s
                # where each block's touched rows start in g.rows, and where the last ends
                bounds = np.searchsorted(g.rows, range(0, theta.shape[0] + block_rows, block_rows)).tolist()
            else:
                step = BLOCK
                g_flat = g.reshape(-1)
            flat = theta.reshape(-1)
            m_flat = self.m[name].reshape(-1)
            v_flat = self.v[name].reshape(-1)
            for i, start in enumerate(range(0, flat.size, step)):
                block = slice(start, start + step)
                th, m, v = flat[block], m_flat[block], v_flat[block]
                s1, s2 = self._s1[: th.size], self._s2[: th.size]
                # The operations and operand order of the whole-tensor numpy
                # expressions (tests/oracles.py ReferenceAdamW), so every
                # result is bit-identical to them.
                m *= b1
                if sparse:
                    # A zero gradient adds (1-b1)*0 = +0.0 to m, which turns a
                    # -0.0 m*b1 into +0.0, and adds nothing to v. Above 0.5, b1
                    # keeps a nonzero m nonzero (|m*b1| is over half the least
                    # subnormal), so m, never -0.0, needs no pass for it.
                    if b1 <= 0.5:
                        m += 0.0
                    v *= b2
                    lo, hi = bounds[i], bounds[i + 1]
                    if lo < hi:
                        local = g.rows[lo:hi] - i * block_rows
                        m.reshape(-1, width)[local] = m_rows[lo:hi]
                        v.reshape(-1, width)[local] = v_rows[lo:hi]
                else:
                    gb = g_flat[block]
                    np.multiply(gb, 1.0 - b1, out=s1)
                    m += s1
                    v *= b2
                    np.multiply(gb, 1.0 - b2, out=s1)
                    s1 *= gb
                    v += s1
                np.divide(m, bc1, out=s1)
                s1 *= lr
                np.divide(v, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += eps
                s1 /= s2
                if cfg.weight_decay != 0.0:
                    np.multiply(th, lr * cfg.weight_decay, out=s2)
                    s1 += s2
                th -= s1
