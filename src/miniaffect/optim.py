"""AdamW with bias correction and decoupled weight decay.

Update per tensor, with t the 1-based step count:

    m = b1*m + (1-b1)*g          v = b2*v + (1-b2)*g^2
    m_hat = m / (1 - b1^t)       v_hat = v / (1 - b2^t)
    theta = theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * theta

The decay term uses the pre-update theta, decoupled from the gradient path;
with weight_decay = 0 this is exactly plain Adam.

The update is computed in the form Kingma & Ba (2015, arXiv:1412.6980, §2,
last paragraph) give for efficiency, with both bias corrections folded into
two scalars per step:

    step = lr * sqrt(1 - b2^t) / (1 - b1^t)      eps_hat = eps * sqrt(1 - b2^t)
    theta = theta - step * m / (sqrt(v) + eps_hat) - lr * weight_decay * theta

Multiplying the numerator and the denominator of m_hat / (sqrt(v_hat) + eps)
by sqrt(1 - b2^t) gives this form, so it is the update above, up to rounding.
Each element then takes one divide and one sqrt, not three divides and a sqrt.
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

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.lr <= 0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError(f"betas must lie in [0, 1): got ({self.beta1}, {self.beta2})")
        # The step size lr * sqrt(1 - beta2^t) / (1 - beta1^t) is at most lr / (1 - beta1).
        if not math.isfinite(self.lr / (1.0 - self.beta1)):
            raise ValidationError(f"lr / (1 - beta1) must be finite: got lr {self.lr}, beta1 {self.beta1}")
        # A normal eps keeps eps * sqrt(1 - beta2^t) above zero, so a zero
        # moment never divides 0 by 0.
        tiny = float(np.finfo(np.float64).tiny)
        if self.eps < tiny:
            raise ValidationError(f"eps must be at least {tiny}, the least normal float, got {self.eps}")
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be non-negative, got {self.weight_decay}")


# Elements per block of the in-place update. A block's theta, g, m, v and the
# two scratch buffers (6 x 128 KB) stay in L2 across the whole ufunc sequence.
BLOCK = 16384


class AdamW:
    """Optimizer instance owning per-tensor moment state; one per training run.

    Parameters must be C-contiguous: the update walks each tensor's flat view
    in blocks of ``BLOCK`` elements and writes theta, m and v in place.
    """

    def __init__(self, cfg: AdamWConfig):
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
        self.t += 1
        for name, theta in params.items():
            if name not in self.m:
                self.m[name] = np.zeros(theta.shape)
                self.v[name] = np.zeros(theta.shape)
            g, m, v = grads[name], self.m[name], self.v[name]
            if isinstance(g, RowSparse):
                # Every row takes the zero-gradient update; then the touched
                # rows, gathered before it, take theirs and are put back.
                th_g, m_g, v_g = theta[g.rows], m[g.rows], v[g.rows]
                self._update(theta, None, m, v)
                self._update(th_g, g.values, m_g, v_g)
                theta[g.rows], m[g.rows], v[g.rows] = th_g, m_g, v_g
            else:
                self._update(theta, g, m, v)

    def _update(self, theta: np.ndarray, g: np.ndarray | None, m: np.ndarray, v: np.ndarray) -> None:
        """One step on C-contiguous theta, m and v in place, block by block; ``g=None`` is a zero gradient."""
        cfg = self.cfg
        b1, b2, lr = cfg.beta1, cfg.beta2, cfg.lr
        root_bc2 = math.sqrt(1.0 - b2**self.t)
        step = lr * root_bc2 / (1.0 - b1**self.t)
        eps_hat = cfg.eps * root_bc2
        flat, m_flat, v_flat = theta.reshape(-1), m.reshape(-1), v.reshape(-1)
        g_flat = None if g is None else g.reshape(-1)
        for start in range(0, flat.size, BLOCK):
            block = slice(start, start + BLOCK)
            th, m, v = flat[block], m_flat[block], v_flat[block]
            s1, s2 = self._s1[: th.size], self._s2[: th.size]
            # The operations and operand order of the whole-tensor numpy
            # expressions (tests/oracles.py ReferenceAdamW), so every
            # result is bit-identical to them.
            m *= b1
            if g_flat is None:
                # A zero gradient adds (1-b1)*0 = +0.0 to m, which turns a
                # -0.0 m*b1 into +0.0, and adds nothing to v. Above 0.5, b1
                # keeps a nonzero m nonzero (|m*b1| is over half the least
                # subnormal), so m, never -0.0, needs no pass for it.
                if b1 <= 0.5:
                    m += 0.0
                v *= b2
            else:
                gb = g_flat[block]
                np.multiply(gb, 1.0 - b1, out=s1)
                m += s1
                v *= b2
                np.multiply(gb, 1.0 - b2, out=s1)
                s1 *= gb
                v += s1
            np.sqrt(v, out=s2)
            s2 += eps_hat
            np.divide(m, s2, out=s1)
            s1 *= step
            if cfg.weight_decay != 0.0:
                np.multiply(th, lr * cfg.weight_decay, out=s2)
                s1 += s2
            th -= s1
