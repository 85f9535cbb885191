"""AdamW with bias correction and decoupled weight decay.

Update per tensor, with t the 1-based step count:

    m = b1*m + (1-b1)*g          v = b2*v + (1-b2)*g^2
    m_hat = m / (1 - b1^t)       v_hat = v / (1 - b2^t)
    theta = theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * theta

The decay term uses the pre-update theta, decoupled from the gradient path;
with weight_decay = 0 this is exactly plain Adam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_field_types


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


class AdamW:
    """Optimizer instance owning per-tensor moment state; one per training run."""

    def __init__(self, cfg: AdamWConfig):
        cfg.validate()
        self.cfg = cfg
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Apply one update in place. Raises on any non-finite gradient."""
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient for tensor {name!r}")
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
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
            update = cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            if cfg.weight_decay != 0.0:
                update = update + cfg.lr * cfg.weight_decay * theta
            theta -= update
