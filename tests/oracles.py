"""Independent brute-force oracles used to cross-check the library.

Everything here is written as plainly as possible (explicit loops, scalar
math) and must stay independent of the implementation paths it verifies.
"""

import math

import numpy as np


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
