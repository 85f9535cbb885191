import math

import numpy as np
import pytest

from miniaffect.errors import DivergenceError
from miniaffect.nn.autodiff import RowSparse, dense
from miniaffect.optim import BLOCK, AdamW, AdamWConfig

from oracles import ReferenceAdamW, reference_adam_step


def test_defaults_match_training_setup():
    cfg = AdamWConfig()
    assert cfg.lr == 1e-5
    assert (cfg.beta1, cfg.beta2) == (0.9, 0.99)
    assert cfg.eps == 1e-6
    assert cfg.weight_decay == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        AdamWConfig(lr=0.0)
    with pytest.raises(ValueError):
        AdamWConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamWConfig(eps=0.0)
    with pytest.raises(ValueError):
        AdamWConfig(weight_decay=-0.1)


def test_zero_gradient_fresh_state_is_noop():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    before = params["w"].copy()
    opt = AdamW(AdamWConfig(lr=0.1))
    opt.step(params, {"w": np.zeros(3)})
    assert np.array_equal(params["w"], before)


def test_first_step_scalar_hand_evaluated():
    # theta=0, g=1: m_hat = v_hat = 1 after bias correction, so
    # the update is exactly -lr / (1 + eps)
    lr, eps = 1e-3, 1e-6
    params = {"w": np.array([0.0])}
    opt = AdamW(AdamWConfig(lr=lr, eps=eps))
    opt.step(params, {"w": np.array([1.0])})
    assert abs(params["w"][0] - (-lr / (1.0 + eps))) < 1e-12


def test_matches_reference_adam_when_decay_zero():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(5)
    params = {"w": theta.copy()}
    cfg = AdamWConfig(lr=1e-3, beta1=0.9, beta2=0.99, eps=1e-6, weight_decay=0.0)
    opt = AdamW(cfg)
    ref_theta = theta.astype(float).tolist()
    m = [0.0] * 5
    v = [0.0] * 5
    for t in range(1, 8):
        g = rng.standard_normal(5)
        opt.step(params, {"w": g.copy()})
        for i in range(5):
            ref_theta[i], m[i], v[i] = reference_adam_step(
                ref_theta[i], g[i], m[i], v[i], t, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps
            )
        assert np.abs(params["w"] - np.array(ref_theta)).max() < 1e-12


def test_decay_applied_to_pre_update_theta():
    lr, wd = 0.1, 0.5
    theta0 = 2.0
    params = {"w": np.array([theta0])}
    opt = AdamW(AdamWConfig(lr=lr, weight_decay=wd))
    opt.step(params, {"w": np.array([1.0])})
    adam_only = theta0 - lr * 1.0 / (1.0 + 1e-6)
    expected = adam_only - lr * wd * theta0
    assert abs(params["w"][0] - expected) < 1e-12


def test_non_finite_gradient_names_tensor():
    params = {"ok": np.zeros(2), "bad": np.zeros(2)}
    opt = AdamW(AdamWConfig(lr=1e-3))
    with pytest.raises(ValueError, match="bad"):
        opt.step(params, {"ok": np.zeros(2), "bad": np.array([1.0, np.nan])})
    with pytest.raises(ValueError, match="bad"):
        opt.step(params, {"ok": np.zeros(2), "bad": np.array([np.inf, 0.0])})


def test_step_deterministic():
    def run():
        params = {"w": np.full(3, 0.5)}
        opt = AdamW(AdamWConfig(lr=1e-2))
        for t in range(5):
            opt.step(params, {"w": np.array([0.1, -0.2, 0.3]) * (t + 1)})
        return params["w"]

    assert np.array_equal(run(), run())


def test_tensors_do_not_share_state():
    params = {"a": np.zeros(2), "b": np.zeros(2)}
    opt = AdamW(AdamWConfig(lr=1e-2))
    opt.step(params, {"a": np.ones(2), "b": np.zeros(2)})
    assert np.all(opt.m["b"] == 0.0)
    assert np.all(opt.v["b"] == 0.0)
    assert np.all(opt.m["a"] != 0.0)
    assert np.array_equal(params["b"], np.zeros(2))


def test_update_magnitude_bound():
    rng = np.random.default_rng(1)
    params = {"w": rng.standard_normal(10)}
    cfg = AdamWConfig(lr=1e-2, weight_decay=0.01)
    opt = AdamW(cfg)
    for _ in range(10):
        before = params["w"].copy()
        g = rng.standard_normal(10) * 10
        opt.step(params, {"w": g})
        m_hat = opt.m["w"] / (1 - cfg.beta1**opt.t)
        v_hat = opt.v["w"] / (1 - cfg.beta2**opt.t)
        bound = cfg.lr * np.abs(m_hat) / (np.sqrt(v_hat) + cfg.eps) + cfg.lr * cfg.weight_decay * np.abs(before)
        assert np.all(np.abs(params["w"] - before) <= bound + 1e-15)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_blocked_step_matches_reference_bit_for_bit(weight_decay):
    shapes = {"tok_emb": (5509, 64), "bias": (3,)}
    assert 5509 * 64 > 2 * BLOCK and (5509 * 64) % BLOCK != 0  # several blocks, ragged tail
    rng = np.random.default_rng(11)
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    ref_params = {name: arr.copy() for name, arr in params.items()}
    cfg = AdamWConfig(lr=1e-3, weight_decay=weight_decay)
    opt, ref = AdamW(cfg), ReferenceAdamW(cfg)
    for _ in range(5):
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        opt.step(params, grads)
        ref.step(ref_params, {name: g.copy() for name, g in grads.items()})
        for name in shapes:
            assert np.array_equal(params[name], ref_params[name])
            assert np.array_equal(opt.m[name], ref.m[name])
            assert np.array_equal(opt.v[name], ref.v[name])
    assert opt.t == ref.t == 5


def test_huge_finite_gradient_is_accepted():
    # the sum overflows to inf although every entry is finite
    params = {"w": np.zeros(2)}
    with pytest.warns(RuntimeWarning, match="overflow"):
        AdamW(AdamWConfig(lr=1e-3)).step(params, {"w": np.array([1e308, 1e308])})
    assert np.all(np.isfinite(params["w"]))


def test_nan_deep_in_multiblock_tensor_leaves_state_unchanged():
    rng = np.random.default_rng(12)
    shapes = {"small": (3,), "big": (3 * BLOCK + 5,)}
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    opt = AdamW(AdamWConfig(lr=1e-3, weight_decay=0.01))
    opt.step(params, {name: rng.standard_normal(shape) for name, shape in shapes.items()})
    before = [{name: d[name].copy() for name in shapes} for d in (params, opt.m, opt.v)]
    grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    grads["big"][2 * BLOCK + 7] = np.nan
    with pytest.raises(ValueError, match="big"):
        opt.step(params, grads)
    assert opt.t == 1
    for saved, now in zip(before, (params, opt.m, opt.v)):
        for name in shapes:
            assert np.array_equal(saved[name], now[name])


def test_non_contiguous_parameter_rejected():
    params = {"w": np.zeros((4, 3)).T}
    opt = AdamW(AdamWConfig(lr=1e-3))
    with pytest.raises(ValueError, match="contiguous"):
        opt.step(params, {"w": np.ones((3, 4))})
    assert opt.t == 0 and not opt.m


def _row_sparse_steps(rng, shape, steps):
    """A RowSparse gradient per step for a table of ``shape``.

    Rows 0 and n_rows - 1 and the rows on both sides of flat element BLOCK
    are touched every step, the rest of the last tenth of the rows never, and
    up to 20 random others. Step 0 also plants tiny negative gradients on two
    rows that no later step reads, so that m decays there through the
    subnormals to zero.
    """
    n_rows = shape[0]
    edge = min(BLOCK // math.prod(shape[1:]), n_rows - 1)
    always = np.array([0, max(edge - 1, 0), edge, n_rows - 1])
    tiny = np.array([3, n_rows - 2])
    candidates = np.arange(10, n_rows - n_rows // 10)
    out = []
    for step in range(steps):
        picked = rng.choice(candidates, size=min(20, candidates.size // 2), replace=False)
        rows = np.unique(np.concatenate([always, picked] + ([tiny] if step == 0 else [])))
        values = rng.standard_normal((rows.size, *shape[1:]))
        if step == 0:
            values[np.isin(rows, tiny)] = -1e-323
        out.append(RowSparse(rows, values, shape))
    return out


# Every table spans several blocks with a ragged tail. In the last two, the
# touched rows of a step, gathered, span more than one block.
_TABLE_SHAPES = {
    "2d": (1500, 24),
    "1d": (40000,),
    "3d": (700, 6, 8),
    "gathered-rows-over-a-block": (300, 800),
    "row-wider-than-a-block": (20, BLOCK + 3),
}


@pytest.mark.parametrize("shape", _TABLE_SHAPES.values(), ids=_TABLE_SHAPES.keys())
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("beta1", [0.0, 0.3, 0.5, 0.9])
def test_row_sparse_step_matches_dense_reference_bit_for_bit(beta1, weight_decay, shape):
    # Untouched rows must get the dense update of a zero gradient exactly, signed zeros included:
    # m * beta1 is -0.0 where m < 0 and beta1 is 0, or where it underflows (beta1 <= 0.5; at 0.5
    # half the least subnormal rounds to zero).
    size = math.prod(shape)
    assert size > 2 * BLOCK and size % BLOCK != 0  # several blocks, ragged tail
    n_rows = shape[0]
    rng = np.random.default_rng(13)
    params = {"emb": rng.standard_normal(shape), "bias": rng.standard_normal(3)}
    ref_params = {name: arr.copy() for name, arr in params.items()}
    cfg = AdamWConfig(lr=1e-3, beta1=beta1, weight_decay=weight_decay)
    opt, ref = AdamW(cfg), ReferenceAdamW(cfg)
    for sparse in _row_sparse_steps(rng, shape, steps=8):
        bias = rng.standard_normal(3)
        opt.step(params, {"emb": sparse, "bias": bias})
        ref.step(ref_params, {"emb": dense(sparse), "bias": bias.copy()})
        for name in params:
            for got, want in ((params[name], ref_params[name]), (opt.m[name], ref.m[name]), (opt.v[name], ref.v[name])):
                assert np.array_equal(got, want, equal_nan=True), name
                assert np.array_equal(np.signbit(got), np.signbit(want)), name
    assert opt.t == ref.t == 8
    if beta1 <= 0.5:  # where step 0 planted tiny gradients, an underflowed m * beta1 has made m zero
        assert np.all(opt.m["emb"][[3, n_rows - 2]] == 0.0)


def test_row_sparse_nan_raises_and_leaves_state_unchanged():
    rng = np.random.default_rng(14)
    n_rows, width = 1500, 24
    params = {"bias": rng.standard_normal(3), "emb": rng.standard_normal((n_rows, width))}
    opt = AdamW(AdamWConfig(lr=1e-3, weight_decay=0.01))
    first, second = _row_sparse_steps(rng, (n_rows, width), steps=2)
    opt.step(params, {"bias": rng.standard_normal(3), "emb": first})
    before = [{name: d[name].copy() for name in params} for d in (params, opt.m, opt.v)]
    second.values[-1, 5] = np.nan
    with pytest.raises(DivergenceError, match="'emb'"):
        opt.step(params, {"bias": rng.standard_normal(3), "emb": second})
    assert opt.t == 1
    for saved, now in zip(before, (params, opt.m, opt.v)):
        for name in params:
            assert np.array_equal(saved[name], now[name])
