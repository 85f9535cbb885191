import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniaffect import optim
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
    with pytest.raises(ValueError, match="least normal float"):
        AdamWConfig(eps=5e-324)  # a subnormal eps * sqrt(1 - beta2^t) could round to 0
    with pytest.raises(ValueError, match="must be finite"):
        AdamWConfig(lr=1e305, beta1=0.999999999)  # the step size would overflow
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


_configs = st.builds(
    AdamWConfig,
    lr=st.floats(1e-6, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.0, 0.999),
    eps=st.floats(1e-12, 1e-3),
    weight_decay=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
)
# Zero, or a magnitude whose square is a finite normal float.
_grad = st.one_of(st.just(0.0), st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8))


@settings(max_examples=200)
@given(
    cfg=_configs,
    theta=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_step_matches_textbook_adamw_property(cfg, theta, data):
    # The scalar textbook update plus the decoupled decay term. The folded form
    # differs from it only by rounding, so each element stays within 1e-12 of
    # the largest |theta| or |update| it has seen.
    n = len(theta)
    steps = data.draw(st.lists(st.lists(_grad, min_size=n, max_size=n), min_size=1, max_size=8))
    params = {"w": np.array(theta)}
    opt = AdamW(cfg)
    ref_theta, m, v = list(theta), [0.0] * n, [0.0] * n
    scale = np.abs(params["w"])
    for t, g in enumerate(steps, start=1):
        opt.step(params, {"w": np.array(g)})
        for i in range(n):
            before = ref_theta[i]
            adam, m[i], v[i] = reference_adam_step(before, g[i], m[i], v[i], t, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
            ref_theta[i] = adam - cfg.lr * cfg.weight_decay * before
            scale[i] = max(scale[i], abs(ref_theta[i]), abs(ref_theta[i] - before))
        assert np.all(np.abs(params["w"] - np.array(ref_theta)) <= 1e-12 * scale), (t, params["w"], ref_theta)


@st.composite
def _row_sparse_runs(draw):
    """A table shape and per-step RowSparse gradients on it, some steps touching no row."""
    tail = tuple(draw(st.lists(st.integers(1, 40), max_size=2)))
    n_rows = draw(st.integers(1, max(1, min(2000, 4 * BLOCK // math.prod(tail)))))
    shape = (n_rows, *tail)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grads = []
    for _ in range(draw(st.integers(1, 8))):
        rows = np.array(sorted(draw(st.sets(st.integers(0, n_rows - 1), max_size=30))), dtype=np.int64)
        values = rng.standard_normal((rows.size, *tail))
        # Zeros and tiny negatives, so that m * beta1 meets signed zeros and underflows.
        values[rng.random(values.shape) < 0.2] = 0.0
        values[rng.random(values.shape) < 0.1] = -1e-323
        grads.append(RowSparse(rows, values, shape))
    return shape, grads


@settings(max_examples=60)
@given(cfg=_configs, run=_row_sparse_runs(), seed=st.integers(0, 2**32 - 1))
def test_row_sparse_step_matches_dense_step_bit_for_bit_property(cfg, run, seed):
    shape, grads = run
    params = {"emb": np.random.default_rng(seed).standard_normal(shape)}
    dense_params = {"emb": params["emb"].copy()}
    opt, dense_opt = AdamW(cfg), AdamW(cfg)
    for sparse in grads:
        opt.step(params, {"emb": sparse})
        dense_opt.step(dense_params, {"emb": dense(sparse)})
        for got, want in ((params["emb"], dense_params["emb"]), (opt.m["emb"], dense_opt.m["emb"]), (opt.v["emb"], dense_opt.v["emb"])):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_each_block_takes_one_divide_and_one_sqrt(monkeypatch):
    # The folded bias corrections leave one np.divide and one np.sqrt per block,
    # on the zero-gradient sweep and on the gradient path alike.
    calls = {"divide": 0, "sqrt": 0}
    for name in calls:
        ufunc = getattr(optim.np, name)

        def counted(*args, _ufunc=ufunc, _name=name, **kwargs):
            calls[_name] += 1
            return _ufunc(*args, **kwargs)

        monkeypatch.setattr(optim.np, name, counted)
    k = 3
    shape = (k * BLOCK // 64, 64)
    params = {"emb": np.zeros(shape)}
    opt = AdamW(AdamWConfig(lr=1e-3))
    no_rows = RowSparse(np.zeros(0, dtype=np.int64), np.zeros((0, 64)), shape)
    for grad in (no_rows, np.ones(shape)):
        calls.update(divide=0, sqrt=0)
        opt.step(params, {"emb": grad})
        assert calls == {"divide": k, "sqrt": k}
