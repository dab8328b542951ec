import numpy as np
import pytest

from wafersense.nn import (
    FUSED_GATES,
    ArchConfig,
    backward,
    backward_batch,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    zeros_like_params,
)

TINY = ArchConfig(sensor_dim=6, meas_dim=3, d=4, mlp_hidden=5)


def tiny_params(seed, dtype=np.float64, randomize_biases=True):
    params = init_params(TINY, seed=seed, dtype=dtype)
    if randomize_biases:
        rng = np.random.default_rng(1000 + seed)
        for _, arr in params.arrays():
            arr += rng.normal(0.0, 0.1, size=arr.shape).astype(dtype)
    return params


class TestParamCount:
    def test_hand_counted_unit_case(self):
        assert param_count(ArchConfig(1, 1, 1, 1)) == 21

    def test_small_preset(self):
        cfg = ArchConfig.small(sensor_dim=267, meas_dim=552)
        assert param_count(cfg) == 406_273

    def test_large_preset(self):
        cfg = ArchConfig.large(sensor_dim=267, meas_dim=552)
        assert param_count(cfg) == 16_095_233

    def test_matches_actual_arrays(self):
        params = init_params(TINY, seed=0)
        assert params.size() == param_count(TINY)


class TestInit:
    def test_deterministic(self):
        a = init_params(TINY, seed=7)
        b = init_params(TINY, seed=7)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = init_params(TINY, seed=7)
        b = init_params(TINY, seed=8)
        assert not np.array_equal(a.emb_w, b.emb_w)

    def test_forget_bias_is_one_and_other_biases_zero(self):
        params = init_params(TINY, seed=0)
        assert np.all(params.b_f == 1.0)
        assert np.all(params.b_i == 0.0)
        assert np.all(params.mlp1_b == 0.0)

    def test_weight_bounds(self):
        params = init_params(TINY, seed=0)
        assert np.abs(params.emb_w).max() <= 1.0 / np.sqrt(TINY.sensor_dim)
        assert np.abs(params.mlp1_w).max() <= 1.0 / np.sqrt(TINY.d + TINY.meas_dim)

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            ArchConfig(0, 3, 4, 5)


class TestFlatLayout:
    def test_named_views_share_memory_with_flat(self):
        params = init_params(TINY, seed=0)
        assert params.flat.ndim == 1 and params.flat.size == param_count(TINY)
        for _, arr in params.arrays():
            assert np.shares_memory(arr, params.flat)
        params.flat[:] = 2.0
        assert np.all(params.mlp2_w == 2.0)
        params.out_b[0] = 5.0
        assert params.flat[-1] == 5.0

    def test_copy_is_deep(self):
        params = init_params(TINY, seed=0)
        clone = params.copy()
        assert not np.shares_memory(clone.flat, params.flat)
        assert np.array_equal(clone.flat, params.flat)
        clone.emb_w[...] = 7.0
        assert not np.any(params.emb_w == 7.0)
        assert np.shares_memory(clone.emb_w, clone.flat)


class TestForward:
    def test_zero_params_predict_zero(self):
        params = zeros_like_params(init_params(TINY, seed=0, dtype=np.float64))
        rng = np.random.default_rng(0)
        pred, _ = forward(params, rng.normal(size=(3, 6)), rng.normal(size=3))
        assert pred == 0.0

    def test_sequence_length_matters(self):
        params = tiny_params(0)
        step = np.full((1, 6), 0.3)
        meas = np.zeros(3)
        one, _ = forward(params, step, meas)
        two, _ = forward(params, np.repeat(step, 2, axis=0), meas)
        assert one != two

    def test_step_order_matters(self):
        # seed chosen so the MLP has live ReLU units; a dead head would hide
        # the encoder and make any two inputs agree trivially
        params = tiny_params(0)
        rng = np.random.default_rng(2)
        steps = rng.normal(size=(3, 6))
        meas = rng.normal(size=3)
        a, _ = forward(params, steps, meas)
        b, _ = forward(params, steps[::-1].copy(), meas)
        assert abs(a - b) > 1e-6

    def test_dimension_mismatch_rejected(self):
        params = tiny_params(0)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 5)), np.zeros(3))
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 6)), np.zeros(4))

    def test_batch_equals_loop_of_singles(self):
        params = tiny_params(3)
        rng = np.random.default_rng(4)
        steps = rng.normal(size=(10, 2, 6))
        meas = rng.normal(size=(10, 3))
        batched, _ = forward_batch(params, steps, meas)
        singles = [forward(params, steps[i], meas[i])[0] for i in range(10)]
        assert np.max(np.abs(batched - np.array(singles))) <= 1e-12

    def test_cell_state_bounded_by_step_count(self):
        # |c_t| grows by at most 1 per step regardless of weight scale
        params = tiny_params(5)
        for _, arr in params.arrays():
            arr *= 50.0
        rng = np.random.default_rng(6)
        for n in (1, 3, 5, 9):
            steps = rng.normal(scale=10.0, size=(n, 6))
            _, trace = forward(params, steps, rng.normal(size=3))
            for t in range(1, n + 1):
                assert np.all(np.abs(trace.c[t]) <= t + 1e-9)


class TestBackward:
    def test_gradient_matches_finite_differences(self):
        h = 1e-5
        worst = 0.0
        for seed in range(10):
            n = [1, 2, 3][seed % 3]
            params = tiny_params(seed)
            rng = np.random.default_rng(100 + seed)
            steps = rng.normal(size=(n, 6))
            meas = rng.normal(size=(3,))
            _, trace = forward(params, steps, meas)
            grads = backward(params, trace, 1.0)
            for name, arr in params.arrays():
                flat = arr.reshape(-1)
                gflat = getattr(grads, name).reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up, _ = forward(params, steps, meas)
                    flat[k] = orig - h
                    down, _ = forward(params, steps, meas)
                    flat[k] = orig
                    fd = (up - down) / (2.0 * h)
                    rel = abs(fd - gflat[k]) / max(abs(fd), abs(gflat[k]), 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4

    def test_output_bias_gradient_equals_upstream(self):
        params = tiny_params(0)
        _, trace = forward(params, np.random.default_rng(0).normal(size=(2, 6)),
                           np.zeros(3))
        grads = backward(params, trace, 2.5)
        assert grads.out_b[0] == 2.5

    def test_zero_upstream_gives_zero_gradient(self):
        params = tiny_params(0)
        _, trace = forward(params, np.ones((2, 6)), np.ones(3))
        grads = backward(params, trace, 0.0)
        for _, arr in grads.arrays():
            assert np.all(arr == 0.0)

    def test_batch_backward_sums_per_sample_gradients(self):
        params = tiny_params(2)
        rng = np.random.default_rng(3)
        steps = rng.normal(size=(4, 2, 6))
        meas = rng.normal(size=(4, 3))
        upstream = rng.normal(size=4)
        _, trace = forward_batch(params, steps, meas)
        batched = backward_batch(params, trace, upstream)
        summed = zeros_like_params(params)
        for i in range(4):
            _, tr = forward(params, steps[i], meas[i])
            g = backward(params, tr, upstream[i])
            for name, arr in summed.arrays():
                arr += getattr(g, name)
        for name, arr in batched.arrays():
            assert np.allclose(arr, getattr(summed, name), atol=1e-12)

    def test_reused_out_buffer_equals_fresh_allocation(self):
        params = tiny_params(4, dtype=np.float32)
        rng = np.random.default_rng(5)
        buf = zeros_like_params(params)
        buf.flat[:] = np.nan  # never read, only overwritten
        for n in (3, 2):
            _, trace = forward_batch(params, rng.normal(size=(5, n, 6)),
                                     rng.normal(size=(5, 3)))
            upstream = rng.normal(size=5)
            assert backward_batch(params, trace, upstream, out=buf) is buf
            assert np.array_equal(buf.flat, backward_batch(params, trace, upstream).flat)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(TINY, seed=5, dtype=np.float32)
        meta = {"loss": "re", "re_c": 10.0, "manifest_hash": "abc123"}
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert loaded.cfg == params.cfg
        assert loaded.dtype == np.float32
        for (_, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("change, message", [
        (lambda arrays: arrays.pop("wh_g"), "missing array 'wh_g'"),
        (lambda arrays: arrays.update(stray=np.zeros(3, np.float32)),
         "unexpected array 'stray'"),
        (lambda arrays: arrays.update(mlp1_b=np.zeros(1, np.float32)),
         r"array 'mlp1_b' has shape \(1,\), expected \(5,\)"),
        (lambda arrays: arrays.update(emb_w=arrays["emb_w"].T.copy()),
         r"array 'emb_w' has shape \(6, 4\), expected \(4, 6\)"),
    ])
    def test_wrong_arrays_rejected_by_name(self, tmp_path, change, message):
        path = tmp_path / "model.npz"
        save_checkpoint(path, init_params(TINY, seed=5), {"loss": "re"})
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        change(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def per_gate_reference(p, steps, meas, upstream):
    """Predictions and named gradients from the per-gate loops (one matrix
    product per gate and step) that the fused-gate code replaced."""
    batch, n = steps.shape[:2]
    h = np.zeros((batch, p.cfg.d))
    c = np.zeros_like(h)
    xs, gates, cs, hs = [], [], [c], [h]
    for t in range(n):
        x = steps[:, t, :] @ p.emb_w.T + p.emb_b
        i = _sigmoid(x @ p.wx_i.T + h @ p.wh_i.T + p.b_i)
        f = _sigmoid(x @ p.wx_f.T + h @ p.wh_f.T + p.b_f)
        g = np.tanh(x @ p.wx_g.T + h @ p.wh_g.T + p.b_g)
        o = _sigmoid(x @ p.wx_o.T + h @ p.wh_o.T + p.b_o)
        c = f * c + i * g
        h = o * np.tanh(c)
        xs.append(x)
        gates.append({"i": i, "f": f, "g": g, "o": o})
        cs.append(c)
        hs.append(h)
    z0 = np.concatenate([c, meas], axis=1)
    z1 = np.maximum(z0 @ p.mlp1_w.T + p.mlp1_b, 0.0)
    z2 = np.maximum(z1 @ p.mlp2_w.T + p.mlp2_b, 0.0)
    preds = z2 @ p.out_w + p.out_b[0]

    grads = {name: np.zeros_like(arr) for name, arr in p.arrays()}
    grads["out_b"][0] = upstream.sum()
    grads["out_w"] += z2.T @ upstream
    dpre2 = upstream[:, None] * p.out_w[None, :] * (z2 > 0)
    grads["mlp2_w"] += dpre2.T @ z1
    grads["mlp2_b"] += dpre2.sum(axis=0)
    dpre1 = (dpre2 @ p.mlp2_w) * (z1 > 0)
    grads["mlp1_w"] += dpre1.T @ z0
    grads["mlp1_b"] += dpre1.sum(axis=0)
    dc = (dpre1 @ p.mlp1_w)[:, :p.cfg.d]
    dh = np.zeros_like(dc)
    for t in range(n - 1, -1, -1):
        i, f, g, o = (gates[t][k] for k in "ifgo")
        tanh_c = np.tanh(cs[t + 1])
        da = {"o": dh * tanh_c * o * (1.0 - o)}
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        da.update(i=dc * g * i * (1.0 - i), f=dc * cs[t] * f * (1.0 - f),
                  g=dc * i * (1.0 - g * g))
        dx = sum(da[k] @ getattr(p, f"wx_{k}") for k in "ifgo")
        dh = sum(da[k] @ getattr(p, f"wh_{k}") for k in "ifgo")
        for k in "ifgo":
            grads[f"wx_{k}"] += da[k].T @ xs[t]
            grads[f"wh_{k}"] += da[k].T @ hs[t]
            grads[f"b_{k}"] += da[k].sum(axis=0)
        dc = dc * f
        grads["emb_w"] += dx.T @ steps[:, t, :]
        grads["emb_b"] += dx.sum(axis=0)
    return preds, grads


class TestFusedGates:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_per_gate_reference(self, n):
        params = tiny_params(n)
        rng = np.random.default_rng(20 + n)
        steps, meas = rng.normal(size=(7, n, 6)), rng.normal(size=(7, 3))
        upstream = rng.normal(size=7)
        preds, trace = forward_batch(params, steps, meas)
        grads = backward_batch(params, trace, upstream)
        ref_preds, ref_grads = per_gate_reference(params, steps, meas, upstream)
        assert np.allclose(preds, ref_preds, rtol=1e-10, atol=0.0)
        for name, arr in grads.arrays():
            assert np.allclose(arr, ref_grads[name], rtol=1e-10, atol=0.0), name

    def test_fused_blocks_are_views_stacking_the_named_gates(self):
        params = init_params(TINY, seed=0)
        d = TINY.d
        for block in ("wx", "wh", "b"):
            fused = getattr(params, block)
            assert fused.shape[0] == 4 * d and fused.flags.c_contiguous
            assert np.shares_memory(fused, params.flat)
            for k, gate in enumerate(FUSED_GATES):
                fused[k * d:(k + 1) * d] = k + 1.0
                assert np.all(getattr(params, f"{block}_{gate}") == k + 1.0), (block, gate)
