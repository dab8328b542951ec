import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wafersense import nn
from wafersense.nn import (
    FUSED_GATES,
    ArchConfig,
    CheckpointError,
    ModelParams,
    backward,
    backward_batch,
    encode,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from wafersense.train import TrainBucket, dataset_loss

from conftest import examples, zeros_like_params

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
        d = TINY.d
        assert np.all(params.b[d:2 * d] == 1.0)
        assert np.all(params.b[:d] == 0.0) and np.all(params.b[2 * d:] == 0.0)
        assert np.all(params.mlp1_b == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("cfg", [TINY, ArchConfig(sensor_dim=5, meas_dim=2, d=7, mlp_hidden=3)])
    def test_golden_per_gate_draw_order(self, cfg, seed, dtype):
        # the draws of the spec, one weight matrix at a time: emb_w, then wx and
        # wh of gates i, f, g, o, then the MLP; the gate rows are then stacked
        # in FUSED_GATES order, so every checkpoint keeps its bytes
        s, m, d, h = cfg.sensor_dim, cfg.meas_dim, cfg.d, cfg.mlp_hidden
        rng = np.random.default_rng(seed)

        def draw(*shape):
            bound = 1.0 / np.sqrt(shape[-1])
            return rng.uniform(-bound, bound, size=shape).astype(dtype)

        emb_w = draw(d, s)
        wx, wh = {}, {}
        for gate in "ifgo":
            wx[gate], wh[gate] = draw(d, d), draw(d, d)
        mlp1_w, mlp2_w, out_w = draw(h, d + m), draw(h, h), draw(h)
        bias = {gate: np.full(d, 1.0 if gate == "f" else 0.0, dtype) for gate in "ifgo"}
        want = np.concatenate([
            emb_w.ravel(), np.zeros(d, dtype),
            *(wx[g].ravel() for g in FUSED_GATES), *(wh[g].ravel() for g in FUSED_GATES),
            *(bias[g] for g in FUSED_GATES),
            mlp1_w.ravel(), np.zeros(h, dtype), mlp2_w.ravel(), np.zeros(h, dtype),
            out_w, np.zeros(1, dtype)])
        got = init_params(cfg, seed=seed, dtype=dtype).flat
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("batch", [1, 16, 513])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_inference_path_matches_traced_forward(self, n, batch, dtype, rtol):
        # the folded embedding sums in another order; predictions are O(1), so the
        # same figure bounds the absolute error of a prediction near zero
        params = tiny_params(n, dtype=dtype)
        features = np.random.default_rng(60 + n).normal(size=(batch, n * 6 + 3))
        steps, meas = features[:, :n * 6].reshape(batch, n, 6), features[:, n * 6:]
        traced, _ = forward_batch(params, steps, meas)
        lean, trace = forward_batch(params, steps, meas, want_trace=False)
        assert trace is None and lean.dtype == dtype and lean.shape == (batch,)
        np.testing.assert_allclose(lean, traced, rtol=rtol, atol=rtol)
        # strided views of one feature matrix predict exactly as contiguous copies
        copied, _ = forward_batch(params, steps.copy(), meas.copy(), want_trace=False)
        assert np.array_equal(lean, copied)

    @pytest.mark.parametrize("batch", [1, 16, 300])
    @pytest.mark.parametrize("preset", ["small", "large"])
    def test_prefix_cell_states_equal_prefix_forwards(self, preset, batch):
        # the head reads c_n and the recurrence runs forward only, so c_k of a traced forward
        # is the encoded vector of its first k steps: one pass gives every prefix's bits
        params = init_params(ArchConfig.preset(preset, sensor_dim=38, meas_dim=22), seed=5)
        rng = np.random.default_rng(80 + batch)
        steps = rng.uniform(size=(batch, 5, 38)).astype(np.float32)
        meas = rng.uniform(size=(batch, 22)).astype(np.float32)
        _, trace = forward_batch(params, steps, meas)
        for k in range(1, 5):
            _, prefix = forward_batch(params, steps[:, :k], meas)
            assert trace.c[k].tobytes() == prefix.c[k].tobytes()

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


def untraced_with_widths(params, steps, meas):
    """Untraced predictions and the column count of the gate block the recurrence activated
    at each step of every ``encode`` call."""
    widths, recurrence = [], nn.recurrence

    def spy(wh, inputs, n_steps, *states):
        def recorded(t):
            block = inputs(t)
            widths.append(block.shape[1])
            return block
        return recurrence(wh, recorded, n_steps, *states)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "recurrence", spy)
        preds, _ = forward_batch(params, steps, meas, want_trace=False)
    return preds, widths


class TestEncodeOnce:
    """The untraced forward encodes each run of adjacent bit-equal step blocks once."""

    @settings(max_examples=examples(60), deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=1, max_size=12),
           n=st.integers(1, 3), cut=st.integers(1, 9), seed=st.integers(0, 2**16),
           dtype_tol=st.sampled_from([(np.float64, 1e-12), (np.float32, 1e-5)]))
    def test_runs_encoded_once_match_traced_forward(self, runs, n, cut, seed, dtype_tol):
        # runs of drawn lengths, each one of five sequences, so a sequence may come back
        # after another one: that repeat is a run of its own. Sequence k differs from
        # sequence 0 by k in one element only, so every bit of a block must be compared.
        dtype, tol = dtype_tol
        rng = np.random.default_rng(seed)
        ids = np.repeat([seq for _, seq in runs], [length for length, _ in runs])
        pool = np.repeat(rng.normal(size=(1, n * 6)), 5, axis=0)
        pool[np.arange(1, 5), rng.integers(0, n * 6, size=4)] += np.arange(1, 5)
        steps = pool.reshape(5, n, 6).astype(dtype)[ids]
        meas = rng.normal(size=(len(ids), 3)).astype(dtype)
        params = tiny_params(n, dtype=dtype)
        lean, widths = untraced_with_widths(params, steps, meas)
        assert widths == [1 + np.count_nonzero(ids[1:] != ids[:-1])] * n
        traced, _ = forward_batch(params, steps, meas)
        np.testing.assert_allclose(lean, traced, rtol=tol, atol=tol)
        encoded = encode(params, steps)
        repeat = np.flatnonzero(ids[1:] == ids[:-1]) + 1
        assert encoded[:, repeat].tobytes() == encoded[:, repeat - 1].tobytes()
        if dtype == np.float64:  # the validation loss, its forward cut through runs
            target, scale = rng.normal(size=len(ids)), rng.uniform(0.5, 2.0, size=len(ids))
            per_row = [abs(forward(params, steps[k], meas[k])[0] - target[k]) / scale[k]
                       for k in range(len(ids))]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(nn, "PREDICT_ROWS", cut)
                got = dataset_loss(params, [TrainBucket(n, steps, meas, target, scale)])
            assert got == pytest.approx(np.mean(per_row), rel=1e-12, abs=1e-12)

    def test_peak_memory_is_a_few_live_gate_blocks(self):
        # the untraced path keeps one live (4d, U) gate block and one c and h per run, not
        # every step's states: 9 steps of those would take about 10 blocks
        arch, rows = ArchConfig(sensor_dim=38, meas_dim=22, d=256, mlp_hidden=512), 512
        params = init_params(arch, seed=0)
        rng = np.random.default_rng(81)
        steps = rng.uniform(size=(rows, 9, 38)).astype(np.float32)
        meas = rng.uniform(size=(rows, 22)).astype(np.float32)
        tracemalloc.start()
        try:
            forward_batch(params, steps, meas, want_trace=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (4 * arch.d * rows * np.dtype(np.float32).itemsize)

    def test_empty_batch_predicts_nothing(self):
        preds, widths = untraced_with_widths(tiny_params(0), np.zeros((0, 2, 6)), np.zeros((0, 3)))
        assert preds.shape == (0,) and widths == [0, 0]

    @pytest.mark.parametrize("rows", [1, 7])
    def test_one_row_and_all_equal_rows_encode_one_column(self, rows):
        params = tiny_params(1)
        rng = np.random.default_rng(70)
        steps, meas = np.repeat(rng.normal(size=(1, 3, 6)), rows, axis=0), rng.normal(size=(rows, 3))
        lean, widths = untraced_with_widths(params, steps, meas)
        assert widths == [1, 1, 1]
        np.testing.assert_allclose(lean, forward_batch(params, steps, meas)[0],
                                   rtol=1e-12, atol=1e-12)

    def test_signed_zeros_are_two_runs_both_right(self):
        params = tiny_params(2)
        rng = np.random.default_rng(71)
        steps, meas = np.repeat(rng.normal(size=(1, 2, 6)), 2, axis=0), rng.normal(size=(2, 3))
        steps[0, 1, 2], steps[1, 1, 2] = 0.0, -0.0
        lean, widths = untraced_with_widths(params, steps, meas)
        assert widths == [2, 2]
        np.testing.assert_allclose(lean, forward_batch(params, steps, meas)[0],
                                   rtol=1e-12, atol=1e-12)

    def test_byte_equal_rows_holding_nan_are_one_run(self):
        params = tiny_params(3)
        rng = np.random.default_rng(72)
        steps, meas = np.repeat(rng.normal(size=(1, 2, 6)), 3, axis=0), rng.normal(size=(3, 3))
        steps[:, 0, 4] = np.nan
        lean, widths = untraced_with_widths(params, steps, meas)
        assert widths == [1, 1]
        assert np.isnan(lean).all() and np.isnan(forward_batch(params, steps, meas)[0]).all()


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
        (lambda arrays: arrays.pop("flat"), "missing array 'flat'"),
        (lambda arrays: arrays.update(stray=np.zeros(3, np.float32)),
         "unexpected array 'stray'"),
        (lambda arrays: arrays.update(flat=arrays["flat"][:-1]),
         r"does not match its architecture: array 'flat' is \('float64', \(247,\)\), "
         r"expected \('float64', \(248,\)\)"),
        (lambda arrays: arrays.update(flat=arrays["flat"].astype(np.float32)),
         r"array 'flat' is \('float32', \(248,\)\), expected \('float64', \(248,\)\)"),
        (lambda arrays: arrays.update(__meta__=np.array(
            str(arrays["__meta__"]).replace('"float64"', '"int8"'))),
         "has dtype 'int8', not float32 or float64"),
        (lambda arrays: arrays.update(__meta__=np.array(
            str(arrays["__meta__"]).replace('"float64"', '"<U5"')),
            flat=arrays["flat"].astype("<U5")),
         "has dtype '<U5', not float32 or float64"),
        (lambda arrays: arrays.update(ModelParams(TINY, arrays.pop("flat")).arrays()),
         "missing array 'flat'; unexpected array 'emb_w'"),  # the older per-name format
    ], ids=["missing_flat", "stray_array", "flat_wrong_size", "flat_dtype_disagrees_with_meta",
            "meta_dtype_int8", "meta_dtype_str", "per_name_arrays"])
    def test_damaged_checkpoint_rejected_naming_file(self, tmp_path, change, message):
        path = tmp_path / "model.npz"
        save_checkpoint(path, init_params(TINY, seed=5, dtype=np.float64), {"loss": "re"})
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        change(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match=message) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        save_checkpoint(path, init_params(TINY, seed=5), {"loss": "re"})
        before = path.read_bytes()

        def savez_then_fail(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_params(TINY, seed=6), {"loss": "re"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def per_gate_reference(p, steps, meas, upstream):
    """Predictions and block-named gradients from the per-gate loops (one
    matrix product per gate and step) that the fused-gate code replaced."""
    batch, n = steps.shape[:2]
    rows = {k: slice(j * p.cfg.d, (j + 1) * p.cfg.d) for j, k in enumerate(FUSED_GATES)}
    wx, wh, b = ({k: block[rows[k]] for k in "ifgo"} for block in (p.wx, p.wh, p.b))
    h = np.zeros((batch, p.cfg.d))
    c = np.zeros_like(h)
    xs, gates, cs, hs = [], [], [c], [h]
    for t in range(n):
        x = steps[:, t, :] @ p.emb_w.T + p.emb_b
        i = _sigmoid(x @ wx["i"].T + h @ wh["i"].T + b["i"])
        f = _sigmoid(x @ wx["f"].T + h @ wh["f"].T + b["f"])
        g = np.tanh(x @ wx["g"].T + h @ wh["g"].T + b["g"])
        o = _sigmoid(x @ wx["o"].T + h @ wh["o"].T + b["o"])
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
        dx = sum(da[k] @ wx[k] for k in "ifgo")
        dh = sum(da[k] @ wh[k] for k in "ifgo")
        for k in "ifgo":
            grads["wx"][rows[k]] += da[k].T @ xs[t]
            grads["wh"][rows[k]] += da[k].T @ hs[t]
            grads["b"][rows[k]] += da[k].sum(axis=0)
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

    @pytest.mark.parametrize("batch", [1, 16, 512])
    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_feature_major_layout_matches_reference(self, n, batch):
        # the (features, batch) activations at the batch sizes of a single
        # sample, a training step and an evaluation chunk; relative to each
        # array's largest entry, since sums in another order cancel differently
        params = tiny_params(n)
        rng = np.random.default_rng(40 + n)
        steps, meas = rng.normal(size=(batch, n, 6)), rng.normal(size=(batch, 3))
        upstream = rng.normal(size=batch)
        preds, trace = forward_batch(params, steps, meas)
        grads = backward_batch(params, trace, upstream)
        ref_preds, ref_grads = per_gate_reference(params, steps, meas, upstream)
        assert preds.shape == (batch,)
        assert np.max(np.abs(preds - ref_preds)) <= 1e-12 * np.max(np.abs(ref_preds))
        for name, arr in grads.arrays():
            ref = ref_grads[name]
            assert np.max(np.abs(arr - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_blocks_are_views_tiling_flat_in_order(self):
        params = init_params(TINY, seed=0)
        d = TINY.d
        assert params.wx.shape == params.wh.shape == (4 * d, d) and params.b.shape == (4 * d,)
        sizes = []
        for k, (name, block) in enumerate(params.arrays()):
            assert block.base is params.flat and block.flags.c_contiguous, name
            block[...] = k
            sizes.append(block.size)
        assert np.array_equal(params.flat, np.repeat(np.arange(len(sizes)), sizes))
