import numpy as np
import pytest
from hypothesis import given, strategies as st

from wafersense.nn import ArchConfig, ModelParams, init_params, zeros_like_params
from wafersense.normgroups import NormalizationGroup
from wafersense.preprocess import Bucket
from wafersense.train import (
    ADAM_BLOCK,
    AdamState,
    EarlyStopper,
    EpochStats,
    FLUSH_EVERY,
    Nl1LossFn,
    RELossConfig,
    ReLossFn,
    TrainConfig,
    TrainBucket,
    TrainingDiverged,
    adam_step,
    dataset_loss,
    fit,
    init_adam_state,
    iter_epoch_batches,
    make_train_buckets,
    nl1_loss,
    re_loss,
    write_history_csv,
)

GROUP = NormalizationGroup(("K", "T", "S"), b1=0.0, b2=10.0)


class TestReLoss:
    def test_perfect_prediction(self):
        assert re_loss(19.3292, 19.3292) == 0.0

    def test_denominator_saturates_at_c(self):
        assert re_loss(6.0, 5.0, RELossConfig(c=10.0)) == pytest.approx(0.1)

    def test_denominator_uses_abs_y_when_large(self):
        assert re_loss(90.0, 100.0, RELossConfig(c=10.0)) == pytest.approx(0.1)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            RELossConfig(c=0.0)

    @given(st.floats(-500, 500), st.floats(-500, 500))
    def test_piecewise_identity(self, y, y_hat):
        c = 10.0
        loss = re_loss(y_hat, y, RELossConfig(c=c))
        eps = abs(y_hat - y)
        if abs(y) >= c:
            assert loss == eps / abs(y)  # equals the relative error
        else:
            assert loss == eps / c

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
    def test_convex_in_prediction(self, y, a, b):
        mid = re_loss((a + b) / 2, y)
        assert mid <= (re_loss(a, y) + re_loss(b, y)) / 2 + 1e-12


class TestNl1Loss:
    def test_perfect_prediction(self):
        assert nl1_loss(0.5, 5.0, GROUP) == 0.0

    def test_half_interval_off(self):
        assert nl1_loss(1.0, 5.0, GROUP) == pytest.approx(0.5)

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-50, 50))
    def test_shift_invariance(self, y, y_tilde_hat, shift):
        g = NormalizationGroup(("K", "T", "S"), b1=1.0, b2=4.0)
        g_shifted = NormalizationGroup(("K", "T", "S"), b1=1.0 + shift, b2=4.0 + shift)
        a = nl1_loss(y_tilde_hat, y, g)
        b = nl1_loss(y_tilde_hat, y + shift, g_shifted)
        assert a == pytest.approx(b, abs=1e-6)

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20))
    def test_convex_in_prediction(self, y, a, b):
        mid = nl1_loss((a + b) / 2, y, GROUP)
        assert mid <= (nl1_loss(a, y, GROUP) + nl1_loss(b, y, GROUP)) / 2 + 1e-12


class TestVectorizedLosses:
    def test_re_matches_scalar(self):
        rng = np.random.default_rng(0)
        preds, targets = rng.normal(0, 50, 100), rng.normal(0, 50, 100)
        losses, grads = ReLossFn(10.0).values_and_grads(preds, targets, None, None)
        for i in range(100):
            assert losses[i] == pytest.approx(re_loss(preds[i], targets[i]))
        h = 1e-6
        up, _ = ReLossFn(10.0).values_and_grads(preds + h, targets, None, None)
        assert np.allclose((up - losses) / h, grads, atol=1e-4)

    def test_nl1_matches_scalar(self):
        rng = np.random.default_rng(1)
        preds, targets = rng.normal(0, 1, 50), rng.normal(5, 3, 50)
        b1, b2 = np.zeros(50), np.full(50, 10.0)
        losses, _ = Nl1LossFn().values_and_grads(preds, targets, b1, b2)
        for i in range(50):
            assert losses[i] == pytest.approx(nl1_loss(preds[i], targets[i], GROUP))


TINY_ARCH = ArchConfig(sensor_dim=4, meas_dim=2, d=4, mlp_hidden=6)


def toy_bucket(n_samples=8, n_steps=2, seed=0, target_fn=None, with_groups=True):
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0, 1, size=(n_samples, n_steps, 4)).astype(np.float32)
    meas = rng.uniform(0, 1, size=(n_samples, 2)).astype(np.float32)
    if target_fn is None:
        target = 20.0 + 5.0 * steps.mean(axis=(1, 2))
    else:
        target = target_fn(steps, meas)
    b = np.zeros(n_samples) if with_groups else np.full(n_samples, np.nan)
    return TrainBucket(n_steps=n_steps, steps=steps, meas=meas,
                       target=target.astype(np.float64), b1=b, b2=b + 30.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = init_params(TINY_ARCH, seed=0, dtype=np.float64)
        before = params.copy()
        grads = zeros_like_params(params)
        state = init_adam_state(params)
        adam_step(params, grads, state, t=1, cfg=TrainConfig())
        for (_, a), (_, b) in zip(params.arrays(), before.arrays()):
            assert np.array_equal(a, b)

    def test_moments_decay(self):
        params = init_params(TINY_ARCH, seed=0, dtype=np.float64)
        state = init_adam_state(params)
        assert params.names[0] == "emb_w"  # so emb_w leads the flat moments
        emb_w = slice(0, params.emb_w.size)
        state.m[emb_w] = 1.0
        state.v[emb_w] = 1.0
        adam_step(params, zeros_like_params(params), state, t=1, cfg=TrainConfig())
        assert np.allclose(state.m[emb_w], 0.9)
        assert np.allclose(state.v[emb_w], 0.999)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_step_equals_per_array_formula(self, dtype):
        # several blocks plus a ragged tail, checked bit for bit against the
        # per-array update written out in full
        params = init_params(ArchConfig(sensor_dim=7, meas_dim=3, d=100, mlp_hidden=300),
                             seed=0, dtype=dtype)
        assert params.size() > 2 * ADAM_BLOCK and params.size() % ADAM_BLOCK
        cfg = TrainConfig(learning_rate=1e-3)
        ref = {name: arr.copy() for name, arr in params.arrays()}
        ref_m = {name: np.zeros_like(arr) for name, arr in ref.items()}
        ref_v = {name: np.zeros_like(arr) for name, arr in ref.items()}
        state = init_adam_state(params)
        grads = zeros_like_params(params)
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            grads.flat[:] = rng.normal(0.0, 1e-3, size=grads.size())
            grads.flat[rng.random(grads.size()) < 0.1] = 0.0
            adam_step(params, grads, state, t=t, cfg=cfg)
            b1, b2 = cfg.beta1, cfg.beta2
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for name, arr in ref.items():
                g, m, v = getattr(grads, name), ref_m[name], ref_v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                arr -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            for name, arr in params.arrays():
                assert arr.dtype == dtype
                assert np.array_equal(arr, ref[name]), (t, name)
            m, v = ModelParams(params.cfg, state.m), ModelParams(params.cfg, state.v)
            for name in ref:
                assert np.array_equal(getattr(m, name), ref_m[name]), (t, name)
                assert np.array_equal(getattr(v, name), ref_v[name]), (t, name)

    def test_subnormal_moments_flushed_every_flush_steps(self):
        params = init_params(TINY_ARCH, seed=0)
        grads = zeros_like_params(params)
        tiny = np.finfo(np.float32).tiny
        m_floor = tiny / TrainConfig().learning_rate
        # after one decay the first four are subnormal, the rest normal; as
        # first moments the next two lie in [tiny, tiny / lr), where lr * m is
        # subnormal, so they are flushed too
        values = np.array([tiny / 4, -tiny / 4, tiny, -tiny, 2 * tiny, 1e-35, 1e-30, 0.9],
                          np.float32)
        assert tiny < values[5] * np.float32(0.9) < m_floor
        for t in (FLUSH_EVERY - 1, FLUSH_EVERY):
            state = init_adam_state(params)
            state.m[: len(values)] = values
            state.v[-len(values):] = np.abs(values)
            adam_step(params, grads, state, t=t, cfg=TrainConfig())
            m, v = values * np.float32(0.9), np.abs(values) * np.float32(0.999)
            if t == FLUSH_EVERY:
                m[np.abs(m) < m_floor] = 0.0
                v[np.abs(v) < tiny] = 0.0
            assert np.array_equal(state.m[: len(values)], m)
            assert np.array_equal(state.v[-len(values):], v)
            assert np.count_nonzero(state.m[: len(values)] == 0) == (6 if t == FLUSH_EVERY else 0)
            assert np.count_nonzero(state.v[-len(values):] == 0) == (4 if t == FLUSH_EVERY else 0)

    def test_constant_gradient_step_size_approaches_lr(self):
        # Adam is scale invariant: with a constant gradient the per-coordinate
        # step magnitude converges to the learning rate
        params = init_params(TINY_ARCH, seed=0, dtype=np.float64)
        grads = zeros_like_params(params)
        grads.emb_w[:] = 0.37
        state = init_adam_state(params)
        cfg = TrainConfig(learning_rate=1e-3)
        prev = params.emb_w.copy()
        for t in range(1, 1001):
            adam_step(params, grads, state, t=t, cfg=cfg)
            if t > 5:
                step = np.abs(params.emb_w - prev)
                assert np.allclose(step, cfg.learning_rate, rtol=1e-5)
            prev = params.emb_w.copy()

    def test_deterministic_trajectories(self):
        buckets = [toy_bucket()]
        cfg = TrainConfig(max_epochs=5, patience=10, seed=4, batch_size=4)
        p1, h1 = fit(TINY_ARCH, buckets, [toy_bucket(seed=9)], cfg)
        p2, h2 = fit(TINY_ARCH, buckets, [toy_bucket(seed=9)], cfg)
        assert h1 == h2
        for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)


class TestEarlyStopper:
    def test_spec_sequence(self):
        # [5, 4, 3, 3, 3] with patience 2: stop after two flat epochs,
        # best is the third epoch
        stopper = EarlyStopper(patience=2)
        results = [stopper.update(v) for v in [5.0, 4.0, 3.0, 3.0, 3.0]]
        assert [r[0] for r in results] == [True, True, True, False, False]
        assert [r[1] for r in results] == [False, False, False, False, True]
        assert stopper.best == 3.0

    def test_strictness(self):
        stopper = EarlyStopper(patience=1)
        assert stopper.update(1.0) == (True, False)
        assert stopper.update(1.0) == (False, True)  # equal is not improvement


class TestFit:
    def test_overfits_tiny_dataset(self):
        bucket = toy_bucket(n_samples=8, seed=3)
        cfg = TrainConfig(max_epochs=200, patience=200, seed=0, batch_size=8,
                          learning_rate=3e-3)
        _, history = fit(TINY_ARCH, [bucket], [bucket], cfg)
        assert history[-1].train_loss <= 0.5 * history[0].train_loss

    def test_returns_best_epoch_params(self):
        train_bucket = toy_bucket(n_samples=16, seed=5)
        val_bucket = toy_bucket(n_samples=8, seed=6)
        cfg = TrainConfig(max_epochs=12, patience=4, seed=1, batch_size=4)
        params, history = fit(TINY_ARCH, [train_bucket], [val_bucket], cfg)
        best = min(h.val_loss for h in history)
        assert [h.val_loss for h in history if h.is_best][-1] == best
        got = dataset_loss(params, [val_bucket], ReLossFn(10.0))
        assert got == pytest.approx(best, rel=1e-6)

    def test_max_epochs_reached_returns_best_so_far(self):
        cfg = TrainConfig(max_epochs=3, patience=50, seed=0, batch_size=4)
        _, history = fit(TINY_ARCH, [toy_bucket()], [toy_bucket(seed=9)], cfg)
        assert len(history) == 3

    def test_divergence_aborts_with_diagnostic(self):
        bucket = toy_bucket()
        bucket.target[0] = np.nan
        cfg = TrainConfig(max_epochs=2, patience=5, seed=0)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            fit(TINY_ARCH, [bucket], [bucket], cfg)

    def test_empty_sets_rejected(self):
        with pytest.raises(TrainingDiverged):
            fit(TINY_ARCH, [], [toy_bucket()], TrainConfig())

    def test_epoch_batches_respect_buckets_and_shuffle(self):
        buckets = [toy_bucket(n_samples=5, n_steps=2), toy_bucket(n_samples=3, n_steps=3)]
        batches = list(iter_epoch_batches(buckets, batch_size=2, seed=0, epoch=1))
        for steps, meas, target, b1, b2 in batches:
            assert steps.shape[1] in (2, 3)
            assert len(steps) <= 2
        total = sum(len(b[0]) for b in batches)
        assert total == 8
        again = list(iter_epoch_batches(buckets, batch_size=2, seed=0, epoch=1))
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(batches, again))
        other_epoch = list(iter_epoch_batches(buckets, batch_size=2, seed=0, epoch=2))
        assert not all(np.array_equal(a[0], b[0]) for a, b in zip(batches, other_epoch))


class TestMakeTrainBuckets:
    def make_raw_bucket(self, kqis):
        n = len(kqis)
        return Bucket(
            n_steps=2,
            features=np.arange(n * (2 * 3 + 2), dtype=np.float32).reshape(n, -1),
            target=np.arange(n, dtype=np.float64),
            kqi=np.array(kqis),
            mtype=np.array(["T"] * n),
            stage=np.array(["S"] * n),
            passfail=np.array(["PASS"] * n),
            inspection=np.array(["NONE"] * n),
            lcl=np.zeros(n),
            ucl=np.ones(n),
            limit_source=np.array(["TARG"] * n),
            processing_id=np.array(["P"] * n),
            product_id=np.array([f"W{i}" for i in range(n)]),
        )

    def test_nl1_excludes_groupless_samples(self):
        bucket = self.make_raw_bucket(["K", "K", "UNGROUPED"])
        groups = {("K", "T", "S"): GROUP}
        out = make_train_buckets([bucket], 3, 2, groups, require_groups=True)
        assert len(out) == 1 and len(out[0]) == 2
        assert np.all(out[0].b2 == 10.0)

    def test_re_keeps_groupless_samples(self):
        bucket = self.make_raw_bucket(["K", "UNGROUPED"])
        out = make_train_buckets([bucket], 3, 2, {("K", "T", "S"): GROUP},
                                 require_groups=False)
        assert len(out[0]) == 2
        assert np.isnan(out[0].b1[1])

    def test_features_unjoined_to_steps_and_meas(self):
        bucket = self.make_raw_bucket(["K"])
        out = make_train_buckets([bucket], 3, 2, {}, require_groups=False)
        assert out[0].steps.shape == (1, 2, 3)
        assert out[0].meas.shape == (1, 2)
        assert np.array_equal(out[0].steps.reshape(-1), np.arange(6, dtype=np.float32))


def test_history_csv(tmp_path):
    history = [EpochStats(1, 1.0, 2.0, True), EpochStats(2, 0.5, 2.5, False)]
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,is_best"
    assert lines[1] == "1,1.0,2.0,1"
    assert lines[2] == "2,0.5,2.5,0"
