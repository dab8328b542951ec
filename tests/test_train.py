import logging
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wafersense import train

from wafersense.nn import ArchConfig, ModelParams, backward_batch, forward_batch, init_params
from wafersense.normgroups import NormalizationGroup, normalize_target
from wafersense.preprocess import Bucket
from wafersense.train import (
    ADAM_BLOCK,
    BETA1,
    BETA2,
    EPS,
    AdamState,
    EarlyStopper,
    EpochStats,
    FLUSH_EVERY,
    RELossConfig,
    TrainConfig,
    TrainBucket,
    TrainingDiverged,
    adam_step,
    dataset_loss,
    fit,
    init_adam_state,
    iter_epoch_batches,
    make_train_buckets,
    re_loss,
    re_scale,
    weighted_l1,
    write_history_csv,
)

from conftest import (TINY_CONFIG, pin_cores, recording_forks, run_cli, write_config,
                      zeros_like_params)

GROUP = NormalizationGroup(("K", "T", "S"), b1=0.0, b2=10.0)


class TestReLoss:
    def test_perfect_prediction(self):
        assert re_loss(19.3292, 19.3292) == 0.0

    def test_denominator_saturates_at_c(self):
        assert re_loss(6.0, 5.0, RELossConfig(c=10.0)) == pytest.approx(0.1)

    def test_denominator_uses_abs_y_when_large(self):
        assert re_loss(90.0, 100.0, RELossConfig(c=10.0)) == pytest.approx(0.1)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError, match="re_loss_c"):
            TrainConfig(re_loss_c=0.0)

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


def raw_bucket(kqis, target=None):
    """A two-step bucket with S = 3, M = 2, type "T" and stage "S"; targets 0, 1, ... by default."""
    n = len(kqis)
    return Bucket(
        n_steps=2,
        features=np.arange(n * (2 * 3 + 2), dtype=np.float32).reshape(n, -1),
        target=np.arange(n, dtype=np.float64) if target is None else np.asarray(target, float),
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


def bucket_losses(preds, targets, cfg: TrainConfig, g: NormalizationGroup = GROUP):
    """Losses and gradients of ``preds`` against the (target, scale) pairs that
    make_train_buckets fixes for ``targets`` under ``cfg``, every sample in group g."""
    tb, = make_train_buckets([raw_bucket([g.key[0]] * len(targets), targets)], 3, 2,
                             {g.key: g}, cfg)
    return weighted_l1(np.asarray(preds, np.float64), tb.target, tb.scale)


def nl1_loss(y_tilde_hat: float, y: float, g: NormalizationGroup) -> float:
    return bucket_losses([y_tilde_hat], [y], TrainConfig(loss="nl1"), g)[0].item()


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
        cfg = TrainConfig(re_loss_c=10.0)
        losses, grads = bucket_losses(preds, targets, cfg)
        for i in range(100):
            assert losses[i] == re_loss(preds[i], targets[i])
        h = 1e-6
        up, _ = bucket_losses(preds + h, targets, cfg)
        assert np.allclose((up - losses) / h, grads, atol=1e-4)

    def test_nl1_matches_scalar(self):
        rng = np.random.default_rng(1)
        preds, targets = rng.normal(0, 1, 50), rng.normal(5, 3, 50)
        cfg = TrainConfig(loss="nl1")
        losses, grads = bucket_losses(preds, targets, cfg)
        for i in range(50):
            assert losses[i] == pytest.approx(abs(preds[i] - normalize_target(targets[i], GROUP)))
        h = 1e-6
        up, _ = bucket_losses(preds + h, targets, cfg)
        assert np.allclose((up - losses) / h, grads, atol=1e-4)


TINY_ARCH = ArchConfig(sensor_dim=4, meas_dim=2, d=4, mlp_hidden=6)


def toy_bucket(n_samples=8, n_steps=2, seed=0, target_fn=None):
    """A bucket trained with the RE loss, c = 10."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0, 1, size=(n_samples, n_steps, 4)).astype(np.float32)
    meas = rng.uniform(0, 1, size=(n_samples, 2)).astype(np.float32)
    if target_fn is None:
        target = 20.0 + 5.0 * steps.mean(axis=(1, 2))
    else:
        target = target_fn(steps, meas)
    target = target.astype(np.float64)
    return TrainBucket(n_steps=n_steps, steps=steps, meas=meas, target=target,
                       scale=re_scale(target, 10.0))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = init_params(TINY_ARCH, seed=0, dtype=np.float64)
        before = params.copy()
        grads = zeros_like_params(params)
        state = init_adam_state(params)
        adam_step(params, grads.flat, state, t=1, cfg=TrainConfig())
        for (_, a), (_, b) in zip(params.arrays(), before.arrays()):
            assert np.array_equal(a, b)

    def test_moments_decay(self):
        params = init_params(TINY_ARCH, seed=0, dtype=np.float64)
        state = init_adam_state(params)
        assert params.names[0] == "emb_w"  # so emb_w leads the flat moments
        emb_w = slice(0, params.emb_w.size)
        state.m[emb_w] = 1.0
        state.v[emb_w] = 1.0
        adam_step(params, zeros_like_params(params).flat, state, t=1, cfg=TrainConfig())
        assert np.allclose(state.m[emb_w], 0.9)
        assert np.allclose(state.v[emb_w], 0.999)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_step_equals_per_array_formula(self, dtype, workers):
        # several blocks plus a ragged tail, split over the workers, checked bit
        # for bit against the per-array update written out in full in the
        # scaled-moment algebra; the last step flushes, with a flushable moment
        # in every block
        params = init_params(ArchConfig(sensor_dim=7, meas_dim=3, d=100, mlp_hidden=300),
                             seed=0, dtype=dtype)
        n_blocks = -(-params.size() // ADAM_BLOCK)
        assert n_blocks >= 3 and params.size() % ADAM_BLOCK
        cfg = TrainConfig(learning_rate=1e-3)
        b1, b2, lr = BETA1, BETA2, cfg.learning_rate
        tiny = np.finfo(dtype).tiny
        m_floor, v_floor = tiny / (lr * (1.0 - b1)), tiny / (1.0 - b2)
        ref, ref_m, ref_v = params.copy(), zeros_like_params(params), zeros_like_params(params)
        state = init_adam_state(params, workers)
        grads = zeros_like_params(params)
        flushed = np.arange(n_blocks) * ADAM_BLOCK + 7
        rng = np.random.default_rng(0)
        with ThreadPoolExecutor(workers) as pool:
            for t in (1, 2, 3, 4, 5, FLUSH_EVERY):
                grads.flat[:] = rng.normal(0.0, 1e-3, size=grads.size())
                grads.flat[rng.random(grads.size()) < 0.1] = 0.0
                if t == FLUSH_EVERY:
                    # after one decay these moments sit below the flush floors
                    grads.flat[flushed] = 0.0
                    for m, v in ((state.m, state.v), (ref_m.flat, ref_v.flat)):
                        m[flushed] = m_floor
                        v[flushed] = v_floor
                adam_step(params, grads.flat, state, t=t, cfg=cfg, pool=pool)
                v_scale = np.sqrt((1.0 - b2 ** t) / (1.0 - b2))
                step = float(lr * (1.0 - b1) / (1.0 - b1 ** t) * v_scale)
                eps = float(EPS * v_scale)
                for name, arr in ref.arrays():
                    g, m, v = getattr(grads, name), getattr(ref_m, name), getattr(ref_v, name)
                    m *= b1
                    m += g
                    v *= b2
                    v += g * g
                    arr -= m / (np.sqrt(v) + eps) * step
                    if t == FLUSH_EVERY:
                        m[np.abs(m) < m_floor] = 0.0
                        v[np.abs(v) < v_floor] = 0.0
                for name, arr in params.arrays():
                    assert arr.dtype == dtype
                    assert np.array_equal(arr, getattr(ref, name)), (t, name)
                m, v = ModelParams(params.cfg, state.m), ModelParams(params.cfg, state.v)
                for name, _ in ref.arrays():
                    assert np.array_equal(getattr(m, name), getattr(ref_m, name)), (t, name)
                    assert np.array_equal(getattr(v, name), getattr(ref_v, name)), (t, name)
        assert not state.m[flushed].any() and not state.v[flushed].any()

    def test_matches_textbook_bias_corrected_adam(self):
        # the scaled moments and folded corrections against Algorithm 1 of
        # Kingma & Ba as printed, in float64
        params = init_params(TINY_ARCH, seed=0, dtype=np.float64)
        cfg = TrainConfig(learning_rate=1e-2)
        b1, b2, lr = BETA1, BETA2, cfg.learning_rate
        state = init_adam_state(params)
        theta, m, v = params.flat.copy(), np.zeros(params.size()), np.zeros(params.size())
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.uniform(-6, 1, params.size())  # gradients over seven decades
        for t in range(1, 51):
            g = rng.normal(size=params.size()) * scales
            adam_step(params, g, state, t=t, cfg=cfg)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1 ** t), v / (1.0 - b2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + EPS)
            # a weight crossing zero has no relative precision; lr bounds one step
            np.testing.assert_allclose(params.flat, theta, rtol=1e-12, atol=1e-12 * lr)
            np.testing.assert_allclose(state.m * (1.0 - b1), m, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(state.v * (1.0 - b2), v, rtol=1e-12, atol=0.0)

    def test_subnormal_moments_flushed_every_flush_steps(self):
        params = init_params(TINY_ARCH, seed=0)
        grads = zeros_like_params(params)
        cfg = TrainConfig()
        tiny = np.finfo(np.float32).tiny
        # the state holds m / (1 - b1) and v / (1 - b2), so the floors scale too
        m_floor = tiny / (cfg.learning_rate * (1.0 - BETA1))
        v_floor = tiny / (1.0 - BETA2)
        # true moments: after one decay the first four are subnormal, the rest
        # normal; as first moments the next two lie in [tiny, tiny / lr), where
        # lr * m is subnormal, so they are flushed too
        values = np.array([tiny / 4, -tiny / 4, tiny, -tiny, 2 * tiny, 1e-35, 1e-30, 0.9],
                          np.float32)
        m_values = values / np.float32(1.0 - BETA1)
        v_values = np.abs(values) / np.float32(1.0 - BETA2)
        assert tiny < values[5] * np.float32(0.9) < tiny / cfg.learning_rate
        for t in (FLUSH_EVERY - 1, FLUSH_EVERY):
            state = init_adam_state(params)
            state.m[: len(values)] = m_values
            state.v[-len(values):] = v_values
            adam_step(params, grads.flat, state, t=t, cfg=cfg)
            m, v = m_values * np.float32(0.9), v_values * np.float32(0.999)
            if t == FLUSH_EVERY:
                m[np.abs(m) < m_floor] = 0.0
                v[np.abs(v) < v_floor] = 0.0
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
            adam_step(params, grads.flat, state, t=t, cfg=cfg)
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


def force_adam_workers(monkeypatch, workers):
    """Make fit split Adam over ``workers`` threads whatever the machine's cores."""
    pin_cores(monkeypatch, workers)
    monkeypatch.setattr(train, "MIN_BLOCKS_PER_WORKER", 1)


@pytest.fixture
def two_cores(monkeypatch):
    """Two cores, so that fit forks its Adam process beside a small model on any machine."""
    pin_cores(monkeypatch, 2)


class TestAdamWorkers:
    def test_worker_count_follows_blocks_and_cores(self, monkeypatch):
        pin_cores(monkeypatch, 2)
        assert train.adam_workers(241_281) == 1  # the small preset on criterion-6 data
        assert train.adam_workers(14_775_297) == 2  # the large preset on train_large_nl1 data
        assert train.adam_workers(1) == 1

    def test_large_preset_files_do_not_depend_on_workers(self, tiny_run, tmp_path,
                                                         monkeypatch, caplog):
        # real threaded products of the large preset run between the parked
        # updates; pooled and serial runs must write the same bytes
        caplog.set_level(logging.INFO, logger=train.__name__)
        cfg = write_config(tmp_path, TINY_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        outputs = []
        for workers in (2, 1):
            force_adam_workers(monkeypatch, workers)
            out = tmp_path / f"workers{workers}" / "model.npz"
            out.parent.mkdir()
            caplog.clear()
            assert run_cli("train", "--config", cfg, "--features", tiny_run["features"],
                           "--out", out, "--arch", "large") == 0
            assert f"adam: {workers} worker thread" in caplog.text
            outputs.append((out.read_bytes(), (out.parent / "model_history.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_many_workers_with_fast_thread_switches_match_serial(self, monkeypatch):
        # more workers than cores, switching threads every microsecond: an
        # update lost or applied twice would break the bit-for-bit match
        monkeypatch.setattr(train, "ADAM_BLOCK", 16)  # 16 blocks for TINY_ARCH
        cfg = TrainConfig(learning_rate=1e-3)
        size = init_params(TINY_ARCH, seed=0).size()
        grad_steps = np.random.default_rng(0).normal(0.0, 1e-3, (40, size)).astype(np.float32)
        results = {}

        def train_steps(workers):
            params = init_params(TINY_ARCH, seed=0)
            state = init_adam_state(params, workers)
            with ThreadPoolExecutor(workers) as pool:
                for t, g in enumerate(grad_steps, start=1):
                    adam_step(params, g, state, t, cfg, pool)
            results[workers] = (params.flat, state.m, state.v)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 8):
                runner = threading.Thread(target=train_steps, args=(workers,))
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert all(np.array_equal(a, b) for a, b in zip(results[1], results[8]))

    @pytest.mark.parametrize("diverge", [False, True])
    def test_pool_threads_do_not_outlive_fit(self, monkeypatch, diverge):
        monkeypatch.setattr(train, "ADAM_BLOCK", 64)  # 4 blocks for TINY_ARCH
        force_adam_workers(monkeypatch, 2)
        during = []

        def counting_adam_step(*args, **kwargs):
            during.append(threading.active_count())
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(train, "adam_step", counting_adam_step)
        val = toy_bucket(seed=9)
        if diverge:
            val.target[0] = np.nan  # epoch 1 trains, then its validation loss is NaN
        before = threading.active_count()
        cfg = TrainConfig(max_epochs=2, patience=5, seed=0, batch_size=4)
        if diverge:
            with pytest.raises(TrainingDiverged, match="validation"):
                fit(TINY_ARCH, [toy_bucket()], [val], cfg)
        else:
            fit(TINY_ARCH, [toy_bucket()], [val], cfg)
        assert max(during) > before  # the pool's threads did run
        assert threading.active_count() == before


@pytest.mark.usefixtures("two_cores")
class TestAdamProcess:
    """fit's forked Adam process, beside a model under MIN_BLOCKS_PER_WORKER blocks on two
    cores: however fit ends, the process is reaped and OpenBLAS gets its thread count back."""

    @pytest.mark.parametrize("ending", ["returned", "diverged", "killed"])
    def test_reaped_and_blas_threads_restored(self, monkeypatch, caplog, ending):
        blas = train._openblas()
        if blas.set_threads is None:
            pytest.skip("numpy's OpenBLAS has no thread-count setter here")
        caplog.set_level(logging.INFO, logger=train.__name__)
        pids, during = recording_forks(monkeypatch), []

        def adam_step_then_kill(params, grad, state, t, cfg, pool=None, start=0):
            adam_step(params, grad, state, t, cfg, pool, start)
            if pids:  # in this process only: the Adam process's copy of pids is empty
                during.append(blas.get_threads())
                if ending == "killed" and t == 3:  # step 1 of epoch 2
                    os.kill(pids[0], signal.SIGKILL)

        def timed_out(signum, frame):
            raise TimeoutError("fit did not end")

        monkeypatch.setattr(train, "adam_step", adam_step_then_kill)
        val = toy_bucket(seed=9)
        if ending == "diverged":
            val.target[0] = np.nan  # epoch 1 trains, then its validation loss is NaN
        cfg = TrainConfig(max_epochs=2, patience=5, seed=0, batch_size=4)
        threads = blas.get_threads()
        previous = signal.signal(signal.SIGALRM, timed_out)
        blas.set_threads(2)
        signal.alarm(60)
        try:
            if ending == "returned":
                _, history = fit(TINY_ARCH, [toy_bucket()], [val], cfg)
                assert len(history) == 2
            else:
                error = TrainingDiverged if ending == "diverged" else RuntimeError
                with pytest.raises(error, match="validation|Adam process") as raised:
                    fit(TINY_ARCH, [toy_bucket()], [val], cfg)
                if ending == "killed":
                    assert f"Adam process (pid {pids[0]})" in str(raised.value)
            assert blas.get_threads() == 2
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            blas.set_threads(threads)
        assert len(pids) == 1 and during and set(during) == {1}
        assert f"Adam process {pids[0]}" in caplog.text and "thread setter found" in caplog.text
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_one_core_fit_forks_nothing_and_matches_the_forked_bytes(monkeypatch):
    # on one core an Adam process would only take turns with fit, so a small model updates in
    # this process; Adam works element by element, so the bytes are the forked run's
    pids, last, runs = recording_forks(monkeypatch), {}, {}

    def recording_adam_step(params, grad, state, t, cfg, pool=None, start=0):
        last.update(params=params, state=state)
        adam_step(params, grad, state, t, cfg, pool, start)

    monkeypatch.setattr(train, "adam_step", recording_adam_step)
    buckets = [toy_bucket(n_samples=9, n_steps=n, seed=n) for n in (1, 2, 3)]
    cfg = TrainConfig(max_epochs=3, batch_size=4, learning_rate=1e-2)
    for cores in (1, 2):  # pids gathers the forks of both runs
        pin_cores(monkeypatch, cores)
        best, history = fit(TINY_ARCH, buckets, [toy_bucket(seed=9)], cfg)
        assert len(pids) == cores - 1 and len(history) == 3
        runs[cores] = [history] + [arr.tobytes() for arr in (
            best.flat, last["params"].flat, last["state"].m, last["state"].v)]
    assert runs[1] == runs[2]


@pytest.mark.usefixtures("two_cores")
class TestFusedAdamStep:
    """fit's Adam on each range the backward pass is done with, against a reference
    loop over the same batches: a whole backward pass, then one update of all of
    ``flat``. Adam works element by element, so no byte may move."""

    @staticmethod
    def fit_against_reference(monkeypatch, arch, buckets, dtype, workers):
        """The (start, stop) of every update fit makes in this process, the number of steps
        and the Adam scratch slabs fit used, after checking that its last weights and moments
        equal the reference loop's, byte for byte. A forked Adam process records its updates
        in its own copy of the recorder, so they are not among those returned."""
        monkeypatch.setattr(train, "adam_workers", lambda n_params: workers)
        monkeypatch.setattr(train, "init_params", lambda a, seed: init_params(a, seed, dtype))
        updates, last = [], {}

        def recording_adam_step(params, grad, state, t, cfg, pool=None, start=0):
            updates.append((start, start + len(grad)))
            last.update(params=params, state=state)
            adam_step(params, grad, state, t, cfg, pool, start)

        monkeypatch.setattr(train, "adam_step", recording_adam_step)
        cfg = TrainConfig(max_epochs=1, batch_size=3, learning_rate=1e-2)
        fit(arch, buckets, buckets[:1], cfg)
        params = init_params(arch, cfg.seed, dtype)
        state = init_adam_state(params, workers)
        batches = iter_epoch_batches(buckets, cfg.batch_size, cfg.seed, epoch=1)
        with ThreadPoolExecutor(workers) as pool:
            for t, (steps, meas, target, scale) in enumerate(batches, start=1):
                preds, trace = forward_batch(params, steps, meas)
                _, dpred = weighted_l1(preds, target, scale)
                grads = backward_batch(params, trace, dpred / len(dpred))
                adam_step(params, grads.flat, state, t, cfg, pool)
        for got, want in ((last["params"].flat, params.flat), (last["state"].m, state.m),
                          (last["state"].v, state.v)):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        return updates, t, len(last["state"].scratch)

    # TINY_ARCH's four ranges, tail first, hold 7, 6, 10 and 11 blocks of 8, 34 in all. Under
    # min_blocks 1 this process updates each range on the pinned workers; under min_blocks
    # 100 the Adam process updates the first three, and this process the last on one slab,
    # whatever adam_workers says: the Adam process has no pool.
    @pytest.mark.parametrize("min_blocks, n_spans", [(1, 4), (100, 1)])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fit_equals_whole_backward_then_one_adam_step(self, monkeypatch, dtype, workers,
                                                          min_blocks, n_spans):
        monkeypatch.setattr(train, "ADAM_BLOCK", 8)
        monkeypatch.setattr(train, "MIN_BLOCKS_PER_WORKER", min_blocks)
        buckets = [toy_bucket(n_samples=7, n_steps=n, seed=n) for n in range(1, 6)]
        updates, n_steps, slabs = self.fit_against_reference(monkeypatch, TINY_ARCH, buckets,
                                                             dtype, workers)
        assert n_steps == 15 and len(updates) == n_spans * n_steps
        assert slabs == (workers if n_spans == 4 else 1)

    def test_threaded_products_between_parked_updates(self, monkeypatch):
        # products big enough for OpenBLAS to thread, with a split update parked
        # between them at every range
        monkeypatch.setattr(train, "MIN_BLOCKS_PER_WORKER", 1)
        arch = ArchConfig(sensor_dim=38, meas_dim=22, d=256, mlp_hidden=512)
        rng = np.random.default_rng(1)
        buckets = [TrainBucket(n, rng.uniform(size=(6, n, 38)).astype(np.float32),
                               rng.uniform(size=(6, 22)).astype(np.float32),
                               np.full(6, 20.0), np.full(6, 20.0)) for n in (1, 3)]
        updates, n_steps, slabs = self.fit_against_reference(monkeypatch, arch, buckets,
                                                             np.float32, 2)
        assert len(updates) == 4 * n_steps and slabs == 2

    @pytest.mark.parametrize("preset, spans", [
        ("small", [(175_232, 241_281), (136_576, 175_232), (70_528, 136_576), (0, 70_528)]),
        ("large", [(10_576_896, 14_775_297), (8_432_640, 10_576_896), (4_234_240, 8_432_640),
                   (0, 4_234_240)]),
    ])
    def test_fit_updates_spans_from_one_gradient_scratch(self, monkeypatch, tmp_path, preset,
                                                         spans):
        # at the criterion-6 widths both presets update four ranges per step. The large one
        # updates them all here, from one scratch as long as the longest range. The small one
        # leaves all but the last to the Adam process, and each range's gradient sits at the
        # range's own offset of one whole gradient, laid out as flat.
        arch = ArchConfig.preset(preset, sensor_dim=38, meas_dim=22)
        record = tmp_path / "updates"

        def recording_adam_step(params, grad, state, t, cfg, pool=None, start=0):
            with open(record, "a") as fh:  # appended to by both processes
                fh.write(f"{os.getpid()} {start} {start + len(grad)} {grad.ctypes.data} "
                         f"{grad.itemsize} {grad.base.size}\n")
            adam_step(params, grad, state, t, cfg, pool, start)

        monkeypatch.setattr(train, "adam_step", recording_adam_step)
        rng = np.random.default_rng(0)
        bucket = TrainBucket(1, rng.uniform(size=(2, 1, 38)).astype(np.float32),
                             rng.uniform(size=(2, 22)).astype(np.float32),
                             np.array([20.0, 21.0]), np.array([20.0, 21.0]))
        fit(arch, [bucket], [bucket], TrainConfig(max_epochs=1))
        rows = sorted((tuple(map(int, line.split())) for line in record.read_text().splitlines()),
                      key=lambda row: -row[1])
        assert [(start, stop) for _, start, stop, *_ in rows] == spans
        here = [pid == os.getpid() for pid, *_ in rows]
        if preset == "large":
            assert all(here)
            assert len({address for _, _, _, address, _, _ in rows}) == 1
            assert {size for *_, size in rows} == {max(stop - start for start, stop in spans)}
        else:
            assert here == [False, False, False, True]
            assert len({pid for pid, *_ in rows}) == 2
            assert len({address - start * itemsize
                        for _, start, _, address, itemsize, _ in rows}) == 1


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
        got = dataset_loss(params, [val_bucket])
        assert got == pytest.approx(best, rel=1e-6)

    def test_returned_params_share_no_memory_with_trained_ones(self, monkeypatch):
        trained = []

        def init_and_keep(*args):
            trained.append(init_params(*args))
            return trained[-1]

        monkeypatch.setattr(train, "init_params", init_and_keep)
        cfg = TrainConfig(max_epochs=4, patience=4, seed=1, batch_size=4)
        params, history = fit(TINY_ARCH, [toy_bucket(n_samples=16, seed=5)],
                              [toy_bucket(n_samples=8, seed=6)], cfg)
        assert any(h.is_best for h in history[1:])  # the best buffer was overwritten
        assert not np.shares_memory(params.flat, trained[0].flat)

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
        for steps, meas, target, scale in batches:
            assert steps.shape[1] in (2, 3)
            assert len(steps) <= 2
        total = sum(len(b[0]) for b in batches)
        assert total == 8
        again = list(iter_epoch_batches(buckets, batch_size=2, seed=0, epoch=1))
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(batches, again))
        other_epoch = list(iter_epoch_batches(buckets, batch_size=2, seed=0, epoch=2))
        assert not all(np.array_equal(a[0], b[0]) for a, b in zip(batches, other_epoch))


class TestMakeTrainBuckets:
    def test_nl1_excludes_groupless_samples(self):
        bucket = raw_bucket(["K", "K", "UNGROUPED"], target=[5.0, 2.5, 1.0])
        groups = {("K", "T", "S"): GROUP}
        out = make_train_buckets([bucket], 3, 2, groups, TrainConfig(loss="nl1"))
        assert len(out) == 1 and len(out[0]) == 2
        assert np.array_equal(out[0].target, [0.5, 0.25])  # (y - b1) / (b2 - b1)
        assert np.array_equal(out[0].scale, [1.0, 1.0])
        assert np.array_equal(out[0].steps[1].reshape(-1), np.arange(8, 14, dtype=np.float32))

    def test_re_keeps_groupless_samples(self, monkeypatch):
        def no_lookup(*args):
            raise AssertionError("the RE loss reads no normalization group")

        monkeypatch.setattr(train, "group_bounds", no_lookup)
        bucket = raw_bucket(["K", "UNGROUPED", "K"], target=[5.0, -25.0, 12.5])
        out = make_train_buckets([bucket], 3, 2, {("K", "T", "S"): GROUP},
                                 TrainConfig(re_loss_c=10.0))
        assert len(out[0]) == 3
        assert np.array_equal(out[0].target, [5.0, -25.0, 12.5])
        assert np.array_equal(out[0].scale, [10.0, 25.0, 12.5])  # max(|y|, c)

    def test_features_unjoined_to_steps_and_meas(self):
        bucket = raw_bucket(["K"])
        out = make_train_buckets([bucket], 3, 2, {}, TrainConfig())
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


def test_failed_history_write_keeps_earlier_file(tmp_path):
    class Unprintable(float):
        def __repr__(self):
            raise OSError("disk full")

    path = tmp_path / "history.csv"
    write_history_csv(path, [EpochStats(1, 1.0, 2.0, True)])
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        write_history_csv(path, [EpochStats(1, 1.0, 2.0, True),
                                 EpochStats(2, Unprintable(0.5), 2.5, False)])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]
