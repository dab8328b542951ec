"""Training: the loss, Adam, and the epoch loop.

Both losses are one weighted L1, |prediction - target| / scale, with a
per-sample (target, scale) fixed when the train buckets are built. The
relative-error loss trains the model directly on the raw target scale; the
normalized L1 loss trains it on the per-group (b1, b2) scale, so predictions
from an NL1 model must be mapped back before evaluation.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import host
from .atomic import write_csv
from .nn import ArchConfig, ModelParams, backward_batch, backward_ranges, forward_batch, init_params
from .normgroups import GroupKey, NormalizationGroup, group_bounds, normalize_target
from .preprocess import Bucket, unjoin

log = logging.getLogger(__name__)

LOSS_RE = "re"
LOSS_NL1 = "nl1"
LOSSES = (LOSS_RE, LOSS_NL1)


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    loss: str = LOSS_RE
    learning_rate: float = 1e-4
    batch_size: int = 16
    patience: int = 10
    max_epochs: int = 200
    seed: int = 0
    re_loss_c: float = 10.0

    def __post_init__(self) -> None:
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be '{LOSS_RE}' or '{LOSS_NL1}', got {self.loss!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (math.isfinite(self.re_loss_c) and self.re_loss_c > 0):
            raise ValueError(f"re_loss_c must be > 0 and finite, got {self.re_loss_c}")


@dataclass(frozen=True)
class RELossConfig:
    """The settings argument of re_loss, e.g. RELossConfig(c=10.0)."""

    c: float = 10.0


def weighted_l1(preds, target, scale):
    """Per-sample |preds - target| / scale and its derivative in the prediction."""
    diff = preds - target
    return np.abs(diff) / scale, np.sign(diff) / scale


def re_scale(y, c: float):
    """max(|y|, c): the relative-error divisor, saturated at c."""
    return np.maximum(np.abs(y), c)


def re_loss(y_hat: float, y: float, cfg: RELossConfig = RELossConfig()) -> float:
    """|y_hat - y| / max(|y|, c): relative error with a saturated denominator."""
    return weighted_l1(y_hat, y, re_scale(y, cfg.c))[0].item()


@dataclass
class TrainBucket:
    """Model-ready view of one n_steps bucket; the loss of sample i is
    |prediction - target[i]| / scale[i]."""

    n_steps: int
    steps: np.ndarray   # (N, n_steps, S)
    meas: np.ndarray    # (N, M)
    target: np.ndarray  # (N,) y for RE, (y - b1) / (b2 - b1) for NL1
    scale: np.ndarray   # (N,) max(|y|, c) for RE, 1.0 for NL1

    def __len__(self) -> int:
        return len(self.target)


def make_train_buckets(
    buckets: list[Bucket],
    s_width: int,
    m_width: int,
    groups: dict[GroupKey, NormalizationGroup],
    cfg: TrainConfig,
) -> list[TrainBucket]:
    """Unjoin bucket features and fix each sample's (target, scale) for ``cfg.loss``.

    NL1 normalizes each target with its (kqi, type, stage) group and excludes
    the samples that have none; RE keeps every sample and reads no group.
    """
    out = []
    excluded = 0
    for bucket in buckets:
        steps, meas = unjoin(bucket.features, bucket.n_steps, s_width, m_width)
        if cfg.loss == LOSS_RE:
            keep = slice(None)
            target = bucket.target
            scale = re_scale(target, cfg.re_loss_c)
        else:
            bounds = group_bounds(groups, bucket.kqi, bucket.mtype, bucket.stage)
            keep = np.nonzero(~np.isnan(bounds.b1))[0]
            excluded += len(bucket) - len(keep)
            target = normalize_target(bucket.target, bounds)[keep]
            scale = np.ones(len(keep))
        if len(target):
            out.append(TrainBucket(bucket.n_steps, steps[keep], meas[keep], target, scale))
    if excluded:
        log.info("excluded %d samples with no normalization group", excluded)
    return out


# Elements per block of the Adam update: a block's operands and the two
# scratch rows stay in cache (64k measured fastest of 4k to 256k).
ADAM_BLOCK = 65_536
# Adam's decay rates and epsilon (Kingma & Ba, arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Fewest blocks per Adam worker thread. A smaller update runs serially: the small preset's
# 4 blocks gain nothing from a second thread, but a forked Adam process on a second core
# overlaps them with the backward pass; the large preset's 226 blocks split over two cores.
MIN_BLOCKS_PER_WORKER = 16
# Every this many steps, moments whose update product would be subnormal are
# zeroed: a zero gradient decays them towards subnormals, which slow every step.
# Such an update is below ~1e-30, far below one ulp of any weight.
FLUSH_EVERY = 32


@dataclass
class AdamState:
    m: np.ndarray        # m / (1 - BETA1), one entry per element of ModelParams.flat
    v: np.ndarray        # v / (1 - BETA2)
    scratch: np.ndarray  # (workers, 2, block) work space of adam_step, one slab per worker


def init_adam_state(params: ModelParams, workers: int = 1) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat),
                     scratch=np.empty((workers, 2, min(ADAM_BLOCK, params.size())),
                                      params.dtype))


def adam_workers(n_params: int) -> int:
    """Threads for the Adam update of ``n_params`` elements: one per core this
    process may run on, each with at least MIN_BLOCKS_PER_WORKER blocks."""
    return max(1, min(host.cores(), -(-n_params // ADAM_BLOCK) // MIN_BLOCKS_PER_WORKER))


@functools.cache
def _openblas() -> SimpleNamespace:
    """The OpenBLAS numpy loaded, as ctypes functions or None: ``park`` (its
    ``blas_thread_shutdown_``), ``get_threads`` and ``set_threads``. After a threaded product
    its idle workers spin for a long while and hold the other cores; parking frees them."""
    blas = SimpleNamespace(park=None, get_threads=None, set_threads=None)
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in map(ctypes.CDLL, map(str, sorted(libs.glob("*openblas*")))):
        for name, args, symbol in [("park", [], "blas_thread_shutdown_")] + [
                (f"{op}_threads", args, f"{pre}openblas_{op}_num_threads{suf}")
                for op, args in (("get", []), ("set", [ctypes.c_int]))
                for pre, suf in (("scipy_", "64_"), ("", "64_"), ("", ""))]:
            if getattr(blas, name) is None and (fn := getattr(lib, symbol, None)) is not None:
                fn.argtypes, fn.restype = args, None if args else ctypes.c_int
                setattr(blas, name, fn)
    return blas


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState, t: int,
              cfg: TrainConfig, pool: ThreadPoolExecutor | None = None, start: int = 0):
    """Standard Adam update with bias correction (Kingma & Ba, arXiv:1412.6980) of
    ``flat[start:start + len(grad)]``, whose gradient is ``grad``, in 10 in-place passes
    per block; mutates params and state. The moments are kept as m / (1 - b1) and
    v / (1 - b2); the bias corrections fold into step and eps. ``fit`` runs it on each
    of the four ranges the backward pass is done with, every step.

    The blocks are split into one contiguous run per scratch slab of ``state``.
    With more than one slab, ``pool`` updates the runs in parallel, after
    OpenBLAS's spinning threads are parked. Every element gets the same
    arithmetic whatever the range or split, so neither changes a byte.
    """
    b1, b2, lr = BETA1, BETA2, cfg.learning_rate
    v_scale = float(np.sqrt((1.0 - b2 ** t) / (1.0 - b2)))
    # Python floats, so the float32 loops stay float32 (NEP 50)
    step, eps = lr * (1.0 - b1) / (1.0 - b1 ** t) * v_scale, EPS * v_scale
    flush, tiny = t % FLUSH_EVERY == 0, np.finfo(params.dtype).tiny
    m_floor, v_floor = tiny / (lr * (1.0 - b1)), tiny / (1.0 - b2)
    n_blocks, workers = -(-len(grad) // ADAM_BLOCK), len(state.scratch)
    flat, moment1, moment2 = (a[start:start + len(grad)] for a in (params.flat, state.m, state.v))

    def update(worker: int) -> None:
        for block in range(worker * n_blocks // workers, (worker + 1) * n_blocks // workers):
            sl = slice(block * ADAM_BLOCK, (block + 1) * ADAM_BLOCK)
            p, g, m, v = flat[sl], grad[sl], moment1[sl], moment2[sl]
            x, y = state.scratch[worker, :, : len(p)]
            m *= b1
            m += g
            v *= b2
            v += np.multiply(g, g, out=x)
            np.sqrt(v, out=x)
            x += eps
            np.divide(m, x, out=y)
            y *= step
            p -= y
            if flush:
                m[np.abs(m, out=x) < m_floor] = 0.0
                v[np.abs(v, out=x) < v_floor] = 0.0

    if workers == 1:
        return update(0)
    if _openblas().park is not None:
        _openblas().park()
    list(pool.map(update, range(workers)))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    is_best: bool


class EarlyStopper:
    """Stop after ``patience`` consecutive epochs without a strictly lower
    validation loss than the best seen so far."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, val_loss: float) -> tuple[bool, bool]:
        """Record one epoch; returns (is_best, should_stop)."""
        is_best = val_loss < self.best
        if is_best:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return is_best, self.bad_epochs >= self.patience


def iter_epoch_batches(buckets: list[TrainBucket], batch_size: int, seed: int, epoch: int):
    """Deterministic per-epoch batches, homogeneous in n_steps.

    Samples are reshuffled within their bucket only; the resulting batch
    order is shuffled across buckets. Both draws derive from (seed, epoch).
    """
    rng = np.random.default_rng([seed, epoch])
    slots = []
    for b_idx, bucket in enumerate(buckets):
        order = rng.permutation(len(bucket))
        for start in range(0, len(order), batch_size):
            slots.append((b_idx, order[start : start + batch_size]))
    for k in rng.permutation(len(slots)):
        b_idx, idx = slots[k]
        bucket = buckets[b_idx]
        yield bucket.steps[idx], bucket.meas[idx], bucket.target[idx], bucket.scale[idx]


def dataset_loss(params: ModelParams, buckets: list[TrainBucket]) -> float:
    """Sample-weighted mean loss over all buckets."""
    total, count = 0.0, 0
    for bucket in buckets:
        preds, _ = forward_batch(params, bucket.steps, bucket.meas, want_trace=False)
        losses, _ = weighted_l1(preds, bucket.target, bucket.scale)
        total += float(losses.sum())
        count += len(losses)
    if count == 0:
        raise TrainingDiverged("no samples to evaluate")
    return total / count


def _serve_adam(params: ModelParams, grad: np.ndarray, state: AdamState, cfg: TrainConfig,
                reader: int, requests: int, acker: int) -> None:
    """fit's Adam process: updates each requested (t, start, stop) range, answering one byte."""
    os.close(requests)  # fit's end: if fit's process dies, the pipe closes and this returns
    while request := os.read(reader, 24):
        t, start, stop = map(int, np.frombuffer(request, np.int64))
        adam_step(params, grad[start:stop], state, t, cfg, start=start)
        os.write(acker, b"\1")


def fit(arch: ArchConfig, train_buckets: list[TrainBucket],
        val_buckets: list[TrainBucket], cfg: TrainConfig):
    """Train with Adam and early stopping; return (best params, history).

    Stops once ``patience`` consecutive epochs bring no strictly lower
    validation loss, or at max_epochs. The returned parameters are the
    ones from the best-validation epoch. Adam runs on each range backward_batch is done
    with. On 2+ cores under MIN_BLOCKS_PER_WORKER blocks (the small preset), at one OpenBLAS
    thread, a forked Adam process updates all ranges but the last from one shared map of the
    weights, a whole gradient and the moments. Else the gradient is one longest-range scratch.
    """
    if not train_buckets or not val_buckets:
        raise TrainingDiverged("need at least one train and one val batch")
    params = init_params(arch, cfg.seed)
    forked = -(-params.size() // ADAM_BLOCK) < MIN_BLOCKS_PER_WORKER and host.cores() > 1
    blas = _openblas()
    workers = 1 if forked else adam_workers(params.size())  # the Adam process has no pool
    state = init_adam_state(params, workers)
    if forked:
        shared = np.frombuffer(mmap.mmap(-1, 4 * params.flat.nbytes), params.dtype).reshape(4, -1)
        np.copyto(shared[0], params.flat)
        params, grad, state.m, state.v = ModelParams(arch, shared[0]), *shared[1:]
        grads = ModelParams(arch, grad)
    else:
        ranges = backward_ranges(params)
        grad = np.empty(max(span.stop - span.start for span in ranges), params.dtype)
        grads = SimpleNamespace()  # each block's gradient, placed in grad as in its range
        for (name, view), start in zip(params.arrays(), params.starts.values()):
            lo = start - max(span.start for span in ranges if span.start <= start)
            setattr(grads, name, grad[lo:lo + view.size].reshape(view.shape))
    threads = blas.get_threads() if forked and blas.get_threads and blas.set_threads else 0
    fds, pending, t = [], 0, 0

    def update(span: slice) -> None:
        nonlocal pending
        if adam and span.start:  # not the last range, which stays here while hot in cache
            os.write(requests, np.array([t, span.start, span.stop], np.int64).tobytes())
            pending += 1
        else:
            adam_step(params, grad[:span.stop - span.start], state, t, cfg, pool, span.start)

    def wait() -> None:  # until the Adam process has applied every range sent to it
        nonlocal pending
        if pending and len(acks.read(pending)) < pending:
            adam()  # raises the Adam process's error, or names its pid if it was killed
            raise RuntimeError(f"the Adam process (pid {adam.pid}) stopped answering")
        pending = 0

    best_params = params.copy()  # the one buffer the best epoch's weights are copied into
    stopper = EarlyStopper(cfg.patience)
    history: list[EpochStats] = []
    try:
        if threads:  # OpenBLAS's spinning workers would take the Adam process's core
            blas.set_threads(1)
        if forked:  # the request reader stays open here, so only wait() sees a dead Adam process
            reader, requests, ack_reader, acker = fds = [*os.pipe(), *os.pipe()]
            acks = open(ack_reader, "rb", closefd=False)  # its read(n) waits for n acks
        with (host.forked(_serve_adam, params, grad, state, cfg, reader, requests, acker)
              if forked else nullcontext() as adam,
              ThreadPoolExecutor(workers, thread_name_prefix="adam") as pool):
            if adam:
                os.close(fds.pop())  # the Adam process's end: its exit closes the ack pipe
            log.info("adam: %d worker thread%s, Adam process %s, OpenBLAS park hook %s, "
                     "thread setter %s", workers, "" if workers == 1 else "s",
                     adam.pid if adam else "not used",
                     *("found" if fn else "not found" for fn in (blas.park, blas.set_threads)))
            for epoch in range(1, cfg.max_epochs + 1):
                train_sum, train_count = 0.0, 0
                for steps, meas, target, scale in iter_epoch_batches(
                    train_buckets, cfg.batch_size, cfg.seed, epoch
                ):
                    wait()
                    preds, trace = forward_batch(params, steps, meas)
                    losses, dpred = weighted_l1(preds, target, scale)
                    if not np.all(np.isfinite(losses)):
                        raise TrainingDiverged(
                            f"non-finite training loss at epoch {epoch} (step {t + 1})"
                        )
                    t += 1
                    upstream = dpred / len(losses)  # batch loss is the sample mean
                    backward_batch(params, trace, upstream, out=grads, update=update)
                    train_sum += float(losses.sum())
                    train_count += len(losses)
                wait()
                val_loss = dataset_loss(params, val_buckets)
                if not np.isfinite(val_loss):
                    raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
                is_best, should_stop = stopper.update(val_loss)
                if is_best:
                    np.copyto(best_params.flat, params.flat)
                history.append(EpochStats(epoch, train_sum / train_count, val_loss, is_best))
                log.info("epoch %d: train %.6f val %.6f%s", epoch, train_sum / train_count,
                         val_loss, " *" if is_best else "")
                if should_stop:
                    break
    finally:
        for fd in fds:
            os.close(fd)
        if threads:
            blas.set_threads(threads)
    return best_params, history


def write_history_csv(path, history: list[EpochStats]) -> None:
    write_csv(path, ["epoch", "train_loss", "val_loss", "is_best"],
              ([row.epoch, repr(row.train_loss), repr(row.val_loss), int(row.is_best)]
               for row in history))
