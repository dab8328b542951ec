"""Training: the two loss functions, Adam, and the epoch loop.

The relative-error loss trains the model directly on the raw target
scale; the normalized L1 loss trains it on the per-group (b1, b2) scale,
so predictions from an NL1 model must be mapped back before evaluation.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .nn import ArchConfig, ModelParams, backward_batch, forward_batch, init_params
from .normgroups import GroupKey, NormalizationGroup, normalize_target
from .preprocess import Bucket, unjoin

log = logging.getLogger(__name__)

LOSS_RE = "re"
LOSS_NL1 = "nl1"


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class RELossConfig:
    c: float = 10.0

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError("c must be positive")


def re_loss(y_hat: float, y: float, cfg: RELossConfig = RELossConfig()) -> float:
    """|y_hat - y| / max(|y|, c): relative error with a saturated denominator."""
    return abs(y_hat - y) / max(abs(y), cfg.c)


def nl1_loss(y_tilde_hat: float, y: float, g: NormalizationGroup) -> float:
    """L1 distance on the group-normalized target scale."""
    return abs(y_tilde_hat - normalize_target(y, g))


@dataclass(frozen=True)
class TrainConfig:
    loss: str = LOSS_RE
    learning_rate: float = 1e-4
    batch_size: int = 16
    patience: int = 10
    max_epochs: int = 200
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    re_c: float = 10.0

    def __post_init__(self) -> None:
        if self.loss not in (LOSS_RE, LOSS_NL1):
            raise ValueError(f"loss must be '{LOSS_RE}' or '{LOSS_NL1}', got {self.loss!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


class ReLossFn:
    """Vectorized relative-error loss with its derivative in the prediction."""

    name = LOSS_RE
    needs_groups = False

    def __init__(self, c: float = 10.0):
        self.c = float(c)

    def values_and_grads(self, preds, targets, b1, b2):
        preds = np.asarray(preds, dtype=np.float64)
        denom = np.maximum(np.abs(targets), self.c)
        diff = preds - targets
        return np.abs(diff) / denom, np.sign(diff) / denom


class Nl1LossFn:
    """Vectorized normalized-L1 loss; targets are mapped with the sample's (b1, b2)."""

    name = LOSS_NL1
    needs_groups = True

    def values_and_grads(self, preds, targets, b1, b2):
        preds = np.asarray(preds, dtype=np.float64)
        diff = preds - (targets - b1) / (b2 - b1)
        return np.abs(diff), np.sign(diff)


def make_loss_fn(cfg: TrainConfig):
    return ReLossFn(cfg.re_c) if cfg.loss == LOSS_RE else Nl1LossFn()


@dataclass
class TrainBucket:
    """Model-ready view of one n_steps bucket."""

    n_steps: int
    steps: np.ndarray   # (N, n_steps, S)
    meas: np.ndarray    # (N, M)
    target: np.ndarray  # (N,)
    b1: np.ndarray      # (N,), NaN where the sample's key has no group
    b2: np.ndarray

    def __len__(self) -> int:
        return len(self.target)


def make_train_buckets(
    buckets: list[Bucket],
    s_width: int,
    m_width: int,
    groups: dict[GroupKey, NormalizationGroup],
    require_groups: bool,
) -> list[TrainBucket]:
    """Unjoin bucket features and attach per-sample (b1, b2).

    With ``require_groups`` (NL1 training), samples whose (kqi, type, stage)
    has no normalization group are excluded.
    """
    out = []
    excluded = 0
    for bucket in buckets:
        steps, meas = unjoin(bucket.features, bucket.n_steps, s_width, m_width)
        found = [groups.get(key) for key in zip(bucket.kqi, bucket.mtype, bucket.stage)]
        b1 = np.array([np.nan if g is None else g.b1 for g in found], dtype=np.float64)
        b2 = np.array([np.nan if g is None else g.b2 for g in found], dtype=np.float64)
        keep = np.arange(len(bucket))
        if require_groups:
            keep = np.nonzero(~np.isnan(b1))[0]
            excluded += len(bucket) - len(keep)
        if len(keep):
            out.append(TrainBucket(bucket.n_steps, steps[keep], meas[keep],
                                   bucket.target[keep], b1[keep], b2[keep]))
    if excluded:
        log.info("excluded %d samples with no normalization group", excluded)
    return out


# Elements per block of the Adam update: a block's operands and the two
# scratch rows stay in cache (64k measured fastest of 4k to 256k).
ADAM_BLOCK = 65_536
# Every this many steps, second moments below the smallest normal float and
# first moments below it divided by the learning rate are zeroed: those of
# weights whose gradient stays zero decay towards subnormals, and a subnormal
# moment or update product slows every step. Such an update is below ~1e-30,
# far below one ulp of any weight.
FLUSH_EVERY = 32


@dataclass
class AdamState:
    m: np.ndarray        # moments, one entry per element of ModelParams.flat
    v: np.ndarray
    scratch: np.ndarray  # (2, block) work space of adam_step


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat),
                     scratch=np.empty((2, min(ADAM_BLOCK, params.size())), params.dtype))


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              t: int, cfg: TrainConfig):
    """Standard Adam update with bias correction (Kingma & Ba, arXiv:1412.6980),
    in place and block by block; mutates params and state."""
    b1, b2 = cfg.beta1, cfg.beta2
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    flush, tiny = t % FLUSH_EVERY == 0, np.finfo(params.dtype).tiny
    for start in range(0, params.size(), ADAM_BLOCK):
        sl = slice(start, start + ADAM_BLOCK)
        p, g, m, v = params.flat[sl], grads.flat[sl], state.m[sl], state.v[sl]
        x, y = state.scratch[:, : len(p)]
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=x)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=x), 1.0 - b2, out=x)
        # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
        np.multiply(np.divide(m, bc1, out=y), cfg.learning_rate, out=y)
        np.sqrt(np.divide(v, bc2, out=x), out=x)
        x += cfg.eps
        p -= np.divide(y, x, out=y)
        if flush:
            m[np.abs(m, out=x) < tiny / cfg.learning_rate] = 0.0
            v[np.abs(v, out=x) < tiny] = 0.0
    return params, state


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
        yield (bucket.steps[idx], bucket.meas[idx], bucket.target[idx],
               bucket.b1[idx], bucket.b2[idx])


def dataset_loss(params: ModelParams, buckets: list[TrainBucket], loss_fn,
                 chunk: int = 1024) -> float:
    """Sample-weighted mean loss over all buckets."""
    total, count = 0.0, 0
    for bucket in buckets:
        for start in range(0, len(bucket), chunk):
            sl = slice(start, start + chunk)
            preds, _ = forward_batch(params, bucket.steps[sl], bucket.meas[sl],
                                     want_trace=False)
            losses, _ = loss_fn.values_and_grads(preds, bucket.target[sl],
                                                 bucket.b1[sl], bucket.b2[sl])
            total += float(losses.sum())
            count += len(losses)
    if count == 0:
        raise TrainingDiverged("no samples to evaluate")
    return total / count


def fit(arch: ArchConfig, train_buckets: list[TrainBucket],
        val_buckets: list[TrainBucket], cfg: TrainConfig):
    """Train with Adam and early stopping; return (best params, history).

    Stops once ``patience`` consecutive epochs bring no strictly lower
    validation loss, or at max_epochs. The returned parameters are the
    ones from the best-validation epoch.
    """
    if not train_buckets or not val_buckets:
        raise TrainingDiverged("need at least one train and one val batch")
    loss_fn = make_loss_fn(cfg)
    params = init_params(arch, cfg.seed)
    state = init_adam_state(params)
    grads = ModelParams(arch, np.empty_like(params.flat))  # backward_batch overwrites it
    best_params = params.copy()
    stopper = EarlyStopper(cfg.patience)
    history: list[EpochStats] = []
    t = 0
    for epoch in range(1, cfg.max_epochs + 1):
        train_sum, train_count = 0.0, 0
        for steps, meas, target, b1, b2 in iter_epoch_batches(
            train_buckets, cfg.batch_size, cfg.seed, epoch
        ):
            preds, trace = forward_batch(params, steps, meas)
            losses, dpred = loss_fn.values_and_grads(preds, target, b1, b2)
            if not np.all(np.isfinite(losses)):
                raise TrainingDiverged(
                    f"non-finite training loss at epoch {epoch} (step {t + 1})"
                )
            t += 1
            upstream = dpred / len(losses)  # batch loss is the sample mean
            backward_batch(params, trace, upstream, out=grads)
            adam_step(params, grads, state, t, cfg)
            train_sum += float(losses.sum())
            train_count += len(losses)
        val_loss = dataset_loss(params, val_buckets, loss_fn)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        is_best, should_stop = stopper.update(val_loss)
        if is_best:
            best_params = params.copy()
        history.append(EpochStats(epoch, train_sum / train_count, val_loss, is_best))
        log.info("epoch %d: train %.6f val %.6f%s", epoch, train_sum / train_count,
                 val_loss, " *" if is_best else "")
        if should_stop:
            break
    return best_params, history


def write_history_csv(path, history: list[EpochStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "is_best"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss),
                             int(row.is_best)])
