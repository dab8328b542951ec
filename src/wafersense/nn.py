"""Numerical core: embedding + one-layer LSTM encoder + MLP regressor.

The sensor steps are embedded with a dense affine map, run through a
standard LSTM recurrence from zero initial states, and the *last cell
state* (not the hidden state) is the encoded sensor vector. That vector,
concatenated with the measurement features, feeds a two-hidden-layer ReLU
MLP with a linear scalar output.

Forward and reverse-mode backward are written directly against numpy, with
feature-major activations: each step is a contiguous (features, B) block, so
every product has the (out, in) weight on the left. Gradients are exact
(checked against central finite differences in the tests). Training runs in
float32; pass dtype=np.float64 to ``init_params`` for gradient checking.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .atomic import atomic_open, read_npz

FUSED_GATES = ("i", "f", "o", "g")  # order of the gate rows in wx, wh and b
PRESETS = {"small": (128, 256), "large": (1024, 2048)}  # name -> (d, mlp_hidden); first is default
# Rows per untraced encode + head pass, cut from a batch's first row. A row's prediction
# can move by an ulp with the rows beside it in a pass, so this cut decides the bits.
PREDICT_ROWS = 512


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ArchConfig:
    """Model dimensions. d is both the LSTM input and hidden size."""

    sensor_dim: int
    meas_dim: int
    d: int
    mlp_hidden: int
    mlp_layers: int = 2

    def __post_init__(self) -> None:
        if min(self.sensor_dim, self.meas_dim, self.d, self.mlp_hidden) <= 0:
            raise ValueError("all dimensions must be positive")
        if self.mlp_layers != 2:
            raise ValueError("only 2 MLP hidden layers are supported")

    @classmethod
    def small(cls, sensor_dim: int, meas_dim: int) -> "ArchConfig":
        return cls.preset("small", sensor_dim, meas_dim)

    @classmethod
    def large(cls, sensor_dim: int, meas_dim: int) -> "ArchConfig":
        return cls.preset("large", sensor_dim, meas_dim)

    @classmethod
    def preset(cls, name: str, sensor_dim: int, meas_dim: int) -> "ArchConfig":
        if name not in PRESETS:
            raise ValueError(f"preset must be {' or '.join(PRESETS)}, got {name!r}")
        d, mlp_hidden = PRESETS[name]
        return cls(sensor_dim, meas_dim, d=d, mlp_hidden=mlp_hidden)


def param_shapes(cfg: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every weight block, in ``flat`` order."""
    s, m, d, h = cfg.sensor_dim, cfg.meas_dim, cfg.d, cfg.mlp_hidden
    return {"emb_w": (d, s), "emb_b": (d,), "wx": (4 * d, d), "wh": (4 * d, d), "b": (4 * d,),
            "mlp1_w": (h, d + m), "mlp1_b": (h,), "mlp2_w": (h, h), "mlp2_b": (h,),
            "out_w": (h,), "out_b": (1,)}


def param_count(cfg: ArchConfig) -> int:
    """The number of weights: the size of ``flat``."""
    return sum(math.prod(shape) for shape in param_shapes(cfg).values())


class ModelParams:
    """All weights in one contiguous 1-D vector ``flat``.

    Each block of ``param_shapes`` is an attribute holding a view into ``flat``
    from ``starts[name]`` on: the embedding (d, S), the fused LSTM blocks wx
    (4d, d), wh (4d, d) and b (4d,), then the MLP (d+M) -> H -> H -> 1. Matrices
    are (out, in) in row-major order, and each fused block stacks the gates in
    ``FUSED_GATES`` order, so the three sigmoid gates are adjacent.
    """

    def __init__(self, cfg: ArchConfig, flat: np.ndarray):
        shapes = param_shapes(cfg)
        self.cfg, self.flat, self.names, self.starts = cfg, flat, tuple(shapes), {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            setattr(self, name, flat[offset:offset + size].reshape(shape))
            self.starts[name], offset = offset, offset + size
        if flat.shape != (offset,):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {cfg}")

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def arrays(self):
        """Yield (name, view) for every block, in ``names`` order."""
        for name in self.names:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, self.flat.copy())

    def size(self) -> int:
        return self.flat.size


def init_params(cfg: ArchConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per weight matrix.

    Biases start at zero except the forget gate bias, which starts at 1. The
    LSTM rows are drawn gate by gate in i, f, g, o order, wx's before wh's.
    Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    p = ModelParams(cfg, np.zeros(param_count(cfg), dtype=dtype))
    rows = {gate: slice(k * cfg.d, (k + 1) * cfg.d) for k, gate in enumerate(FUSED_GATES)}
    lstm = [w[rows[gate]] for gate in "ifgo" for w in (p.wx, p.wh)]
    for w in (p.emb_w, *lstm, p.mlp1_w, p.mlp2_w, p.out_w):
        bound = 1.0 / np.sqrt(w.shape[-1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    p.b[rows["f"]] = 1.0
    return p


@dataclass
class ForwardTrace:
    """Activations kept for the backward pass, feature-major: (features, B) blocks."""

    steps: np.ndarray   # (n, S, B) inputs
    x: np.ndarray       # (n, d, B) embedded inputs
    gates: np.ndarray   # (n, 4d, B) gate activations, in FUSED_GATES order
    c: np.ndarray       # (n + 1, d, B) cell states c_0 .. c_n; c[0] is zeros
    h: np.ndarray       # (n, d, B) hidden states h_0 .. h_{n-1}; h[0] is zeros
    tanh_c: np.ndarray  # (n, d, B) tanh(c_1) .. tanh(c_n)
    z0: np.ndarray      # (d + M, B)
    z1: np.ndarray      # (H, B) post-ReLU
    z2: np.ndarray      # (H, B) post-ReLU


def forward_batch(params: ModelParams, steps: np.ndarray, meas: np.ndarray,
                  want_trace: bool = True):
    """Run the model on a batch of same-length step sequences.

    steps has shape (B, n, S), meas (B, M). Returns (predictions (B,),
    trace or None); without a trace, ``encode`` runs the LSTM on each PREDICT_ROWS slice.
    """
    p, cfg = params, params.cfg
    steps, meas = np.asarray(steps, dtype=p.dtype), np.asarray(meas, dtype=p.dtype)
    if steps.ndim != 3 or steps.shape[1] < 1 or steps.shape[2] != cfg.sensor_dim:
        raise ValueError(f"steps must be (B, n >= 1, {cfg.sensor_dim}), got {steps.shape}")
    if meas.ndim != 2 or meas.shape[1] != cfg.meas_dim or meas.shape[0] != steps.shape[0]:
        raise ValueError(f"meas must be ({steps.shape[0]}, {cfg.meas_dim}), got {meas.shape}")
    batch, n_steps, d = steps.shape[0], steps.shape[1], cfg.d
    if not want_trace:
        preds = np.empty(batch, dtype=p.dtype)
        for start in range(0, max(batch, 1), PREDICT_ROWS):  # an empty batch: one empty pass
            rows = slice(start, start + PREDICT_ROWS)
            preds[rows] = mlp_head(p, encode(p, steps[rows]), meas[rows])[-1]
        return preds, None
    steps = np.ascontiguousarray(steps.transpose(1, 2, 0))

    # embedding and input pre-activations of every step, before the recurrence
    x = np.matmul(p.emb_w, steps)
    x += p.emb_b[:, None]
    gates = np.matmul(p.wx, x)
    gates += p.b[:, None]
    c, h = np.zeros((n_steps + 1, d, batch), p.dtype), np.zeros((n_steps, d, batch), p.dtype)
    tanh_c = np.empty_like(h)
    recurrence(p.wh, lambda t: gates[t], n_steps, c, h, tanh_c)

    z0, z1, z2, preds = mlp_head(p, c[n_steps], meas)  # encoded vector is the last cell state
    return preds, ForwardTrace(steps=steps, x=x, gates=gates, c=c, h=h, tanh_c=tanh_c,
                               z0=z0, z1=z1, z2=z2)


def recurrence(wh: np.ndarray, inputs, n_steps: int, c: np.ndarray, h: np.ndarray,
               tanh_c: np.ndarray) -> np.ndarray:
    """The LSTM recurrence from zero states; returns c_n. ``inputs(t)`` gives step t's (4d, B)
    input pre-activations, which are activated in place. c_t lands in c[t % len(c)], h_t in
    h[t % len(h)], tanh(c_t) in tanh_c[(t - 1) % len(tanh_c)]: a trace keeps every step,
    length-1 arrays only the live one. c_0's slot must hold zeros; tanh_c may be h."""
    d = wh.shape[1]
    recurrent = np.empty((4 * d, c.shape[-1]), dtype=c.dtype)
    for t in range(n_steps):
        a = inputs(t)
        if t:  # h_0 = 0
            a += np.matmul(wh, h[t % len(h)], out=recurrent)
        sig = a[:3 * d]  # logistic as 0.5 * (1 + tanh(x / 2)): no exp overflow
        np.tanh(np.multiply(sig, 0.5, out=sig), out=sig)
        sig += 1.0
        sig *= 0.5
        np.tanh(a[3 * d:], out=a[3 * d:])
        i, f, o, g = (a[k * d:(k + 1) * d] for k in range(4))
        c_next, tanh_next = c[(t + 1) % len(c)], tanh_c[t % len(tanh_c)]
        np.multiply(f, c[t % len(c)], out=c_next)
        c_next += i * g
        np.tanh(c_next, out=tanh_next)
        if t + 1 < n_steps:  # h_n is unused
            np.multiply(o, tanh_next, out=h[(t + 1) % len(h)])
    return c[n_steps % len(c)]


def encode(p: ModelParams, steps: np.ndarray) -> np.ndarray:
    """The last cell state (d, B) of the (B, n, S) ``steps``, untraced. Each run of adjacent
    rows with bit-equal steps (a wafer's measurement rows) is encoded once and gathered back
    to all its rows. The embedding and input biases fold into one (4d, S + 1) weight on each
    step's inputs with a ones row below them; one live (4d, U) gate block, c and h per run."""
    d, (batch, n_steps, s) = p.cfg.d, steps.shape
    bits = steps.reshape(batch, n_steps * s).view(f"u{steps.itemsize}")
    new_run = np.ones(batch, dtype=bool)
    new_run[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    steps, run_of_row = steps[new_run], np.cumsum(new_run) - 1
    batch = len(steps)
    w_in = np.concatenate([p.wx @ p.emb_w, (p.wx @ p.emb_b + p.b)[:, None]], axis=1)
    x = np.ones((n_steps, s + 1, batch), dtype=p.dtype)
    x[:, :s] = steps.transpose(1, 2, 0)
    a, (c, h) = np.empty((4 * d, batch), p.dtype), np.zeros((2, 1, d, batch), p.dtype)
    c_n = recurrence(p.wh, lambda t: np.matmul(w_in, x[t], out=a), n_steps, c, h, h)
    return c_n[:, run_of_row]


def mlp_head(p: ModelParams, c_n: np.ndarray, meas: np.ndarray):
    """(z0, z1, z2, predictions) of the MLP on the encoded vector and ``meas``."""
    z0 = np.concatenate([c_n, meas.T])
    z1 = p.mlp1_w @ z0
    z1 += p.mlp1_b[:, None]
    z2 = p.mlp2_w @ np.maximum(z1, 0.0, out=z1)
    z2 += p.mlp2_b[:, None]
    np.maximum(z2, 0.0, out=z2)
    return z0, z1, z2, p.out_w @ z2 + p.out_b[0]


def forward(params: ModelParams, steps: np.ndarray, meas: np.ndarray):
    """Single-sample forward: steps (n, S), meas (M,). Returns (float, trace)."""
    preds, trace = forward_batch(params, np.asarray(steps)[None], np.asarray(meas)[None])
    return float(preds[0]), trace


def backward_ranges(params: ModelParams) -> list[slice]:
    """The ranges of ``flat`` that ``backward_batch`` hands to ``update``, in that order."""
    starts = [params.starts[name] for name in ("mlp2_w", "mlp1_w", "wh", "emb_w")]
    return [slice(lo, hi) for lo, hi in zip(starts, [params.size(), *starts])]


def backward_batch(params: ModelParams, trace: ForwardTrace, upstream: np.ndarray,
                   out: ModelParams | None = None, update=lambda finished: None) -> ModelParams:
    """Reverse-mode gradients of sum_b upstream[b] * prediction[b].

    Returns a gradient with the same structure as ModelParams, written into
    ``out`` when given (its old contents are overwritten, never read). The
    caller folds loss derivatives and any 1/batch factor into ``upstream``.
    ``update`` gets each range of ``flat`` once its gradient is final and its weights
    are read for the last time: [mlp2_w .. out_b] after dpre1, [mlp1_w, mlp1_b] after
    dc, [wh, b] after the recurrence and [emb_w, emb_b, wx] after dx.
    """
    p, cfg = params, params.cfg
    grads = ModelParams(cfg, np.empty_like(p.flat)) if out is None else out
    tail, mlp1, recurrent, head = backward_ranges(p)
    dy = np.asarray(upstream, dtype=p.dtype)
    d, (n_steps, _, batch) = cfg.d, trace.gates.shape

    # bias gradients as products with ones beat np.sum; W.T @ dY beats (dY.T @ W).T
    ones = np.ones(n_steps * batch, dtype=p.dtype)
    grads.out_b[0] = dy.sum()
    np.matmul(trace.z2, dy, out=grads.out_w)
    dpre2 = np.outer(p.out_w, dy) * (trace.z2 > 0)
    np.matmul(dpre2, trace.z1.T, out=grads.mlp2_w)
    np.matmul(dpre2, ones[:batch], out=grads.mlp2_b)
    dpre1 = (p.mlp2_w.T @ dpre2) * (trace.z1 > 0)
    update(tail)
    np.matmul(dpre1, trace.z0.T, out=grads.mlp1_w)
    np.matmul(dpre1, ones[:batch], out=grads.mlp1_b)
    dc = p.mlp1_w[:, :d].T @ dpre1  # prediction consumes c_n; h_n is unused
    update(mlp1)

    # LSTM: gate pre-activation gradients of every step, gathered in da_all
    da_all = np.empty_like(trace.gates)
    dh = np.zeros_like(dc)
    for t in range(n_steps - 1, -1, -1):
        a, da = trace.gates[t], da_all[t]
        i, f, o, g = (a[k * d:(k + 1) * d] for k in range(4))
        da_i, da_f, da_o, da_g = (da[k * d:(k + 1) * d] for k in range(4))
        np.multiply(dh, trace.tanh_c[t], out=da_o)
        dc += dh * o * (1.0 - trace.tanh_c[t] * trace.tanh_c[t])
        np.multiply(dc, g, out=da_i)
        np.multiply(dc, trace.c[t], out=da_f)
        sig = a[:3 * d]
        da[:3 * d] *= sig * (1.0 - sig)
        np.multiply(dc, i, out=da_g)
        da_g *= 1.0 - g * g
        if t:
            dh = p.wh.T @ da
            dc *= f

    # weight gradients of all steps at once, from (features, n * B) transpose-copies
    da_cat, x_cat, h_cat, steps_cat = (arr.transpose(1, 0, 2).reshape(arr.shape[1], -1)
                                       for arr in (da_all, trace.x, trace.h, trace.steps))
    np.matmul(da_cat[:, batch:], h_cat[:, batch:].T, out=grads.wh)  # h_0 = 0
    np.matmul(da_cat, ones, out=grads.b)
    update(recurrent)
    np.matmul(da_cat, x_cat.T, out=grads.wx)
    dx = p.wx.T @ da_cat
    np.matmul(dx, steps_cat.T, out=grads.emb_w)
    np.matmul(dx, ones, out=grads.emb_b)
    update(head)
    return grads


def backward(params: ModelParams, trace: ForwardTrace, upstream: float) -> ModelParams:
    """Single-sample backward; ``trace`` must come from ``forward`` on ``params``."""
    return backward_batch(params, trace, np.array([upstream]))


# Checkpoint container: a .npz holding the ``flat`` weight vector plus a JSON
# metadata entry (architecture, dtype, loss type, preprocessing manifest hash, ...).

def save_checkpoint(path, params: ModelParams, meta: dict) -> None:
    header = dict(meta, arch=asdict(params.cfg), dtype=np.dtype(params.dtype).name)
    with atomic_open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(header, sort_keys=True)), flat=params.flat)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint; a damaged file, a dtype other than float32 or float64, or a
    ``flat`` vector that does not fit the architecture raises CheckpointError."""
    data = read_npz(path, CheckpointError, "checkpoint", ("__meta__", "flat"))
    try:
        meta = json.loads(str(data["__meta__"]))
        cfg, dtype = ArchConfig(**meta.pop("arch")), meta.pop("dtype")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: bad __meta__: {exc}") from None
    if dtype not in ("float32", "float64"):
        raise CheckpointError(f"checkpoint {path} has dtype {dtype!r}, not float32 or float64")
    flat, want = data["flat"], (dtype, (param_count(cfg),))
    if (flat.dtype, flat.shape) != want:
        raise CheckpointError(f"checkpoint {path} does not match its architecture: array "
                              f"'flat' is {(flat.dtype.name, flat.shape)}, expected {want}")
    return ModelParams(cfg, flat), meta
