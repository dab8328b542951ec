"""Numerical core: embedding + one-layer LSTM encoder + MLP regressor.

The sensor steps are embedded with a dense affine map, run through a
standard LSTM recurrence from zero initial states, and the *last cell
state* (not the hidden state) is the encoded sensor vector. That vector,
concatenated with the measurement features, feeds a two-hidden-layer ReLU
MLP with a linear scalar output.

Forward and reverse-mode backward are written directly against numpy;
gradients are exact (verified against central finite differences in the
test suite). Training runs in float32; pass dtype=np.float64 to
``init_params`` for gradient checking.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

GATES = ("i", "f", "g", "o")      # order of the per-gate names and checkpoint arrays
FUSED_GATES = ("i", "f", "o", "g")  # order of the gate rows in wx, wh and b


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
        return cls(sensor_dim, meas_dim, d=128, mlp_hidden=256)

    @classmethod
    def large(cls, sensor_dim: int, meas_dim: int) -> "ArchConfig":
        return cls(sensor_dim, meas_dim, d=1024, mlp_hidden=2048)

    @classmethod
    def preset(cls, name: str, sensor_dim: int, meas_dim: int) -> "ArchConfig":
        if name == "small":
            return cls.small(sensor_dim, meas_dim)
        if name == "large":
            return cls.large(sensor_dim, meas_dim)
        raise ValueError(f"unknown arch preset {name!r}")


def param_count(cfg: ArchConfig) -> int:
    """Closed-form parameter count of the architecture."""
    s, m, d, h = cfg.sensor_dim, cfg.meas_dim, cfg.d, cfg.mlp_hidden
    return (s + 1) * d + 4 * (d * d + d * d + d) + (d + m + 1) * h + (h + 1) * h + (h + 1)


def param_shapes(cfg: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every named weight, in checkpoint (and ``names``) order."""
    s, m, d, h = cfg.sensor_dim, cfg.meas_dim, cfg.d, cfg.mlp_hidden
    shapes = {"emb_w": (d, s), "emb_b": (d,)}
    for gate in GATES:
        shapes.update({f"wx_{gate}": (d, d), f"wh_{gate}": (d, d), f"b_{gate}": (d,)})
    shapes.update(mlp1_w=(h, d + m), mlp1_b=(h,), mlp2_w=(h, h), mlp2_b=(h,),
                  out_w=(h,), out_b=(1,))
    return shapes


class ModelParams:
    """All weights in one contiguous 1-D vector ``flat``.

    ``flat`` holds, in order: emb_w (d, S), emb_b (d,), the fused LSTM
    blocks wx (4d, d), wh (4d, d) and b (4d,), then the MLP (d+M) -> H ->
    H -> 1. Matrices are (out, in) in row-major order, and each fused block
    stacks the gates in ``FUSED_GATES`` order, so the three sigmoid gates
    are adjacent. Every named weight of ``param_shapes`` (wx_i, b_f, ...) is
    an attribute holding a view into ``flat``.
    """

    def __init__(self, cfg: ArchConfig, flat: np.ndarray):
        shapes, d = param_shapes(cfg), cfg.d
        blocks = {"emb_w": shapes["emb_w"], "emb_b": shapes["emb_b"],
                  "wx": (4 * d, d), "wh": (4 * d, d), "b": (4 * d,)}
        blocks.update((name, shape) for name, shape in shapes.items()
                      if name.startswith(("mlp", "out")))
        self.cfg, self.flat, self.names = cfg, flat, tuple(shapes)
        offset = 0
        for name, shape in blocks.items():
            size = math.prod(shape)
            setattr(self, name, flat[offset:offset + size].reshape(shape))
            offset += size
        if flat.shape != (offset,):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {cfg}")
        for k, gate in enumerate(FUSED_GATES):
            for block in ("wx", "wh", "b"):
                setattr(self, f"{block}_{gate}", getattr(self, block)[k * d:(k + 1) * d])

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def arrays(self):
        """Yield (name, view) for every named weight, in ``names`` order."""
        for name in self.names:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, self.flat.copy())

    def size(self) -> int:
        return self.flat.size


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.cfg, np.zeros_like(params.flat))


def init_params(cfg: ArchConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per weight matrix.

    Biases start at zero except the forget gate bias, which starts at 1.
    Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(cfg, np.zeros(param_count(cfg), dtype=dtype))
    for name, arr in params.arrays():
        if not (name.startswith("b_") or name.endswith("_b")):
            bound = 1.0 / np.sqrt(arr.shape[-1])
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    params.b_f[...] = 1.0
    return params


@dataclass
class ForwardTrace:
    """Intermediate activations retained for the backward pass, time-major."""

    steps: np.ndarray   # (n, B, S) inputs
    x: np.ndarray       # (n, B, d) embedded inputs
    gates: np.ndarray   # (n, B, 4d) gate activations, in FUSED_GATES order
    c: np.ndarray       # (n + 1, B, d) cell states c_0 .. c_n; c[0] is zeros
    h: np.ndarray       # (n, B, d) hidden states h_0 .. h_{n-1}; h[0] is zeros
    tanh_c: np.ndarray  # (n, B, d) tanh(c_1) .. tanh(c_n)
    z0: np.ndarray      # (B, d + M)
    z1: np.ndarray      # (B, H) post-ReLU
    z2: np.ndarray      # (B, H) post-ReLU


def forward_batch(params: ModelParams, steps: np.ndarray, meas: np.ndarray,
                  want_trace: bool = True):
    """Run the model on a batch of same-length step sequences.

    steps has shape (B, n, S), meas (B, M). Returns (predictions (B,),
    trace or None).
    """
    p, cfg = params, params.cfg
    steps = np.asarray(steps, dtype=p.dtype)
    meas = np.asarray(meas, dtype=p.dtype)
    if steps.ndim != 3 or steps.shape[1] < 1 or steps.shape[2] != cfg.sensor_dim:
        raise ValueError(f"steps must be (B, n >= 1, {cfg.sensor_dim}), got {steps.shape}")
    if meas.ndim != 2 or meas.shape[1] != cfg.meas_dim or meas.shape[0] != steps.shape[0]:
        raise ValueError(f"meas must be ({steps.shape[0]}, {cfg.meas_dim}), got {meas.shape}")
    batch, n_steps, d = steps.shape[0], steps.shape[1], cfg.d

    # embedding and input pre-activations of every step, before the recurrence
    steps = np.ascontiguousarray(steps.transpose(1, 0, 2))
    x = steps.reshape(n_steps * batch, -1) @ p.emb_w.T
    x += p.emb_b
    gates = x @ p.wx.T
    gates += p.b
    x, gates = x.reshape(n_steps, batch, d), gates.reshape(n_steps, batch, 4 * d)
    c = np.zeros((n_steps + 1, batch, d), dtype=p.dtype)
    h = np.zeros((n_steps, batch, d), dtype=p.dtype)
    tanh_c = np.empty((n_steps, batch, d), dtype=p.dtype)
    recurrent = np.empty((batch, 4 * d), dtype=p.dtype)
    for t in range(n_steps):
        a = gates[t]
        if t:  # h_0 = 0
            a += np.matmul(h[t], p.wh.T, out=recurrent)
        sig = a[:, :3 * d]  # logistic as 0.5 * (1 + tanh(x / 2)): no exp overflow
        np.tanh(np.multiply(sig, 0.5, out=sig), out=sig)
        sig += 1.0
        sig *= 0.5
        np.tanh(a[:, 3 * d:], out=a[:, 3 * d:])
        i, f, o, g = (a[:, k * d:(k + 1) * d] for k in range(4))
        np.multiply(f, c[t], out=c[t + 1])
        c[t + 1] += i * g
        np.tanh(c[t + 1], out=tanh_c[t])
        if t + 1 < n_steps:  # h_n is unused
            np.multiply(o, tanh_c[t], out=h[t + 1])

    z0 = np.concatenate([c[n_steps], meas], axis=1)  # encoded vector is the last cell state
    z1 = np.maximum(z0 @ p.mlp1_w.T + p.mlp1_b, 0.0)
    z2 = np.maximum(z1 @ p.mlp2_w.T + p.mlp2_b, 0.0)
    preds = z2 @ p.out_w + p.out_b[0]

    trace = ForwardTrace(steps=steps, x=x, gates=gates, c=c, h=h, tanh_c=tanh_c,
                         z0=z0, z1=z1, z2=z2) if want_trace else None
    return preds, trace


def forward(params: ModelParams, steps: np.ndarray, meas: np.ndarray):
    """Single-sample forward: steps (n, S), meas (M,). Returns (float, trace)."""
    preds, trace = forward_batch(params, np.asarray(steps)[None], np.asarray(meas)[None])
    return float(preds[0]), trace


def backward_batch(params: ModelParams, trace: ForwardTrace, upstream: np.ndarray,
                   out: ModelParams | None = None) -> ModelParams:
    """Reverse-mode gradients of sum_b upstream[b] * prediction[b].

    Returns a gradient with the same structure as ModelParams, written into
    ``out`` when given (its old contents are overwritten, never read). The
    caller folds loss derivatives and any 1/batch factor into ``upstream``.
    """
    p, cfg = params, params.cfg
    grads = ModelParams(cfg, np.empty_like(p.flat)) if out is None else out
    dy = np.asarray(upstream, dtype=p.dtype)
    d, (n_steps, batch, _) = cfg.d, trace.gates.shape

    # MLP head
    grads.out_b[0] = dy.sum()
    np.matmul(trace.z2.T, dy, out=grads.out_w)
    dz2 = dy[:, None] * p.out_w[None, :]
    dpre2 = dz2 * (trace.z2 > 0)
    np.matmul(dpre2.T, trace.z1, out=grads.mlp2_w)
    np.sum(dpre2, axis=0, out=grads.mlp2_b)
    dz1 = dpre2 @ p.mlp2_w
    dpre1 = dz1 * (trace.z1 > 0)
    np.matmul(dpre1.T, trace.z0, out=grads.mlp1_w)
    np.sum(dpre1, axis=0, out=grads.mlp1_b)
    dz0 = dpre1 @ p.mlp1_w

    # LSTM: gate pre-activation gradients of every step, gathered in da_all
    da_all = np.empty_like(trace.gates)
    dc = dz0[:, :d].copy()  # prediction consumes c_n; h_n is unused
    dh = np.zeros_like(dc)
    for t in range(n_steps - 1, -1, -1):
        a, da = trace.gates[t], da_all[t]
        i, f, o, g = (a[:, k * d:(k + 1) * d] for k in range(4))
        da_i, da_f, da_o, da_g = (da[:, k * d:(k + 1) * d] for k in range(4))
        np.multiply(dh, trace.tanh_c[t], out=da_o)
        dc += dh * o * (1.0 - trace.tanh_c[t] * trace.tanh_c[t])
        np.multiply(dc, g, out=da_i)
        np.multiply(dc, trace.c[t], out=da_f)
        sig = a[:, :3 * d]
        da[:, :3 * d] *= sig * (1.0 - sig)
        np.multiply(dc, i, out=da_g)
        da_g *= 1.0 - g * g
        if t:
            dh = da @ p.wh
            dc *= f

    rows = n_steps * batch
    da_all = da_all.reshape(rows, 4 * d)
    np.matmul(da_all.T, trace.x.reshape(rows, d), out=grads.wx)
    np.matmul(da_all[batch:].T, trace.h.reshape(rows, d)[batch:], out=grads.wh)  # h_0 = 0
    np.sum(da_all, axis=0, out=grads.b)
    dx = da_all @ p.wx
    np.matmul(dx.T, trace.steps.reshape(rows, -1), out=grads.emb_w)
    np.sum(dx, axis=0, out=grads.emb_b)
    return grads


def backward(params: ModelParams, trace: ForwardTrace, upstream: float) -> ModelParams:
    """Single-sample backward; ``trace`` must come from ``forward`` on ``params``."""
    return backward_batch(params, trace, np.array([upstream]))


# Checkpoint container: a .npz holding every weight array plus a JSON
# metadata entry (architecture, loss type, preprocessing manifest hash, ...).

def save_checkpoint(path, params: ModelParams, meta: dict) -> None:
    header = dict(meta, arch=asdict(params.cfg), dtype=np.dtype(params.dtype).name)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(header, sort_keys=True)),
                 **dict(params.arrays()))


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint; every array must have exactly its ArchConfig shape."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        cfg = ArchConfig(**meta.pop("arch"))
        params = ModelParams(cfg, np.empty(param_count(cfg), dtype=np.dtype(meta.pop("dtype"))))
        problems = [f"unexpected array {name!r}" for name in data.files
                    if name not in params.names + ("__meta__",)]
        for name, view in params.arrays():
            stored = data[name] if name in data.files else None
            if stored is not None and stored.shape == view.shape:
                view[...] = stored
            else:
                problems.append(f"missing array {name!r}" if stored is None else
                                f"array {name!r} has shape {stored.shape}, expected {view.shape}")
    if problems:
        raise ValueError(f"checkpoint {path} does not match its architecture: "
                         + "; ".join(problems))
    return params, meta
