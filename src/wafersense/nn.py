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

GATES = ("i", "f", "g", "o")


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
    """Name -> shape of every weight array, in the order they sit in ``flat``."""
    s, m, d, h = cfg.sensor_dim, cfg.meas_dim, cfg.d, cfg.mlp_hidden
    shapes = {"emb_w": (d, s), "emb_b": (d,)}
    for gate in GATES:
        shapes.update({f"wx_{gate}": (d, d), f"wh_{gate}": (d, d), f"b_{gate}": (d,)})
    shapes.update(mlp1_w=(h, d + m), mlp1_b=(h,), mlp2_w=(h, h), mlp2_b=(h,),
                  out_w=(h,), out_b=(1,))
    return shapes


class ModelParams:
    """All weights in one contiguous 1-D vector ``flat``.

    Every named weight (see ``param_shapes``) is an attribute holding a
    reshaped view into ``flat``, with matrices as (out, in) in row-major
    order. emb: S -> d affine. Per LSTM gate k in (i, f, g, o): input map
    wx_k, recurrent map wh_k, bias b_k. MLP: (d+M) -> H -> H -> 1.
    """

    def __init__(self, cfg: ArchConfig, flat: np.ndarray):
        shapes = param_shapes(cfg)
        self.cfg, self.flat, self.names = cfg, flat, tuple(shapes)
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            setattr(self, name, flat[offset:offset + size].reshape(shape))
            offset += size
        if flat.shape != (offset,):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {cfg}")

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def arrays(self):
        """Yield (name, view) in the order of ``flat``."""
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh formulation avoids exp overflow at any dtype
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class ForwardTrace:
    """Intermediate activations retained for the backward pass."""

    steps: np.ndarray            # (B, n, S)
    meas: np.ndarray             # (B, M)
    x: list[np.ndarray]          # embedded inputs per step, (B, d)
    gates: list[dict[str, np.ndarray]]  # i, f, g, o per step, (B, d)
    c: list[np.ndarray]          # cell states c_0 .. c_n, (B, d); c[0] is zeros
    h: list[np.ndarray]          # hidden states h_0 .. h_n, (B, d)
    z0: np.ndarray               # (B, d + M)
    z1: np.ndarray               # (B, H) post-ReLU
    z2: np.ndarray               # (B, H) post-ReLU

    @property
    def n_steps(self) -> int:
        return len(self.x)


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
    batch, n_steps = steps.shape[0], steps.shape[1]

    h = np.zeros((batch, cfg.d), dtype=p.dtype)
    c = np.zeros((batch, cfg.d), dtype=p.dtype)
    xs, gate_list, cs, hs = [], [], [c], [h]
    for t in range(n_steps):
        x = steps[:, t, :] @ p.emb_w.T + p.emb_b
        i = _sigmoid(x @ p.wx_i.T + h @ p.wh_i.T + p.b_i)
        f = _sigmoid(x @ p.wx_f.T + h @ p.wh_f.T + p.b_f)
        g = np.tanh(x @ p.wx_g.T + h @ p.wh_g.T + p.b_g)
        o = _sigmoid(x @ p.wx_o.T + h @ p.wh_o.T + p.b_o)
        c = f * c + i * g
        h = o * np.tanh(c)
        xs.append(x)
        gate_list.append({"i": i, "f": f, "g": g, "o": o})
        cs.append(c)
        hs.append(h)

    z0 = np.concatenate([c, meas], axis=1)  # encoded vector is the last cell state
    z1 = np.maximum(z0 @ p.mlp1_w.T + p.mlp1_b, 0.0)
    z2 = np.maximum(z1 @ p.mlp2_w.T + p.mlp2_b, 0.0)
    preds = z2 @ p.out_w + p.out_b[0]

    trace = None
    if want_trace:
        trace = ForwardTrace(steps=steps, meas=meas, x=xs, gates=gate_list,
                             c=cs, h=hs, z0=z0, z1=z1, z2=z2)
    return preds, trace


def forward(params: ModelParams, steps: np.ndarray, meas: np.ndarray):
    """Single-sample forward: steps (n, S), meas (M,). Returns (float, trace)."""
    steps = np.asarray(steps)
    meas = np.asarray(meas)
    preds, trace = forward_batch(params, steps[None, :, :], meas[None, :])
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
    d = cfg.d
    scratch = {shape: np.empty(shape, dtype=p.dtype)
               for shape in {(d, d), (d,), (d, cfg.sensor_dim)}}

    def accumulate(view, first, a, b=None):
        """view = a @ b (or a's column sums), added via scratch after the first time."""
        dest = view if first else scratch[view.shape]
        if b is None:
            np.sum(a, axis=0, out=dest)
        else:
            np.matmul(a, b, out=dest)
        if not first:
            view += dest

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

    dc = dz0[:, :d].copy()  # prediction consumes c_n; h_n is unused
    dh = np.zeros_like(dc)
    for t in range(trace.n_steps - 1, -1, -1):
        first = t == trace.n_steps - 1
        gates = trace.gates[t]
        i, f, g, o = gates["i"], gates["f"], gates["g"], gates["o"]
        c_prev, h_prev = trace.c[t], trace.h[t]
        tanh_c = np.tanh(trace.c[t + 1])

        da_o = dh * tanh_c * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        da_i = dc * g * i * (1.0 - i)
        da_g = dc * i * (1.0 - g * g)
        da_f = dc * c_prev * f * (1.0 - f)

        for gate, da in zip(GATES, (da_i, da_f, da_g, da_o)):
            accumulate(getattr(grads, f"wx_{gate}"), first, da.T, trace.x[t])
            accumulate(getattr(grads, f"wh_{gate}"), first, da.T, h_prev)
            accumulate(getattr(grads, f"b_{gate}"), first, da)
        dx = da_i @ p.wx_i + da_f @ p.wx_f + da_g @ p.wx_g + da_o @ p.wx_o
        dh = da_i @ p.wh_i + da_f @ p.wh_f + da_g @ p.wh_g + da_o @ p.wh_o
        dc = dc * f

        accumulate(grads.emb_w, first, dx.T, trace.steps[:, t, :])
        accumulate(grads.emb_b, first, dx)
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
