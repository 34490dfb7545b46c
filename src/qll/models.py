"""Minimal differentiable per-class logit producers.

A linear map and a one-hidden-layer rectifier network, with hand-written
forward/backward passes. The per-class outputs are raw logits; prediction is
argmax (ties go to the smallest index). Parameters live in plain numpy
arrays exposed through ``params`` dicts so the optimizer stays generic.

A model may also hold K models stacked on a leading axis (weights (K, c, d),
biases (K, c), and so on): forward and backward work on the trailing two
axes, so one call serves all K, and member k's slices equal what the same
call computes for that member alone, bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import RngStream
from .dataio import atomic_write_bytes

__all__ = [
    "LinearModel",
    "MlpModel",
    "ForwardCache",
    "init_model",
    "forward",
    "backward",
    "predict",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"QLLM"
MODEL_KINDS = ("linear", "mlp")
_KIND_CODES = {"linear": 1, "mlp": 2}


@dataclass
class LinearModel:
    weights: np.ndarray  # (c, d), or (K, c, d) stacked
    bias: np.ndarray  # (c,), or (K, c) stacked

    @property
    def class_count(self) -> int:
        return self.weights.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[-1]

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}


@dataclass
class MlpModel:
    hidden_w: np.ndarray  # (h, d), or (K, h, d) stacked
    hidden_b: np.ndarray  # (h,), or (K, h) stacked
    out_w: np.ndarray  # (c, h), or (K, c, h) stacked
    out_b: np.ndarray  # (c,), or (K, c) stacked

    @property
    def class_count(self) -> int:
        return self.out_w.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.hidden_w.shape[-1]

    @property
    def hidden_dim(self) -> int:
        return self.hidden_w.shape[-2]

    def params(self) -> dict[str, np.ndarray]:
        return {
            "hidden_w": self.hidden_w,
            "hidden_b": self.hidden_b,
            "out_w": self.out_w,
            "out_b": self.out_b,
        }


@dataclass
class ForwardCache:
    """Activations retained for the backward pass."""

    x: np.ndarray  # (n, d) or (K, n, d)
    hidden: np.ndarray | None = None  # (n, h) or (K, n, h), mlp only


def init_model(
    kind: str,
    class_count: int,
    feature_dim: int,
    rng: RngStream,
    hidden_dim: int = 32,
):
    """Fresh model with Gaussian(0, 2/fan_in) weights and zero biases."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    if class_count < 2 or feature_dim < 1:
        raise ValueError("need class_count >= 2 and feature_dim >= 1")
    if kind == "linear":
        w = rng.standard_normal((class_count, feature_dim)) * np.sqrt(2.0 / feature_dim)
        return LinearModel(w, np.zeros(class_count))
    if hidden_dim < 1:
        raise ValueError("hidden_dim must be >= 1")
    w1 = rng.standard_normal((hidden_dim, feature_dim)) * np.sqrt(2.0 / feature_dim)
    w2 = rng.standard_normal((class_count, hidden_dim)) * np.sqrt(2.0 / hidden_dim)
    return MlpModel(w1, np.zeros(hidden_dim), w2, np.zeros(class_count))


def forward(model, x) -> tuple[np.ndarray, ForwardCache]:
    """Logits for a batch x of shape (n, d): (n, c), or (K, n, c) when the
    model is stacked. A stacked model also takes (K, n, d), one batch per
    member."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != model.feature_dim:
        raise ValueError(
            f"expected an (n, {model.feature_dim}) or (K, n, {model.feature_dim}) "
            f"feature batch, got shape {x.shape}"
        )

    # Biases and the rectifier apply in place, so a stacked evaluation
    # holds one (K, n, h) array at a time.
    if isinstance(model, LinearModel):
        logits = x @ model.weights.swapaxes(-1, -2)
        logits += model.bias[..., None, :]
        return logits, ForwardCache(x)
    act = x @ model.hidden_w.swapaxes(-1, -2)
    act += model.hidden_b[..., None, :]
    np.maximum(act, 0.0, out=act)  # hidden > 0 is then the ReLU mask
    logits = act @ model.out_w.swapaxes(-1, -2)
    logits += model.out_b[..., None, :]
    return logits, ForwardCache(x, hidden=act)


def backward(model, cache: ForwardCache, d_logits) -> dict[str, np.ndarray]:
    """Parameter gradients from d(loss)/d(logits) via the chain rule;
    d_logits has the shape of the logits the forward pass returned."""
    g = np.asarray(d_logits, dtype=np.float64)
    bias = model.bias if isinstance(model, LinearModel) else model.out_b
    if g.shape != (*bias.shape[:-1], cache.x.shape[-2], model.class_count):
        raise ValueError(f"d_logits shape {g.shape} does not match the forward pass")

    g_t = g.swapaxes(-1, -2)
    if isinstance(model, LinearModel):
        return {"weights": g_t @ cache.x, "bias": g.sum(axis=-2)}
    d_act = g @ model.out_w
    d_pre = d_act * (cache.hidden > 0.0)
    return {
        "out_w": g_t @ cache.hidden,
        "out_b": g.sum(axis=-2),
        "hidden_w": d_pre.swapaxes(-1, -2) @ cache.x,
        "hidden_b": d_pre.sum(axis=-2),
    }


def predict(logits):
    """Argmax class index over the last axis; ties break toward the smallest
    index. One logit vector gives an int, a batch an index array."""
    z = np.asarray(logits)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if z.ndim == 1:
        return int(np.argmax(z))
    return np.argmax(z, axis=-1)


def save_model(model, path) -> Path:
    """Checkpoint: magic, u8 kind, u32 dims, float32 parameter blocks."""
    path = Path(path)
    if not isinstance(model, (LinearModel, MlpModel)):
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    dims = (model.class_count, model.feature_dim)
    if isinstance(model, MlpModel):
        dims += (model.hidden_dim,)
    kind = _KIND_CODES["linear" if isinstance(model, LinearModel) else "mlp"]
    parts = [MODEL_MAGIC + struct.pack(f"<B{len(dims)}I", kind, *dims)]
    for name, block in model.params().items():
        with np.errstate(over="ignore"):
            f4 = np.ascontiguousarray(block, dtype="<f4")
        if (np.isinf(f4) & np.isfinite(block)).any():
            raise ValueError(f"{path}: block {name} holds finite values beyond the float32 range")
        parts.append(f4.tobytes())
    atomic_write_bytes(path, b"".join(parts))
    return path


def load_model(path):
    """Read a checkpoint written by ``save_model``."""
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    if len(raw) < 5:
        raise ValueError(f"{path}: truncated header")
    code = raw[4]
    if code == _KIND_CODES["linear"]:
        dims_fmt = "<II"
    elif code == _KIND_CODES["mlp"]:
        dims_fmt = "<III"
    else:
        raise ValueError(f"{path}: unknown model kind code {code}")
    off = 5 + struct.calcsize(dims_fmt)
    if len(raw) < off:
        raise ValueError(f"{path}: truncated header")
    dims = struct.unpack_from(dims_fmt, raw, 5)
    if code == _KIND_CODES["linear"]:
        c, d = dims
        shapes = {"weights": (c, d), "bias": (c,)}
    else:
        c, d, h = dims
        shapes = {"hidden_w": (h, d), "hidden_b": (h,), "out_w": (c, h), "out_b": (c,)}
    expected = off + 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(raw) != expected:
        raise ValueError(f"{path}: size mismatch (expected {expected} bytes)")

    blocks = []
    for name, shape in shapes.items():
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: block {name} holds non-finite values")
        blocks.append(arr.reshape(shape).astype(np.float64))
        off += 4 * count
    return (LinearModel if code == _KIND_CODES["linear"] else MlpModel)(*blocks)
