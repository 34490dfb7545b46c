"""Minimal differentiable per-class logit producers.

A model is a stack of dense layers with a rectifier between them; its
dataclass fields are each layer's weights (out, in) and bias (out,), input
layer first. ``LinearModel`` is one layer, ``MlpModel`` two, and one loop over
the layers serves both. Prediction is argmax of the raw per-class logits
(ties go to the smallest index). Parameters live in plain numpy arrays
exposed through ``params`` dicts so the optimizer stays generic.

A model may also hold K models stacked on a leading axis (weights (K, c, d),
biases (K, c), and so on): forward and backward work on the trailing two
axes, so one call serves all K, and member k's slices equal what the same
call computes for that member alone, bit for bit.

``forward`` and ``backward`` check their inputs, resolve the layers with
``bind_layers`` and run one kernel. A caller that steps one model many
times binds it once and passes ``layers=``, which skips the checks and the
resolving and runs the same kernel.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import ZERO, RngStream
from .dataio import atomic_write_bytes

__all__ = [
    "LinearModel",
    "MlpModel",
    "init_model",
    "forward",
    "backward",
    "bind_layers",
    "predict",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"QLLM"
MODEL_KINDS = ("linear", "mlp")


class _DenseStack:
    """Shared by the models: their fields are (weights, bias) pairs, input layer first."""

    def params(self) -> dict[str, np.ndarray]:
        return dict(vars(self))  # the dataclass fields, in declaration order

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        p = iter(vars(self).values())
        return list(zip(p, p))  # consecutive fields pair up

    @property
    def class_count(self) -> int:
        return self.layers()[-1][0].shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.layers()[0][0].shape[-1]


@dataclass
class LinearModel(_DenseStack):
    weights: np.ndarray  # (c, d), or (K, c, d) stacked
    bias: np.ndarray  # (c,), or (K, c) stacked


@dataclass
class MlpModel(_DenseStack):
    hidden_w: np.ndarray  # (h, d), or (K, h, d) stacked
    hidden_b: np.ndarray  # (h,), or (K, h) stacked
    out_w: np.ndarray  # (c, h), or (K, c, h) stacked
    out_b: np.ndarray  # (c,), or (K, c) stacked


# By layer count - 1, in MODEL_KINDS order; the layer count is the checkpoint's kind code.
_MODEL_CLASSES = (LinearModel, MlpModel)


def _layer_shapes(sizes, where: str) -> list[tuple[int, ...]]:
    """Parameter shapes, in ``params`` order, of the layers that map sizes[0]
    features through the hidden widths to sizes[-1] classes."""
    if sizes[-1] < 2 or min(sizes[:-1]) < 1:
        raise ValueError(f"{where}need class_count >= 2, feature_dim >= 1 and hidden_dim >= 1, got {sizes}")
    return [s for fan_in, fan_out in zip(sizes, sizes[1:]) for s in ((fan_out, fan_in), (fan_out,))]


def init_model(
    kind: str,
    class_count: int,
    feature_dim: int,
    rng: RngStream,
    hidden_dim: int = 32,
):
    """Fresh model with Gaussian(0, 2/fan_in) weights and zero biases, drawn
    layer by layer from the input up."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    hidden = MODEL_KINDS.index(kind)  # hidden layer count
    shapes = _layer_shapes([feature_dim, *[hidden_dim] * hidden, class_count], "")
    blocks = [rng.standard_normal(s) * np.sqrt(2.0 / s[1]) if len(s) == 2 else np.zeros(s) for s in shapes]
    return _MODEL_CLASSES[hidden](*blocks)


def bind_layers(model, grads=None) -> list[tuple]:
    """Each layer of ``model`` resolved ahead for the kernels of ``forward``
    and ``backward``: its weights, their transposed view, the bias shaped as
    it is added to a ([K,] n, out) batch, and the arrays its weight and bias
    gradients are written into, from ``grads`` (a dict keyed and shaped like
    ``model.params()``; None for a forward-only binding). All are views, so
    a binding follows in-place updates of the parameters and gradients."""
    params = model.params()
    out = iter([None] * len(params) if grads is None else [grads[k] for k in params])
    return [(w, w.swapaxes(-1, -2), b[..., None, :] if b.ndim > 1 else b, next(out), next(out))
            for w, b in model.layers()]


def _forward(layers, x) -> tuple[np.ndarray, list[np.ndarray]]:
    # Biases and the rectifier apply in place, so a stacked evaluation
    # holds one (K, n, h) array at a time.
    inputs = []
    for _, w_t, b, _, _ in layers:
        if inputs:
            np.maximum(x, ZERO, out=x)  # x > 0 is then the ReLU mask
        inputs.append(x)
        x = x @ w_t
        x += b
    return x, inputs


def _backward(layers, inputs, g) -> None:
    for i in range(len(layers) - 1, -1, -1):
        w, _, _, g_w, g_b = layers[i]
        x = inputs[i]
        np.matmul(g.swapaxes(-1, -2), x, out=g_w)
        np.add.reduce(g, axis=-2, out=g_b)
        if i:
            g = (g @ w) * (x > ZERO)


def forward(model, x, *, layers=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits for a batch x of shape (n, d): (n, c), or (K, n, c) when the
    model is stacked. A stacked model also takes (K, n, d), one batch per
    member; an unstacked one refuses it. Also returns each layer's input,
    which ``backward`` reads.

    ``layers`` may give ``bind_layers(model)``, resolved ahead. x is then
    taken as a checked float64 batch, and ``model`` is not read."""
    if layers is None:
        x = np.asarray(x, dtype=np.float64)
        w_in = model.layers()[0][0]
        d = w_in.shape[-1]
        if x.ndim not in (2, w_in.ndim) or x.shape[-1] != d:
            wanted = f"(n, {d}) or (K, n, {d})" if w_in.ndim == 3 else f"(n, {d}) (the model is unstacked)"
            raise ValueError(f"expected an {wanted} feature batch, got shape {x.shape}")
        layers = bind_layers(model)
    return _forward(layers, x)


def backward(model, inputs, d_logits, out=None, *, layers=None) -> dict[str, np.ndarray]:
    """Parameter gradients from d(loss)/d(logits) via the chain rule, given the
    layer inputs ``forward`` returned with logits of d_logits' shape. With
    ``out``, a dict of caller-owned arrays keyed and shaped like
    ``model.params()``, the gradients are written into those arrays and
    ``out`` is returned; the values are the same bit for bit.

    ``layers`` may give ``bind_layers(model, out)``, resolved ahead.
    d_logits is then taken as a checked float64 array, and ``model`` is
    not read."""
    if layers is None:
        d_logits = np.asarray(d_logits, dtype=np.float64)
        params = model.params()
        *_, (out_w, out_b) = model.layers()
        if d_logits.shape != (*out_b.shape[:-1], inputs[0].shape[-2], out_w.shape[-2]):
            raise ValueError(f"d_logits shape {d_logits.shape} does not match the forward pass")
        out = {k: np.empty_like(v) for k, v in params.items()} if out is None else out
        layers = bind_layers(model, out)
    _backward(layers, inputs, d_logits)
    return out


def predict(logits):
    """Argmax class index over the last axis; ties break toward the smallest index."""
    z = np.asarray(logits)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    return np.argmax(z, axis=-1)


def save_model(model, path) -> Path:
    """Checkpoint: magic, u8 kind code (the layer count: 1 linear, 2 mlp),
    u32 dims (c, d, then the hidden width), float32 parameter blocks in
    ``params`` order."""
    path = Path(path)
    if not isinstance(model, _MODEL_CLASSES):
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    sizes = [model.feature_dim, *(w.shape[-2] for w, _ in model.layers())]
    params = model.params()
    shapes = [p.shape for p in params.values()]
    if shapes != _layer_shapes(sizes, f"{path}: "):
        raise ValueError(f"{path}: a checkpoint holds one unstacked model, got shapes {shapes}")
    parts = [MODEL_MAGIC + struct.pack(f"<B{len(sizes)}I", len(sizes) - 1, sizes[-1], *sizes[:-1])]
    for name, block in params.items():
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
    if not 1 <= code <= len(_MODEL_CLASSES):
        raise ValueError(f"{path}: unknown model kind code {code}")
    cls = _MODEL_CLASSES[code - 1]
    off = 5 + 4 * (code + 1)
    if len(raw) < off:
        raise ValueError(f"{path}: truncated header")
    c, *sizes = struct.unpack_from(f"<{code + 1}I", raw, 5)
    shapes = _layer_shapes([*sizes, c], f"{path}: ")
    expected = off + 4 * sum(math.prod(shape) for shape in shapes)
    if len(raw) != expected:
        raise ValueError(f"{path}: size mismatch (expected {expected} bytes)")

    blocks = []
    for field, shape in zip(fields(cls), shapes):
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: block {field.name} holds non-finite values")
        blocks.append(arr.reshape(shape).astype(np.float64))
        off += 4 * count
    return cls(*blocks)
