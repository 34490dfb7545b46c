"""Pointwise losses.

Binary losses drive the per-class positive-unlabeled risks: a stochastic
weighted Jensen-Shannon divergence

    D_sjs(P || Q) = alpha * KL(P || M) + (1 - alpha) * KL(Q || M),
    M = alpha * P + (1 - alpha) * Q,

its scaled form  -1 / [(1 - alpha) * ln(1 - alpha)] * D_sjs  (which keeps the
loss magnitude stable as alpha varies and recovers KL as alpha -> 0 and the
classical JS divergence at alpha = 1/2), and plain KL (binary cross-entropy).
The mixing weight alpha lives in (0, 0.5] and is either fixed or resampled
once per training iteration from Beta(0.5, 0.5) halved.

Multiclass baseline losses (CE, soft Bootstrap, GCE, SCE, weighted JS) are
provided for comparison runs. Every loss ships an analytic gradient that
matches central finite differences.

All logarithms are natural. Probabilities are clamped to [EPS, 1 - EPS]
before any logarithm; gradients are exact derivatives of the clamped forms,
so they vanish in the (saturated) clamp regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream

__all__ = [
    "EPS",
    "ALPHA_FLOOR",
    "BernoulliPair",
    "BinaryLossKind",
    "MulticlassLossKind",
    "kl_div",
    "sjs_div",
    "scaled_sjs",
    "sjs_scale",
    "sample_alpha",
    "binary_loss",
    "binary_loss_grad",
    "baseline_loss",
    "baseline_loss_batch",
]

EPS = 1e-7
ALPHA_FLOOR = 1e-3

_BINARY_VARIANTS = ("scaled_sjs", "kl")
_MULTI_VARIANTS = ("ce", "bs", "gce", "sce", "js")

# Reverse cross-entropy clamps ln(0) at -4, i.e. zero entries of the one-hot
# target count as e^-4.
_RCE_LOG_FLOOR = 4.0


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class BernoulliPair:
    """Two-point distribution (p_pos, 1 - p_pos) with entries clamped to
    [EPS, 1 - EPS] at construction so downstream logarithms stay finite."""

    p_pos: float

    def __post_init__(self) -> None:
        p = float(self.p_pos)
        if not math.isfinite(p):
            raise ValueError("p_pos must be finite")
        object.__setattr__(self, "p_pos", min(max(p, EPS), 1.0 - EPS))

    @property
    def p_neg(self) -> float:
        return 1.0 - self.p_pos

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pos, self.p_neg])

    @classmethod
    def from_logit(cls, logit: float) -> "BernoulliPair":
        if not math.isfinite(logit):
            raise ValueError("logit must be finite")
        return cls(float(_stable_sigmoid(np.asarray([logit], dtype=np.float64))[0]))


@dataclass(frozen=True)
class BinaryLossKind:
    """Which binary loss the PU risks evaluate.

    ``scaled_sjs`` uses the scaled stochastic JS divergence; its alpha is
    resampled per iteration when ``fixed_alpha`` is None and pinned
    otherwise (0.5 is the classical JS point). ``kl`` is binary
    cross-entropy and takes no alpha.
    """

    variant: str
    fixed_alpha: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in _BINARY_VARIANTS:
            raise ValueError(f"variant must be one of {_BINARY_VARIANTS}, got {self.variant!r}")
        if self.variant == "kl":
            if self.fixed_alpha is not None:
                raise ValueError("kl takes no alpha")
        elif self.fixed_alpha is not None and not (0.0 < self.fixed_alpha <= 0.5):
            raise ValueError(f"fixed alpha must lie in (0, 0.5], got {self.fixed_alpha}")

    @classmethod
    def scaled_sjs(cls, fixed_alpha: float | None = None) -> "BinaryLossKind":
        return cls("scaled_sjs", fixed_alpha)

    @classmethod
    def kl(cls) -> "BinaryLossKind":
        return cls("kl")

    @property
    def needs_alpha(self) -> bool:
        return self.variant == "scaled_sjs" and self.fixed_alpha is None

    def resolve_alpha(self, alpha: float | None) -> float | None:
        """Alpha to evaluate with, preferring the pinned value."""
        if self.variant == "kl":
            return None
        a = self.fixed_alpha if self.fixed_alpha is not None else alpha
        if a is None:
            raise ValueError(f"{self.variant} requires alpha")
        if not (0.0 < a <= 0.5):
            raise ValueError(f"alpha must lie in (0, 0.5], got {a}")
        return float(a)


@dataclass(frozen=True)
class MulticlassLossKind:
    """Baseline multiclass losses evaluated on softmax probabilities."""

    variant: str
    beta: float | None = None  # bs
    q: float | None = None  # gce
    a: float | None = None  # sce
    b: float | None = None  # sce
    pi1: float | None = None  # js
    scaled: bool = True  # js

    def __post_init__(self) -> None:
        v = self.variant
        if v not in _MULTI_VARIANTS:
            raise ValueError(f"variant must be one of {_MULTI_VARIANTS}, got {v!r}")
        if v == "bs" and not (self.beta is not None and 0.0 < self.beta < 1.0):
            raise ValueError("bs needs beta in (0, 1)")
        if v == "gce" and not (self.q is not None and 0.0 < self.q <= 1.0):
            raise ValueError("gce needs q in (0, 1]")
        if v == "sce" and not (
            self.a is not None and self.b is not None and self.a > 0.0 and self.b > 0.0
        ):
            raise ValueError("sce needs a > 0 and b > 0")
        if v == "js" and not (self.pi1 is not None and 0.0 < self.pi1 < 1.0):
            raise ValueError("js needs pi1 in (0, 1)")

    @classmethod
    def ce(cls) -> "MulticlassLossKind":
        return cls("ce")

    @classmethod
    def bootstrap(cls, beta: float = 0.4) -> "MulticlassLossKind":
        return cls("bs", beta=beta)

    @classmethod
    def gce(cls, q: float = 0.7) -> "MulticlassLossKind":
        return cls("gce", q=q)

    @classmethod
    def sce(cls, a: float = 0.1, b: float = 1.0) -> "MulticlassLossKind":
        return cls("sce", a=a, b=b)

    @classmethod
    def js_pi(cls, pi1: float = 0.1, scaled: bool = True) -> "MulticlassLossKind":
        return cls("js", pi1=pi1, scaled=scaled)


def _check_distribution_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"distributions must share support, got shapes {p.shape} and {q.shape}")
    return p, q


def kl_div(p, q) -> float:
    """KL(p || q) in nats, with 0*log 0 := 0 and q clamped at EPS."""
    p, q = _check_distribution_pair(p, q)
    qc = np.maximum(q, EPS)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / qc[mask])))


def _weighted_js(p: np.ndarray, q: np.ndarray, w: float) -> float:
    m = w * p + (1.0 - w) * q
    return w * kl_div(p, m) + (1.0 - w) * kl_div(q, m)


def sjs_div(p, q, alpha: float) -> float:
    """Weighted JS divergence with mixture M = alpha*p + (1-alpha)*q.

    Equals the classical Jensen-Shannon divergence at alpha = 0.5.
    """
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha}")
    p, q = _check_distribution_pair(p, q)
    return _weighted_js(p, q, float(alpha))


def sjs_scale(alpha: float) -> float:
    """The magnitude-stabilizing factor -1 / [(1 - alpha) * ln(1 - alpha)]."""
    return -1.0 / ((1.0 - alpha) * math.log1p(-alpha))


def scaled_sjs(p, q, alpha: float) -> float:
    """Scaled weighted JS; tends to kl_div(p, q) as alpha -> 0."""
    return sjs_scale(alpha) * sjs_div(p, q, alpha)


def sample_alpha(rng: RngStream) -> float:
    """Per-iteration mixing weight: Beta(0.5, 0.5) halved into (0, 0.5],
    floored at ALPHA_FLOOR so the scale factor stays bounded."""
    u = rng.beta(0.5, 0.5)
    return max(u / 2.0, ALPHA_FLOOR)


def _sjs_pos_parts(sig: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Loss and d(loss)/d(sigma) of D_sjs(t || (sigma, 1-sigma)) for the
    positive one-hot target t = (1, 0). ``sig`` must already be clamped."""
    one_m_a = 1.0 - alpha
    log1m_a = math.log1p(-alpha)
    m1 = alpha + one_m_a * sig
    # KL(t||M) = -ln m1 ; KL(q||M) = sig*ln(sig/m1) - (1-sig)*ln(1-alpha)
    kl_t = -np.log(m1)
    kl_q = sig * np.log(sig / m1) - (1.0 - sig) * log1m_a
    loss = alpha * kl_t + one_m_a * kl_q
    dloss = -alpha * one_m_a / m1 + one_m_a * (
        np.log(sig / m1) + log1m_a + 1.0 - one_m_a * sig / m1
    )
    return loss, dloss


def _binary_parts(kind: BinaryLossKind, logit, alpha: float | None):
    """Losses and logit gradients against both targets from one sigmoid
    pass: (loss_pos, loss_neg, grad_pos, grad_neg), each shaped like the
    (at least 1-d) logits. binary_loss, binary_loss_grad and the class-wise
    risk all evaluate through it."""
    x = np.atleast_1d(np.asarray(logit, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise ValueError("logit must be finite")

    sig = _stable_sigmoid(x)
    interior = (sig > EPS) & (sig < 1.0 - EPS)
    sigc = np.clip(sig, EPS, 1.0 - EPS)
    one_m_sigc = 1.0 - sigc
    a = kind.resolve_alpha(alpha)

    if kind.variant == "kl":
        # One-hot target makes KL(t||q) the negative log of the target side.
        loss_pos, loss_neg = -np.log(sigc), -np.log(one_m_sigc)
        dls_pos, dls_neg = -1.0 / sigc, 1.0 / one_m_sigc
    else:
        scale = sjs_scale(a)
        raw_pos, draw_pos = _sjs_pos_parts(sigc, a)
        raw_neg, draw_neg = _sjs_pos_parts(one_m_sigc, a)
        loss_pos, loss_neg = scale * raw_pos, scale * raw_neg
        dls_pos, dls_neg = scale * draw_pos, -scale * draw_neg

    one_m_sig = 1.0 - sig
    grad_pos = np.where(interior, dls_pos * sig * one_m_sig, 0.0)
    grad_neg = np.where(interior, dls_neg * sig * one_m_sig, 0.0)
    return loss_pos, loss_neg, grad_pos, grad_neg


def _binary_select(kind: BinaryLossKind, logit, target: int, alpha: float | None, grad: bool):
    if target not in (1, -1):
        raise ValueError(f"target must be +1 or -1, got {target}")
    out = _binary_parts(kind, logit, alpha)[(2 if grad else 0) + (0 if target == 1 else 1)]
    return float(out[0]) if np.ndim(logit) == 0 else out


def binary_loss(kind: BinaryLossKind, logit, target: int, alpha: float | None = None):
    """Loss of a one-vs-rest logit against target +1 or -1.

    The logit is squashed through a sigmoid into a two-point distribution q
    (a ``BernoulliPair``); the target becomes the one-hot (1,0) or (0,1).
    KL yields binary cross-entropy; scaled SJS evaluates the scaled
    weighted JS between target and q. Accepts scalars or arrays.
    """
    return _binary_select(kind, logit, target, alpha, grad=False)


def binary_loss_grad(kind: BinaryLossKind, logit, target: int, alpha: float | None = None):
    """d(binary_loss)/d(logit); exact derivative of the clamped forward."""
    return _binary_select(kind, logit, target, alpha, grad=True)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def baseline_loss_batch(kind: MulticlassLossKind, logits, labels):
    """Vectorized multiclass baseline losses.

    Returns per-example losses (n,) and the gradient of each loss with
    respect to its own logits row (n, c).
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or y.shape != (z.shape[0],):
        raise ValueError(f"logits must be (n, c) with n labels, got {z.shape} and {y.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    n, c = z.shape
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"labels must lie in [0, {c})")

    p = _softmax(z)
    pc = np.clip(p, EPS, 1.0)
    interior = p > EPS
    rows = np.arange(n)
    onehot = np.zeros((n, c))
    onehot[rows, y] = 1.0
    log_pc = np.log(pc)

    v = kind.variant
    if v == "ce":
        loss = -log_pc[rows, y]
        g_p = np.zeros((n, c))
        g_p[rows, y] = np.where(interior[rows, y], -1.0 / pc[rows, y], 0.0)
    elif v == "bs":
        beta = kind.beta
        target = beta * onehot + (1.0 - beta) * p
        loss = -(target * log_pc).sum(axis=1)
        g_p = -(1.0 - beta) * log_pc - np.where(interior, target / pc, 0.0)
    elif v == "gce":
        q = kind.q
        py = p[rows, y]
        loss = (1.0 - py**q) / q
        g_p = np.zeros((n, c))
        g_p[rows, y] = -np.maximum(py, EPS) ** (q - 1.0)
    elif v == "sce":
        a, b = kind.a, kind.b
        py = p[rows, y]
        loss = -a * log_pc[rows, y] + b * _RCE_LOG_FLOOR * (1.0 - py)
        g_p = np.zeros((n, c))
        g_p[rows, y] = np.where(interior[rows, y], -a / pc[rows, y], 0.0) - b * _RCE_LOG_FLOOR
    else:  # js
        w = kind.pi1
        m = w * onehot + (1.0 - w) * p
        mc = np.maximum(m, EPS)
        m_int = m > EPS
        log_ratio = log_pc - np.log(mc)
        # D = w * KL(onehot||m) + (1-w) * KL(p||m), with KL(onehot||m) = -ln m_y
        loss = -w * np.log(mc[rows, y]) + (1.0 - w) * (p * log_ratio).sum(axis=1)
        g_p = -w * (1.0 - w) * np.where(m_int, onehot / mc, 0.0) + (1.0 - w) * (
            log_ratio
            + np.where(interior, 1.0, 0.0)
            - (1.0 - w) * np.where(m_int, p / mc, 0.0)
        )
        if kind.scaled:
            s = sjs_scale(w)
            loss = s * loss
            g_p = s * g_p

    # Chain through softmax: dL/dz_j = p_j * (g_j - sum_k g_k p_k).
    inner = (g_p * p).sum(axis=1, keepdims=True)
    grad = p * (g_p - inner)
    return loss, grad


def baseline_loss(kind: MulticlassLossKind, logits, label: int):
    """Single-example baseline loss; returns (loss, gradient wrt logits)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"logits must be a vector, got shape {z.shape}")
    losses, grads = baseline_loss_batch(kind, z[None, :], np.asarray([label]))
    return float(losses[0]), grads[0]
