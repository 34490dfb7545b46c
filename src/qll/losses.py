"""Pointwise losses.

Binary losses drive the per-class positive-unlabeled risks: a stochastic
weighted Jensen-Shannon divergence

    D_sjs(P || Q) = alpha * KL(P || M) + (1 - alpha) * KL(Q || M),
    M = alpha * P + (1 - alpha) * Q,

its scaled form  -1 / [(1 - alpha) * ln(1 - alpha)] * D_sjs  (which keeps the
loss magnitude stable as alpha varies and recovers KL as alpha -> 0 and the
classical JS divergence at alpha = 1/2), and plain KL (binary cross-entropy).
The mixing weight alpha lives in (0, 0.5] and is resampled once per training
iteration from Beta(0.5, 0.5) halved.

Multiclass baseline losses (CE, soft Bootstrap, GCE, SCE, weighted JS) are
provided for comparison runs. Every loss ships an analytic gradient that
matches central finite differences. CE, GCE and SCE read only the label's
softmax probability p_y, so the chain through the softmax, p * (g - <g, p>)
for g = d(loss)/dp, collapses to w * (p - onehot) with one weight per row,
w = -g_y * p_y: [p_y > EPS] for CE, p_y * max(p_y, EPS)**(q - 1) for GCE,
and a * [p_y > EPS] + 4b * p_y for SCE.

A binary loss against +1 at sigma is the same loss against -1 at 1 - sigma,
so both targets evaluate as one stacked (2, ...) array: index 0 against +1,
index 1 against -1. All logarithms are natural. Probabilities are clamped
to [EPS, 1 - EPS] before any logarithm; gradients are exact derivatives of
the clamped forms, so they vanish in the (saturated) clamp regions. They
are taken in closed form: for the unscaled SJS against +1, d(loss)/d(sigma)
= (1 - alpha) * (ln(sigma / m1) + ln(1 - alpha)) with m1 = alpha + (1 -
alpha) * sigma, as the other terms of its derivative cancel; for KL, the
logit gradient is -(1 - sigma) against +1 and sigma against -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import ONE, ZERO, RngStream, frozen_0d

__all__ = [
    "EPS",
    "ALPHA_FLOOR",
    "BinaryLossKind",
    "MulticlassLossKind",
    "kl_div",
    "sjs_div",
    "scaled_sjs",
    "sjs_scale",
    "sample_alpha",
    "binary_loss",
    "binary_loss_grad",
    "baseline_loss_batch",
]

EPS = 1e-7
ALPHA_FLOOR = 1e-3
# The clamp bounds as 0-d operands (see core.frozen_0d).
_EPS, _ONE_M_EPS = frozen_0d(EPS), frozen_0d(1.0 - EPS)

_BINARY_VARIANTS = ("scaled_sjs", "kl")
_MULTI_VARIANTS = ("ce", "bs", "gce", "sce", "js")

# Reverse cross-entropy clamps ln(0) at -4, i.e. zero entries of the one-hot
# target count as e^-4.
_RCE_LOG_FLOOR = 4.0


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= ZERO, ONE, e) / (ONE + e)


@dataclass(frozen=True)
class BinaryLossKind:
    """Which binary loss the PU risks evaluate.

    ``scaled_sjs`` uses the scaled stochastic JS divergence, at an alpha
    resampled per iteration. ``kl`` is binary cross-entropy and takes no
    alpha.
    """

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in _BINARY_VARIANTS:
            raise ValueError(f"variant must be one of {_BINARY_VARIANTS}, got {self.variant!r}")

    @classmethod
    def scaled_sjs(cls) -> "BinaryLossKind":
        return cls("scaled_sjs")

    @classmethod
    def kl(cls) -> "BinaryLossKind":
        return cls("kl")

    @property
    def needs_alpha(self) -> bool:
        return self.variant == "scaled_sjs"

    def resolve_alpha(self, alpha):
        """Alpha to evaluate with: None for kl, else a float, or a list of
        floats when ``alpha`` holds one per stacked run."""
        if self.variant == "kl":
            return None
        if alpha is None:
            raise ValueError(f"{self.variant} requires alpha")
        stacked = not isinstance(alpha, (int, float)) and np.ndim(alpha) > 0
        values = [float(v) for v in alpha] if stacked else [float(alpha)]
        for v in values:
            if not (0.0 < v <= 0.5):
                raise ValueError(f"alpha must lie in (0, 0.5], got {v}")
        return values if stacked else values[0]


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

    @cached_property
    def operands(self) -> tuple[np.ndarray, ...]:
        """The parameter terms ``baseline_loss_batch`` multiplies and
        divides by, each computed as its formula reads and held as a 0-d
        array (see ``core.frozen_0d``), once per loss: bs (beta, 1 - beta,
        -(1 - beta)), gce (q, q - 1), sce (-a, b * 4, a), js (w, 1 - w, -w,
        -w * (1 - w), sjs_scale(w)) with w = pi1; ce none."""
        v = self.variant
        if v == "bs":
            terms = (self.beta, 1.0 - self.beta, -(1.0 - self.beta))
        elif v == "gce":
            terms = (self.q, self.q - 1.0)
        elif v == "sce":
            terms = (-self.a, self.b * _RCE_LOG_FLOOR, self.a)
        elif v == "js":
            w = self.pi1
            terms = (w, 1.0 - w, -w, -w * (1.0 - w), sjs_scale(w))
        else:
            terms = ()
        return tuple(map(frozen_0d, terms))

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


def sjs_div(p, q, alpha: float) -> float:
    """Weighted JS divergence with mixture M = alpha*p + (1-alpha)*q.

    Equals the classical Jensen-Shannon divergence at alpha = 0.5.
    """
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha}")
    p, q = _check_distribution_pair(p, q)
    w = float(alpha)
    m = w * p + (1.0 - w) * q
    return w * kl_div(p, m) + (1.0 - w) * kl_div(q, m)


def sjs_scale(alpha: float) -> float:
    """The magnitude-stabilizing factor -1 / [(1 - alpha) * ln(1 - alpha)]."""
    return -1.0 / ((1.0 - alpha) * math.log1p(-alpha))


def scaled_sjs(p, q, alpha: float) -> float:
    """Scaled weighted JS; tends to kl_div(p, q) as alpha -> 0."""
    return sjs_scale(alpha) * sjs_div(p, q, alpha)


def sample_alpha(rng: RngStream, size: int | None = None):
    """Per-iteration mixing weight: Beta(0.5, 0.5) halved into (0, 0.5],
    floored at ALPHA_FLOOR so the scale factor stays bounded. With ``size``,
    an array of the next ``size`` iterations' weights, equal to as many
    float draws in turn."""
    u = rng.beta(0.5, 0.5, size)
    return max(u / 2.0, ALPHA_FLOOR) if size is None else np.maximum(u / 2.0, ALPHA_FLOOR)


def _alpha_terms(a) -> np.ndarray:
    """(alpha, 1 - alpha, ln(1 - alpha), sjs_scale(alpha), 1 / ln(1 - alpha))
    of an alpha or an array of alphas, as a (5, *shape) array; a float gives
    (5,). Each element is the ``math`` operation on its alpha (numpy's log1p
    may differ in the last bit), so every alpha evaluates bit for bit alike;
    ln(1 - alpha) is taken once, and the scale by ``sjs_scale``'s
    expression. The last is the factor f of ``_binary_parts``' gradient
    pair."""
    a = np.asarray(a, dtype=np.float64)
    terms = []
    for v in a.ravel().tolist():
        log1m = math.log1p(-v)
        terms.append((v, 1.0 - v, log1m, -1.0 / ((1.0 - v) * log1m), 1.0 / log1m))
    return np.array(terms).T.reshape(5, *a.shape)


def _resolve_terms(kind: BinaryLossKind, alpha, shape: tuple[int, ...]):
    """``_alpha_terms`` of ``kind``'s alpha for logits of ``shape`` (None for
    kl); K per-run alphas need (K, n, c) logits and give (K, 1, 1) columns."""
    a = kind.resolve_alpha(alpha)
    if not isinstance(a, list):
        return None if a is None else _alpha_terms(a)
    if len(shape) != 3 or shape[0] != len(a):
        raise ValueError(f"{len(a)} per-run alphas need (K={len(a)}, n, c) logits, got {shape}")
    return _alpha_terms(a)[..., None, None]


def _sjs_pos_loss(sig: np.ndarray, alpha, one_m_a, log1m_a, out: np.ndarray) -> np.ndarray:
    """Writes D_sjs(t || (sigma, 1-sigma)) for the positive one-hot target
    t = (1, 0) into ``out``, given ``_alpha_terms``, and returns ln(sigma /
    m1), which its gradient reads. ``sig`` must already be clamped; the
    stacked pair (sigma, 1 - sigma) gives both targets."""
    m1 = alpha + one_m_a * sig
    # alpha*KL(t||M) + (1-alpha)*KL(q||M); KL(t||M) = -ln m1, KL(q||M) = sig*ln(sig/m1) - (1-sig)*ln(1-alpha)
    log_ratio = np.log(sig / m1)
    np.subtract(one_m_a * (sig * log_ratio - (ONE - sig) * log1m_a), alpha * np.log(m1), out=out)
    return log_ratio


# The sign each entry of _binary_parts' gradient pair takes: against +1 the
# gradient is -f times the first entry, against -1 f times the second.
_PAIR_SIGN = np.array([-1.0, 1.0])


def _binary_parts(kind: BinaryLossKind, x: np.ndarray, terms) -> np.ndarray:
    """Losses and logit gradients against both targets from one sigmoid
    pass, as one (2, 2, *x.shape) array for float64 logits ``x`` of at
    least one dimension: [0] holds the losses and [1] the gradient pair,
    each with index 0 against +1 and index 1 against -1. binary_loss,
    binary_loss_grad and the class-wise risk all evaluate through it.
    ``terms`` are the alpha's ``_resolve_terms``: a (5,) array or five 0-d
    arrays for one run, a (5, K, 1, 1) array of columns for (K, n, c)
    logits of K stacked runs, or None for kl.

    Three constants are left to the caller, which applies them to fewer
    or smaller arrays: scaled sjs losses come without their scale
    (``terms[3]``), and each gradient is ``_PAIR_SIGN`` times f times its
    entry of the pair, with f = 1 for kl and 1 / ln(1 - alpha)
    (``terms[4]``) for scaled sjs. Inside the clamp kl's pair is (1 -
    sigma, sigma), the clamped pair reversed, and scaled sjs's is (ln(s /
    m1) + ln(1 - alpha)) * sigma * (1 - sigma) with s the target side's
    probability; outside it both are 0."""
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise ValueError("logit must be finite")

    sig = _stable_sigmoid(x)
    interior = (sig > _EPS) & (sig < _ONE_M_EPS)
    # The clamped target-side probability: sigma for +1, 1 - sigma for -1.
    both = np.empty((2, *x.shape))
    np.minimum(np.maximum(sig, _EPS, out=both[0]), _ONE_M_EPS, out=both[0])
    np.subtract(ONE, both[0], out=both[1])

    out = np.zeros((2, 2, *x.shape))
    if kind.variant == "kl":
        # One-hot target makes KL(t||q) the negative log of the target side,
        # whose logit gradients are -(1 - sigma) and sigma.
        np.negative(np.log(both, out=out[0]), out=out[0])
        np.copyto(out[1], both[::-1], where=interior)
    else:
        # d(loss)/d(s) is (1 - alpha) * (ln(s / m1) + ln(1 - alpha)), and the
        # scale times (1 - alpha) is -f; where interior, both[0] is sigma and
        # both[1] is 1 - sigma, bit for bit.
        log_ratio = _sjs_pos_loss(both, *terms[:3], out=out[0])
        np.add(log_ratio, terms[2], out=log_ratio)
        np.multiply(log_ratio, both[0] * both[1], out=out[1], where=interior)
    return out


def _binary_select(kind: BinaryLossKind, logit, target: int, alpha: float | None, grad: bool):
    if target not in (1, -1):
        raise ValueError(f"target must be +1 or -1, got {target}")
    x = np.atleast_1d(np.asarray(logit, dtype=np.float64))
    terms = _resolve_terms(kind, alpha, x.shape)
    side = 0 if target == 1 else 1
    out = _binary_parts(kind, x, terms)[int(grad), side]
    # The constants _binary_parts leaves to its caller.
    if grad:
        f = ONE if terms is None else terms[4]
        out = out * (_PAIR_SIGN[side] * f)
    elif terms is not None:
        out = out * terms[3]
    return float(out[0]) if np.ndim(logit) == 0 else out


def binary_loss(kind: BinaryLossKind, logit, target: int, alpha: float | None = None):
    """Loss of a one-vs-rest logit against target +1 or -1.

    The logit is squashed through a sigmoid into a two-point distribution q
    = (sigma, 1 - sigma); the target becomes the one-hot (1,0) or (0,1).
    KL yields binary cross-entropy; scaled SJS evaluates the scaled
    weighted JS between target and q. Accepts scalars or arrays.
    """
    return _binary_select(kind, logit, target, alpha, grad=False)


def binary_loss_grad(kind: BinaryLossKind, logit, target: int, alpha: float | None = None):
    """d(binary_loss)/d(logit); exact derivative of the clamped forward."""
    return _binary_select(kind, logit, target, alpha, grad=True)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


@lru_cache(maxsize=64)
def _row_starts(shape: tuple[int, ...], c: int) -> np.ndarray:
    """Read-only flat index of the first entry of every row of (*shape, c)
    logits."""
    starts = np.arange(0, math.prod(shape) * c, c).reshape(shape)
    starts.flags.writeable = False
    return starts


def baseline_loss_batch(kind: MulticlassLossKind, logits, labels, *, at=None):
    """Vectorized multiclass baseline losses.

    Returns per-example losses (n,) and the gradient of each loss with
    respect to its own logits row (n, c). K stacked runs pass (K, n, c)
    logits with (K, n) labels and get (K, n) losses and (K, n, c)
    gradients; every op works along the last axis, so member k's rows equal
    its own (n, c) call bit for bit.

    ``at`` may give, resolved ahead, the flat index into the logits of each
    row's label entry, shaped like the labels. The labels are then taken as
    checked and are not read; the logits are still checked to be finite.
    """
    z = np.asarray(logits, dtype=np.float64)
    if at is None:
        y = np.asarray(labels, dtype=np.int64)
        if z.ndim not in (2, 3) or y.shape != z.shape[:-1]:
            raise ValueError(f"need (n, c) or (K, n, c) logits with matching labels, got {z.shape} and {y.shape}")
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError("logits must be finite")
    if at is None:
        c = z.shape[-1]
        if y.size and y.view(np.uint64).max() >= c:  # a negative label reads as >= 2**63
            raise ValueError(f"labels must lie in [0, {c})")
        at = _row_starts(y.shape, c) + y

    p = _softmax(z)
    v = kind.variant
    if v in ("ce", "gce", "sce"):
        # ce, gce and sce read the label entries p_y only, so g_p is zero off
        # the label, and the chain through softmax (below, for bs and js)
        # collapses to w * (p - onehot) with one weight per row, w = -g_y *
        # p_y: ce [p_y > EPS], gce p_y * max(p_y, EPS)**(q-1), sce a * [p_y >
        # EPS] + 4b * p_y. p becomes the gradient in place.
        py = p.take(at)
        pyc = np.maximum(py, _EPS)
        if v == "ce":
            loss = -np.log(pyc)
            # w is 1, and 0 on saturated rows, which stay +0.0 throughout as
            # the chain gives them (w * (p_y - 1) would be -0.0 at the label).
            p.put(at, py - ONE)
            np.copyto(p, ZERO, where=(py <= _EPS)[..., None])
            return loss, p
        if v == "gce":
            q, q_m1 = kind.operands
            # The exponent stays a Python float: numpy computes x ** 0.5 by
            # np.sqrt for a Python float 0.5 and by np.power for an array.
            loss = (ONE - py**kind.q) / q
            w = py * pyc**q_m1
        else:
            neg_a, b_floor, a = kind.operands
            loss = neg_a * np.log(pyc) + b_floor * (ONE - py)
            w = b_floor * py
            np.add(w, a, out=w, where=py > _EPS)
        at_y = w * (py - ONE)
        np.multiply(p, w[..., None], out=p)
        p.put(at, at_y)
        return loss, p

    pc = np.maximum(p, _EPS)  # softmax entries are <= 1: the clamp to [EPS, 1]
    interior = p > _EPS
    log_pc = np.log(pc)
    onehot = np.zeros(z.shape)
    onehot.put(at, 1.0)
    if v == "bs":
        beta, one_m_beta, neg_one_m_beta = kind.operands
        target = beta * onehot + one_m_beta * p
        loss = -np.add.reduce(target * log_pc, axis=-1)
        g_p = neg_one_m_beta * log_pc - np.where(interior, target / pc, ZERO)
    else:  # js
        w, one_m_w, neg_w, neg_w_one_m_w, scale = kind.operands
        m = w * onehot + one_m_w * p
        mc = np.maximum(m, _EPS)
        m_int = m > _EPS
        log_ratio = log_pc - np.log(mc)
        # D = w * KL(onehot||m) + (1-w) * KL(p||m), with KL(onehot||m) = -ln m_y
        loss = neg_w * np.log(mc.take(at)) + one_m_w * np.add.reduce(p * log_ratio, axis=-1)
        g_p = neg_w_one_m_w * np.where(m_int, onehot / mc, ZERO) + one_m_w * (
            log_ratio + np.where(interior, ONE, ZERO) - one_m_w * np.where(m_int, p / mc, ZERO)
        )
        if kind.scaled:
            loss, g_p = scale * loss, scale * g_p

    # Chain through softmax: dL/dz_j = p_j * (g_j - sum_k g_k p_k).
    inner = np.add.reduce(g_p * p, axis=-1, keepdims=True)
    grad = p * (g_p - inner)
    return loss, grad
