"""Independent reference implementations used as test oracles.

Deliberately slow and loop-based; they must never share code with the
vectorized production paths they check.
"""

import math
from dataclasses import dataclass

import numpy as np

from qll.core import ClassPriors
from qll.losses import EPS, BinaryLossKind, binary_loss
from qll.risk import ClassRiskBreakdown


def brute_force_cpu_risk(logits, labels, pi1, pi2, loss, alpha=None, u_mode="complement"):
    """Loop-based class-wise PU risk: returns (value, objective, corrected)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    n, c = z.shape
    values, objectives, corrected = [], [], []
    for j in range(c):
        pos = [i for i in range(n) if y[i] == j]
        unl = list(range(n)) if u_mode == "full" else [i for i in range(n) if y[i] != j]
        r_pp = sum(binary_loss(loss, z[i, j], +1, alpha) for i in pos) / len(pos) if pos else 0.0
        r_pm = sum(binary_loss(loss, z[i, j], -1, alpha) for i in pos) / len(pos) if pos else 0.0
        r_um = sum(binary_loss(loss, z[i, j], -1, alpha) for i in unl) / len(unl)
        neg = r_um - pi2 * r_pm
        values.append(pi1 * r_pp + max(neg, 0.0))
        if neg < 0.0:
            objectives.append(pi2 * r_pm - r_um)
            corrected.append(j)
        else:
            objectives.append(pi1 * r_pp + neg)
    return float(np.mean(values)), float(np.mean(objectives)), corrected


def class_partition(labels, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Split batch indices into P (label == j) and U (label != j)."""
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("labels must be a nonempty vector")
    idx = np.arange(y.size)
    mask = y == j
    return idx[mask], idx[~mask]


def _mean_or_zero(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def pu_risk_unbiased(
    pos_logits, unl_logits, pi_p: float, loss: BinaryLossKind, alpha: float | None = None
) -> float:
    """Unbiased PU risk  pi*R_p^+ + R_u^- - pi*R_p^-;  may be negative.

    An empty side contributes zero to its mean terms; both sides empty is an
    error.
    """
    if not (0.0 < pi_p <= 1.0):
        raise ValueError(f"pi_p must lie in (0, 1], got {pi_p}")
    pos = np.asarray(pos_logits, dtype=np.float64).ravel()
    unl = np.asarray(unl_logits, dtype=np.float64).ravel()
    if pos.size == 0 and unl.size == 0:
        raise ValueError("need at least one positive or unlabeled logit")
    r_p_plus = _mean_or_zero(binary_loss(loss, pos, +1, alpha)) if pos.size else 0.0
    r_p_minus = _mean_or_zero(binary_loss(loss, pos, -1, alpha)) if pos.size else 0.0
    r_u_minus = _mean_or_zero(binary_loss(loss, unl, -1, alpha)) if unl.size else 0.0
    return pi_p * r_p_plus + r_u_minus - pi_p * r_p_minus


def nnpu_class_risk(
    pos_logits,
    unl_logits,
    priors: ClassPriors,
    loss: BinaryLossKind,
    alpha: float | None = None,
) -> tuple[ClassRiskBreakdown, float]:
    """Non-negative class risk for one class; returns (breakdown, value).

    An empty P contributes zero positive-side means. An empty U is an error:
    the caller must resample a batch that spans at least two classes.
    """
    pos = np.asarray(pos_logits, dtype=np.float64).ravel()
    unl = np.asarray(unl_logits, dtype=np.float64).ravel()
    if unl.size == 0:
        raise ValueError("unlabeled side is empty; resample a batch spanning >= 2 classes")
    r_p_plus = _mean_or_zero(binary_loss(loss, pos, +1, alpha)) if pos.size else 0.0
    r_p_minus = _mean_or_zero(binary_loss(loss, pos, -1, alpha)) if pos.size else 0.0
    r_u_minus = _mean_or_zero(binary_loss(loss, unl, -1, alpha))
    neg_part = r_u_minus - priors.pi2 * r_p_minus
    corrected = neg_part < 0.0
    value = priors.pi1 * r_p_plus + max(neg_part, 0.0)
    breakdown = ClassRiskBreakdown(
        r_p_plus, r_u_minus, r_p_minus, int(pos.size), int(unl.size), corrected
    )
    return breakdown, value


def per_target_binary_loss(kind, logits, target, alpha=None):
    """Binary loss and its logit gradient against one target, written out
    one target at a time. The fused production pass must match it bit for
    bit: any change to the float operation order changes metrics.csv."""
    x = np.atleast_1d(np.asarray(logits, dtype=np.float64))
    sig = np.empty_like(x)
    nonneg = x >= 0
    sig[nonneg] = 1.0 / (1.0 + np.exp(-x[nonneg]))
    ex = np.exp(x[~nonneg])
    sig[~nonneg] = ex / (1.0 + ex)
    interior = (sig > EPS) & (sig < 1.0 - EPS)
    sigc = np.clip(sig, EPS, 1.0 - EPS)
    if kind.variant == "kl":
        loss = -np.log(sigc) if target == 1 else -np.log(1.0 - sigc)
        dls = -1.0 / sigc if target == 1 else 1.0 / (1.0 - sigc)
    else:
        a = kind.resolve_alpha(alpha)
        s = sigc if target == 1 else 1.0 - sigc
        one_m_a, log1m_a = 1.0 - a, math.log1p(-a)
        m1 = a + one_m_a * s
        kl_t = -np.log(m1)
        kl_q = s * np.log(s / m1) - (1.0 - s) * log1m_a
        draw = -a * one_m_a / m1 + one_m_a * (np.log(s / m1) + log1m_a + 1.0 - one_m_a * s / m1)
        scale = -1.0 / ((1.0 - a) * math.log1p(-a))
        loss = scale * (a * kl_t + one_m_a * kl_q)
        dls = scale * draw if target == 1 else -scale * draw
    grad = np.where(interior, dls * sig * (1.0 - sig), 0.0)
    return loss, grad


def masked_stable_sigmoid(x):
    """The logistic function by boolean-mask indexing: 1 / (1 + exp(-x))
    where x >= 0, exp(x) / (1 + exp(x)) below. The branch-free production
    form must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
        return cls(float(masked_stable_sigmoid(np.asarray([logit]))[0]))


def classical_js(p, q):
    """Textbook Jensen-Shannon divergence with the equal-weight midpoint."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)

    def kl(a, b):
        total = 0.0
        for ai, bi in zip(a, b):
            if ai > 0.0:
                total += ai * math.log(ai / bi)
        return total

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def solve_kl_logits(mean_plus, mean_minus):
    """Two logits whose KL losses average to (mean_plus, mean_minus).

    With sigmoid outputs s and t:  -ln(s*t)/2 = mean_plus  and
    -ln((1-s)(1-t))/2 = mean_minus,  which reduces to a quadratic in s.
    """
    prod = math.exp(-2.0 * mean_plus)
    comp = math.exp(-2.0 * mean_minus)
    ssum = 1.0 + prod - comp
    disc = ssum * ssum - 4.0 * prod
    if disc < 0.0:
        raise ValueError("target means are not achievable with two logits")
    s = (ssum + math.sqrt(disc)) / 2.0
    t = (ssum - math.sqrt(disc)) / 2.0
    return [math.log(s / (1.0 - s)), math.log(t / (1.0 - t))]


def solve_kl_logit_minus(mean_minus):
    """One logit whose KL loss against -1 equals mean_minus."""
    s = 1.0 - math.exp(-mean_minus)
    return math.log(s / (1.0 - s))


def rel_err(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return np.linalg.norm(a - b) / max(na, nb, floor)


def central_diff(f, x, h=1e-5):
    """Central finite differences of a scalar function over a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g
