"""Independent reference implementations used as test oracles.

Deliberately slow and loop-based; they must never share code with the
vectorized production paths they check.
"""

import math
from dataclasses import dataclass

import numpy as np

from qll.core import (
    STREAM_ALPHA,
    STREAM_BATCHING,
    STREAM_INIT,
    AmbiguousDataset,
    ClassPriors,
    GenMeta,
    RngStream,
)
from qll.losses import EPS, BinaryLossKind, baseline_loss_batch, binary_loss, sample_alpha
from qll.models import backward, forward, init_model
from qll.risk import ClassRiskBreakdown, cpu_risk_with_grad
from qll.training import EpochStats, _epoch_order, evaluate, lr_at_epoch


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
    one target at a time. The fused production pass must match its losses
    bit for bit and its gradients within ``assert_kernel_close``: the pass
    takes the gradients in closed form, which rounds differently."""
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


def assert_kernel_close(got, want):
    """Every element within 1e-12 of its own magnitude in ``want``, so a
    zero stays exactly zero (a gradient outside the clamp, say). The binary
    pass and the risk kernel take gradients in closed form and apply the
    sjs scale, the targets' signs and the class mean's 1/c to fewer and
    smaller arrays than the oracles do, which rounds differently in the
    last bits."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def assert_kernel_close_to_max(got, want):
    """Every element within 1e-12 of the largest magnitude in ``want``, and
    zero exactly where ``want`` is. Only for the summed risk gradient in
    u_mode="full": there a P example's P and U gradient terms can nearly
    cancel, so a last-bit difference in each term is a larger share of
    their sum than ``assert_kernel_close`` allows."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got == 0, want == 0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(initial=0.0))


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


# -- the generator's draw law, one example at a time: each example reads
# the raw words of its own substream with Python-int arithmetic, makes one
# soft label and quantizes it. The batched generator must reproduce its
# features, labels and diagnostics bit for bit.

_DEGENERATE_RETRIES = 100


def reference_soft_label(labels, counts, c):
    """Normalized soft label of one mixed group, as SoftLabel(numer)."""
    numer = np.zeros(c, dtype=np.float64)
    np.add.at(numer, np.asarray(labels, dtype=np.int64), np.asarray(counts).astype(np.float64))
    return numer / float(numer.sum())


def reference_draw_group(base, spec, words):
    """One attempt from its m + r raw words: (picks, draws in [0, m)). Each
    draw is the high word of word * bound; Floyd's sampler draws in [0, j]
    for j = n - m, ..., n - 1 and takes j on a repeat."""
    n, m = base.n_examples, spec.m
    picks = []
    for w, j in zip(words, range(n - m, n)):
        v = (w * (j + 1)) >> 64
        picks.append(j if v in set(picks) else v)
    return picks, [(w * m) >> 64 for w in words[m:]]


def reference_generate(base, spec, n_out, rng):
    """The per-example generation loop: substream i's word 0 is the
    quantizing uniform, and each attempt reads its next m + r words (redrawn
    while rejecting one-hot labels); then mix, soft label, quantize."""
    n, m, r, d, c = base.n_examples, spec.m, spec.r, base.feature_dim, base.class_count
    feats = np.empty((n_out, d), dtype=np.float32)
    labels = np.empty(n_out, dtype=np.int64)
    soft = np.empty((n_out, c), dtype=np.float32)
    for i in range(n_out):
        bits = rng.substream(i)._gen.bit_generator
        u = (int(bits.random_raw()) >> 11) * 2.0**-53
        for attempt in range(_DEGENERATE_RETRIES + 1):
            picks, draws = reference_draw_group(base, spec, [int(w) for w in bits.random_raw(m + r)])
            counts = np.bincount(draws, minlength=m)
            s = reference_soft_label(base.labels[picks], counts, c)
            if not (spec.reject_degenerate and np.count_nonzero(s) == 1):
                break
        else:
            raise RuntimeError(
                f"mix spec {spec} kept producing one-hot soft labels after "
                f"{_DEGENERATE_RETRIES} retries; the spec is degenerate for this base"
            )
        x = base.features[picks].astype(np.float64)
        if spec.kind == "mixup":
            x = (counts / float(r)) @ x
        else:
            q, rem = divmod(d, r)
            sizes = np.full(r, q, dtype=np.int64)
            sizes[:rem] += 1
            x = x[np.repeat(draws, sizes), np.arange(d)]
        feats[i] = x.astype(np.float32)
        soft[i] = s.astype(np.float32)
        labels[i] = min(int(np.searchsorted(np.cumsum(s), u, side="right")), c - 1)
    meta = GenMeta(
        kind=spec.kind,
        m=spec.m,
        r=spec.r,
        seed=rng.seed,
        extra={"n_out": str(n_out), "reject_degenerate": str(spec.reject_degenerate)},
    )
    return AmbiguousDataset(c, d, feats, labels, diagnostics=soft, gen_meta=meta)


# -- the fused risk pass as four separate arrays: loss and gradient against
# +1 and -1 from two calls of the positive-target SJS kernel, dense label
# masks scattered by index, and one reduction per risk term. The stacked
# production layout must reproduce its losses and counts bit for bit, and
# its gradients and scaled risks within ``assert_kernel_close`` (the summed
# gradient in u_mode="full" within ``assert_kernel_close_to_max``).


def _oracle_alpha_terms(a):
    if isinstance(a, float):
        return a, 1.0 - a, math.log1p(-a), -1.0 / ((1.0 - a) * math.log1p(-a))
    return tuple(np.array(t).reshape(-1, 1, 1) for t in zip(*map(_oracle_alpha_terms, a)))


def _oracle_sjs_pos_parts(sig, alpha, one_m_a, log1m_a):
    m1 = alpha + one_m_a * sig
    kl_t = -np.log(m1)
    kl_q = sig * np.log(sig / m1) - (1.0 - sig) * log1m_a
    loss = alpha * kl_t + one_m_a * kl_q
    dloss = -alpha * one_m_a / m1 + one_m_a * (
        np.log(sig / m1) + log1m_a + 1.0 - one_m_a * sig / m1
    )
    return loss, dloss


def four_array_binary_parts(kind, logit, alpha):
    """(loss_pos, loss_neg, grad_pos, grad_neg), each shaped like the (at
    least 1-d) logits; ``alpha`` is a float or K floats for (K, n, c)."""
    x = np.atleast_1d(np.asarray(logit, dtype=np.float64))
    a = kind.resolve_alpha(alpha)
    sig = masked_stable_sigmoid(x)
    interior = (sig > EPS) & (sig < 1.0 - EPS)
    sigc = np.clip(sig, EPS, 1.0 - EPS)
    one_m_sigc = 1.0 - sigc
    if kind.variant == "kl":
        loss_pos, loss_neg = -np.log(sigc), -np.log(one_m_sigc)
        dls_pos, dls_neg = -1.0 / sigc, 1.0 / one_m_sigc
    else:
        a, one_m_a, log1m_a, scale = _oracle_alpha_terms(a)
        raw_pos, draw_pos = _oracle_sjs_pos_parts(sigc, a, one_m_a, log1m_a)
        raw_neg, draw_neg = _oracle_sjs_pos_parts(one_m_sigc, a, one_m_a, log1m_a)
        loss_pos, loss_neg = scale * raw_pos, scale * raw_neg
        dls_pos, dls_neg = scale * draw_pos, -scale * draw_neg
    one_m_sig = 1.0 - sig
    grad_pos = np.where(interior, dls_pos * sig * one_m_sig, 0.0)
    grad_neg = np.where(interior, dls_neg * sig * one_m_sig, 0.0)
    return loss_pos, loss_neg, grad_pos, grad_neg


def dense_mask_cpu_core(z, y, pi1, pi2, kind, alpha, u_mode="complement"):
    """Class-wise PU risk of (n, c) or (K, n, c) logits with (n,) or (K, n)
    labels; pi1 and pi2 are floats, or (K, 1) columns for K runs. Returns
    (value, objective, r_p_plus, r_u_minus, r_p_minus, n_p, n_u, corrected,
    grad) with value and objective reduced over classes by ``mean``."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    c = z.shape[-1]
    pos_mask = np.zeros((*y.shape, c))
    pos_mask[(*np.indices(y.shape, sparse=True), y)] = 1.0
    unl_mask = np.ones_like(pos_mask) if u_mode == "full" else 1.0 - pos_mask
    n_p = pos_mask.sum(axis=-2)
    n_u = unl_mask.sum(axis=-2)
    n_p_safe = np.maximum(n_p, 1.0)
    loss_pos, loss_neg, grad_pos, grad_neg = four_array_binary_parts(kind, z, alpha)
    r_p_plus = (pos_mask * loss_pos).sum(axis=-2) / n_p_safe
    r_p_minus = (pos_mask * loss_neg).sum(axis=-2) / n_p_safe
    r_u_minus = (unl_mask * loss_neg).sum(axis=-2) / n_u
    neg_part = r_u_minus - pi2 * r_p_minus
    corrected = neg_part < 0.0
    values = pi1 * r_p_plus + np.maximum(neg_part, 0.0)
    objectives = np.where(corrected, -neg_part, pi1 * r_p_plus + neg_part)
    coef_pp = (np.where(corrected, 0.0, pi1) / n_p_safe)[..., None, :]
    coef_pm = (np.where(corrected, pi2, -pi2) / n_p_safe)[..., None, :]
    coef_um = (np.where(corrected, -1.0, 1.0) / n_u)[..., None, :]
    grad = (pos_mask * (grad_pos * coef_pp + grad_neg * coef_pm) + unl_mask * grad_neg * coef_um) / c
    return (values.mean(axis=-1), objectives.mean(axis=-1), r_p_plus, r_u_minus, r_p_minus,
            n_p, n_u, corrected, grad)


def per_parameter_sgd_step(params, grads, velocity, lr, momentum, weight_decay):
    """v <- momentum*v + g + wd*p ; p <- p - lr*v, one parameter at a time."""
    for name, p in params.items():
        v = velocity[name]
        v *= momentum
        v += grads[name] + weight_decay * p
        p -= lr * v


# -- the trainer written as a plain loop over one run: a fresh batch order
# per epoch, one scalar alpha draw per step, the public risk entry point
# without any per-epoch tables, the dict-form backward and a per-parameter
# SGD step. ``train`` must reproduce every epoch and the final parameters
# bit for bit.


def reference_train(train_set, test_set, cfg):
    """(per-epoch EpochStats, final parameters by name) of one run of ``cfg``."""
    model = init_model(cfg.model_kind, train_set.class_count, train_set.feature_dim,
                       RngStream(cfg.seed, STREAM_INIT), hidden_dim=cfg.hidden_dim)
    params = model.params()
    velocity = {k: np.zeros_like(p) for k, p in params.items()}
    batch_rng, alpha_rng = RngStream(cfg.seed, STREAM_BATCHING), RngStream(cfg.seed, STREAM_ALPHA)
    n = train_set.n_examples
    stats = []
    for epoch in range(cfg.epochs):
        order = _epoch_order(train_set.labels, cfg.batch_size, batch_rng, cfg.is_cpu_method)
        objective_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            logits, cache = forward(model, train_set.features[rows])
            if cfg.is_cpu_method:
                alpha = sample_alpha(alpha_rng) if cfg.loss.needs_alpha else None
                report, d_logits = cpu_risk_with_grad(logits, train_set.labels[rows], cfg.priors,
                                                      cfg.loss, alpha, u_mode=cfg.u_mode)
                objective = report.objective_value
            else:
                losses, d_logits = baseline_loss_batch(cfg.loss, logits, train_set.labels[rows])
                objective = losses.sum() / rows.size
                d_logits /= rows.size
            grads = backward(model, cache, d_logits)
            per_parameter_sgd_step(params, grads, velocity, lr_at_epoch(cfg, epoch), cfg.momentum,
                                   cfg.weight_decay)
            objective_sum += objective * rows.size
        accuracy = evaluate(model, test_set.features, test_set.labels)
        stats.append(EpochStats(epoch + 1, float(objective_sum / n), float(accuracy)))
    return stats, params


# -- the multiclass baseline kernel as it was before the label-entry fast
# path: every clamp, log and mask over the full (n, c) probabilities, label
# indices rebuilt on every call. ``baseline_loss_batch`` must reproduce it
# bit for bit, with or without label indices resolved ahead.


def full_array_baseline_loss(kind, logits, labels):
    """(losses, gradients) of ``baseline_loss_batch`` for (n, c) or (K, n, c)
    logits with matching labels."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    c = z.shape[-1]
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    pc = np.maximum(p, EPS)
    interior = p > EPS
    log_pc = np.log(pc)
    at = np.arange(0, y.size * c, c).reshape(y.shape) + y

    v = kind.variant
    if v in ("bs", "js"):
        onehot = np.zeros(z.shape)
        np.put(onehot, at, 1.0)
    else:
        g_p = np.zeros(z.shape)
    if v == "ce":
        loss = -log_pc.take(at)
        np.put(g_p, at, np.where(interior.take(at), -1.0 / pc.take(at), 0.0))
    elif v == "bs":
        beta = kind.beta
        target = beta * onehot + (1.0 - beta) * p
        loss = -(target * log_pc).sum(axis=-1)
        g_p = -(1.0 - beta) * log_pc - np.where(interior, target / pc, 0.0)
    elif v == "gce":
        q = kind.q
        py = p.take(at)
        loss = (1.0 - py**q) / q
        np.put(g_p, at, -np.maximum(py, EPS) ** (q - 1.0))
    elif v == "sce":
        a, b = kind.a, kind.b
        py = p.take(at)
        loss = -a * log_pc.take(at) + b * 4.0 * (1.0 - py)
        np.put(g_p, at, np.where(interior.take(at), -a / pc.take(at), 0.0) - b * 4.0)
    else:
        w = kind.pi1
        m = w * onehot + (1.0 - w) * p
        mc = np.maximum(m, EPS)
        m_int = m > EPS
        log_ratio = log_pc - np.log(mc)
        loss = -w * np.log(mc.take(at)) + (1.0 - w) * (p * log_ratio).sum(axis=-1)
        g_p = -w * (1.0 - w) * np.where(m_int, onehot / mc, 0.0) + (1.0 - w) * (
            log_ratio + np.where(interior, 1.0, 0.0) - (1.0 - w) * np.where(m_int, p / mc, 0.0)
        )
        if kind.scaled:
            s = -1.0 / ((1.0 - w) * math.log1p(-w))
            loss, g_p = s * loss, s * g_p

    inner = (g_p * p).sum(axis=-1, keepdims=True)
    return loss, p * (g_p - inner)
