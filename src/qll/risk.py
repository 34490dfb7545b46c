"""Positive-unlabeled risk estimators, computed class-wise per minibatch.

For each class j, the batch splits into P (examples labeled j) and U (the
rest). Three empirical risks per class:

    r_p_plus  = mean loss of P logits against +1
    r_u_minus = mean loss of U logits against -1
    r_p_minus = mean loss of P logits against -1

All three, and their gradients, come from one sigmoid pass over the (n, c)
batch logits, which yields every loss and gradient against both +1 and -1;
class masks then reduce them per class.

The unbiased PU risk is  pi * r_p_plus + r_u_minus - pi * r_p_minus  and may
go negative. The non-negative class-wise estimator with two practical priors
clamps the tail:

    value_j = pi1 * r_p_plus + max(r_u_minus - pi2 * r_p_minus, 0)

and the full risk is the mean of value_j over classes. Training follows the
branch rule: while the clamp is inactive the objective is the value itself;
once r_u_minus - pi2 * r_p_minus < 0 (the class is "corrected") the objective
switches to  pi2 * r_p_minus - r_u_minus, which drops the positive term and
ascends the negative part. Reported values always use the clamped estimator;
gradients always follow the branch objective.

K runs that share a batch but not their priors evaluate in one call: logits
(K, n, c) with K ``ClassPriors``, one per run. The masks and the sigmoid pass
are shared; every per-run result equals the one a (n, c) call with that
run's logits and priors gives, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import ClassPriors
# binary_loss_grad is unused here but stays importable from this module:
# perfbench's tracer wraps qll.risk.binary_loss and qll.risk.binary_loss_grad.
from .losses import BinaryLossKind, _binary_parts, binary_loss, binary_loss_grad  # noqa: F401

__all__ = [
    "ClassRiskBreakdown",
    "CpuRiskReport",
    "class_partition",
    "pu_risk_unbiased",
    "nnpu_class_risk",
    "cpu_risk",
    "cpu_risk_grad",
    "cpu_risk_with_grad",
]

U_MODES = ("complement", "full")


@dataclass(frozen=True)
class ClassRiskBreakdown:
    """Per-class nnPU components and the branch flag."""

    r_p_plus: float
    r_u_minus: float
    r_p_minus: float
    n_p: int
    n_u: int
    corrected: bool


@dataclass(frozen=True)
class CpuRiskReport:
    """Class-wise PU risk over one batch.

    ``value`` is the reported (clamped, nonnegative) estimator;
    ``objective_value`` is the branch objective the gradients follow. The
    two agree exactly whenever no class is corrected. For K stacked runs
    both are (K,) arrays and ``per_class`` lists K*c breakdowns, run-major.
    """

    value: float | np.ndarray
    per_class: tuple[ClassRiskBreakdown, ...]
    objective_value: float | np.ndarray


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


def _check_batch(batch_logits, labels) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(batch_logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim not in (2, 3) or y.shape != z.shape[-2:-1]:
        raise ValueError(
            f"need (n, c) or (K, n, c) logits with n labels, got {z.shape} and {y.shape}"
        )
    if y.size < 2:
        raise ValueError("batch must contain at least 2 examples")
    if (y == y[0]).all():
        raise ValueError("batch must span at least 2 classes; resample")
    if y.min() < 0 or y.max() >= z.shape[-1]:
        raise ValueError(f"labels must lie in [0, {z.shape[-1]})")
    return z, y


def _cpu_core(
    batch_logits,
    labels,
    priors: ClassPriors | Sequence[ClassPriors],
    loss: BinaryLossKind,
    alpha: float | None,
    u_mode: str,
    want_grad: bool,
):
    if u_mode not in U_MODES:
        raise ValueError(f"u_mode must be one of {U_MODES}, got {u_mode!r}")
    z, y = _check_batch(batch_logits, labels)
    n, c = z.shape[-2:]
    single = isinstance(priors, ClassPriors)
    if single != (z.ndim == 2) or (not single and len(priors) != z.shape[0]):
        raise ValueError("(n, c) logits take one ClassPriors; (K, n, c) logits a sequence of K")
    if single:
        pi1, pi2 = priors.pi1, priors.pi2
    else:  # (K, 1) columns, one row per run
        pi1 = np.array([[p.pi1] for p in priors], dtype=np.float64)
        pi2 = np.array([[p.pi2] for p in priors], dtype=np.float64)

    # Masks and class counts depend on the labels alone: one (n, c) copy
    # broadcasts over the run axis.
    pos_mask = np.zeros((n, c))
    pos_mask[np.arange(n), y] = 1.0
    unl_mask = np.ones((n, c)) if u_mode == "full" else 1.0 - pos_mask
    n_p = pos_mask.sum(axis=0)
    n_u = unl_mask.sum(axis=0)
    if np.any(n_u == 0):
        raise ValueError("some class has an empty unlabeled side; resample the batch")
    n_p_safe = np.maximum(n_p, 1.0)

    loss_pos, loss_neg, grad_pos, grad_neg = _binary_parts(loss, z, alpha)
    r_p_plus = (pos_mask * loss_pos).sum(axis=-2) / n_p_safe
    r_p_minus = (pos_mask * loss_neg).sum(axis=-2) / n_p_safe
    r_u_minus = (unl_mask * loss_neg).sum(axis=-2) / n_u

    neg_part = r_u_minus - pi2 * r_p_minus
    corrected = neg_part < 0.0
    values = pi1 * r_p_plus + np.maximum(neg_part, 0.0)
    objectives = np.where(corrected, -neg_part, pi1 * r_p_plus + neg_part)

    runs = values.size // c
    per_class = tuple(
        map(
            ClassRiskBreakdown,
            r_p_plus.ravel().tolist(),
            r_u_minus.ravel().tolist(),
            r_p_minus.ravel().tolist(),
            n_p.astype(np.int64).tolist() * runs,
            n_u.astype(np.int64).tolist() * runs,
            corrected.ravel().tolist(),
        )
    )
    value, objective = values.mean(axis=-1), objectives.mean(axis=-1)
    if single:
        value, objective = float(value), float(objective)
    report = CpuRiskReport(value, per_class, objective)
    if not want_grad:
        return report, None

    # Branch-dependent per-class coefficients; corrected classes drop the
    # positive term and flip the sign of the clamped part.
    coef_pp = (np.where(corrected, 0.0, pi1) / n_p_safe)[..., None, :]
    coef_pm = (np.where(corrected, pi2, -pi2) / n_p_safe)[..., None, :]
    coef_um = (np.where(corrected, -1.0, 1.0) / n_u)[..., None, :]
    grad = (pos_mask * (grad_pos * coef_pp + grad_neg * coef_pm) + unl_mask * grad_neg * coef_um) / c
    return report, grad


def cpu_risk(
    batch_logits,
    labels,
    priors: ClassPriors | Sequence[ClassPriors],
    loss: BinaryLossKind,
    alpha: float | None = None,
    u_mode: str = "complement",
) -> CpuRiskReport:
    """Class-wise PU risk over a batch: mean of per-class clamped values."""
    report, _ = _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=False)
    return report


def cpu_risk_grad(
    batch_logits,
    labels,
    priors: ClassPriors | Sequence[ClassPriors],
    loss: BinaryLossKind,
    alpha: float | None = None,
    u_mode: str = "complement",
) -> np.ndarray:
    """Gradient of the branch objective with respect to every logit."""
    _, grad = _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=True)
    return grad


def cpu_risk_with_grad(
    batch_logits,
    labels,
    priors: ClassPriors | Sequence[ClassPriors],
    loss: BinaryLossKind,
    alpha: float | None = None,
    u_mode: str = "complement",
) -> tuple[CpuRiskReport, np.ndarray]:
    """Report and gradient in one pass (the training loop's entry point)."""
    report, grad = _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=True)
    return report, grad
