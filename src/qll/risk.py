"""Positive-unlabeled risk estimators, computed class-wise per minibatch.

For each class j, the batch splits into P (examples labeled j) and U (the
rest). Three empirical risks per class:

    r_p_plus  = mean loss of P logits against +1
    r_u_minus = mean loss of U logits against -1
    r_p_minus = mean loss of P logits against -1

All three, and their gradients, come from one sigmoid pass over the batch
logits that stacks every loss and gradient against +1 and -1 as (2, ...);
label masks looked up per term then reduce all three in one pass.

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

K stacked runs evaluate in one call: logits (K, n, c) with K ``ClassPriors``
and (K, n) labels, one row per run, so runs of different seeds and datasets
stack too. A stochastic loss takes one alpha for all runs or a sequence of
K. Every per-run result equals the one a (n, c) call with that run's
logits, labels, priors and alpha gives, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import ClassPriors
# binary_loss and binary_loss_grad are unused here but stay importable from
# this module: perfbench's tracer wraps qll.risk.binary_loss and
# qll.risk.binary_loss_grad.
from .losses import BinaryLossKind, _binary_parts, binary_loss, binary_loss_grad  # noqa: F401

__all__ = [
    "ClassRiskBreakdown",
    "CpuRiskReport",
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
    objective_value: float | np.ndarray
    # (r_p_plus, r_u_minus, r_p_minus, n_p, n_u, corrected) arrays, built
    # into breakdowns on first access.
    parts: tuple = field(repr=False, compare=False)

    @cached_property
    def per_class(self) -> tuple[ClassRiskBreakdown, ...]:
        *risks, n_p, n_u, corrected = self.parts
        counts = (k.astype(np.int64).ravel().tolist() for k in (n_p, n_u))
        columns = [a.ravel().tolist() for a in risks]
        return tuple(map(ClassRiskBreakdown, *columns, *counts, corrected.ravel().tolist()))


# The three risk terms in order: r_p_plus, r_p_minus, r_u_minus. Each reads
# the loss against +1 (index 0) or -1 (index 1) of the stacked binary pass.
_TERM_TARGET = np.array([0, 1, 1])


@lru_cache(maxsize=None)
def _term_masks(c: int, u_mode: str) -> np.ndarray:
    """Read-only (3, c, c) table: row j of table t masks the examples of
    label j that term t averages over, P for the first two and U for the
    third."""
    eye = np.eye(c)
    table = np.stack([eye, eye, np.ones((c, c)) if u_mode == "full" else 1.0 - eye])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _branch_weights(priors: ClassPriors | tuple[ClassPriors, ...]) -> np.ndarray:
    """Read-only (2, 3, K, 1) weights of r_p_plus, r_p_minus and r_u_minus
    in a corrected class (index 0) and otherwise: (2, 3, 1) for one run.
    Corrected classes drop the positive term and flip the clamped part."""
    single = isinstance(priors, ClassPriors)
    pi1 = np.array([[p.pi1] for p in ([priors] if single else priors)], dtype=np.float64)
    pi2 = np.array([[p.pi2] for p in ([priors] if single else priors)], dtype=np.float64)
    zero, one = np.zeros_like(pi1), np.ones_like(pi1)
    weights = np.array([[zero, pi2, -one], [pi1, -pi2, one]])[:, :, 0 if single else slice(None)]
    weights.flags.writeable = False
    return weights


def _cpu_core(batch_logits, labels, priors: ClassPriors | Sequence[ClassPriors],
              loss: BinaryLossKind, alpha: float | Sequence[float] | None, u_mode: str,
              want_grad: bool):
    if u_mode not in U_MODES:
        raise ValueError(f"u_mode must be one of {U_MODES}, got {u_mode!r}")
    z = np.asarray(batch_logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim not in (2, 3) or y.shape != z.shape[:-1]:
        raise ValueError(
            f"need (n, c) logits with (n,) labels or (K, n, c) logits with (K, n) labels, "
            f"got {z.shape} and {y.shape}"
        )
    if y.shape[-1] < 2:
        raise ValueError("batch must contain at least 2 examples")
    if y.view(np.uint64).max() >= z.shape[-1]:  # a negative label reads as >= 2**63
        raise ValueError(f"labels must lie in [0, {z.shape[-1]})")
    c = z.shape[-1]
    single = isinstance(priors, ClassPriors)
    if single != (z.ndim == 2) or (not single and len(priors) != z.shape[0]):
        raise ValueError("(n, c) logits take one ClassPriors; (K, n, c) logits a sequence of K")
    if_corrected, otherwise = _branch_weights(priors if single else tuple(priors))
    pi1, pi2 = otherwise[0], if_corrected[1]  # the weights of r_p_plus and r_p_minus

    # (3, *labels, c) masks, one per term, and their class counts.
    n = y.shape[-1]
    masks = _term_masks(c, u_mode).take(y, axis=1)
    counts = masks.sum(axis=-2)
    n_p, n_u = counts[0], counts[2]
    if n_p.max() == n:  # one class holds a whole batch, so its U side is empty
        raise ValueError("batch must span at least 2 classes; resample")
    # (n_p or 1, n_p or 1, n_u): every class has n_u >= 1 by the check above.
    sizes = np.maximum(counts, 1.0)

    # (2, ...) loss and gradient: index 0 against +1, index 1 against -1.
    losses, grads = _binary_parts(loss, z, alpha)
    r_p_plus, r_p_minus, r_u_minus = (masks * losses.take(_TERM_TARGET, axis=0)).sum(axis=-2) / sizes

    neg_part = r_u_minus - pi2 * r_p_minus
    corrected = neg_part < 0.0
    pos_part = pi1 * r_p_plus
    values = pos_part + np.maximum(neg_part, 0.0)
    objectives = np.where(corrected, -neg_part, pos_part + neg_part)

    # np.mean over classes is this sum divided by the class count.
    value, objective = values.sum(axis=-1) / c, objectives.sum(axis=-1) / c
    if single:
        value, objective = float(value), float(objective)
    report = CpuRiskReport(value, objective, (r_p_plus, r_u_minus, r_p_minus, n_p, n_u, corrected))
    if not want_grad:
        return report, None

    # Each term's branch weight over its mask size, times that term's
    # gradient: d(objective)/d(logit) gathers the P terms and the U term.
    coefs = (np.where(corrected, if_corrected, otherwise) / sizes)[..., None, :]
    g_pp, g_pm, g_um = grads.take(_TERM_TARGET, axis=0) * coefs
    grad = (masks[0] * (g_pp + g_pm) + masks[2] * g_um) / c
    return report, grad


# Each entry point takes (n, c) logits, (n,) labels and one ClassPriors, or
# (K, n, c), (K, n) and K of them, and one alpha or K (see _cpu_core).
def cpu_risk(batch_logits, labels, priors, loss, alpha=None, u_mode="complement") -> CpuRiskReport:
    """Class-wise PU risk over a batch: mean of per-class clamped values."""
    return _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=False)[0]


def cpu_risk_grad(batch_logits, labels, priors, loss, alpha=None, u_mode="complement") -> np.ndarray:
    """Gradient of the branch objective with respect to every logit."""
    return _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=True)[1]


def cpu_risk_with_grad(batch_logits, labels, priors, loss, alpha=None, u_mode="complement"):
    """(CpuRiskReport, gradient) in one pass: the training loop's entry point."""
    return _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=True)
