"""Positive-unlabeled risk estimators, computed class-wise per minibatch.

For each class j, the batch splits into P (examples labeled j) and U (the
rest). Three empirical risks per class:

    r_p_plus  = mean loss of P logits against +1
    r_u_minus = mean loss of U logits against -1
    r_p_minus = mean loss of P logits against -1

All three, and their gradients, come from one sigmoid pass over the batch
logits that stacks the losses and logit gradients against +1 and -1 as
(2, 2, ...) (``losses._binary_parts``); the label masks of each term mask
losses and gradients at once, one reduction over the batch gives the three
risks, and one over the terms the logit gradient. The pass leaves three
constants out, to be applied to smaller arrays: the scaled-SJS scale
multiplies the (3, [K,] c) risks, each term's gradient sign and the class
mean's 1/c sit in the gradient coefficients, and the SJS gradient factor
multiplies the (3, [K,] c) coefficients a step selects. All else depends
on labels, priors and alpha only: the trainer builds each epoch's
``batch_tables`` (mask counts, their divisors, and the coefficients: branch
weights, signs and 1/c over the divisors) in one call and passes them with
each batch's term masks, and a call without tables builds its one batch's
the same way. The trainer also passes each step's row of its epoch log,
and the risks are divided straight into it.

The step computes only what the gradient needs: the risks and which
classes are corrected. ``CpuRiskReport`` builds ``value``,
``objective_value`` and ``per_class`` from those on first access, and the
trainer books the epoch's objectives from its log in one pass; both go
through ``_branch_objective``.

The unbiased PU risk is  pi * r_p_plus + r_u_minus - pi * r_p_minus  and may
go negative. The non-negative class-wise estimator with two practical priors
clamps the tail:

    value_j = pi1 * r_p_plus + max(r_u_minus - pi2 * r_p_minus, 0)

and the full risk is the mean of value_j over classes. Training follows the
branch rule: while the clamp is inactive the objective is the value itself;
once r_u_minus - pi2 * r_p_minus < 0 (the class is "corrected") the objective
switches to  pi2 * r_p_minus - r_u_minus, which drops the positive term and
ascends the negative part. Reported values always use the clamped estimator;
gradients always follow the branch objective. Both rows of the rule are one
table, ``_branch_weights``: the only code here that reads the priors.

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

from .core import ZERO, ClassPriors
# binary_loss and binary_loss_grad are unused here but stay importable from
# this module: perfbench's tracer wraps qll.risk.binary_loss and
# qll.risk.binary_loss_grad.
from .losses import BinaryLossKind, _binary_parts, _resolve_terms, binary_loss, binary_loss_grad  # noqa: F401
from .losses import _PAIR_SIGN

__all__ = [
    "ClassRiskBreakdown",
    "CpuRiskReport",
    "batch_tables",
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


@dataclass(frozen=True, eq=False)
class CpuRiskReport:
    """Class-wise PU risk over one batch.

    ``value`` is the reported (clamped, nonnegative) estimator;
    ``objective_value`` is the branch objective the gradients follow. The
    two agree exactly whenever no class is corrected. For K stacked runs
    both are (K,) arrays and ``per_class`` lists K*c breakdowns, run-major.
    All three are built from ``parts`` on first access; two reports are
    equal when all three are.
    """

    # (r_p_plus, r_u_minus, r_p_minus, n_p, n_u, corrected, clamped part)
    # arrays, and the (2, 3, [K,] c) _branch_weights table of the call.
    parts: tuple = field(repr=False)

    @cached_property
    def value(self) -> float | np.ndarray:
        r_p_plus, *_, neg_part, weights = self.parts
        pos_part = weights[1, 0] * r_p_plus  # the mean over classes, as in _branch_objective
        value = (pos_part + np.maximum(neg_part, 0.0)).sum(axis=-1) / pos_part.shape[-1]
        return value if value.ndim else float(value)

    @cached_property
    def objective_value(self) -> float | np.ndarray:
        r_p_plus, r_u_minus, r_p_minus, *_, weights = self.parts
        objective = _branch_objective((r_p_plus, r_p_minus, r_u_minus), weights)
        return objective if objective.ndim else float(objective)

    @cached_property
    def per_class(self) -> tuple[ClassRiskBreakdown, ...]:
        *risks, n_p, n_u, corrected = self.parts[:6]
        counts = (k.astype(np.int64).ravel().tolist() for k in (n_p, n_u))
        columns = [a.ravel().tolist() for a in risks]
        return tuple(map(ClassRiskBreakdown, *columns, *counts, corrected.ravel().tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CpuRiskReport):
            return NotImplemented
        return (self.per_class == other.per_class and np.array_equal(self.value, other.value)
                and np.array_equal(self.objective_value, other.objective_value))

    def __repr__(self) -> str:
        return f"CpuRiskReport(value={self.value!r}, objective_value={self.objective_value!r})"


def _branch_objective(risks, weights):
    """The branch objective of the (..., c) risks (r_p_plus, r_p_minus,
    r_u_minus), a sequence of three or a (3, ..., c) array, under a
    ``_branch_weights`` table: the mean over classes of the risks weighted
    by row 0 where the clamped part r_u_minus + W[1, 1] * r_p_minus is
    negative (the class is corrected) and by row 1 otherwise, as a (...)
    array."""
    r_p_plus, r_p_minus, r_u_minus = risks
    corrected = r_u_minus + weights[1, 1] * r_p_minus < ZERO
    w = [np.where(corrected, *rows) for rows in weights.swapaxes(0, 1)]
    objective = w[0] * r_p_plus + (w[2] * r_u_minus + w[1] * r_p_minus)
    # np.mean over classes is this sum divided by the class count (an int:
    # one run's sum is a numpy scalar, and scalar math is no ufunc call).
    return np.add.reduce(objective, axis=-1) / objective.shape[-1]


# The three risk terms in order: r_p_plus, r_p_minus, r_u_minus. Each reads
# the loss and gradient against +1 (index 0) or -1 (index 1) of the binary
# pass; the gradient pair's sign for that target (losses._PAIR_SIGN) goes
# into the coefficient table.
_TERM_TARGET = np.array([0, 1, 1])
_TERM_SIGN = _PAIR_SIGN[_TERM_TARGET]


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
def _branch_weights(priors: ClassPriors | tuple[ClassPriors, ...], c: int) -> np.ndarray:
    """The update rule: read-only (2, 3, K, c) weights of r_p_plus,
    r_p_minus and r_u_minus in a corrected class (row 0) and otherwise (row
    1), for K runs' priors; (2, 3, c) for one run's. Row 1 weighs the value
    pi1 * r_p_plus + (r_u_minus - pi2 * r_p_minus), whose second term is the
    clamped part. A corrected class takes nnPU's defitting step: it drops
    the positive term and ascends the clamped part."""
    single = isinstance(priors, ClassPriors)
    pi1 = np.array([[p.pi1] * c for p in ([priors] if single else priors)], dtype=np.float64)
    pi2 = np.array([[p.pi2] * c for p in ([priors] if single else priors)], dtype=np.float64)
    zero, one = np.zeros_like(pi1), np.ones_like(pi1)
    weights = np.array([[zero, pi2, -one], [pi1, -pi2, one]])[:, :, 0 if single else slice(None)]
    weights.flags.writeable = False
    return weights


def batch_tables(labels, starts, c: int, u_mode: str, weights: np.ndarray, pick=slice(None)):
    """Every batch's term tables, and the gradient coefficients over them.

    ``labels`` is the epoch's (n,) labels in batch order, or (S, n) for S
    streams, and ``starts`` the ascending batch starts, 0 first; batch b is
    ``labels[..., starts[b]:starts[b + 1]]``. Returns a (2, 3, [S,]
    n_batches, c) table of the (P, P, U) term masks' counts, whose
    ``[0, ..., b, :]`` equals ``masks.sum(axis=-2)`` of batch b bit for bit,
    and their divisors max(count, 1); and the (2, 3, [K,] n_batches, c)
    coefficients of K runs if corrected and otherwise: the (2, 3, [K,] c)
    ``_branch_weights`` table ``weights`` times each term's gradient sign
    over the class count c, over the divisors of the stream ``pick`` gives
    each run. Raises the ValueErrors of ``cpu_risk`` for every batch at
    once: an unknown ``u_mode``, a label outside [0, c), or a batch of one
    class.
    """
    if u_mode not in U_MODES:
        raise ValueError(f"u_mode must be one of {U_MODES}, got {u_mode!r}")
    y = np.asarray(labels, dtype=np.int64)
    if y.view(np.uint64).max() >= c:  # a negative label reads as >= 2**63
        raise ValueError(f"labels must lie in [0, {c})")
    table = np.empty((2, 3, *y.shape[:-1], len(starts), c))
    # Only P is summed; U is P through the U masks, exact for small integer counts.
    masks = _term_masks(c, u_mode)
    n_p = table[0, 0]
    np.add.reduceat(masks[0].take(y, axis=0), starts, axis=-2, out=n_p)
    size = np.add.reduce(n_p, axis=-1, keepdims=True)
    if np.count_nonzero(n_p == size):  # one class holding a whole batch leaves its U side empty
        raise ValueError("batch must span at least 2 classes; resample")
    table[0, 1] = n_p
    np.matmul(n_p, masks[2], out=table[0, 2])
    np.maximum(table[0], 1.0, out=table[1])
    signed = weights * (_TERM_SIGN / c).reshape(3, *[1] * (weights.ndim - 2))
    return table, signed[..., None, :] / table[1][:, pick]


_ONE_BATCH = np.zeros(1, dtype=np.intp)


def _cpu_core(batch_logits, labels, priors: ClassPriors | Sequence[ClassPriors],
              loss: BinaryLossKind, alpha: float | Sequence[float] | None, u_mode: str,
              want_grad: bool, tables=None):
    if tables is not None:
        return _cpu_kernel(loss, batch_logits, *tables, want_grad=want_grad)
    # Checked inputs, and the tables of their one batch.
    z = np.asarray(batch_logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim not in (2, 3) or y.shape != z.shape[:-1]:
        raise ValueError(
            f"need (n, c) logits with (n,) labels or (K, n, c) logits with (K, n) labels, "
            f"got {z.shape} and {y.shape}"
        )
    if y.shape[-1] < 2:
        raise ValueError("batch must contain at least 2 examples")
    single = isinstance(priors, ClassPriors)
    if single != (z.ndim == 2) or (not single and len(priors) != z.shape[0]):
        raise ValueError("(n, c) logits take one ClassPriors; (K, n, c) logits a sequence of K")
    c = z.shape[-1]
    weights = _branch_weights(priors if single else tuple(priors), c)
    table, coefs = batch_tables(y, _ONE_BATCH, c, u_mode, weights)
    masks = _term_masks(c, u_mode).take(y, axis=1)
    terms = _resolve_terms(loss, alpha, z.shape)
    return _cpu_kernel(loss, z, weights, masks, table[..., 0, :], coefs[..., 0, :], terms, want_grad=want_grad)


def _cpu_kernel(loss: BinaryLossKind, z, weights, masks, table, coefs, terms, risks=None, *, want_grad: bool):
    """The risk of (n, c) or (K, n, c) float64 logits ``z``, given the
    tables of ``cpu_risk_with_grad``: no check but the logits' finiteness.
    The (3, [K,] c) risks are written into ``risks`` if given."""
    # The binary pass's losses and gradient pairs, one per term: (2, 3,
    # *labels, c), masked by the term's examples.
    per_term = _binary_parts(loss, z, terms).take(_TERM_TARGET, axis=1)
    per_term *= masks
    risks = np.divide(np.add.reduce(per_term[0], axis=-2), table[1], out=risks)
    if terms is not None:  # the sjs scale; K runs' (K, 1, 1) columns broadcast against ([K,] 1, c)
        risks[..., None, :] *= terms[3]

    # The report builds the objective when it is read; the gradient needs
    # only which classes are corrected.
    r_p_plus, r_p_minus, r_u_minus = risks
    neg_part = r_u_minus + weights[1, 1] * r_p_minus  # the clamped part, as in _branch_objective
    corrected = neg_part < ZERO
    parts = (r_p_plus, r_u_minus, r_p_minus, table[0, 0], table[0, 2], corrected, neg_part, weights)
    report = CpuRiskReport(parts)
    if not want_grad:
        return report, None

    # d(objective)/d(logit) sums each term's gradient over its examples,
    # times the term's coefficient: its branch weight and gradient sign
    # over its mask size and c, and sjs's factor f.
    coef = np.where(corrected, coefs[0], coefs[1])[..., None, :]
    if terms is not None:
        coef *= terms[4]
    grads = per_term[1]
    grads *= coef
    return report, np.add.reduce(grads, axis=0)


# Each entry point takes (n, c) logits, (n,) labels and one ClassPriors, or
# (K, n, c), (K, n) and K of them, and one alpha or K (see _cpu_core).
def cpu_risk(batch_logits, labels, priors, loss, alpha=None, u_mode="complement") -> CpuRiskReport:
    """Class-wise PU risk over a batch: mean of per-class clamped values."""
    return _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=False)[0]


def cpu_risk_grad(batch_logits, labels, priors, loss, alpha=None, u_mode="complement") -> np.ndarray:
    """Gradient of the branch objective with respect to every logit."""
    return _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=True)[1]


def cpu_risk_with_grad(batch_logits, labels, priors, loss, alpha=None, u_mode="complement", *, tables=None):
    """(CpuRiskReport, gradient) in one pass: the training loop's entry point.

    ``tables`` may give, resolved ahead, ``(weights, masks, table, coefs,
    terms)``: a (2, 3, [K,] c) branch weights table, such as the priors'
    ``_branch_weights``; the batch's (3, [K,] n, c) term masks,
    ``_term_masks(c, u_mode).take(labels, axis=1)``; the batch's (2, 3,
    [K,] c) slices of the epoch's ``batch_tables``; and its alpha's
    ``_alpha_terms`` (five 0-d arrays or scalars for one run, (K, 1, 1)
    columns for K runs; None for kl); and, optionally, a (3, [K,] c)
    float64 array that the risks are written into, such as a row of the
    trainer's epoch log. The logits are then taken as checked float64 (and
    still checked to be finite), and ``labels``, ``priors``, ``alpha`` and
    ``u_mode`` are not read. A report over such an array reads it when a
    value is first asked for, so read it before the array is rewritten."""
    return _cpu_core(batch_logits, labels, priors, loss, alpha, u_mode, want_grad=True, tables=tables)
