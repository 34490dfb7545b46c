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
on labels, priors and alpha only, and is resolved as rarely as it can be:

- once per run: every batch's step is bound (``bind_tables``) to views of
  buffers that the caller refills: the batch's term masks, its mask
  divisors and gradient coefficients, its alpha terms, the row of an
  epoch log that its risks are written into, the report's parts, and a
  workspace of its shape (``_workspace``: the clamped pair, the loss and
  gradient pairs, the three-term stack, the clamped part, the corrected
  flags and the logit gradient), which the batches of one shape share;
- once per epoch: ``batch_tables`` writes every batch's mask counts,
  their divisors and the coefficients (branch weights, signs and 1/c over
  the divisors) in one call, the term masks are taken for all labels at
  once, and the alpha terms are written;
- once per step: the kernel runs on the bound views. It slices and
  resolves no table and writes its results into the bound buffers;
  it allocates only the sigmoid pass's temporaries, the coefficients it
  selects and the report object.

A call without tables binds its one batch's own the same way, into a
workspace of its own, and runs the same kernel; so no two such calls
share a buffer. The trainer is the one caller that binds ahead.

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
from typing import NamedTuple

import numpy as np

from .core import ZERO, ClassPriors, _check_batch, _check_labels
# binary_loss and binary_loss_grad are unused here but stay importable from
# this module: perfbench's tracer wraps qll.risk.binary_loss and
# qll.risk.binary_loss_grad.
from .losses import BinaryLossKind, _binary_parts, _resolve_terms, binary_loss, binary_loss_grad  # noqa: F401
from .losses import _PAIR_SIGN

__all__ = [
    "ClassRiskBreakdown",
    "CpuRiskReport",
    "batch_tables",
    "bind_tables",
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


def batch_tables(labels, starts, c: int, u_mode: str, weights: np.ndarray, out=None):
    """Every batch's term tables, and the gradient coefficients over them.

    ``labels`` is the epoch's (n,) labels in batch order, or (K, n) for K
    runs, and ``starts`` the ascending batch starts, 0 first; batch b is
    ``labels[..., starts[b]:starts[b + 1]]``. Returns a (2, 3, [K,]
    n_batches, c) table of the (P, P, U) term masks' counts, whose
    ``[0, ..., b, :]`` equals ``masks.sum(axis=-2)`` of batch b bit for bit,
    and their divisors max(count, 1); and the (2, 3, [K,] n_batches, c)
    coefficients if corrected and otherwise: the (2, 3, [K,] c)
    ``_branch_weights`` table ``weights`` times each term's gradient sign
    over the class count c, over the divisors. ``out`` may give the two
    arrays to write them into. Raises the ValueErrors of ``cpu_risk`` for
    every batch at once: an unknown ``u_mode``, a label that is no integer
    in [0, c) (``core._check_labels``), or a batch of one class.
    """
    if u_mode not in U_MODES:
        raise ValueError(f"u_mode must be one of {U_MODES}, got {u_mode!r}")
    y = _check_labels(labels, c)
    table, coefs = (np.empty((2, 3, *y.shape[:-1], len(starts), c)), None) if out is None else out
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
    return table, np.divide(signed[..., None, :], table[1], out=coefs)


class _Workspace(NamedTuple):
    """The buffers of one step on ([K,] n, c) logits, and the views of them
    that the kernel writes through."""

    pairs: np.ndarray  # (2, 2, [K,] n, c) the binary pass's losses and gradient pairs
    both: np.ndarray  # (2, [K,] n, c) the binary pass's clamped pair
    stack: np.ndarray  # (2, 3, [K,] n, c) each term's losses and gradients, masked
    term_losses: np.ndarray  # stack[0]
    term_grads: np.ndarray  # stack[1]
    neg_part: np.ndarray  # ([K,] c) the clamped part
    corrected: np.ndarray  # ([K,] c) bool
    corrected_cols: np.ndarray  # corrected[..., None, :]
    grad: np.ndarray  # ([K,] n, c) the logit gradient


def _workspace(shape: tuple[int, ...]) -> _Workspace:
    per_class = shape[:-2] + shape[-1:]
    stack, corrected = np.empty((2, 3, *shape)), np.empty(per_class, dtype=bool)
    return _Workspace(np.empty((2, 2, *shape)), np.empty((2, *shape)), stack, *stack, np.empty(per_class),
                      corrected, corrected[..., None, :], np.empty(shape))


class BoundTables(NamedTuple):
    """One batch's step resolved ahead, for ``cpu_risk_with_grad(...,
    tables=)`` (see ``bind_tables``). Every array is a view, so a binding
    follows in-place refills of the arrays it was made from."""

    masks: np.ndarray  # (3, [K,] n, c) term masks
    divisors: np.ndarray  # (3, [K,] c) term mask sizes, at least 1
    coefs: tuple  # two (3, [K,] 1, c) gradient coefficients: if corrected, and otherwise
    terms: Sequence | None  # the alpha's five _alpha_terms; None for kl
    risks: np.ndarray  # (3, [K,] c): r_p_plus, r_p_minus, r_u_minus
    risk_cols: np.ndarray  # risks[..., None, :], which the sjs scale multiplies
    w_minus: np.ndarray  # ([K,] c) weight of r_p_minus in the clamped part
    parts: tuple  # the CpuRiskReport's parts
    work: _Workspace  # shared by the batches of one shape


def bind_tables(weights, masks, table, coefs, terms, risks) -> list[BoundTables]:
    """Every batch's tables for ``cpu_risk_with_grad(..., tables=)``, bound
    once: views, so each binding follows in-place refills of the arrays.

    ``weights`` is the (2, 3, [K,] c) branch weights table, such as the
    priors' ``_branch_weights``; ``table`` and ``coefs`` are the epoch's
    (2, 3, [K,] n_batches, c) ``batch_tables``; ``risks`` is an (n_batches,
    3, [K,] c) float64 array that each batch's risks are written into, such
    as the trainer's epoch log. ``masks`` and ``terms`` give each batch's
    (3, [K,] n, c) term masks, ``_term_masks(c, u_mode).take(labels,
    axis=1)``, and its alpha's five ``_alpha_terms`` (None for kl). The
    batches of one shape share one ``_workspace``, so a call's report and
    gradient hold only until the next call on a batch of that shape.
    """
    counts = np.moveaxis(table, -2, 0)  # batch-major, as are the rest
    coef_pairs = np.moveaxis(coefs[..., None, :], -3, 0)
    report_parts = zip(risks[:, 0], risks[:, 2], risks[:, 1], counts[:, 0, 0], counts[:, 0, 2])
    work = {shape: _workspace(shape[1:]) for shape in {m.shape for m in masks}}
    w_minus = weights[1, 1]
    return [BoundTables(m, d, tuple(cp), t, r, r[..., None, :], w_minus, (*rp, w.corrected, w.neg_part, weights), w)
            for m, d, cp, t, r, rp, w in zip(masks, counts[:, 1], coef_pairs, terms, risks, report_parts,
                                             (work[m.shape] for m in masks))]


_ONE_BATCH = np.zeros(1, dtype=np.intp)


def _bind_call(batch_logits, labels, priors: ClassPriors | Sequence[ClassPriors], loss: BinaryLossKind,
               alpha: float | Sequence[float] | None, u_mode: str):
    """The checked logits of a call without tables, and their one batch's
    own binding."""
    z, y = _check_batch(batch_logits, labels)
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
    return z, bind_tables(weights, [masks], table, coefs, [terms], np.empty((1, *table.shape[1:-2], c)))[0]


def _cpu_kernel(loss: BinaryLossKind, z, tables: BoundTables, want_grad: bool):
    """The risk of (n, c) or (K, n, c) float64 logits ``z`` under a batch's
    ``bind_tables``: no check but the logits' finiteness."""
    masks, divisors, coefs, terms, risks, risk_cols, w_minus, parts, work = tables
    pairs, both, stack, term_losses, term_grads, neg_part, corrected, corrected_cols, grad = work
    # The binary pass's losses and gradient pairs, one per term (2, 3,
    # *labels, c), masked by the term's examples.
    _binary_parts(loss, z, terms, out=pairs, both=both)
    pairs.take(_TERM_TARGET, axis=1, out=stack, mode="clip")  # in range: "clip" spares "raise"'s buffer
    stack *= masks
    np.add.reduce(term_losses, axis=-2, out=risks)
    risks /= divisors
    if terms is not None:  # the sjs scale; K runs' (K, 1, 1) columns broadcast against ([K,] 1, c)
        risk_cols *= terms[3]

    # The report builds the objective when it is read; the gradient needs
    # only which classes are corrected.
    _, r_u_minus, r_p_minus, *_ = parts
    np.multiply(w_minus, r_p_minus, out=neg_part)
    neg_part += r_u_minus  # the clamped part, as in _branch_objective
    np.less(neg_part, ZERO, out=corrected)
    report = CpuRiskReport(parts)
    if not want_grad:
        return report, None

    # d(objective)/d(logit) sums each term's gradient over its examples,
    # times the term's coefficient: its branch weight and gradient sign
    # over its mask size and c, and sjs's factor f.
    coef = np.where(corrected_cols, *coefs)
    if terms is not None:
        coef *= terms[4]
    term_grads *= coef
    return report, np.add.reduce(term_grads, axis=0, out=grad)


# Each entry point takes (n, c) logits, (n,) labels and one ClassPriors, or
# (K, n, c), (K, n) and K of them, and one alpha or K (see _bind_call), and
# binds its own tables.
def cpu_risk(batch_logits, labels, priors, loss, alpha=None, u_mode="complement") -> CpuRiskReport:
    """Class-wise PU risk over a batch: mean of per-class clamped values."""
    return _cpu_kernel(loss, *_bind_call(batch_logits, labels, priors, loss, alpha, u_mode), want_grad=False)[0]


def cpu_risk_grad(batch_logits, labels, priors, loss, alpha=None, u_mode="complement") -> np.ndarray:
    """Gradient of the branch objective with respect to every logit."""
    return _cpu_kernel(loss, *_bind_call(batch_logits, labels, priors, loss, alpha, u_mode), want_grad=True)[1]


def cpu_risk_with_grad(batch_logits, labels, priors, loss, alpha=None, u_mode="complement", *, tables=None):
    """(CpuRiskReport, gradient) in one pass: the training loop's entry point.

    ``tables`` may give the batch's binding from ``bind_tables``, resolved
    ahead. The logits are then taken as checked float64 of the bound shape
    (and still checked to be finite), and ``labels``, ``priors``,
    ``alpha`` and ``u_mode`` are not read. The report and the gradient
    then read the binding's buffers, so read them before the next call on
    that binding, or on one that shares its workspace, rewrites them."""
    if tables is None:
        batch_logits, tables = _bind_call(batch_logits, labels, priors, loss, alpha, u_mode)
    return _cpu_kernel(loss, batch_logits, tables, want_grad=True)
