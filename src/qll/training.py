"""Minibatch SGD training and evaluation.

The loop is fully deterministic given the config seed: parameter init, epoch
shuffling, and per-iteration alpha sampling each consume their own purpose
stream, so e.g. switching the model kind never changes the batch order.

Learning rate follows the step-decay schedule: 0.1x the initial rate from
the 50% epoch boundary and 0.01x from the 75% boundary. Weight decay folds
into the gradient before the momentum update (classical coupling).

Runs whose configs differ only in ``priors`` share their init, batch order
and alpha draws, so ``train_runs`` trains K of them at once: parameters
carry a leading run axis of K, and every step is one stacked forward, risk,
backward and SGD call. Each member's report equals its solo ``train`` run
bit for bit. ``train`` is the K=1 case and keeps unstacked parameters.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    STREAM_ALPHA,
    STREAM_BATCHING,
    STREAM_INIT,
    AmbiguousDataset,
    ClassPriors,
    RngStream,
    zero_one_test_risk,
)
from .losses import BinaryLossKind, MulticlassLossKind, baseline_loss_batch, sample_alpha
from .models import backward, forward, init_model, predict
from .risk import U_MODES, cpu_risk_with_grad
from .dataio import atomic_write_text

__all__ = [
    "TrainConfig",
    "EpochStats",
    "TrainReport",
    "sgd_step",
    "lr_at_epoch",
    "train",
    "train_runs",
    "evaluate",
    "write_metrics",
    "METRICS_HEADER",
]

METRICS_HEADER = "epoch,train_objective,test_accuracy"

_BATCH_RESAMPLE_LIMIT = 100


@dataclass(frozen=True)
class TrainConfig:
    """One training run. ``loss`` picks the method: a BinaryLossKind trains
    the class-wise PU objective (and then ``priors`` is required), a
    MulticlassLossKind trains a plain softmax baseline."""

    epochs: int
    loss: BinaryLossKind | MulticlassLossKind
    priors: ClassPriors | None = None
    batch_size: int = 16
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 1
    model_kind: str = "mlp"
    hidden_dim: int = 32
    u_mode: str = "complement"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.u_mode not in U_MODES:
            raise ValueError(f"u_mode must be one of {U_MODES}")
        if self.is_cpu_method and self.priors is None:
            raise ValueError("PU training requires priors")

    @property
    def is_cpu_method(self) -> bool:
        return isinstance(self.loss, BinaryLossKind)


@dataclass(frozen=True)
class EpochStats:
    epoch: int  # 1-based
    train_objective: float
    test_accuracy: float


@dataclass
class TrainReport:
    per_epoch: list[EpochStats]
    best_test_accuracy: float
    last5_avg_accuracy: float
    final_model: object
    wall_time_s: float = 0.0


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """In-place update: v <- momentum*v + g + wd*p ; p <- p - lr*v."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        v = velocity[name]
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v
    return params, velocity


def lr_at_epoch(cfg: TrainConfig, epoch_index: int) -> float:
    """Step decay: lr, then 0.1*lr from 50% of epochs, 0.01*lr from 75%."""
    if epoch_index >= (3 * cfg.epochs) // 4:
        return cfg.lr * 0.01
    if epoch_index >= cfg.epochs // 2:
        return cfg.lr * 0.1
    return cfg.lr


def _epoch_batches(
    labels: np.ndarray, batch_size: int, rng: RngStream, need_two_classes: bool
) -> list[np.ndarray]:
    """Shuffled batches, final partial batch kept. When the PU objective is
    in use, permutations are redrawn until every batch spans >= 2 classes."""
    n = labels.shape[0]
    for _ in range(_BATCH_RESAMPLE_LIMIT):
        order = rng.permutation(n)
        batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
        if not need_two_classes or all((labels[b] != labels[b[0]]).any() for b in batches):
            return batches
    raise RuntimeError(
        "could not shuffle the dataset into batches spanning >= 2 classes; "
        "the label distribution is too degenerate for PU training"
    )


def evaluate(model, test_set: AmbiguousDataset):
    """Clean-test accuracy of argmax predictions: a float, or a (K,) array
    of per-run accuracies for a stacked model."""
    if test_set.n_examples == 0:
        raise ValueError("empty test set")
    logits, _ = forward(model, test_set.features.astype(np.float64))
    return 1.0 - zero_one_test_risk(predict(logits), test_set.labels)


def train(
    train_set: AmbiguousDataset, test_set: AmbiguousDataset, cfg: TrainConfig
) -> TrainReport:
    """Run the configured method; returns the per-epoch record and model.

    Per iteration: draw alpha when the loss is stochastic, compute the
    objective and its logit gradients (branch-objective gradients for PU
    methods, mean baseline loss otherwise), backprop, and apply one SGD
    step. Test accuracy is evaluated after every epoch. This is the K=1
    case of ``train_runs``.
    """
    return train_runs(train_set, test_set, [cfg])[0]


def train_runs(
    train_set: AmbiguousDataset, test_set: AmbiguousDataset, cfgs: Sequence[TrainConfig]
) -> list[TrainReport]:
    """Train K runs that differ only in ``priors`` as one stacked run.

    Returns one report per config, in order, each equal to what ``train``
    returns for that config alone. Only PU methods stack (K > 1); a baseline
    has no priors to vary. Every report carries the group's wall time.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one config")
    cfg = cfgs[0]
    if any(replace(c, priors=cfg.priors) != cfg for c in cfgs[1:]):
        raise ValueError("stacked runs may differ only in priors")
    runs = len(cfgs)
    if runs > 1 and not cfg.is_cpu_method:
        raise ValueError("only PU methods stack; baseline runs differ in nothing")
    if train_set.n_examples == 0 or test_set.n_examples == 0:
        raise ValueError("datasets must be nonempty")
    if (train_set.class_count, train_set.feature_dim) != (
        test_set.class_count,
        test_set.feature_dim,
    ):
        raise ValueError("train and test sets must share (class_count, feature_dim)")

    t0 = time.perf_counter()
    init_rng = RngStream(cfg.seed, STREAM_INIT)
    batch_rng = RngStream(cfg.seed, STREAM_BATCHING)
    alpha_rng = RngStream(cfg.seed, STREAM_ALPHA)

    model = init_model(
        cfg.model_kind,
        train_set.class_count,
        train_set.feature_dim,
        init_rng,
        hidden_dim=cfg.hidden_dim,
    )
    # A single run keeps 2-D parameters and scalar priors: a leading axis of
    # one costs time on every step.
    priors = cfg.priors
    if runs > 1:
        model = type(model)(**{k: np.stack([v] * runs) for k, v in model.params().items()})
        priors = tuple(c.priors for c in cfgs)
    params = model.params()
    velocity = {k: np.zeros_like(v) for k, v in params.items()}

    x_all = train_set.features.astype(np.float64)
    y_all = train_set.labels
    n = train_set.n_examples
    is_cpu = cfg.is_cpu_method
    needs_alpha = is_cpu and cfg.loss.needs_alpha

    objectives, accuracies = [], []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        objective_sum = 0.0
        for batch in _epoch_batches(y_all, cfg.batch_size, batch_rng, need_two_classes=is_cpu):
            xb, yb = x_all[batch], y_all[batch]
            logits, cache = forward(model, xb)
            if is_cpu:
                alpha = sample_alpha(alpha_rng) if needs_alpha else None
                report, d_logits = cpu_risk_with_grad(
                    logits, yb, priors, cfg.loss, alpha, u_mode=cfg.u_mode
                )
                objective = report.objective_value
            else:
                losses, grads = baseline_loss_batch(cfg.loss, logits, yb)
                objective = float(losses.mean())
                d_logits = grads / batch.size
            grad_params = backward(model, cache, d_logits)
            sgd_step(params, grad_params, velocity, lr, cfg.momentum, cfg.weight_decay)
            objective_sum += objective * batch.size
        objectives.append(objective_sum / n)
        accuracies.append(evaluate(model, test_set))

    wall = time.perf_counter() - t0
    objectives = np.array(objectives).reshape(cfg.epochs, runs)
    accuracies = np.array(accuracies).reshape(cfg.epochs, runs)
    reports = []
    for k in range(runs):
        stats = [
            EpochStats(epoch + 1, float(obj), float(acc))
            for epoch, (obj, acc) in enumerate(zip(objectives[:, k], accuracies[:, k]))
        ]
        best = max(s.test_accuracy for s in stats)
        last5 = float(np.mean([s.test_accuracy for s in stats[-5:]]))
        final = model
        if runs > 1:
            final = type(model)(**{name: v[k].copy() for name, v in params.items()})
        reports.append(TrainReport(stats, best, last5, final, wall))
    return reports


def write_metrics(report: TrainReport, path) -> None:
    """Per-epoch CSV: deterministic bytes for identical runs."""
    lines = [METRICS_HEADER]
    lines += [
        f"{s.epoch},{float(s.train_objective)!r},{float(s.test_accuracy)!r}"
        for s in report.per_epoch
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")
