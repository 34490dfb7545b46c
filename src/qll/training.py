"""Minibatch SGD training and evaluation.

The loop is fully deterministic given the config seed: parameter init, epoch
shuffling, and per-iteration alpha sampling each consume their own purpose
stream, so e.g. switching the model kind never changes the batch order.

Learning rate follows the step-decay schedule: 0.1x the initial rate from
the 50% epoch boundary and 0.01x from the 75% boundary. Weight decay folds
into the gradient before the momentum update (classical coupling).

``train_runs`` trains K runs whose configs differ only in ``seed`` and
``priors``, each on its own train and test set of one shared shape, at
once: parameters carry a leading run axis of K and are views into one flat
vector, each step gathers every run's batch into one (K, B, d) array, and
forward, risk or baseline loss, backward and SGD (one update of the flat
vector) are one stacked call each. Every step stays independent
per run: a run's batch order and alpha draws come from its own seed's
streams (runs of one seed on one train set share them), and its alpha
terms, masks and reductions are the same float operations as alone. So
each member's report equals its solo ``train`` run bit for bit. ``train``
is the K=1 case: unstacked parameters, scalar priors and alpha, flat SGD.
"""

from __future__ import annotations

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


def sgd_step(p: np.ndarray, g: np.ndarray, v: np.ndarray, lr, momentum, weight_decay) -> None:
    """In-place update of parameters p and velocity v by gradient g:
    v <- momentum*v + g + wd*p ; p <- p - lr*v."""
    if g.shape != p.shape:
        raise ValueError(f"gradient shape {g.shape} != param shape {p.shape}")
    v *= momentum
    v += g + weight_decay * p
    p -= lr * v


def lr_at_epoch(cfg: TrainConfig, epoch_index: int) -> float:
    """Step decay: lr, then 0.1*lr from 50% of epochs, 0.01*lr from 75%."""
    if epoch_index >= (3 * cfg.epochs) // 4:
        return cfg.lr * 0.01
    if epoch_index >= cfg.epochs // 2:
        return cfg.lr * 0.1
    return cfg.lr


def _epoch_order(labels: np.ndarray, batch_size: int, rng: RngStream, need_two_classes: bool) -> np.ndarray:
    """One permutation of ``rng``, whose consecutive ``batch_size`` slices
    are the epoch's batches, final partial batch kept. For the PU objective
    every batch must span two classes. That can be met exactly when the final
    batch holds two or more examples and every batch can get one from
    outside the largest class; otherwise a ValueError says which fails. A
    one-label batch, of label L, swaps its first example with the first of
    another label whose batch holds two or more not labeled L, which leaves
    both batches mixed. So an order with no one-label batch stays as drawn."""
    n = labels.shape[0]
    order = rng.permutation(n)
    if not need_two_classes:
        return order
    starts = np.arange(0, n, batch_size)
    outside = n - np.bincount(labels).max()
    if n % batch_size == 1:
        raise ValueError(f"{n} examples at batch size {batch_size} leave a final batch of one "
                         "example, and PU training needs two classes in every batch")
    if outside < starts.size:
        raise ValueError(f"{n} examples at batch size {batch_size} make {starts.size} batches, but "
                         f"only {outside} lie outside the largest class, and PU training needs two "
                         "classes in every batch")
    sizes = np.diff(starts, append=n)
    y = labels[order]
    # A batch spans >= 2 classes iff some label differs from its first.
    mixed = np.logical_or.reduceat(y != np.repeat(y[starts], sizes), starts)
    for first in starts[~mixed]:
        other = y != y[first]
        if other[first : first + batch_size].any():
            continue  # a donor to an earlier swap
        donor = np.argmax(other & np.repeat(np.add.reduceat(other, starts) >= 2, sizes))
        order[[first, donor]] = order[[donor, first]]
        y[[first, donor]] = y[[donor, first]]
    return order


def evaluate(model, features, labels):
    """Clean-test accuracy of argmax predictions on (N, d) features and (N,)
    labels: a float, or a (K,) array of per-run accuracies for a stacked
    model."""
    logits, _ = forward(model, features)
    return 1.0 - zero_one_test_risk(predict(logits), labels)


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


def _per_run(datasets, runs: int) -> list[AmbiguousDataset]:
    datasets = [datasets] * runs if isinstance(datasets, AmbiguousDataset) else list(datasets)
    if len(datasets) != runs:
        raise ValueError(f"got {len(datasets)} datasets for {runs} runs")
    return datasets


def _distinct(items, key=id) -> tuple[list, list[int]]:
    """Distinct items in first-seen order, and each item's index among them."""
    seen: dict = {}
    index = [seen.setdefault(key(item), (len(seen), item))[0] for item in items]
    return [item for _, item in seen.values()], index


def _raise_if_diverged(cfgs, epoch: int, iteration: int, arrays) -> None:
    """Turn a failed step into a RuntimeError naming the epoch, iteration and
    every run whose logits or parameters went non-finite, if any did."""
    bad = np.zeros(len(cfgs), dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a).reshape(len(cfgs), -1).all(axis=1)
    names = [
        f"seed={c.seed}" + (f" pi1={c.priors.pi1} pi2={c.priors.pi2}" if c.priors else "")
        for c, b in zip(cfgs, bad) if b
    ]
    if names:
        raise RuntimeError(
            f"training diverged at epoch {epoch + 1}, iteration {iteration + 1}: non-finite "
            f"logits or parameters in run(s) {'; '.join(names)}; try a lower lr"
        )


def train_runs(train_sets, test_sets, cfgs: Sequence[TrainConfig]) -> list[TrainReport]:
    """Train K runs that differ only in seed, priors and datasets as one
    stacked run.

    ``train_sets`` and ``test_sets`` are each one dataset for every run or a
    sequence of K, one per config. Train sets must share one shape, so that
    every run's batches line up. Returns one report per config, in order,
    each equal to what ``train`` returns for that config and its datasets
    alone. A non-finite logit raises a RuntimeError that names the epoch,
    the iteration and the runs; a PU method's train set that ``_epoch_order``
    cannot batch raises a ValueError before the first step.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one config")
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed, priors=cfg.priors) != cfg for c in cfgs[1:]):
        raise ValueError("stacked runs may differ only in seed and priors")
    runs = len(cfgs)
    trains, tests = _per_run(train_sets, runs), _per_run(test_sets, runs)
    c, d, n = trains[0].class_count, trains[0].feature_dim, trains[0].n_examples
    if any((t.class_count, t.feature_dim, t.n_examples) != (c, d, n) for t in trains):
        raise ValueError("stacked runs need train sets of one shape")
    if any((t.class_count, t.feature_dim) != (c, d) for t in tests):
        raise ValueError("train and test sets must share (class_count, feature_dim)")
    if n == 0 or any(t.n_examples == 0 for t in tests):
        raise ValueError("datasets must be nonempty")

    models = [
        init_model(cfg.model_kind, c, d, RngStream(r.seed, STREAM_INIT), hidden_dim=cfg.hidden_dim)
        for r in cfgs
    ]
    # A single run keeps 2-D parameters and scalar priors: a leading axis of
    # one costs time on every step.
    priors = cfg.priors if runs == 1 else tuple(r.priors for r in cfgs)
    blocks = {
        k: v if runs == 1 else np.stack([m.params()[k] for m in models])
        for k, v in models[0].params().items()
    }
    # Every parameter is a view into one flat vector, with one flat velocity
    # vector beside it: one sgd_step call updates them all.
    flat = np.concatenate([b.ravel() for b in blocks.values()])
    ends = np.cumsum([b.size for b in blocks.values()])
    model = type(models[0])(**{
        k: flat[end - b.size : end].reshape(b.shape) for (k, b), end in zip(blocks.items(), ends)
    })
    params = model.params()
    velocity = np.zeros_like(flat)

    # Distinct train sets are stacked once, as blocks of n rows. Each
    # distinct (seed, train set) pair is a stream: it draws one batch order
    # per epoch and one alpha per step, shared by its runs.
    datas, data_of = _distinct(trains)
    x_all = np.concatenate([t.features for t in datas])
    y_all = np.concatenate([t.labels for t in datas])
    streams, stream_of = _distinct(zip((r.seed for r in cfgs), data_of), key=tuple)
    batch_rngs = [RngStream(seed, STREAM_BATCHING) for seed, _ in streams]
    alpha_rngs = [RngStream(seed, STREAM_ALPHA) for seed, _ in streams]
    # Evaluation makes one forward pass per distinct test set, over the runs
    # it serves, so activations stay (runs per test set, N, h).
    test_sets, test_of = _distinct(tests)
    evals = [(np.flatnonzero(np.array(test_of) == j) if len(test_sets) > 1 else slice(None), t)
             for j, t in enumerate(test_sets)]

    is_cpu = cfg.is_cpu_method
    needs_alpha = is_cpu and cfg.loss.needs_alpha
    # Picks each run's stream from the (S, n) epoch orders: a single run
    # reads stream 0 as one (n,) order, K runs read a (K, n) block.
    pick = stream_of if runs > 1 else 0
    objectives, accuracies = [], []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        # Row indices into x_all, one order per stream.
        orders = np.stack([
            _epoch_order(y_all[k * n : (k + 1) * n], cfg.batch_size, rng, is_cpu) + k * n
            for (_, k), rng in zip(streams, batch_rngs)
        ])
        objective_sum = 0.0
        try:
            for it, start in enumerate(range(0, n, cfg.batch_size)):
                rows = orders[pick, start : start + cfg.batch_size]
                xb, yb = x_all.take(rows, axis=0), y_all.take(rows)
                logits, cache = forward(model, xb)
                if is_cpu:
                    alpha = None
                    if needs_alpha:
                        draws = [sample_alpha(rng) for rng in alpha_rngs]
                        alpha = draws[0] if runs == 1 else [draws[s] for s in stream_of]
                    report, d_logits = cpu_risk_with_grad(
                        logits, yb, priors, cfg.loss, alpha, u_mode=cfg.u_mode
                    )
                    objective = report.objective_value
                else:
                    losses, grads = baseline_loss_batch(cfg.loss, logits, yb)
                    # np.mean over the batch is this sum divided by its size.
                    objective = losses.sum(axis=-1) / rows.shape[-1]
                    d_logits = grads / rows.shape[-1]
                grad_params = backward(model, cache, d_logits)
                grad_flat = np.concatenate([grad_params[k].ravel() for k in params])
                sgd_step(flat, grad_flat, velocity, lr, cfg.momentum, cfg.weight_decay)
                objective_sum += objective * rows.shape[-1]
            accuracy = np.empty(runs)
            for index, t in evals:
                members = type(model)(**{k: v[index] for k, v in params.items()})
                accuracy[index] = evaluate(members, t.features, t.labels)
        except ValueError:
            _raise_if_diverged(cfgs, epoch, it, [logits, *params.values()])
            raise
        objectives.append(objective_sum / n)
        accuracies.append(accuracy)

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
        final = type(model)(**{name: (v[k] if runs > 1 else v).copy() for name, v in params.items()})
        reports.append(TrainReport(stats, best, last5, final))
    return reports


def write_metrics(report: TrainReport, path) -> None:
    """Per-epoch CSV: deterministic bytes for identical runs."""
    lines = [METRICS_HEADER]
    lines += [
        f"{s.epoch},{float(s.train_objective)!r},{float(s.test_accuracy)!r}"
        for s in report.per_epoch
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")
