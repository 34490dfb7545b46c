"""Minibatch SGD training and evaluation.

Parameter init, epoch shuffling, and per-iteration alpha sampling each
consume their own purpose stream of the config seed, so e.g. switching the
model kind never changes the batch order. A run repeats its bytes within one
environment (Python, numpy and BLAS build) and one OpenBLAS kernel set: the
same wheel picks other kernels on a CPU that OpenBLAS classes differently,
and those round the matrix products differently, so the trajectory and the
bytes differ.

Learning rate follows the step-decay schedule: 0.1x the initial rate from
the 50% epoch boundary and 0.01x from the 75% boundary. Weight decay folds
into the gradient before the momentum update (classical coupling).

``train_runs`` trains K runs whose configs differ only in ``seed`` and
``priors``, each on its own train and test set of one shared shape, at
once: parameters carry a leading run axis of K, each step gathers every
run's batch into one (K, B, d) array, and forward, risk or baseline loss,
backward and SGD are one stacked call each. Every step stays independent
per run: a run's batch order and alpha draws come from its own seed's
streams (runs of one seed on one train set share them), and its alpha
terms, masks and reductions are the same float operations as alone. So
each member's report equals its solo ``train`` run bit for bit. ``train``
is the K=1 case: unstacked parameters, scalar priors and alpha.

Work that does not depend on the parameters runs as rarely as it can:

- once per run: the train sets' labels are checked; the parameters, their
  gradients and the SGD velocity are each one flat vector, the first two
  viewed per parameter, and the model's layers are bound to those views
  (``models.bind_layers``: transposed weights, biases shaped as added and
  gradient out-arrays), which follow every in-place update; one features
  buffer and one labels buffer per stream; each batch's bounds and size,
  and the size as a 0-d divisor (only the final batch may be smaller);
  momentum and weight decay as 0-d arrays; for PU methods the priors'
  ``risk._branch_weights`` table, (2, 3, [K,] c), the u_mode's term mask
  table, and an epoch log of every batch's (3, [K,] c) risks; for a single
  cpu-sjs run a (5, n_batches) buffer of alpha terms and the five 0-d
  views of each batch's column; for baselines the label entries' offsets
  (their loss parameters are 0-d operands cached on the loss kind);
- once per epoch: the learning rate as a 0-d array; each stream's batch
  order, and its features (cast to float64, exactly) and labels gathered in
  that order into its buffers; for PU methods ``risk.batch_tables`` over
  those labels (which checks them and that every batch spans two classes),
  each stream's alphas, drawn at once, as their terms (written into the
  single run's buffer, or (K, 1, 1) columns for K runs), and, after the
  last step, every batch's branch objective from the log in one pass,
  added up in batch order; for baselines every run's label indices, the
  flat index of each example's label entry in its batch's logits;
- once per step: numpy calls only. The batch is a slice of the buffers (a
  view for one run; K runs gather their streams' rows), then come
  ``forward`` on the bound layers, ``cpu_risk_with_grad`` (given the
  batch's term masks, looked up from its labels, its tables and its row of
  the epoch log, into which it writes the risks; the step computes no
  objective) or ``baseline_loss_batch`` (given the batch's label indices,
  so it reads no labels; the batch's mean loss is added to the epoch's
  objective), ``backward`` on the bound layers into the gradient's views,
  and one ``sgd_step`` on the flat vectors. Forward, backward and the risk
  check no shape on a step, as ``train_runs`` ties every dataset's d and
  c to the model before the first; the risk and the loss still check that
  the logits are finite, which is how a diverged run is caught. Test
  accuracy is evaluated once per epoch.

The 0-d arrays and the class-width weights table spare each step's ufunc
calls a scalar conversion or a broadcast (see ``core.frozen_0d``); the
values and the order of every float operation are as in the plain loop.
"""

from __future__ import annotations

import math
import numbers
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
    _check_seed,
    _require_ints,
    frozen_0d,
    zero_one_test_risk,
)
from .losses import BinaryLossKind, MulticlassLossKind, _alpha_terms, baseline_loss_batch, sample_alpha
from .models import MODEL_KINDS, backward, bind_layers, forward, init_model, predict
from .risk import U_MODES, _branch_objective, _branch_weights, _term_masks, batch_tables, cpu_risk_with_grad
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
        _require_ints(self, epochs=1, batch_size=2, hidden_dim=None, seed=None)
        _check_seed(self.seed)
        for name in ("lr", "momentum", "weight_decay"):
            # a bool would train as 0 or 1, and a string fail late with a TypeError
            if isinstance(v := getattr(self, name), bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be a finite number >= 0, got {self.weight_decay}")
        if self.u_mode not in U_MODES:
            raise ValueError(f"u_mode must be one of {U_MODES}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if self.model_kind == "mlp" and self.hidden_dim < 1:
            raise ValueError(f"an mlp needs hidden_dim >= 1, got {self.hidden_dim}")
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

    Per iteration: compute the objective, at the iteration's alpha when the
    loss is stochastic, and its logit gradients (branch-objective gradients
    for PU methods, mean baseline loss otherwise), backprop, and apply one
    SGD step. Test accuracy is evaluated after every epoch. This is the K=1
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


def _views(flat: np.ndarray, blocks: dict) -> dict[str, np.ndarray]:
    """Consecutive slices of ``flat`` shaped like the arrays of ``blocks``, by name."""
    ends = np.cumsum([b.size for b in blocks.values()])
    return {k: flat[end - b.size : end].reshape(b.shape) for (k, b), end in zip(blocks.items(), ends)}


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
    # Every parameter is a view into one flat vector, with flat velocity and
    # gradient vectors beside it: backward writes into the gradient's views,
    # and one sgd_step call updates them all. The layers are bound once, to
    # views that follow every step's in-place update.
    flat = np.concatenate([b.ravel() for b in blocks.values()])
    model = type(models[0])(**_views(flat, blocks))
    params = model.params()
    velocity = np.zeros_like(flat)
    grad_flat = np.empty_like(flat)
    grads = _views(grad_flat, blocks)
    layers = bind_layers(model, grads)

    # Each distinct (seed, train set) pair is a stream: it draws one batch
    # order and one alpha per batch each epoch, shared by its runs. Each
    # epoch rewrites every stream's features (cast to float64, exactly) and
    # labels in its batch order, so a run's batch is a slice of its
    # stream's row and no batch is gathered or cast again.
    datas, data_of = _distinct(trains)
    if any(t.labels.view(np.uint64).max() >= c for t in datas):  # checked when made, unless changed since
        raise ValueError(f"labels must lie in [0, {c})")
    streams, stream_of = _distinct(zip((r.seed for r in cfgs), data_of), key=tuple)
    batch_rngs = [RngStream(seed, STREAM_BATCHING) for seed, _ in streams]
    alpha_rngs = [RngStream(seed, STREAM_ALPHA) for seed, _ in streams]
    x_epoch = np.empty((len(streams), n, d))
    y_epoch = np.empty((len(streams), n), dtype=np.int64)
    # Evaluation makes one forward pass per distinct test set, over the runs
    # it serves, so activations stay (runs per test set, N, h).
    test_sets, test_of = _distinct(tests)
    evals = [(np.flatnonzero(np.array(test_of) == j) if len(test_sets) > 1 else slice(None), t)
             for j, t in enumerate(test_sets)]

    # Each run's stream: a single run reads stream 0 as one (n,) row, K runs
    # read a (K, n) block.
    loss, u_mode, batch_size = cfg.loss, cfg.u_mode, cfg.batch_size
    is_cpu = cfg.is_cpu_method
    needs_alpha = is_cpu and loss.needs_alpha
    momentum, weight_decay = frozen_0d(cfg.momentum), frozen_0d(cfg.weight_decay)
    pick = np.array(stream_of, dtype=np.intp) if runs > 1 else 0
    starts = range(0, n, batch_size)
    # Each batch's rows of the epoch, and its size as an int and as a 0-d
    # divisor: all batches but the final one hold batch_size rows.
    steps = [(start, min(start + batch_size, n)) for start in starts]
    steps = [(start, stop, stop - start, frozen_0d(stop - start)) for start, stop in steps]
    if is_cpu:
        weights = _branch_weights(priors, c)
        term_masks = _term_masks(c, u_mode)
        # Each step writes its (3, [K,] c) risks into its row; the epoch's
        # objectives are booked from the whole log at once.
        risk_log = np.empty((len(steps), 3, *weights.shape[2:]))
        sizes = np.array([size for _, _, size, _ in steps])
        sizes = sizes[:, None] if runs > 1 else sizes  # against (n_batches, [K])
    if needs_alpha and runs == 1:
        # Each epoch writes its (5, n_batches) alpha terms into these columns,
        # and step b reads the five 0-d views of column b.
        alpha_columns = np.empty((5, len(steps)))
        alpha_terms = [tuple(row[b, ...] for row in alpha_columns) for b in range(len(steps))]
    if not is_cpu:
        # A label entry's flat index in its batch's ([K,] size, c) logits is
        # the label plus c * (row + run * size); one (n,) row for one run.
        offsets = np.arange(n) % batch_size  # each example's row in its batch
        if runs > 1:  # a batch starting at row s of the epoch holds min(batch_size, n - s) rows
            offsets = offsets + np.arange(runs)[:, None] * np.minimum(batch_size, n - np.arange(n) + offsets)
        offsets *= c
    objectives, accuracies = [], []
    for epoch in range(cfg.epochs):
        lr = frozen_0d(lr_at_epoch(cfg, epoch))
        # Each stream's features and labels in its batch order; for PU
        # methods each stream's batch counts and divisors, and each run's
        # branch weights over them.
        for s, ((_, k), rng) in enumerate(zip(streams, batch_rngs)):
            order = _epoch_order(datas[k].labels, batch_size, rng, is_cpu)
            x_epoch[s] = datas[k].features[order]
            np.take(datas[k].labels, order, out=y_epoch[s])
        if is_cpu:
            table, coefs = batch_tables(y_epoch, starts, c, u_mode, weights, pick)
        else:
            label_at = y_epoch[pick] + offsets
        if needs_alpha:  # batch b's terms are [b]: five 0-d views for one run, (5, K, 1, 1) columns for K runs
            alphas = np.stack([sample_alpha(rng, size=len(starts)) for rng in alpha_rngs])
            if runs > 1:
                alpha_terms = np.moveaxis(_alpha_terms(alphas.T[..., None, None])[:, :, pick], 1, 0)
            else:
                alpha_columns[...] = _alpha_terms(alphas[0])
        objective_sum = 0.0
        try:
            for it, (start, stop, size, divisor) in enumerate(steps):
                logits, cache = forward(model, x_epoch[pick, start:stop], layers=layers)
                if is_cpu:
                    terms = alpha_terms[it] if needs_alpha else None  # kl takes no alpha
                    masks = term_masks.take(y_epoch[pick, start:stop], axis=1)
                    batch = (weights, masks, table[:, :, pick, it], coefs[..., it, :], terms, risk_log[it])
                    _, d_logits = cpu_risk_with_grad(logits, None, priors, loss, tables=batch)
                else:
                    losses, d_logits = baseline_loss_batch(loss, logits, None, at=label_at[..., start:stop])
                    # np.mean over the batch is this sum divided by its size.
                    objective_sum += np.add.reduce(losses, axis=-1) / size * size
                    d_logits /= divisor
                backward(model, cache, d_logits, out=grads, layers=layers)
                sgd_step(flat, grad_flat, velocity, lr, momentum, weight_decay)
            accuracy = np.empty(runs)
            for index, t in evals:
                members = type(model)(**{k: v[index] for k, v in params.items()})
                accuracy[index] = evaluate(members, t.features, t.labels)
        except ValueError:
            _raise_if_diverged(cfgs, epoch, it, [logits, *params.values()])
            raise
        if is_cpu:  # every batch's objective from the log, added in batch order as the steps ran
            per_batch = _branch_objective(np.moveaxis(risk_log, 1, 0), weights) * sizes
            for objective in per_batch:
                objective_sum += objective
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
