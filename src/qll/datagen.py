"""Ambiguous dataset generation.

Builds ambiguous instances by mixing clean base examples and attaching
quantized hard labels: Mixup interpolates whole feature vectors, PatchMix
stitches contiguous feature blocks from different sources. Both strategies
produce a ground-truth soft label from the mixing weights, and the observed
hard label is sampled from it.

Also provides a synthetic Gaussian-cluster base dataset so the whole
pipeline runs at desk scale without any external data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AmbiguousDataset,
    GenMeta,
    RngStream,
    SoftLabel,
    quantize_label,
)

__all__ = [
    "MixSpec",
    "MixWeights",
    "BlockAssignment",
    "BaseSpec",
    "sample_mix_weights",
    "mixup",
    "sample_block_assignment",
    "block_bounds",
    "induced_weights",
    "patchmix",
    "mixed_soft_label",
    "generate_ambiguous_dataset",
    "synth_base",
]

MIX_KINDS = ("mixup", "patchmix")

_DEGENERATE_RETRIES = 100
# Fixed tag for the substream that draws class-mean directions, so train and
# test splits generated from different stream ids share the same geometry.
_STREAM_CLASS_MEANS = 0x4D45414E53


@dataclass(frozen=True)
class MixSpec:
    """How to mix base examples into one ambiguous instance.

    ``m`` sources are combined per output. For Mixup, ``r`` is the trial
    count of the multinomial that draws the mixing weights; for PatchMix it
    is the number of contiguous feature blocks handed out to sources.
    ``reject_degenerate`` drops and resamples groups whose mixed soft label
    collapses to one-hot (e.g. all sources share a class).
    """

    kind: str
    m: int = 2
    r: int = 4
    reject_degenerate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in MIX_KINDS:
            raise ValueError(f"kind must be one of {MIX_KINDS}, got {self.kind!r}")
        if int(self.m) < 2:
            raise ValueError("m must be >= 2")
        if int(self.r) < 1:
            raise ValueError("r must be >= 1")


@dataclass(frozen=True, eq=False)
class MixWeights:
    """Mixing weight vector with entries that are exact multiples of 1/r.

    Stored as integer counts summing to r, so the weights sum to one
    exactly as rationals; ``lam`` exposes the float view.
    """

    counts: np.ndarray  # (m,) nonnegative ints
    r: int

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("counts must be a vector of length >= 2")
        # Python's min and sum over the short list beat numpy's per-call
        # overhead; both are exact on ints.
        values = c.tolist()
        if min(values) < 0 or sum(values) != int(self.r):
            raise ValueError(f"counts must be nonnegative and sum to r={self.r}")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "r", int(self.r))

    @property
    def m(self) -> int:
        return int(self.counts.size)

    @property
    def lam(self) -> np.ndarray:
        return self.counts / float(self.r)


@dataclass(frozen=True, eq=False)
class BlockAssignment:
    """Which source each of the r contiguous feature blocks is copied from."""

    assign: np.ndarray  # (r,) ints in [0, m)
    m: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assign, dtype=np.int64)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("assign must be a nonempty vector")
        values = a.tolist()  # one min / max pass in Python, as in MixWeights
        if min(values) < 0 or max(values) >= int(self.m):
            raise ValueError(f"assignments must lie in [0, {self.m})")
        object.__setattr__(self, "assign", a)
        object.__setattr__(self, "m", int(self.m))

    @property
    def r(self) -> int:
        return int(self.assign.size)


@dataclass(frozen=True)
class BaseSpec:
    """Synthetic clean base dataset: c Gaussian clusters in d dimensions.

    ``separation`` is the pairwise distance between class means;
    ``noise_sigma`` the isotropic within-class standard deviation.
    """

    c: int
    d: int
    n_per_class: int
    separation: float = 6.0
    noise_sigma: float = 1.0

    def __post_init__(self) -> None:
        if int(self.c) <= 2:
            raise ValueError("c must be > 2")
        if int(self.d) < 1 or int(self.n_per_class) < 1:
            raise ValueError("d and n_per_class must be positive")
        if not (float(self.separation) > 0.0 and float(self.noise_sigma) > 0.0):
            raise ValueError("separation and noise_sigma must be > 0")


def sample_mix_weights(m: int, r: int, rng: RngStream) -> MixWeights:
    """Draw mixing weights with r*lam ~ MultiNom(1/m, ..., 1/m; r)."""
    if m < 2 or r < 1:
        raise ValueError("need m >= 2 and r >= 1")
    counts = rng.multinomial(r, np.full(m, 1.0 / m))
    return MixWeights(counts, r)


def mixup(instances, w: MixWeights) -> np.ndarray:
    """Convex combination sum_i lam_i * x_i of m equal-length vectors."""
    x = np.asarray(instances, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"instances must be a (m, d) stack, got shape {x.shape}")
    if x.shape[0] != w.m:
        raise ValueError(f"got {x.shape[0]} instances for {w.m} weights")
    return w.lam @ x


def sample_block_assignment(m: int, r: int, rng: RngStream) -> BlockAssignment:
    """Assign each of r blocks an independent uniform source in [0, m)."""
    if m < 2 or r < 1:
        raise ValueError("need m >= 2 and r >= 1")
    return BlockAssignment(rng.integers(0, m, size=r), m)


def block_bounds(d: int, r: int) -> np.ndarray:
    """Boundaries splitting d coordinates into r contiguous blocks.

    Earlier blocks take the larger size when d is not divisible by r.
    Returns r+1 offsets; block b spans [bounds[b], bounds[b+1]).
    """
    if r < 1 or r > d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    q, rem = divmod(d, r)
    sizes = np.full(r, q, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


def induced_weights(a: BlockAssignment) -> MixWeights:
    """Mixing weights implied by a block assignment: block share per source."""
    counts = np.bincount(a.assign, minlength=a.m)
    return MixWeights(counts, a.r)


def patchmix(instances, a: BlockAssignment) -> np.ndarray:
    """Stitch m vectors together block-wise; every coordinate comes from
    exactly one source, so the implicit masks sum to the all-ones vector."""
    x = np.asarray(instances, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"instances must be a (m, d) stack, got shape {x.shape}")
    if x.shape[0] != a.m:
        raise ValueError(f"got {x.shape[0]} instances for m={a.m}")
    d = x.shape[1]
    bounds = block_bounds(d, a.r)
    sizes = np.diff(bounds)
    src_per_coord = np.repeat(a.assign, sizes)
    return x[src_per_coord, np.arange(d)]


def mixed_soft_label(labels, w: MixWeights, c: int) -> SoftLabel:
    """Soft label of a mixed instance: class k gets sum of lam_i over
    sources with label k. Exact because weights are integer counts of 1/r."""
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (w.m,):
        raise ValueError(f"need {w.m} labels, got shape {y.shape}")
    if np.any(y < 0) or np.any(y >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    numer = np.zeros(c, dtype=np.float64)
    np.add.at(numer, y, w.counts.astype(np.float64))
    return SoftLabel(numer)


def _draw_group(base: AmbiguousDataset, spec: MixSpec, rng: RngStream):
    """One candidate mixed example: (features, soft label)."""
    idx = rng.choice(base.n_examples, size=spec.m, replace=False)
    feats = base.features[idx].astype(np.float64)
    labels = base.labels[idx]
    if spec.kind == "mixup":
        w = sample_mix_weights(spec.m, spec.r, rng)
        x = mixup(feats, w)
    else:
        a = sample_block_assignment(spec.m, spec.r, rng)
        x = patchmix(feats, a)
        w = induced_weights(a)
    return x, mixed_soft_label(labels, w, base.class_count)


def generate_ambiguous_dataset(
    base: AmbiguousDataset, spec: MixSpec, n_out: int, rng: RngStream
) -> AmbiguousDataset:
    """Produce n_out ambiguous examples with quantized labels from a clean base.

    Each output draws its own substream (keyed by the example index), so the
    result is a pure function of (base, spec, n_out, rng) and examples could
    be generated concurrently. Per example: sample m distinct base indices,
    draw weights or a block assignment, mix the features, form the mixed
    soft label, and quantize it into the observed hard label. The exact soft
    labels are retained as diagnostics.
    """
    if n_out < 1:
        raise ValueError("n_out must be >= 1")
    if base.n_examples < spec.m:
        raise ValueError(f"base has {base.n_examples} examples, need at least m={spec.m}")
    if spec.kind == "patchmix" and spec.r > base.feature_dim:
        raise ValueError(f"patchmix needs r <= feature_dim, got r={spec.r}, d={base.feature_dim}")

    d = base.feature_dim
    c = base.class_count
    feats = np.empty((n_out, d), dtype=np.float32)
    labels = np.empty(n_out, dtype=np.int64)
    soft = np.empty((n_out, c), dtype=np.float32)

    for i in range(n_out):
        ex_rng = rng.substream(i)
        for attempt in range(_DEGENERATE_RETRIES + 1):
            x, s = _draw_group(base, spec, ex_rng)
            if not (spec.reject_degenerate and s.is_onehot()):
                break
        else:
            raise RuntimeError(
                f"mix spec {spec} kept producing one-hot soft labels after "
                f"{_DEGENERATE_RETRIES} retries; the spec is degenerate for this base"
            )
        feats[i] = x.astype(np.float32)
        soft[i] = s.weights.astype(np.float32)
        labels[i] = quantize_label(s, ex_rng)

    meta = GenMeta(
        kind=spec.kind,
        m=spec.m,
        r=spec.r,
        seed=rng.seed,
        extra={"n_out": str(n_out), "reject_degenerate": str(spec.reject_degenerate)},
    )
    return AmbiguousDataset(c, d, feats, labels, diagnostics=soft, gen_meta=meta)


def _class_means(spec: BaseSpec, seed: int) -> tuple[np.ndarray, str]:
    """Class means at pairwise distance ``separation``.

    With c <= d the means sit on a regular simplex built from the scaled
    orthonormal basis (deterministic). Otherwise they are random unit
    directions drawn from a substream keyed only by the seed, so train and
    test splits generated from different stream ids share the same means.
    """
    scale = spec.separation / np.sqrt(2.0)
    if spec.c <= spec.d:
        means = np.zeros((spec.c, spec.d))
        means[np.arange(spec.c), np.arange(spec.c)] = scale
        return means, "simplex"
    mrng = RngStream(seed, _STREAM_CLASS_MEANS)
    dirs = mrng.standard_normal((spec.c, spec.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return scale * dirs, "random"


def synth_base(spec: BaseSpec, rng: RngStream) -> AmbiguousDataset:
    """Clean synthetic base set: isotropic Gaussian clusters, one-hot labels.

    A paired clean test set comes from calling this again with a different
    stream id on the same seed; the class means are shared.
    """
    means, mode = _class_means(spec, rng.seed)
    n = spec.c * spec.n_per_class
    feats = np.empty((n, spec.d), dtype=np.float32)
    for k in range(spec.c):
        lo = k * spec.n_per_class
        noise = rng.standard_normal((spec.n_per_class, spec.d))
        feats[lo : lo + spec.n_per_class] = (means[k] + spec.noise_sigma * noise).astype(np.float32)
    labels = np.repeat(np.arange(spec.c, dtype=np.int64), spec.n_per_class)
    diag = np.eye(spec.c, dtype=np.float32)[labels]
    meta = GenMeta(
        kind="none",
        m=0,
        r=0,
        seed=rng.seed,
        extra={
            "n_per_class": str(spec.n_per_class),
            "separation": repr(float(spec.separation)),
            "noise_sigma": repr(float(spec.noise_sigma)),
            "means": mode,
        },
    )
    return AmbiguousDataset(spec.c, spec.d, feats, labels, diagnostics=diag, gen_meta=meta)
