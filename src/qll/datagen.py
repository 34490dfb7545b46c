"""Ambiguous dataset generation.

Builds ambiguous instances by mixing clean base examples and attaching
quantized hard labels: Mixup interpolates whole feature vectors, PatchMix
stitches contiguous feature blocks from different sources. Both strategies
produce a ground-truth soft label from the mixing weights, and the observed
hard label is sampled from it.

Only the generator calls run per example; the keys, the checks of the
draws, the features, soft labels and hard labels come from batched kernels.

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
    _child_id,
    _normalize_rows,
    _philox_key,
    _require_ints,
    quantize_labels,
)

__all__ = [
    "MixSpec",
    "MixWeights",
    "BlockAssignment",
    "BaseSpec",
    "sample_mix_weights",
    "sample_block_assignment",
    "block_bounds",
    "mixed_soft_labels",
    "generate_ambiguous_dataset",
    "synth_base",
]

MIX_KINDS = ("mixup", "patchmix")

_DEGENERATE_RETRIES = 100
# numpy's choice(n, m, replace=False) runs Floyd's sampler while n is at
# most this or m <= n // 50; past that it shuffles a tail of arange(n).
_FLOYD_MAX_N = 10_000
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Groups mixed per batched call: bounds the (rows, m, d) float64 temporaries.
_MIX_ROWS = 2048
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
        _require_ints(self, m=2, r=1)


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
        _check_draws(c, "mixup", c.size, int(self.r))
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "r", int(self.r))

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
        _check_draws(a, "patchmix", int(self.m), a.size)
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
        _require_ints(self, c=3, d=1, n_per_class=1)
        if not (float(self.separation) > 0.0 and float(self.noise_sigma) > 0.0):
            raise ValueError("separation and noise_sigma must be > 0")


def _check_draws(draws: np.ndarray, kind: str, m: int, r: int) -> None:
    """Check Mixup counts, (..., m), or PatchMix block assignments, (..., r)."""
    if kind == "mixup" and ((draws < 0).any() or (draws.sum(axis=-1) != r).any()):
        raise ValueError(f"counts must be nonnegative and sum to r={r}")
    if kind == "patchmix" and ((draws < 0).any() or (draws >= m).any()):
        raise ValueError(f"assignments must lie in [0, {m})")


def sample_mix_weights(m: int, r: int, rng: RngStream) -> MixWeights:
    """Draw mixing weights with r*lam ~ MultiNom(1/m, ..., 1/m; r)."""
    if m < 2 or r < 1:
        raise ValueError("need m >= 2 and r >= 1")
    counts = rng.multinomial(r, np.full(m, 1.0 / m))
    return MixWeights(counts, r)


def _mix_rows(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mixup of n groups, row i = lam[i] @ x[i], for (n, m) weights and (n,
    m, d) sources. Stacked matmul makes one group's vector-matrix BLAS call
    per row, so rows keep its bits; a reordered sum (einsum) would not."""
    return np.matmul(lam[:, None, :], x)[:, 0]


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


def _block_counts(assign: np.ndarray, m: int) -> np.ndarray:
    """(n, m) blocks per source of n (n, r) block assignments."""
    return np.count_nonzero(assign[:, :, None] == np.arange(m), axis=1)


def _patch_rows(x: np.ndarray, picks: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """PatchMix of n groups as one gather from the rows of ``x``: coordinate
    j of group i comes from row picks[i, assign[i, b]], b the block of j."""
    d = x.shape[1]
    src = np.repeat(assign, np.diff(block_bounds(d, assign.shape[1])), axis=1)
    return x[np.take_along_axis(picks, src, axis=1), np.arange(d)]


def _class_mass(src_labels, counts, c: int) -> np.ndarray:
    """(n, c) float64: the (n, m) source counts summed per source label."""
    y = np.asarray(src_labels, dtype=np.int64)
    k = np.asarray(counts)
    if y.ndim != 2 or y.shape != k.shape:
        raise ValueError(f"need {k.shape} source labels, got shape {y.shape}")
    if (y < 0).any() or (y >= c).any():
        raise ValueError(f"labels must lie in [0, {c})")
    mass, rows = np.zeros((y.shape[0], c)), np.arange(y.shape[0])
    for j in range(y.shape[1]):  # no row repeats within one source column
        mass[rows, y[:, j]] += k[:, j]
    return mass


def mixed_soft_labels(src_labels, counts, c: int) -> np.ndarray:
    """(n, c) soft labels of n groups from (n, m) source labels and integer
    mixing counts; exact, as each row's class masses sum to r exactly."""
    return _normalize_rows(_class_mass(src_labels, counts, c))


def _is_onehot_mix(labels: list, pick: np.ndarray, counts) -> bool:
    """Whether a group's sources with a positive count (a list, or any
    sequence of m numbers) share one base label."""
    return len({labels[j] for j, k in zip(pick.tolist(), counts) if k}) == 1


def _bounded(raw: np.ndarray, k: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's draw in [0, bound) from 32-bit half k of each row of raw
    Philox words, low half first, as numpy's ``choice`` and ``integers``
    read them; and where it rejected (numpy would then read another half)."""
    x = raw[:, k // 2] >> _SHIFT32 if k % 2 else raw[:, k // 2] & _LOW32
    x *= np.uint64(bound)
    rejected = (x & _LOW32) < np.uint64((2**32 - bound) % bound)
    return (x >> _SHIFT32).view(np.int64), rejected


def _decode_draws(raw: np.ndarray, n: int, picks: np.ndarray, assign: np.ndarray | None) -> np.ndarray:
    """Decode, for each row of ``raw`` words, what numpy's ``choice(n, m,
    replace=False)`` on a base with m < n (Floyd's sampler, then a
    Fisher-Yates tail) and then, if ``assign`` is given, ``integers(0, m,
    size=r)`` return, into (rows, m) ``picks`` and (rows, r) ``assign``.
    Returns where a Lemire draw rejected; those rows hold no valid draw."""
    rows, m = picks.shape
    rejected = np.zeros(rows, dtype=bool)

    def draw(k: int, bound: int) -> np.ndarray:
        val, rej = _bounded(raw, k, bound)
        np.logical_or(rejected, rej, out=rejected)
        return val

    for t, j in enumerate(range(n - m, n)):  # Floyd: draw in [0, j]; a repeat takes j
        val = draw(t, j + 1)
        picks[:, t] = np.where((picks[:, :t] == val[:, None]).any(axis=1), j, val)
    at = np.arange(rows)
    for k, i in enumerate(range(m - 1, 0, -1), start=m):  # swap slot i with one in [0, i]
        j = draw(k, i + 1)
        held = picks[at, j]
        picks[at, j] = picks[:, i]
        picks[:, i] = held
    for b in range(0 if assign is None else assign.shape[1]):
        assign[:, b] = draw(2 * m - 1 + b, m)
    return rejected


def generate_ambiguous_dataset(
    base: AmbiguousDataset, spec: MixSpec, n_out: int, rng: RngStream
) -> AmbiguousDataset:
    """Produce n_out ambiguous examples with quantized labels from a clean base.

    Example i draws from its own substream ``rng.substream(i)``, so the
    result is a pure function of (base, spec, n_out, rng). It draws, in this
    order, m distinct base indices with ``choice``, mixing weights with
    ``multinomial`` or a block assignment with ``integers`` (both redrawn
    while ``reject_degenerate`` sees a one-hot soft label), and the uniform
    that quantizes its label.

    The loop re-keys one stream per example (all substream keys are derived
    at once) and reads the raw Philox words that ``choice`` and
    ``integers`` would consume, then draws Mixup's weights and the uniform.
    One vectorized pass after it decodes the words as numpy does: Lemire's
    bounded draw on each 32-bit half, Floyd's sampler with its Fisher-Yates
    tail, then the block draws. An example is redrawn by the per-example
    generator calls when a Lemire draw rejected (numpy would have read
    another half), when ``reject_degenerate`` finds its first draw one-hot,
    or, for every example, when numpy's ``choice`` would not use Floyd's
    sampler (a base of exactly m examples, or one of more than 10,000
    examples with m > n // 50). So the output bytes rest on numpy's
    ``choice`` and ``integers`` algorithms; tests compare them with the
    plain per-example loop. The draws are checked in one pass, and the mixed
    features, the soft labels (kept as diagnostics) and the hard labels are
    then computed for all examples at once.
    """
    if n_out < 1:
        raise ValueError("n_out must be >= 1")
    if base.n_examples < spec.m:
        raise ValueError(f"base has {base.n_examples} examples, need at least m={spec.m}")
    if spec.kind == "patchmix" and spec.r > base.feature_dim:
        raise ValueError(f"patchmix needs r <= feature_dim, got r={spec.r}, d={base.feature_dim}")

    n, m, r, c = base.n_examples, spec.m, spec.r, base.class_count
    is_mixup, reject = spec.kind == "mixup", spec.reject_degenerate
    pvals = np.full(m, 1.0 / m)
    picks = np.empty((n_out, m), dtype=np.int64)
    draws = np.empty((n_out, m if is_mixup else r), dtype=np.int64)  # counts or assignment
    u = np.empty(n_out)

    ids = _child_id(rng.stream_id, np.arange(n_out, dtype=np.uint64))
    k0, keys = _philox_key(rng.seed, ids)
    ex_rng = rng.substream(0)
    redo = np.arange(n_out)
    if m < n and (n <= _FLOYD_MAX_N or m <= n // 50):
        # 2m - 1 halves for choice, r for integers, and the last word's
        # spare high half stays unread, as numpy's double draws skip it
        raw = np.empty((n_out, (2 * m + (0 if is_mixup else r)) // 2), dtype=np.uint64)
        for i in range(n_out):
            ex_rng._rekey(rng.seed, int(ids[i]), (k0, keys[i]))
            raw[i] = ex_rng.random_raw(raw.shape[1])
            if is_mixup:
                draws[i] = ex_rng.multinomial(r, pvals)
            u[i] = ex_rng.random()
        redo = _decode_draws(raw, n, picks, None if is_mixup else draws)
        del raw
        if reject:  # one-hot: one class holds all r of the source counts
            counts = draws if is_mixup else _block_counts(draws, m)
            redo |= _class_mass(base.labels[picks], counts, c).max(axis=1) == r
        redo = np.flatnonzero(redo)

    labels = base.labels.tolist() if reject else None
    for i in redo.tolist():
        ex_rng._rekey(rng.seed, int(ids[i]), (k0, keys[i]))
        for _ in range(_DEGENERATE_RETRIES + 1):
            pick = ex_rng.choice(n, size=m, replace=False)
            draw = ex_rng.multinomial(r, pvals) if is_mixup else ex_rng.integers(0, m, size=r)
            if not reject:
                break
            # list.count skips an invalid assignment, which the check below reports
            counts = draw.tolist() if is_mixup else list(map(draw.tolist().count, range(m)))
            if not _is_onehot_mix(labels, pick, counts):
                break
        else:
            raise RuntimeError(
                f"mix spec {spec} kept producing one-hot soft labels after "
                f"{_DEGENERATE_RETRIES} retries; the spec is degenerate for this base"
            )
        picks[i] = pick
        draws[i] = draw
        u[i] = ex_rng.random()
    _check_draws(draws, spec.kind, m, r)

    feats = np.empty((n_out, base.feature_dim), dtype=np.float32)
    for lo in range(0, n_out, _MIX_ROWS):
        p, k = picks[lo : lo + _MIX_ROWS], draws[lo : lo + _MIX_ROWS]
        if is_mixup:
            feats[lo : lo + _MIX_ROWS] = _mix_rows(k / float(r), base.features[p].astype(np.float64))
        else:
            feats[lo : lo + _MIX_ROWS] = _patch_rows(base.features, p, k)
    counts = draws if is_mixup else _block_counts(draws, m)
    soft = mixed_soft_labels(base.labels[picks], counts, c)
    labels = quantize_labels(soft, u)

    meta = GenMeta(
        kind=spec.kind,
        m=spec.m,
        r=spec.r,
        seed=rng.seed,
        extra={"n_out": str(n_out), "reject_degenerate": str(spec.reject_degenerate)},
    )
    return AmbiguousDataset(c, base.feature_dim, feats, labels, diagnostics=soft, gen_meta=meta)


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
