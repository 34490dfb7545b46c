"""Ambiguous dataset generation.

Builds ambiguous instances by mixing clean base examples and attaching
quantized hard labels: Mixup interpolates whole feature vectors, PatchMix
stitches contiguous feature blocks from different sources. Both strategies
produce a ground-truth soft label from the mixing weights, and the observed
hard label is sampled from it.

Each example's draws follow a law the module owns: bounded integers by
multiply-shift from the example's own Philox words, which are computed for
many examples at once. The checks of the draws, the features, soft labels
and hard labels come from batched kernels too.

Also provides a synthetic Gaussian-cluster base dataset so the whole
pipeline runs at desk scale without any external data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (
    _MASK64,
    AmbiguousDataset,
    GenMeta,
    RngStream,
    _check_labels,
    _child_id,
    _philox_key,
    _require_ints,
    _require_reals,
    _row_mass,
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
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64-10 as numpy's Philox runs it (Salmon et al., "Parallel Random
# Numbers: As Easy as 1, 2, 3", SC 2011): the round multipliers of counter
# words 0 and 2, and the Weyl increments of the two key words.
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
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
    ``noise_sigma`` the isotropic within-class standard deviation. Both are
    finite real numbers > 0.
    """

    c: int
    d: int
    n_per_class: int
    separation: float = 6.0
    noise_sigma: float = 1.0

    def __post_init__(self) -> None:
        _require_ints(self, c=3, d=1, n_per_class=1)
        _require_reals(self, "separation", "noise_sigma", within=lambda v: 0.0 < v < math.inf,
                       wants="be a finite number > 0")


def _check_draws(draws: np.ndarray, kind: str, m: int, r: int) -> None:
    """Check Mixup counts, (..., m), or PatchMix block assignments, (..., r)."""
    if kind == "mixup" and ((draws < 0).any() or (draws.sum(axis=-1) != r).any()):
        raise ValueError(f"counts must be nonnegative and sum to r={r}")
    if kind == "patchmix" and ((draws < 0).any() or (draws >= m).any()):
        raise ValueError(f"assignments must lie in [0, {m})")


def sample_mix_weights(m: int, r: int, rng: RngStream) -> MixWeights:
    """Draw mixing weights with r*lam ~ MultiNom(1/m, ..., 1/m; r): the
    counts of r draws in [0, m) by the generator's law (``_below``) from
    the stream's next r words."""
    if m < 2 or r < 1:
        raise ValueError("need m >= 2 and r >= 1")
    return MixWeights(np.bincount([(w * m) >> 64 for w in rng.words(r).tolist()], minlength=m), r)


def _mix_rows(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mixup of n groups, row i = lam[i] @ x[i], for (n, m) weights and (n,
    m, d) sources. Stacked matmul makes one group's vector-matrix BLAS call
    per row, so rows keep its bits; a reordered sum (einsum) would not."""
    return np.matmul(lam[:, None, :], x)[:, 0]


def sample_block_assignment(m: int, r: int, rng: RngStream) -> BlockAssignment:
    """Assign each of r blocks an independent uniform source in [0, m) by
    the generator's law (``_below``) from the stream's next r words."""
    if m < 2 or r < 1:
        raise ValueError("need m >= 2 and r >= 1")
    return BlockAssignment([(w * m) >> 64 for w in rng.words(r).tolist()], m)


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
    """(n, m) blocks per source of n (n, r) block assignments in [0, m)."""
    n = len(assign)
    return np.bincount((assign + m * np.arange(n)[:, None]).ravel(), minlength=n * m).reshape(n, m)


def _patch_rows(x: np.ndarray, picks: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """PatchMix of n groups as one gather from the rows of ``x``: coordinate
    j of group i comes from row picks[i, assign[i, b]], b the block of j."""
    d = x.shape[1]
    src = np.repeat(assign, np.diff(block_bounds(d, assign.shape[1])), axis=1)
    return x[np.take_along_axis(picks, src, axis=1), np.arange(d)]


def _class_mass(src_labels, counts, c: int) -> np.ndarray:
    """(n, c) float64: the (n, m) source counts summed per source label."""
    y, k = np.asarray(src_labels), np.asarray(counts)
    if y.ndim != 2 or y.shape != k.shape:
        raise ValueError(f"need {k.shape} source labels, got shape {y.shape}")
    y = _check_labels(y, c)
    mass, rows = np.zeros((y.shape[0], c)), np.arange(y.shape[0])
    for j in range(y.shape[1]):  # no row repeats within one source column
        mass[rows, y[:, j]] += k[:, j]
    return mass


def mixed_soft_labels(src_labels, counts, c: int) -> np.ndarray:
    """(n, c) soft labels of n groups from (n, m) source labels and integer
    mixing counts; exact, as each row's class masses sum to r exactly."""
    mass = _class_mass(src_labels, counts, c)
    return mass / _row_mass(mass)


def _mulhilo(a: np.ndarray, mul: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of each 128-bit product a * mul, for uint64
    ``a``; the high word from the 32-bit halves of both factors."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    m_lo, m_hi = np.uint64(mul & 0xFFFFFFFF), np.uint64(mul >> 32)
    mid = a_hi * m_lo + (a_lo * m_lo >> _SHIFT32)  # each sum < 2**64
    mid2 = a_lo * m_hi + (mid & _LOW32)
    return a_hi * m_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32), a * np.uint64(mul)


def _philox_words(k0: int, k1: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """(rows, 4 K) raw words that numpy's ``Philox(key=(k0, k1[i]))`` outputs
    as its blocks ``blocks[i]``, for (rows, K) uint64 block indices. numpy
    raises the counter before each block, so block b is Philox4x64-10 of
    counter (b + 1, 0, 0, 0)."""
    x0, x1, x2, x3 = blocks + np.uint64(1), *np.zeros((3, *blocks.shape), dtype=np.uint64)
    k1 = k1[:, None]
    for i in range(_PHILOX_ROUNDS):  # the round keys are (k0, k1) + i * bump
        hi0, lo0 = _mulhilo(x0, _PHILOX_MUL[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_MUL[1])
        x0 = hi1 ^ x1 ^ np.uint64((k0 + i * _PHILOX_BUMP[0]) & _MASK64)
        x2 = hi0 ^ x3 ^ (k1 + np.uint64(i * _PHILOX_BUMP[1] & _MASK64))
        x1, x3 = lo1, lo0
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(len(blocks), -1)


def _doubles(words: np.ndarray) -> np.ndarray:
    """The float64 in [0, 1) that numpy's ``random()`` makes of each word."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _below(words: np.ndarray, bound: int) -> np.ndarray:
    """A draw in [0, bound) from each word: the high word of word * bound
    (multiply-shift without rejection; its bias is below bound / 2**64).
    For bound <= 2**32, which holds any base, the high word is that of the
    32-bit halves' products summed, and no sum reaches 2**64."""
    b = np.uint64(bound)
    return ((words >> _SHIFT32) * b + ((words & _LOW32) * b >> _SHIFT32) >> _SHIFT32).view(np.int64)


def _attempt(words: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """One attempt of each row from its (rows, m + r) words: m distinct base
    indices in [0, n) by Floyd's sampler, then r draws in [0, m)."""
    picks = np.empty((len(words), m), dtype=np.int64)
    for t, j in enumerate(range(n - m, n)):  # a draw in [0, j]; a repeat takes j
        v = _below(words[:, t], j + 1)
        picks[:, t] = np.where((picks[:, :t] == v[:, None]).any(axis=1), j, v)
    return picks, _below(words[:, m:], m)


def _degenerate(spec: MixSpec) -> RuntimeError:
    """The error for a spec whose draws stay one-hot through every retry."""
    return RuntimeError(
        f"mix spec {spec} kept producing one-hot soft labels after "
        f"{_DEGENERATE_RETRIES} retries; the spec is degenerate for this base"
    )


def _draw_rows(
    base: AmbiguousDataset, spec: MixSpec, k0: int, keys: np.ndarray,
    picks: np.ndarray, draws: np.ndarray, u: np.ndarray,
) -> None:
    """Draw rows i of ``picks``, ``draws`` (Mixup counts or the PatchMix
    assignment) and ``u`` from the Philox words of key (k0, keys[i]): word 0
    is the uniform, and attempt a reads the m + r words from 1 + a (m + r)
    on. With ``reject_degenerate`` the one-hot rows go on to their next
    attempt, all in one round."""
    m, r, width = spec.m, spec.r, spec.m + spec.r
    todo = np.arange(len(keys))
    for a in range(_DEGENERATE_RETRIES + 1):
        start = 1 + a * width
        first = 0 if a == 0 else start // 4  # the first block read
        blocks = np.arange(first, (start + width + 3) // 4, dtype=np.uint64)
        words = _philox_words(k0, keys[todo], np.broadcast_to(blocks, (len(todo), len(blocks))))
        if a == 0:
            u[:] = _doubles(words[:, 0])
        p, k = _attempt(words[:, start - 4 * first : start - 4 * first + width], base.n_examples, m)
        counts = _block_counts(k, m)
        again = np.zeros(len(todo), dtype=bool)
        if spec.reject_degenerate:  # one-hot: one class holds all r of the source counts
            again = _class_mass(base.labels[p], counts, base.class_count).max(axis=1) == r
        done = todo[~again]
        picks[done], draws[done] = p[~again], (counts if spec.kind == "mixup" else k)[~again]
        todo = todo[again]
        if not todo.size:
            return
    raise _degenerate(spec)


def generate_ambiguous_dataset(
    base: AmbiguousDataset, spec: MixSpec, n_out: int, rng: RngStream
) -> AmbiguousDataset:
    """Produce n_out ambiguous examples with quantized labels from a clean base.

    Example i draws from the Philox4x64-10 words of its own substream
    ``rng.substream(i)``, so the result is a pure function of (base, spec,
    n_out, rng), and the first k examples do not depend on n_out. Word 0 is
    the uniform that quantizes the label. Attempt a reads the next m + r
    words: m base indices by Floyd's sampler (a draw in [0, j] for j = n -
    m, ..., n - 1, where a repeat takes j), then r draws in [0, m). Each
    draw is the high word of word * bound. Mixup's counts are how often each
    source was drawn, which is Multinomial(r; 1/m, ..., 1/m); PatchMix's
    block assignment is the draws themselves. With ``reject_degenerate``, an
    example whose soft label is one-hot reads its next attempt, up to
    ``_DEGENERATE_RETRIES`` times.

    Floyd's sampler picks a uniform set of sources in a non-uniform order.
    Both kinds treat their sources alike, so the law of (features, soft
    label) is that of uniform picks.

    The words are computed for chunks of examples at once with uint64 array
    arithmetic, so the bytes rest on Philox and the repo's integer
    arithmetic only, not on numpy's ``Generator`` algorithms. The draws are
    checked in one pass, and the mixed features, the soft labels (kept as
    diagnostics) and the hard labels are then computed for all examples at
    once.
    """
    _require_ints(SimpleNamespace(n_out=n_out), n_out=1)
    if base.n_examples < spec.m:
        raise ValueError(f"base has {base.n_examples} examples, need at least m={spec.m}")
    if spec.kind == "patchmix" and spec.r > base.feature_dim:
        raise ValueError(f"patchmix needs r <= feature_dim, got r={spec.r}, d={base.feature_dim}")

    m, r, c = spec.m, spec.r, base.class_count
    is_mixup = spec.kind == "mixup"
    picks = np.empty((n_out, m), dtype=np.int64)
    draws = np.empty((n_out, m if is_mixup else r), dtype=np.int64)  # counts or assignment
    u = np.empty(n_out)
    k0, keys = _philox_key(rng.seed, _child_id(rng.stream_id, np.arange(n_out, dtype=np.uint64)))
    for lo in range(0, n_out, _MIX_ROWS):
        at = slice(lo, lo + _MIX_ROWS)
        _draw_rows(base, spec, k0, keys[at], picks[at], draws[at], u[at])
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
    stream id on the same seed; the class means are shared. Settings that
    put a feature beyond the float32 range raise a ValueError.
    """
    means, mode = _class_means(spec, rng.seed)
    n = spec.c * spec.n_per_class
    feats = np.empty((n, spec.d), dtype=np.float32)
    for k in range(spec.c):
        lo = k * spec.n_per_class
        noise = rng.standard_normal((spec.n_per_class, spec.d))
        with np.errstate(over="ignore"):  # refused below
            x = (means[k] + spec.noise_sigma * noise).astype(np.float32)
        if not np.isfinite(x).all():
            raise ValueError(f"separation {spec.separation} and noise_sigma {spec.noise_sigma} "
                             "put features beyond the float32 range")
        feats[lo : lo + spec.n_per_class] = x
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
