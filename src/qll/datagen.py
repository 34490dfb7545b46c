"""Ambiguous dataset generation.

Builds ambiguous instances by mixing clean base examples and attaching
quantized hard labels: Mixup interpolates whole feature vectors, PatchMix
stitches contiguous feature blocks from different sources. Both strategies
produce a ground-truth soft label from the mixing weights, and the observed
hard label is sampled from it.

Each example's draws are decoded from its Philox words, which are computed
for many examples at once; only the examples the decode cannot follow run
numpy's generator calls. The checks of the draws, the features, soft labels
and hard labels come from batched kernels too.

Also provides a synthetic Gaussian-cluster base dataset so the whole
pipeline runs at desk scale without any external data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    _MASK64,
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
# Philox4x64-10 as numpy's Philox runs it (Salmon et al., "Parallel Random
# Numbers: As Easy as 1, 2, 3", SC 2011): the round multipliers of counter
# words 0 and 2, and the Weyl increments of the two key words.
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# numpy draws a binomial count by inversion while n * min(p, 1 - p) is at
# most this, and by BTPE rejection sampling past it.
_INVERSION_MAX_MEAN = 30.0
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


@lru_cache(maxsize=32)
def _binomial_tables(m: int, r: int) -> tuple[tuple[np.ndarray, np.ndarray, bool], ...]:
    """For each category j < m - 1 of numpy's ``multinomial(r, full(m,
    1/m))``, the binomial inversion that draws its count from the trials
    left: (px, bound, flip). Row dn of the (rows, X) table px holds the
    inversion's terms for dn trials left (+inf past ``bound[dn]``), for
    each dn up to r that inversion serves (a larger dn reaches BTPE). With
    ``flip`` numpy draws the complement's count. The floats are computed
    as numpy's C code does: p from the running remainder of the pvals,
    then exp, log and the term recursion in the same order."""
    pix, rest, tables = 1.0 / m, 1.0, []
    for _ in range(m - 1):
        p, rest = pix / rest, rest - pix
        flip = not p <= 0.5
        p = 1.0 - p if flip else p
        q = 1.0 - p
        terms, bound = [[]], [0]  # no draw with no trials left
        for dn in range(1, r + 1):
            if not p * dn <= _INVERSION_MAX_MEAN:
                break
            mean = dn * p
            bound.append(int(min(dn, mean + 10.0 * math.sqrt(mean * q + 1))))
            px = [math.exp(dn * math.log(q))]
            for x in range(1, bound[-1] + 1):
                px.append(((dn - x + 1) * p * px[-1]) / (x * q))
            terms.append(px)
        table = np.full((len(terms), max(bound) + 1), np.inf)
        for dn, px in enumerate(terms):
            table[dn, : len(px)] = px
        bound = np.array(bound)
        table.flags.writeable = bound.flags.writeable = False  # shared by every call
        tables.append((table, bound, flip))
    return tuple(tables)


def _decode_counts(words: np.ndarray, at: np.ndarray, r: int, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode into (rows, m) ``counts`` what numpy's ``multinomial(r,
    full(m, 1/m))`` returns reading doubles from ``words[i, at[i]:]``: a
    binomial inversion per category, each on one double, until no trials
    are left. Returns the words each row read, and where numpy would have
    drawn a count by BTPE or restarted an inversion on another double;
    those rows hold no valid draw."""
    rows = np.arange(len(words))
    left, used = np.full(len(words), r), np.zeros(len(words), dtype=np.int64)
    lost = np.zeros(len(words), dtype=bool)
    for j, (px, bound, flip) in enumerate(_binomial_tables(counts.shape[1], r)):
        live = left > 0
        lost |= left >= len(bound)
        dn = np.minimum(left, len(bound) - 1)
        u = _doubles(words[rows, at + used])
        used += live
        x, go = np.zeros_like(left), live & ~lost
        for t in range(px.shape[1]):  # while u > px: x += 1; u -= px; px = next term
            term = px[dn, t]
            step = go & (u > term)
            if not step.any():
                break
            np.subtract(u, term, out=u, where=step)
            x += step
            go = step & (t < bound[dn])
            lost |= step & ~go  # x passed the bound: numpy restarts
        counts[:, j] = np.where(live, left - x if flip else x, 0)
        left -= counts[:, j]
    counts[:, -1] = left
    return used, lost


def _degenerate(spec: MixSpec) -> RuntimeError:
    """The error for a spec whose draws stay one-hot through every retry."""
    return RuntimeError(
        f"mix spec {spec} kept producing one-hot soft labels after "
        f"{_DEGENERATE_RETRIES} retries; the spec is degenerate for this base"
    )


def _decode_rows(
    base: AmbiguousDataset, spec: MixSpec, k0: int, keys: np.ndarray,
    picks: np.ndarray, draws: np.ndarray, u: np.ndarray,
) -> np.ndarray:
    """Decode each example's draws, keyed (k0, keys[i]), from its Philox
    words into rows i of ``picks``, ``draws`` (counts or assignment) and
    ``u``; with ``reject_degenerate``, redraw the one-hot rows in rounds
    from where each row's stream stands. Returns the rows that the decode
    cannot follow (they hold no valid draw)."""
    n, m, r, c = base.n_examples, spec.m, spec.r, base.class_count
    is_mixup = spec.kind == "mixup"
    halves = 2 * m - 1 + (0 if is_mixup else r)  # 32-bit draws per attempt
    n_raw = (halves + 1) // 2
    # the words one attempt reads at most, with the uniform after it
    span = n_raw + (m - 1 if is_mixup else 0) + 1
    lost = np.zeros(len(keys), dtype=bool)
    pos = np.zeros(len(keys), dtype=np.int64)  # the next word a double reads
    # choice and integers read 32-bit halves, low first; the high half of
    # the last word they read waits in numpy's buffer through any doubles
    carry, cached = np.zeros(len(keys), dtype=np.uint64), np.zeros(len(keys), dtype=bool)
    # words[i] holds the row's words from block first[i] on
    todo, first, words = np.arange(len(keys)), np.zeros_like(pos), np.empty((len(keys), 0), dtype=np.uint64)
    for _ in range(_DEGENERATE_RETRIES + 1):
        if (pos[todo] + span > 4 * first + words.shape[1]).any():
            # new blocks from each row's position; when rejecting, a few
            # rows left take words for later rounds too, as the cost of a
            # call is mostly per call
            first = pos[todo] // 4
            n_blocks = (int((pos[todo] - 4 * first).max()) + span + 3) // 4
            if spec.reject_degenerate:
                n_blocks = max(n_blocks, min(2 * len(keys) // len(todo), n_blocks * (_DEGENERATE_RETRIES + 1)))
            words = _philox_words(k0, keys[todo], (first[:, None] + np.arange(n_blocks)).astype(np.uint64))
        off = pos[todo] - 4 * first
        seg = np.take_along_axis(words, off[:, None] + np.arange(n_raw), axis=1)
        held = cached[todo]
        prev = np.concatenate((carry[todo, None], seg[:, :-1]), axis=1)
        raw = np.where(held[:, None], prev >> _SHIFT32 | seg << _SHIFT32, seg)  # halves in read order
        p, k = np.empty((len(todo), m), dtype=np.int64), np.empty((len(todo), draws.shape[1]), dtype=np.int64)
        bad = _decode_draws(raw, n, p, None if is_mixup else k)
        read = (halves - held + 1) // 2
        at = np.arange(len(todo))
        carry[todo], cached[todo] = seg[at, read - 1], (halves - held) % 2 == 1
        end = off + read
        if is_mixup:
            used, unfollowed = _decode_counts(words, end, r, k)
            bad |= unfollowed
            end += used
        again = np.zeros(len(todo), dtype=bool)
        if spec.reject_degenerate:  # one-hot: one class holds all r of the source counts
            counts = k if is_mixup else _block_counts(k, m)
            again = ~bad & (_class_mass(base.labels[p], counts, c).max(axis=1) == r)
        done = ~(bad | again)
        rows = todo[done]
        picks[rows], draws[rows], u[rows] = p[done], k[done], _doubles(words[at, end][done])
        lost[todo[bad]] = True
        pos[todo] += end - off
        todo, words, first = todo[again], words[again], first[again]
        if not todo.size:
            return lost
    raise _degenerate(spec)


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

    No generator call runs per example. For chunks of examples at once, the
    Philox4x64-10 words of each example's stream are computed with uint64
    array arithmetic (all substream keys are derived at once), and the
    draws are decoded from them as numpy makes them: Lemire's bounded draw
    on each 32-bit half for ``choice`` (Floyd's sampler with its
    Fisher-Yates tail) and ``integers``; Mixup's ``multinomial`` by
    replaying numpy's binomial inversion on doubles, one per category; and
    the uniform from the next word. One-hot examples under
    ``reject_degenerate`` are redrawn in vectorized rounds, each row read
    on from where its stream stands. An example is redrawn by the
    per-example generator calls when numpy would have read past what the
    decode follows (a Lemire draw rejected, a binomial inversion restarted,
    or a count drawn by BTPE, where n * min(p, 1 - p) > 30), and every
    example is when numpy's ``choice`` would not use Floyd's sampler (a
    base of exactly m examples, or one of more than 10,000 examples with m
    > n // 50). So the output bytes rest on numpy's Philox, its ``choice``,
    ``integers`` and binomial inversion algorithms and the host's ``exp``
    and ``log``; tests compare them with the plain per-example loop. The
    draws are checked in one pass, and the mixed features, the soft labels
    (kept as diagnostics) and the hard labels are then computed for all
    examples at once.
    """
    if n_out < 1:
        raise ValueError("n_out must be >= 1")
    if base.n_examples < spec.m:
        raise ValueError(f"base has {base.n_examples} examples, need at least m={spec.m}")
    if spec.kind == "patchmix" and spec.r > base.feature_dim:
        raise ValueError(f"patchmix needs r <= feature_dim, got r={spec.r}, d={base.feature_dim}")

    n, m, r, c = base.n_examples, spec.m, spec.r, base.class_count
    is_mixup, reject = spec.kind == "mixup", spec.reject_degenerate
    picks = np.empty((n_out, m), dtype=np.int64)
    draws = np.empty((n_out, m if is_mixup else r), dtype=np.int64)  # counts or assignment
    u = np.empty(n_out)

    ids = _child_id(rng.stream_id, np.arange(n_out, dtype=np.uint64))
    k0, keys = _philox_key(rng.seed, ids)
    redo = np.arange(n_out)
    if m < n and (n <= _FLOYD_MAX_N or m <= n // 50):
        lost = np.zeros(n_out, dtype=bool)
        for lo in range(0, n_out, _MIX_ROWS):
            at = slice(lo, lo + _MIX_ROWS)
            lost[at] = _decode_rows(base, spec, k0, keys[at], picks[at], draws[at], u[at])
        redo = np.flatnonzero(lost)

    pvals = np.full(m, 1.0 / m)
    ex_rng = rng.substream(0)
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
            raise _degenerate(spec)
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
