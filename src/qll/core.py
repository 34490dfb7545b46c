"""Core domain types shared by every other module.

Soft labels, dataset containers, class priors for the positive-unlabeled
decomposition, and the deterministic stream-splitting RNG that every
randomized operation draws from.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SoftLabel",
    "AmbiguousDataset",
    "GenMeta",
    "ClassPriors",
    "RngStream",
    "STREAM_DATAGEN",
    "STREAM_BATCHING",
    "STREAM_INIT",
    "STREAM_ALPHA",
    "entropy",
    "quantize_label",
    "quantize_labels",
    "zero_one_test_risk",
]

_MASK64 = (1 << 64) - 1

# Purpose tags for top-level substreams. Keeping dataset generation, batch
# shuffling, parameter init, and alpha sampling on separate streams means
# consuming draws from one never shifts another.
STREAM_DATAGEN = 1
STREAM_BATCHING = 2
STREAM_INIT = 3
STREAM_ALPHA = 4


# The per-step ufunc calls take their constants as 0-d float64 arrays: numpy
# converts a Python float or a numpy scalar operand on every call (about
# 0.2 µs each with numpy 2.4 on a 2-core Xeon) and takes a 0-d array as it
# is, with the same result bits.
@lru_cache(maxsize=256)
def frozen_0d(value) -> np.ndarray:
    """A read-only 0-d float64 array holding the number ``value``, shared
    by every call with an equal value."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


ZERO, ONE = map(frozen_0d, (0.0, 1.0))


def _is_number(v, kind=numbers.Real) -> bool:
    """Whether ``v`` is a ``kind``, numbers.Real or numbers.Integral; numpy's
    numbers are, and a bool is not (it would count as 0 or 1)."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _require_ints(spec, **least: int | None) -> None:
    """Refuse a field that is no integer or that lies below its least value,
    where it has one."""
    for name, low in least.items():
        if not _is_number(v := getattr(spec, name), numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if low is not None and v < low:
            raise ValueError(f"{name} must be >= {low}, got {v}")


def _require_reals(spec, *names: str, within=None, wants: str = "") -> None:
    """Refuse a field that is no real number, or for which ``within`` is
    false, with the message that it must ``wants``."""
    for name in names:
        if not _is_number(v := getattr(spec, name)):
            raise ValueError(f"{name} must be a real number, got {v!r}")
        if within is not None and not within(v):
            raise ValueError(f"{name} must {wants}, got {v}")


def _word64(v, name: str) -> int:
    """``v`` as an int: a seed, stream id or substream key, each an integer
    in [0, 2**64). Anything else would alias another: int() truncates 1.5 to
    1 and reads True as 1, and the stream keys reduce an integer mod 2**64."""
    if not _is_number(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if not 0 <= int(v) <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {v}")
    return int(v)


def _check_labels(labels, c: int) -> np.ndarray:
    """``labels`` as int64, each a class index: an integer in [0, c). Bools,
    fractions, NaN and infinities are refused; integral floats pass. Through
    the uint64 view a negative label reads as 2**63 or more."""
    y = np.asarray(labels)
    if y.dtype.kind == "f" and ((y >= 0) & (y < c) & (y == np.trunc(y))).all():
        y = y.astype(np.int64)
    if y.dtype.kind not in "iu" or y.size and y.astype(np.int64, copy=False).view(np.uint64).max() >= c:
        raise ValueError(f"labels must lie in [0, {c}) and be integers")
    return y.astype(np.int64, copy=False)


def _check_batch(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """(n, c) logits with (n,) labels, or (K, n, c) with (K, n) for K stacked
    runs, as float64 logits and ``_check_labels``' labels."""
    z, y = np.asarray(logits, dtype=np.float64), np.asarray(labels)
    if z.ndim not in (2, 3) or y.shape != z.shape[:-1]:
        raise ValueError(f"need (n, c) logits with (n,) labels or (K, n, c) logits with (K, n) "
                         f"labels, got {z.shape} and {y.shape}")
    return z, _check_labels(y, z.shape[-1])


def _mix64(x):
    """SplitMix64 finalizer; a bijection on 64-bit words (an int, or uint64s)."""
    x = x & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _child_id(stream_id: int, key):
    """Stream id of child ``key`` (an int in [0, 2**64)) or of each key of a uint64 array."""
    return _mix64(_mix64(stream_id) + key)


def _philox_key(seed: int, stream_id):
    """Philox key (k0, k1) of a stream, or k1 of each id of a uint64 array."""
    k0 = _mix64(seed)
    return k0, _mix64(k0 ^ stream_id)


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    The generator is counter-based (Philox keyed by a hash mix of seed and
    stream_id), so a stream's draw sequence depends only on its own key,
    never on how many draws other streams consumed or on thread count.
    Equal keys replay the same sequence bit for bit; distinct keys give
    statistically independent streams.

    Draws advance internal state, so each stream value should have a single
    owner; concurrent users must hold distinct stream ids.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = _word64(seed, "seed")
        self.stream_id = _word64(stream_id, "stream_id")
        key = np.array(_philox_key(self.seed, self.stream_id), dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, key: int) -> "RngStream":
        """Derive an independent child stream; same (parent, key) -> same child."""
        return RngStream(self.seed, _child_id(self.stream_id, _word64(key, "substream key")))

    # Thin wrappers over the numpy generator so call sites stay explicit
    # about which stream they consume.
    def random(self, size=None):
        return self._gen.random(size)

    def words(self, size: int) -> np.ndarray:
        """The stream's next ``size`` raw Philox words, as uint64."""
        return self._gen.bit_generator.random_raw(size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def beta(self, a: float, b: float, size=None):
        u = self._gen.beta(a, b, size)  # a size-n array holds the next n float draws
        return float(u) if size is None else u

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = True):
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True, eq=False)
class SoftLabel:
    """Ground-truth per-class probability vector of an ambiguous instance.

    The constructor normalizes nonnegative weights to unit mass, mirroring
    the quantization law P(y=k) = s_k / sum_j s_j. Negative, non-finite, or
    all-zero weights indicate caller bugs and are rejected outright.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w / _row_mass(w[None])[0])  # refuses all but (c,) weights


@dataclass
class GenMeta:
    """How a dataset was produced; written to the human-readable sidecar."""

    kind: str = "none"  # "none" | "mixup" | "patchmix"
    m: int = 0
    r: int = 0
    seed: int = 0
    extra: dict = field(default_factory=dict)


@dataclass(eq=False)
class AmbiguousDataset:
    """Feature matrix plus quantized hard labels.

    ``diagnostics`` optionally carries the ground-truth soft labels that the
    hard labels were sampled from. They exist for analysis and summaries
    only; the training path never reads them.
    """

    class_count: int
    feature_dim: int
    features: np.ndarray  # (N, d) float32
    labels: np.ndarray  # (N,) int64 class indices, each an integer in [0, class_count)
    diagnostics: np.ndarray | None = None  # (N, c) float32
    gen_meta: GenMeta = field(default_factory=GenMeta)

    def __post_init__(self) -> None:
        _require_ints(self, class_count=2, feature_dim=1)
        c, d = int(self.class_count), int(self.feature_dim)
        x = np.ascontiguousarray(np.asarray(self.features), dtype=np.float32)
        y = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"features must be (N, {d}), got {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("labels must align with features")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        self.class_count, self.feature_dim, self.features = c, d, x
        self.labels = np.ascontiguousarray(_check_labels(y, c))
        if self.diagnostics is not None:
            s = np.ascontiguousarray(np.asarray(self.diagnostics), dtype=np.float32)
            if s.shape != (x.shape[0], c):
                raise ValueError(f"diagnostics must be (N, {c}), got {s.shape}")
            _row_mass(s)
            self.diagnostics = s

    @property
    def n_examples(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class ClassPriors:
    """The two practical positive-class priors of the class-wise PU risk.

    ``pi1`` weights the positive risk term, ``pi2`` weights the negative
    risk subtracted inside the clamp. Keeping them separate absorbs the
    positive/negative class imbalance of the one-vs-rest decomposition.
    """

    pi1: float
    pi2: float

    def __post_init__(self) -> None:
        # Not cast: an int prior stays an int, as in run directory names.
        _require_reals(self, "pi1", "pi2", within=lambda v: 0.0 < v <= 1.0, wants="lie in (0, 1]")


def _row_mass(w: np.ndarray) -> np.ndarray:
    """The (n, 1) row totals of (n, c) soft-label weights, c >= 2, which
    must be finite and nonnegative with a positive total in every row."""
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError(f"soft label needs at least 2 classes, got shape {w.shape[1:]}")
    if np.isfinite(w).all() and (w >= 0.0).all() and ((total := w.sum(axis=1, keepdims=True)) > 0.0).all():
        return total
    raise ValueError("soft label weights must be finite and nonnegative, with positive total mass in each row")


def entropy(s):
    """Shannon entropy in nats: of a soft label or (c,) weights a float, of
    (n, c) weight rows an (n,) array. Weights are normalized per row first.

    Measures instance ambiguity: 0 for a one-hot label (0*log 0 := 0), up
    to ln(c) at the uniform label.
    """
    w = s.weights if isinstance(s, SoftLabel) else np.asarray(s, dtype=np.float64)
    p = np.array(w, dtype=np.float64, ndmin=2)
    p /= _row_mass(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 - x rather than -x, so that a one-hot row gives +0.0, not -0.0
        ent = 0.0 - np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=1)
    return ent if w.ndim == 2 else float(ent[0])


def quantize_labels(weights, u) -> np.ndarray:
    """Hard labels of (n, c) soft labels from n uniform draws; P(y=k) = s_k.

    The rows must be normalized soft labels: they follow the soft-label row
    law (``_row_mass``), and are not normalized here. Row i's label is the
    number of its cdf entries <= u[i] (the right-sided search of the sorted
    cdf), capped at c - 1; counting only the first c - 1 entries applies the
    cap. A (c,) label and a scalar draw give a 0-d array."""
    w = np.asarray(weights, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if w.ndim not in (1, 2) or u.shape != w.shape[:-1]:
        raise ValueError(f"need (n, c) weights and (n,) draws, got {w.shape} and {u.shape}")
    _row_mass(np.atleast_2d(w))
    return _quantize(w, u)


def _quantize(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``quantize_labels`` of float64 rows that already follow the law."""
    return np.add.reduce(np.add.accumulate(w[..., :-1], axis=-1) <= u[..., None], axis=-1)


def quantize_label(s: SoftLabel, rng: RngStream) -> int:
    """Sample a hard label with P(y=k) = s_k; consumes exactly one draw."""
    return int(_quantize(s.weights, np.float64(rng.random())))


def zero_one_test_risk(predictions, labels):
    """Fraction of mismatched predictions. Accuracy is 1 minus this value.

    (n,) predictions give a float; (K, n) predictions of K stacked runs give
    a (K,) array, one risk per run."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.ndim not in (1, 2) or y.ndim != 1 or p.shape[-1] != y.shape[0]:
        raise ValueError(f"predictions {p.shape} and labels {y.shape} must be equal-length vectors")
    if y.size == 0:
        raise ValueError("cannot evaluate on an empty set")
    risk = np.mean(p != y, axis=-1)
    return float(risk) if risk.ndim == 0 else risk
