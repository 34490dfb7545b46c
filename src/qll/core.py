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


def _require_ints(spec, **least: int | None) -> None:
    """Refuse a field that is no integer (a bool is none; numpy ints pass) or
    that lies below its least value, where it has one."""
    for name, low in least.items():
        if isinstance(v := getattr(spec, name), bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if low is not None and v < low:
            raise ValueError(f"{name} must be >= {low}, got {v}")


def _check_seed(seed) -> int:
    """The seed as an int. A bool or a non-integer is refused (int() would
    truncate 1.5 to seed 1), and so is an integer outside [0, 2**64), as the
    stream keys reduce it mod 2**64 and it would alias another seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return int(seed)


def _mix64(x):
    """SplitMix64 finalizer; a bijection on 64-bit words (an int, or uint64s)."""
    x = x & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _child_id(stream_id: int, key):
    """Stream id of child ``key``, or of each key of a uint64 array."""
    key = key if isinstance(key, np.ndarray) else int(key) & _MASK64
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
        self.seed = _check_seed(seed)
        self.stream_id = int(stream_id) & _MASK64
        key = np.array(_philox_key(self.seed, self.stream_id), dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, key: int) -> "RngStream":
        """Derive an independent child stream; same (parent, key) -> same child."""
        return RngStream(self.seed, _child_id(self.stream_id, key))

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
        if w.ndim != 1 or w.size < 2:
            raise ValueError(f"soft label needs at least 2 classes, got shape {w.shape}")
        object.__setattr__(self, "weights", _normalize_rows(w[None].copy())[0])


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
    labels: np.ndarray  # (N,) int
    diagnostics: np.ndarray | None = None  # (N, c) float32
    gen_meta: GenMeta = field(default_factory=GenMeta)

    def __post_init__(self) -> None:
        c = int(self.class_count)
        d = int(self.feature_dim)
        if c < 2:
            raise ValueError("class_count must be >= 2")
        if d < 1:
            raise ValueError("feature_dim must be >= 1")
        x = np.ascontiguousarray(np.asarray(self.features), dtype=np.float32)
        y = np.ascontiguousarray(np.asarray(self.labels), dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"features must be (N, {d}), got {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("labels must align with features")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if y.size and (y.min() < 0 or y.max() >= c):
            raise ValueError(f"labels must lie in [0, {c})")
        self.class_count = c
        self.feature_dim = d
        self.features = x
        self.labels = y
        if self.diagnostics is not None:
            s = np.ascontiguousarray(np.asarray(self.diagnostics), dtype=np.float32)
            if s.shape != (x.shape[0], c):
                raise ValueError(f"diagnostics must be (N, {c}), got {s.shape}")
            if not np.all(np.isfinite(s)) or np.any(s < 0.0):
                raise ValueError("diagnostics must be finite and nonnegative")
            if np.any(s.sum(axis=1) <= 0.0):
                raise ValueError("each diagnostic row needs positive mass")
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
        for name, v in (("pi1", self.pi1), ("pi2", self.pi2)):
            # Not cast: an int prior stays an int, as in run directory names.
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {v}")


def _normalize_rows(w: np.ndarray) -> np.ndarray:
    """Scale the rows of a (n, c) float64 array to unit mass, in place, with
    SoftLabel's checks and messages."""
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError(f"soft label needs at least 2 classes, got shape {w.shape[1:]}")
    if not np.isfinite(w).all():
        raise ValueError("soft label weights must be finite")
    if (w < 0.0).any():
        raise ValueError("soft label weights must be nonnegative")
    total = w.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("soft label weights must have positive total mass")
    w /= total
    return w


def entropy(s):
    """Shannon entropy in nats: of a soft label or (c,) weights a float, of
    (n, c) weight rows an (n,) array. Weights are normalized per row first.

    Measures instance ambiguity: 0 for a one-hot label (0*log 0 := 0), up
    to ln(c) at the uniform label.
    """
    w = s.weights if isinstance(s, SoftLabel) else np.asarray(s, dtype=np.float64)
    p = _normalize_rows(np.array(w, dtype=np.float64, ndmin=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 - x rather than -x, so that a one-hot row gives +0.0, not -0.0
        ent = 0.0 - np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=1)
    return ent if w.ndim == 2 else float(ent[0])


def quantize_labels(weights, u) -> np.ndarray:
    """Hard labels of (n, c) soft labels from n uniform draws; P(y=k) = s_k.

    Row i's label is the number of its cdf entries <= u[i] (the right-sided
    search of the sorted cdf), capped at c - 1; counting only the first
    c - 1 entries applies the cap. A (c,) label and a scalar draw give a
    0-d array."""
    w = np.asarray(weights, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if w.ndim not in (1, 2) or u.shape != w.shape[:-1]:
        raise ValueError(f"need (n, c) weights and (n,) draws, got {w.shape} and {u.shape}")
    return np.add.reduce(np.add.accumulate(w[..., :-1], axis=-1) <= u[..., None], axis=-1)


def quantize_label(s: SoftLabel, rng: RngStream) -> int:
    """Sample a hard label with P(y=k) = s_k; consumes exactly one draw."""
    return int(quantize_labels(s.weights, rng.random()))


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
