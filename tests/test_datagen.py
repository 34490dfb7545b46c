import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _oracles import reference_generate, reference_soft_label
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from qll import datagen
from qll.core import (
    AmbiguousDataset,
    RngStream,
    SoftLabel,
    _child_id,
    _mix64,
    _philox_key,
    entropy,
    quantize_label,
    quantize_labels,
)
from qll.datagen import (
    BaseSpec,
    BlockAssignment,
    MixSpec,
    MixWeights,
    _below,
    _block_counts,
    _class_mass,
    _doubles,
    _mix_rows,
    _patch_rows,
    _philox_words,
    block_bounds,
    generate_ambiguous_dataset,
    mixed_soft_labels,
    sample_block_assignment,
    sample_mix_weights,
    synth_base,
)
from qll.dataio import save_dataset


def two_class_base(n=40, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)).astype(np.float32)
    y = np.arange(n) % 2
    return AmbiguousDataset(2, d, x, y)


class TestMixWeights:
    def test_counts_must_sum_to_r(self):
        MixWeights(np.array([3, 1]), 4)
        with pytest.raises(ValueError):
            MixWeights(np.array([3, 2]), 4)
        with pytest.raises(ValueError):
            MixWeights(np.array([-1, 5]), 4)

    def test_lambda_granularity(self):
        w = MixWeights(np.array([1, 3]), 4)
        assert np.allclose(w.lam, [0.25, 0.75])
        assert w.lam.sum() == 1.0


class TestSampleMixWeights:
    def test_single_trial_is_onehot(self):
        rng = RngStream(1)
        for _ in range(30):
            w = sample_mix_weights(3, 1, rng)
            assert sorted(w.counts) == [0, 0, 1]

    def test_counts_always_sum_to_r(self):
        rng = RngStream(2)
        for _ in range(50):
            w = sample_mix_weights(4, 7, rng)
            assert w.counts.sum() == 7

    def test_two_trial_enumeration(self):
        # m=2, r=2: outcomes (1,0), (.5,.5), (0,1) with probs (.25, .5, .25)
        rng = RngStream(3)
        n = 100_000
        lam0 = np.array([sample_mix_weights(2, 2, rng).counts[0] for _ in range(n)])
        counts = np.bincount(lam0, minlength=3)
        res = stats.chisquare(counts, f_exp=np.array([0.25, 0.5, 0.25]) * n)
        assert res.pvalue > 0.001


class TestMixup:
    """The batched Mixup kernel: row i is lam[i] @ x[i]."""

    def test_identity_weight(self):
        x = np.array([[1.0, 2.0], [5.0, 7.0]])
        out = _mix_rows(MixWeights(np.array([2, 0]), 2).lam[None], x[None])
        assert np.allclose(out, x[:1])

    def test_midpoint(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        out = _mix_rows(MixWeights(np.array([1, 1]), 2).lam[None], x[None])
        assert np.allclose(out, [[1.0, 1.0]])

    def test_three_way_mean(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        out = _mix_rows(MixWeights(np.array([1, 1, 1]), 3).lam[None], x[None])
        assert np.allclose(out, x.mean(axis=0, keepdims=True))

    def test_convex_combination_bounds(self):
        rng = RngStream(4)
        x = np.random.default_rng(4).normal(size=(30, 3, 6))
        lam = np.stack([sample_mix_weights(3, 5, rng).lam for _ in range(30)])
        out = _mix_rows(lam, x)
        assert out.shape == (30, 6)
        assert np.all(out <= x.max(axis=1) + 1e-12)
        assert np.all(out >= x.min(axis=1) - 1e-12)


class TestBlockAssignment:
    def test_bounds_sizes(self):
        assert np.array_equal(block_bounds(5, 2), [0, 3, 5])  # sizes (3, 2)
        assert np.array_equal(block_bounds(8, 4), [0, 2, 4, 6, 8])
        with pytest.raises(ValueError):
            block_bounds(3, 4)

    def test_binomial_block_counts(self):
        rng = RngStream(5)
        n = 100_000
        c0 = np.array([(sample_block_assignment(2, 4, rng).assign == 0).sum() for _ in range(n)])
        counts = np.bincount(c0, minlength=5)
        expected = stats.binom.pmf(np.arange(5), 4, 0.5) * n
        res = stats.chisquare(counts, f_exp=expected)
        assert res.pvalue > 0.001

    def test_single_block_single_source(self):
        rng = RngStream(6)
        x = np.random.default_rng(6).normal(size=(3, 5))
        assign = np.stack([sample_block_assignment(3, 1, rng).assign for _ in range(10)])
        out = _patch_rows(x, np.tile(np.arange(3), (10, 1)), assign)
        assert np.allclose(out, x[assign[:, 0]])


class TestPatchmix:
    """The batched PatchMix kernel; picks of arange(m) take the sources as
    rows 0..m-1 of x."""

    def test_block_concatenation(self):
        x = np.array([[0.0, 1.0, 2.0, 3.0], [10.0, 11.0, 12.0, 13.0]])
        out = _patch_rows(x, np.arange(2)[None], BlockAssignment(np.array([0, 1]), 2).assign[None])
        assert np.allclose(out, [[0.0, 1.0, 12.0, 13.0]])

    def test_all_blocks_one_source(self):
        x = np.random.default_rng(1).normal(size=(4, 7))
        out = _patch_rows(x, np.arange(4)[None], np.zeros((1, 3), dtype=np.int64))
        assert np.allclose(out, x[:1])

    def test_every_coordinate_from_exactly_one_source(self):
        rng = RngStream(7)
        # distinct values everywhere so provenance is unambiguous
        x = np.arange(4 * 9, dtype=np.float64).reshape(4, 9)
        assign = np.stack([sample_block_assignment(4, 3, rng).assign for _ in range(25)])
        out = _patch_rows(x, np.tile(np.arange(4), (25, 1)), assign)
        assert out.shape == (25, 9)
        for row in out:
            for k in range(9):
                assert (row[k] == x[:, k]).sum() == 1

    def test_induced_weights_match_block_counts(self):
        counts = _block_counts(np.array([[0, 1, 1, 2], [3, 3, 3, 3]]), 4)
        assert np.array_equal(counts, [[1, 2, 1, 0], [0, 0, 0, 4]])
        w = MixWeights(counts[0], 4)  # the induced weights: block share per source
        assert np.array_equal(w.lam, [0.25, 0.5, 0.25, 0.0])


class TestMixedSoftLabel:
    def test_all_same_class_is_onehot(self):
        s = mixed_soft_labels([[3, 3, 3]], [[1, 2, 1]], 5)[0]
        assert np.count_nonzero(s) == 1 and s[3] == 1.0

    def test_two_way_split(self):
        s = mixed_soft_labels([[0, 1]], [[1, 1]], 4)[0]
        assert np.allclose(s, [0.5, 0.5, 0, 0])

    def test_block_count_shares(self):
        # patchmix counts (2,1,1,0)/4 over classes (0,1,2,3)
        s = mixed_soft_labels([[0, 1, 2, 3]], [[2, 1, 1, 0]], 4)[0]
        assert np.allclose(s, [0.5, 0.25, 0.25, 0.0])


class TestGenerateAmbiguous:
    def test_lambda_granularity_on_two_class_base(self):
        base = two_class_base()
        out = generate_ambiguous_dataset(base, MixSpec("mixup", 2, 4), 200, RngStream(1, 1))
        allowed = {0.0, 0.25, 0.5, 0.75, 1.0}
        for row in out.diagnostics:
            assert set(np.round(row.astype(float), 6)).issubset(allowed)

    def test_output_more_ambiguous_than_base(self):
        base = two_class_base()
        out = generate_ambiguous_dataset(base, MixSpec("mixup", 2, 4), 300, RngStream(2, 1))
        ents = entropy(out.diagnostics)
        assert ents.shape == (300,)
        assert np.mean(ents) > 0.0
        assert ents.tolist() == [entropy(row) for row in out.diagnostics]

    def test_deterministic(self):
        base = two_class_base()
        spec = MixSpec("patchmix", 2, 4)
        a = generate_ambiguous_dataset(base, spec, 100, RngStream(3, 1))
        b = generate_ambiguous_dataset(base, spec, 100, RngStream(3, 1))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.diagnostics, b.diagnostics)

    def test_quantization_matches_soft_label_distribution(self):
        # regenerate one group many times: label frequencies ~ soft label
        base = two_class_base(seed=3)
        rng = RngStream(4, 1)
        out = generate_ambiguous_dataset(base, MixSpec("mixup", 2, 4), 5, rng)
        target = None
        for i in range(5):
            row = out.diagnostics[i].astype(np.float64)
            if 0.0 < row[0] < 1.0:
                target = i
                break
        assert target is not None
        s = out.diagnostics[target].astype(np.float64)
        # the group's soft label by the per-example loop, then quantize
        # repeatedly with fresh streams
        weights = reference_generate(base, MixSpec("mixup", 2, 4), target + 1, RngStream(4, 1)).diagnostics[target]
        soft = SoftLabel(weights)
        assert np.allclose(soft.weights, s, atol=1e-6)
        n = 10_000
        draws = np.array([quantize_label(soft, RngStream(900 + k, 0)) for k in range(n)])
        counts = np.bincount(draws, minlength=2)
        res = stats.chisquare(counts, f_exp=soft.weights * n)
        assert res.pvalue > 0.001

    def test_diagnostics_reconstruct_from_group_records(self):
        base = two_class_base(seed=9)
        spec = MixSpec("patchmix", 3, 4)
        out = generate_ambiguous_dataset(base, spec, 25, RngStream(8, 2))
        want = reference_generate(base, spec, 25, RngStream(8, 2))
        assert np.allclose(out.features, want.features)
        assert np.allclose(out.diagnostics, want.diagnostics)

    def test_reject_degenerate_errors_when_unavoidable(self):
        # single-class base: every mixed soft label is one-hot
        x = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
        base = AmbiguousDataset(2, 4, x, np.zeros(10, dtype=int))
        spec = MixSpec("mixup", 2, 4, reject_degenerate=True)
        with pytest.raises(RuntimeError, match="degenerate"):
            generate_ambiguous_dataset(base, spec, 3, RngStream(5, 1))

    def test_reject_degenerate_filters_onehots(self):
        base = two_class_base()
        spec = MixSpec("mixup", 2, 4, reject_degenerate=True)
        out = generate_ambiguous_dataset(base, spec, 150, RngStream(6, 1))
        for row in out.diagnostics:
            assert np.count_nonzero(row) > 1

    def test_patchmix_r_greater_than_d_rejected(self):
        base = two_class_base(d=3)
        with pytest.raises(ValueError, match="r <= feature_dim"):
            generate_ambiguous_dataset(base, MixSpec("patchmix", 2, 8), 5, RngStream(7, 1))


def _after(monkeypatch, name, edit=None):
    """Wrap ``datagen.<name>``: after call ``k`` (from 1) returns, call
    ``edit(k, args, result)``, which may change the result in place.
    Returns the list of each call's arguments."""
    real, calls = getattr(datagen, name), []

    def wrapped(*args):
        out = real(*args)
        calls.append(args)
        if edit:
            edit(len(calls), args, out)
        return out

    monkeypatch.setattr(datagen, name, wrapped)
    return calls


def _draws(base, spec, n_out, rng):
    """(picks, draws) of the generator's draw stage for n_out examples."""
    picks = np.empty((n_out, spec.m), dtype=np.int64)
    draws = np.empty((n_out, spec.m if spec.kind == "mixup" else spec.r), dtype=np.int64)
    k0, keys = _philox_key(rng.seed, _child_id(rng.stream_id, np.arange(n_out, dtype=np.uint64)))
    datagen._draw_rows(base, spec, k0, keys, picks, draws, np.empty(n_out))
    return picks, draws


def _index_base(n, d=8, c=2):
    """A base of n examples whose labels cycle through c classes."""
    x = np.random.default_rng(n).normal(size=(n, d)).astype(np.float32)
    return AmbiguousDataset(c, d, x, np.arange(n) % c)


class TestDrawLaw:
    """The law of the generator's own draws, by chi-square tests as in
    criterion 4 and by properties of every draw."""

    N = 100_000

    @given(
        words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        bound=st.integers(1, 2**32),
    )
    @example(words=[2**64 - 1, 0, 2**63], bound=2**32)
    @example(words=[2**33 - 1, 2**64 - 1], bound=2**32 - 1)  # the low half's product carries
    def test_below_is_the_high_word_of_the_product(self, words, bound):
        got = _below(np.array(words, dtype=np.uint64), bound)
        assert got.tolist() == [(w * bound) >> 64 for w in words]

    @given(
        words=st.lists(st.integers(0, 2**64 - 1) | st.integers(2**64 - 2**33, 2**64 - 1), min_size=1, max_size=8),
        bound=st.integers(2, 2**32),
        small=st.integers(2, 64),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(words=[2**64 - 1, 2**64 - 2**32, 0], bound=2**32, small=64, seed=0)
    def test_samplers_draw_below_of_the_stream_words(self, words, bound, small, seed):
        # The samplers' scalar draws are the generator's law on the next r
        # words of the stream: PatchMix's assignment is the draws, Mixup's
        # counts their bincount (over a small bound, as they hold m entries).
        class Given:
            def words(self, size):
                assert size == len(words)
                return np.array(words, dtype=np.uint64)

        below = _below(np.array(words, dtype=np.uint64), bound)
        assert sample_block_assignment(bound, len(words), Given()).assign.tolist() == below.tolist()
        below = _below(np.array(words, dtype=np.uint64), small)
        counts = sample_mix_weights(small, len(words), Given()).counts
        assert counts.tolist() == np.bincount(below, minlength=small).tolist()
        rng, same = RngStream(seed, 9), RngStream(seed, 9)
        assign = sample_block_assignment(bound, len(words), rng).assign
        assert assign.tolist() == _below(same.words(len(words)), bound).tolist()
        assert rng.random() == same.random()  # each call took r words

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("kind", ["mixup", "patchmix"])
    def test_smaller_index_source_share_is_binomial(self, kind, m):
        # exchangeable sources: the count (Mixup) or block share (PatchMix)
        # of any one source, here the one of smaller base index, is
        # Binomial(r, 1/m) whatever slot Floyd's sampler put it in
        spec = MixSpec(kind, m, 4)
        picks, draws = _draws(_index_base(1000), spec, self.N, RngStream(41, 2))
        counts = draws if kind == "mixup" else datagen._block_counts(draws, m)
        share = counts[np.arange(self.N), picks.argmin(axis=1)]
        expected = stats.binom.pmf(np.arange(5), 4, 1 / m) * self.N
        assert stats.chisquare(np.bincount(share, minlength=5), f_exp=expected).pvalue > 0.001

    def test_pick_sets_are_uniform(self):
        # every one of the C(9, 3) = 84 sets of distinct base indices
        picks, _ = _draws(_index_base(9), MixSpec("mixup", 3, 4), self.N, RngStream(42, 2))
        sets = np.sort(picks, axis=1)
        assert (np.diff(sets, axis=1) > 0).all()
        code = (sets * np.array([81, 9, 1])).sum(axis=1)
        seen = np.unique(code, return_counts=True)[1]
        assert len(seen) == 84
        assert stats.chisquare(seen).pvalue > 0.001

    @given(
        n_extra=st.integers(0, 12_000),
        m=st.integers(2, 6),
        r=st.integers(1, 8),
        kind=st.sampled_from(["mixup", "patchmix"]),
        reject=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        k=st.integers(1, 40),
    )
    @example(n_extra=0, m=3, r=4, kind="mixup", reject=True, seed=1, k=40)  # a base of exactly m
    @example(n_extra=10_001, m=2, r=4, kind="patchmix", reject=False, seed=2, k=5)  # more than 10,000
    @example(n_extra=10_001, m=6, r=8, kind="mixup", reject=True, seed=3, k=40)
    def test_every_draw_is_valid_and_a_prefix_is_stable(self, n_extra, m, r, kind, reject, seed, k):
        reject = reject and r > 1  # one block or one trial is always one-hot
        n = m + n_extra
        base, spec = _index_base(n), MixSpec(kind, m, r, reject_degenerate=reject)
        rng = RngStream(seed, 3)
        picks, draws = _draws(base, spec, 40, rng)
        assert ((picks >= 0) & (picks < n)).all()
        assert (np.sort(picks, axis=1)[:, 1:] > np.sort(picks, axis=1)[:, :-1]).all()
        if kind == "mixup":
            assert (draws >= 0).all() and (draws.sum(axis=1) == r).all()
        else:
            assert ((draws >= 0) & (draws < m)).all()
        whole = generate_ambiguous_dataset(base, spec, 40, rng)
        if reject:
            assert (np.count_nonzero(whole.diagnostics, axis=1) > 1).all()
        part = generate_ambiguous_dataset(base, spec, k, rng)
        assert np.array_equal(part.features, whole.features[:k])
        assert np.array_equal(part.labels, whole.labels[:k])
        assert np.array_equal(part.diagnostics, whole.diagnostics[:k])

    @pytest.mark.parametrize("reject", [False, True])
    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("mixup", [5, -1], "counts must be nonnegative and sum to r=4"),
            ("mixup", [1, 2], "counts must be nonnegative and sum to r=4"),
            ("patchmix", [0, -1, 1, 0], r"assignments must lie in \[0, 2\)"),
            ("patchmix", [0, 1, 2, 1], r"assignments must lie in \[0, 2\)"),
        ],
    )
    def test_invalid_draws_fail_after_the_loop(self, kind, bad, message, reject, monkeypatch):
        def corrupt(k, args, out):  # row 6 of the first chunk's counts or assignment
            if k == 1:
                args[5][6] = bad

        spec = MixSpec(kind, 2, 4, reject_degenerate=reject)
        base = synth_base(BaseSpec(c=4, d=8, n_per_class=10), RngStream(2, 1))
        _after(monkeypatch, "_draw_rows", corrupt)
        words = _after(monkeypatch, "_philox_words")
        with pytest.raises(ValueError, match=message):
            generate_ambiguous_dataset(base, spec, 30, RngStream(6, 2))
        assert len(words[0][1]) == 30  # every example drew before the check ran


def _philox_at(k0, k1, block):
    """numpy's Philox keyed (k0, k1) with its counter set to read ``block`` next."""
    bit_gen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    state = bit_gen.state
    state["state"]["counter"] = np.array([block, 0, 0, 0], dtype=np.uint64)
    bit_gen.state = state
    return bit_gen


class TestPhiloxWords:
    """The vectorized Philox4x64-10 blocks against numpy's bit generator."""

    @given(
        k0=st.integers(0, 2**64 - 1),
        k1=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        blocks=st.lists(st.integers(0, 2**64 - 2), min_size=1, max_size=3),
    )
    @example(k0=0, k1=[0], blocks=[0])
    @example(k0=2**64 - 1, k1=[2**64 - 1], blocks=[2**64 - 2, 2**32 - 1])
    def test_blocks_equal_numpy_random_raw(self, k0, k1, blocks):
        idx = np.tile(np.array(blocks, dtype=np.uint64), (len(k1), 1))
        words = _philox_words(k0, np.array(k1, dtype=np.uint64), idx)
        assert words.dtype == np.uint64 and words.shape == (len(k1), 4 * len(blocks))
        for i, key in enumerate(k1):
            want = [_philox_at(k0, key, b).random_raw(4) for b in blocks]
            assert np.array_equal(words[i], np.concatenate(want))

    def test_consecutive_blocks_are_one_stream(self):
        words = _philox_words(7, np.arange(3, dtype=np.uint64), np.tile(np.arange(5, dtype=np.uint64), (3, 1)))
        for i in range(3):
            assert np.array_equal(words[i], np.random.Philox(key=[7, i]).random_raw(20))

    def test_doubles_equal_numpy_random(self):
        gen = np.random.Generator(np.random.Philox(key=[3, 4]))
        raw = np.random.Philox(key=[3, 4]).random_raw(64)
        assert np.array_equal(_doubles(raw), gen.random(64))


_KERNEL_PROBE = """
import contextlib, ctypes, glob, hashlib, os, sys
import numpy as np
from qll import cli

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so"))
name = ""
for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
    get = getattr(ctypes.CDLL(libs[0]), symbol, None) if libs else None
    if get is not None and not name:
        get.argtypes, get.restype = [], ctypes.c_char_p
        name = get().decode()
print(name)
with contextlib.redirect_stdout(sys.stderr):
    for mix in ("mixup", "patchmix"):
        out = os.path.join(sys.argv[1], mix)
        argv = ["generate", "--n-per-class", "50", "--n", "600", "--mix", mix, "--seed", "3", "--out", out]
        assert cli.main(argv) == 0
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*", "*.qll"))):
    print(os.path.relpath(path, sys.argv[1]), hashlib.sha256(open(path, "rb").read()).hexdigest())
"""


def test_generated_bytes_do_not_depend_on_the_openblas_kernels(tmp_path):
    """Generate one set in processes that OpenBLAS runs with different
    kernel sets (``OPENBLAS_CORETYPE``), where the build lets the variable
    change them, and compare the ``.qll`` bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for core in ("Haswell", "Sandybridge"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run([sys.executable, "-c", _KERNEL_PROBE, str(tmp_path / core)], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout.splitlines())
    (name_a, *files_a), (name_b, *files_b) = outputs
    if name_a == name_b:
        pytest.skip(f"OPENBLAS_CORETYPE does not change the kernels here ({name_a or 'no OpenBLAS name'})")
    assert len(files_a) == 6 and files_a == files_b


class TestSpecIntegers:
    """Counts and sizes must be integers: with a float r, Mixup's weights
    counts / r would miss unit mass, and a file header could not store r."""

    @pytest.mark.parametrize(
        "kw", [{"r": 3.5}, {"r": 4.0}, {"m": 2.0}, {"m": True}, {"r": np.float64(4)}, {"r": "4"}]
    )
    def test_mix_spec_refuses_non_integers(self, kw):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an integer"):
            MixSpec("mixup", **kw)

    @pytest.mark.parametrize(
        "kw", [{"c": 3.7}, {"d": 8.0}, {"n_per_class": True}, {"c": np.float32(4)}]
    )
    def test_base_spec_refuses_non_integers(self, kw):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an integer"):
            BaseSpec(**{"c": 4, "d": 8, "n_per_class": 10, **kw})

    @pytest.mark.parametrize("n_out", [True, 2.5, 3.0, np.float64(3), "3"])
    def test_generate_refuses_non_integer_n_out(self, n_out):
        base = synth_base(BaseSpec(4, 8, 10), RngStream(1, 1))
        with pytest.raises(ValueError, match="n_out must be an integer"):
            generate_ambiguous_dataset(base, MixSpec("mixup"), n_out, RngStream(1, 2))
        with pytest.raises(ValueError, match="n_out must be >= 1"):
            generate_ambiguous_dataset(base, MixSpec("mixup"), np.int64(0), RngStream(1, 2))

    def test_numpy_ints_stay_valid(self, tmp_path):
        files = []
        for i, n in enumerate((int, np.int64)):
            base = synth_base(BaseSpec(n(4), n(8), n(10)), RngStream(1, 1))
            ds = generate_ambiguous_dataset(base, MixSpec("patchmix", n(2), n(4)), n(20), RngStream(1, 2))
            files.append(_qll_bytes(ds, tmp_path / f"{i}.qll"))
        assert files[0] == files[1]


def _qll_bytes(ds, path):
    save_dataset(ds, path)
    return path.read_bytes(), path.with_suffix(".meta").read_bytes()


def _assert_matches_reference(base, spec, n_out, rng, tmp_path, got=None):
    got = generate_ambiguous_dataset(base, spec, n_out, rng) if got is None else got
    want = reference_generate(base, spec, n_out, rng)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.diagnostics, want.diagnostics)
    assert _qll_bytes(got, tmp_path / "got.qll") == _qll_bytes(want, tmp_path / "want.qll")


class TestBatchedGeneratorBitExact:
    """The batched draws and kernels against the per-example loop of the
    same law in ``_oracles``: equal arrays and equal file bytes."""

    # d = 7, so r in {3, 4} leaves unequal blocks
    BASE = synth_base(BaseSpec(c=4, d=7, n_per_class=20), RngStream(21, 1))

    @pytest.mark.parametrize("reject", [False, True])
    @pytest.mark.parametrize("r", [1, 3, 4, 7])
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["mixup", "patchmix"])
    def test_matches_per_example_loop(self, kind, m, r, reject, tmp_path):
        spec = MixSpec(kind, m, r, reject_degenerate=reject)
        for seed in (3, 17, 2**40 + 1):
            rng = RngStream(seed, 2)
            if reject and r == 1:  # one source holds all mass: always one-hot
                with pytest.raises(RuntimeError) as got:
                    generate_ambiguous_dataset(self.BASE, spec, 50, rng)
                with pytest.raises(RuntimeError) as want:
                    reference_generate(self.BASE, spec, 50, rng)
                assert str(got.value) == str(want.value)
                continue
            _assert_matches_reference(self.BASE, spec, 150, rng, tmp_path)

    @pytest.mark.parametrize("reject", [False, True])
    @pytest.mark.parametrize("kind", ["mixup", "patchmix"])
    def test_base_of_exactly_m_examples(self, kind, reject, tmp_path):
        # Floyd's first draw has bound 1 and picks index 0 from any word
        base = synth_base(BaseSpec(c=3, d=7, n_per_class=1), RngStream(4, 1))
        _assert_matches_reference(base, MixSpec(kind, 3, 4, reject), 40, RngStream(9, 2), tmp_path)

    @pytest.mark.parametrize("m", [2, 202])
    @pytest.mark.parametrize("kind", ["mixup", "patchmix"])
    def test_base_of_more_than_10000_examples(self, kind, m, tmp_path):
        base = synth_base(BaseSpec(c=3, d=4, n_per_class=3350), RngStream(4, 1))  # n = 10,050
        _assert_matches_reference(base, MixSpec(kind, m, 4), 30, RngStream(9, 2), tmp_path)

    @pytest.mark.parametrize("reject", [False, True])
    @pytest.mark.parametrize("kind", ["mixup", "patchmix"])
    def test_one_past_a_chunk(self, kind, reject, tmp_path):
        base = synth_base(BaseSpec(c=4, d=7, n_per_class=20), RngStream(21, 1))
        spec = MixSpec(kind, 3, 4, reject_degenerate=reject)
        _assert_matches_reference(base, spec, datagen._MIX_ROWS + 1, RngStream(5, 2), tmp_path)

    @pytest.mark.parametrize("kind", ["mixup", "patchmix"])
    def test_single_class_base_raises_as_per_example_loop(self, kind):
        x = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
        base = AmbiguousDataset(2, 4, x, np.zeros(10, dtype=int))
        spec = MixSpec(kind, 2, 4, reject_degenerate=True)
        with pytest.raises(RuntimeError, match="degenerate") as got:
            generate_ambiguous_dataset(base, spec, 3, RngStream(5, 1))
        with pytest.raises(RuntimeError) as want:
            reference_generate(base, spec, 3, RngStream(5, 1))
        assert str(got.value) == str(want.value)

    def test_onehot_test_agrees_with_soft_label(self):
        for m in (2, 3, 4):
            groups = [
                (labels, counts)
                for labels in itertools.product(range(3), repeat=m)
                for counts in itertools.product(range(3), repeat=m)
                if sum(counts)
            ]
            labels, counts = (np.array(a) for a in zip(*groups))
            soft = mixed_soft_labels(labels, counts, 3)
            # the generator's test: one class holds all the mass
            onehot = _class_mass(labels, counts, 3).max(axis=1) == counts.sum(axis=1)
            assert np.array_equal(onehot, np.count_nonzero(soft, axis=1) == 1)

    def test_scalar_helpers_are_rows_of_the_batched_kernels(self):
        gen = np.random.default_rng(8)
        labels = gen.integers(0, 5, size=(40, 3))
        counts = gen.multinomial(7, [1 / 3] * 3, size=40)
        rows = mixed_soft_labels(labels, counts, 5)
        for i in range(40):
            assert np.array_equal(reference_soft_label(labels[i], counts[i], 5), rows[i])
            s = SoftLabel(np.bincount(labels[i], weights=counts[i], minlength=5))
            assert np.array_equal(s.weights, rows[i])
            assert quantize_label(s, RngStream(i, 9)) == quantize_labels(
                rows[i : i + 1], [RngStream(i, 9).random()]
            )[0]

    def test_batched_kernels_validate(self):
        with pytest.raises(ValueError, match="labels must lie"):
            mixed_soft_labels([[0, 4]], [[1, 1]], 4)
        with pytest.raises(ValueError, match="source labels"):
            mixed_soft_labels([[0, 1]], [[1, 1, 0]], 4)
        with pytest.raises(ValueError, match="nonnegative"):
            mixed_soft_labels([[0, 1]], [[2, -1]], 4)
        with pytest.raises(ValueError, match="positive total mass"):
            mixed_soft_labels([[0, 1], [1, 2]], [[1, 1], [0, 0]], 4)
        with pytest.raises(ValueError, match="draws"):
            quantize_labels(np.full((3, 2), 0.5), [0.1, 0.2])


class TestFallbackRoutes:
    """A spec that cannot be met stops the batched generator in its first
    chunk of ``_MIX_ROWS`` rows, with the scalar oracle's error, instead of
    drawing every row first."""

    @pytest.mark.parametrize("kind", ["mixup", "patchmix"])
    def test_degenerate_spec_raises_within_the_first_chunk(self, kind, monkeypatch):
        x = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
        base = AmbiguousDataset(2, 4, x, np.zeros(10, dtype=int))
        spec = MixSpec(kind, 2, 4, reject_degenerate=True)
        rng = RngStream(5, 1)
        words = _after(monkeypatch, "_philox_words")
        with pytest.raises(RuntimeError, match="degenerate") as got:
            generate_ambiguous_dataset(base, spec, 2 * datagen._MIX_ROWS + 5, rng)
        with pytest.raises(RuntimeError) as want:
            reference_generate(base, spec, 3, rng)
        assert str(got.value) == str(want.value)
        ids = _child_id(rng.stream_id, np.arange(datagen._MIX_ROWS, dtype=np.uint64))
        _, first_chunk = _philox_key(rng.seed, ids)
        assert words and all(np.isin(args[1], first_chunk).all() for args in words)


class TestBulkSubstreamKeys:
    """The substream keys the generator derives for many examples at once
    equal those of ``RngStream.substream``, one at a time."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        keys=st.lists(st.integers(0, 2**64 - 1), max_size=4),
    )
    @example(seed=2**64 - 1, stream_id=0, keys=[])
    def test_bulk_keys_equal_substreams(self, seed, stream_id, keys):
        # 0, the largest key, and the two smallest keys whose sum with the
        # mixed parent id wraps past 2**64 (the first wraps to exactly 0)
        low = 2**64 - _mix64(stream_id)
        keys = [0, 2**64 - 1, low % 2**64, (low + 1) % 2**64, *keys]
        parent = RngStream(seed, stream_id)
        ids = _child_id(stream_id, np.array(keys, dtype=np.uint64))
        k0, k1 = _philox_key(seed, ids)
        assert ids.dtype == k1.dtype == np.uint64 and ids.shape == k1.shape == (len(keys),)
        words = _philox_words(k0, k1, np.zeros((len(keys), 1), dtype=np.uint64))
        for i, key in enumerate(keys):
            fresh = parent.substream(key)
            assert (seed, int(ids[i])) == (fresh.seed, fresh.stream_id)
            assert [k0, int(k1[i])] == fresh._gen.bit_generator.state["state"]["key"].tolist()
            assert np.array_equal(words[i], fresh._gen.bit_generator.random_raw(4))


class TestSynthBase:
    def test_counts(self):
        ds = synth_base(BaseSpec(c=4, d=8, n_per_class=50), RngStream(1, 1))
        assert ds.n_examples == 200
        assert np.array_equal(np.bincount(ds.labels), [50, 50, 50, 50])
        assert all(np.count_nonzero(row) == 1 for row in ds.diagnostics)

    def test_small_noise_collapses_to_means(self):
        spec = BaseSpec(c=3, d=5, n_per_class=20, separation=4.0, noise_sigma=1e-9)
        ds = synth_base(spec, RngStream(2, 1))
        for k in range(3):
            cluster = ds.features[ds.labels == k]
            assert np.allclose(cluster, cluster[0], atol=1e-6)

    def test_pairwise_mean_distance_matches_separation(self):
        spec = BaseSpec(c=4, d=8, n_per_class=10, separation=6.0, noise_sigma=1e-9)
        ds = synth_base(spec, RngStream(3, 1))
        centers = np.stack([ds.features[ds.labels == k][0] for k in range(4)]).astype(np.float64)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(6.0, rel=1e-5)

    def test_high_dim_class_count_uses_shared_random_means(self):
        spec = BaseSpec(c=6, d=3, n_per_class=5, separation=5.0, noise_sigma=1e-9)
        train = synth_base(spec, RngStream(9, 101))
        test = synth_base(spec, RngStream(9, 202))
        assert train.gen_meta.extra["means"] == "random"
        # different stream ids, same seed: identical class geometry
        for k in range(6):
            a = train.features[train.labels == k][0]
            b = test.features[test.labels == k][0]
            assert np.allclose(a, b, atol=1e-5)

    def test_base_spec_validation(self):
        with pytest.raises(ValueError):
            BaseSpec(c=2, d=4, n_per_class=10)  # c must exceed 2
        with pytest.raises(ValueError):
            BaseSpec(c=3, d=4, n_per_class=10, separation=-1.0)
