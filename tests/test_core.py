import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qll.core import (
    AmbiguousDataset,
    ClassPriors,
    RngStream,
    SoftLabel,
    entropy,
    quantize_label,
    quantize_labels,
    zero_one_test_risk,
)


class TestSoftLabel:
    def test_normalizes_raw_weights(self):
        s = SoftLabel([1.0, 1.0, 2.0])
        assert np.allclose(s.weights, [0.25, 0.25, 0.5])
        assert abs(s.weights.sum() - 1.0) < 1e-9

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            SoftLabel([0.5, -0.1, 0.6])
        with pytest.raises(ValueError):
            SoftLabel([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            SoftLabel([0.5, np.nan])
        with pytest.raises(ValueError):
            SoftLabel([1.0])

    def test_onehot_detection(self):
        assert np.count_nonzero(SoftLabel([0, 0, 5, 0]).weights) == 1
        assert np.array_equal(SoftLabel([0, 0, 5, 0]).weights, [0, 0, 1, 0])
        assert np.count_nonzero(SoftLabel([0.5, 0.5]).weights) == 2


class TestEntropy:
    def test_onehot_is_zero(self):
        assert entropy(SoftLabel([1, 0, 0, 0])) == 0.0

    def test_onehot_is_positive_zero(self):
        # -0.0 == 0.0, so compare signs: `qll generate` printed min=-0.0000
        assert math.copysign(1.0, entropy(SoftLabel([0, 1, 0]))) == 1.0
        assert math.copysign(1.0, entropy([0.0, 0.0, 2.0])) == 1.0
        rows = entropy(np.eye(4))
        assert rows.tolist() == [0.0] * 4
        assert not np.signbit(rows).any()
        assert f"{rows.min():.4f}" == "0.0000"

    def test_uniform_is_log_c(self):
        assert entropy(SoftLabel([0.25] * 4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_against_direct_evaluation(self):
        w = [0.2, 0.3, 0.5]
        oracle = -sum(x * math.log(x) for x in w)
        assert entropy(SoftLabel(w)) == pytest.approx(oracle, abs=1e-12)
        assert entropy(SoftLabel(w)) == pytest.approx(1.02965, abs=1e-4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.random(6) + 1e-3
            e = entropy(SoftLabel(w))
            assert entropy(SoftLabel(np.flip(w))) == pytest.approx(e, abs=1e-12)
            assert entropy(SoftLabel(rng.permutation(w))) == pytest.approx(e, abs=1e-12)

    def test_rows_match_soft_labels(self):
        rng = np.random.default_rng(7)
        raw = rng.random((30, 5)) * (rng.random((30, 5)) > 0.3) + np.eye(5)[np.arange(30) % 5]
        ents = entropy(raw)
        assert ents.shape == (30,)
        for i in range(30):
            assert entropy(raw[i]) == ents[i]
            assert entropy(SoftLabel(raw[i])) == pytest.approx(ents[i], abs=1e-15)
        assert entropy([[0.0, 3.0, 0.0]]).tolist() == [0.0]
        with pytest.raises(ValueError, match="nonnegative"):
            entropy([0.5, -0.5, 1.0])
        with pytest.raises(ValueError):
            entropy(np.ones((2, 2, 2)))

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            c = int(rng.integers(2, 8))
            e = entropy(SoftLabel(rng.random(c) + 1e-9))
            assert 0.0 <= e <= math.log(c) + 1e-12


class TestQuantizeLabel:
    def test_degenerate_distribution(self):
        rng = RngStream(1)
        s = SoftLabel([0, 0, 1])
        assert all(quantize_label(s, rng) == 2 for _ in range(50))

    def test_raw_weights_become_probabilities(self):
        # weights (1,1,2) quantize with probabilities (0.25, 0.25, 0.5)
        s = SoftLabel([1.0, 1.0, 2.0])
        rng = RngStream(99)
        n = 100_000
        draws = np.array([quantize_label(s, rng) for _ in range(n)])
        counts = np.bincount(draws, minlength=3)
        res = stats.chisquare(counts, f_exp=np.array([0.25, 0.25, 0.5]) * n)
        assert res.pvalue > 0.001

    def test_two_point_frequency(self):
        s = SoftLabel([0.5, 0.5])
        rng = RngStream(7)
        n = 100_000
        freq0 = sum(quantize_label(s, rng) == 0 for _ in range(n)) / n
        assert abs(freq0 - 0.5) < 0.005

    def test_consumes_exactly_one_draw(self):
        a, b = RngStream(3, 4), RngStream(3, 4)
        s = SoftLabel([0.3, 0.7])
        quantize_label(s, a)
        b.random()
        assert a.random() == b.random()

    def test_batched_matches_capped_search_at_cdf_edges(self):
        rows = np.array([[0.2, 0.3, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.1, 0.0, 0.9]])
        for row in rows:
            cdf = np.cumsum(row)
            for u in (0.0, *cdf, *np.nextafter(cdf, 0.0), 0.9999999999999999):
                want = min(int(np.searchsorted(cdf, u, side="right")), row.size - 1)
                assert quantize_labels(row, u) == want
                assert quantize_labels(rows, np.full(4, u)).tolist() == [
                    min(int(np.searchsorted(np.cumsum(r), u, side="right")), 2) for r in rows
                ]

    def test_bit_for_bit_reproducible(self):
        s = SoftLabel([0.1, 0.2, 0.3, 0.4])
        seq1 = [quantize_label(s, RngStream(11, 2).substream(i)) for i in range(32)]
        seq2 = [quantize_label(s, RngStream(11, 2).substream(i)) for i in range(32)]
        assert seq1 == seq2


class TestZeroOneRisk:
    def test_all_correct(self):
        assert zero_one_test_risk([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_wrong(self):
        assert zero_one_test_risk([0, 0, 0], [1, 2, 3]) == 1.0

    def test_counting(self):
        preds = [0, 1, 2, 3, 0, 1, 2, 3]
        labels = [0, 1, 2, 0, 1, 1, 2, 2]
        assert zero_one_test_risk(preds, labels) == 0.375

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            zero_one_test_risk([], [])

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            zero_one_test_risk([1, 2], [1])


class TestRngStream:
    def test_same_key_same_sequence(self):
        a, b = RngStream(42, 9), RngStream(42, 9)
        assert np.array_equal(a.random(100), b.random(100))
        assert np.array_equal(a.words(20), b.words(20))

    def test_distinct_streams_differ(self):
        a, b = RngStream(42, 1), RngStream(42, 2)
        x, y = a.random(256), b.random(256)
        assert not np.array_equal(x, y)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.2

    def test_substream_deterministic_and_independent(self):
        root = RngStream(5, 3)
        c1 = root.substream(17)
        c2 = RngStream(5, 3).substream(17)
        assert (c1.seed, c1.stream_id) == (c2.seed, c2.stream_id)
        assert np.array_equal(c1.random(16), c2.random(16))
        assert c1.stream_id != root.substream(18).stream_id

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**64)])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # the keys reduce a seed mod 2**64: 2**64 would replay seed 0
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            RngStream(seed)

    @pytest.mark.parametrize("seed", [True, False, np.bool_(True), 1.5, 1.0, np.float64(2.0), Fraction(3, 2), "1"])
    def test_seed_that_is_no_integer_is_refused(self, seed):
        # int() would truncate 1.5 to seed 1 and read True as seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            RngStream(seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
    def test_numpy_integer_seed_is_its_int(self, seed):
        assert RngStream(seed, 3).seed == 7
        assert np.array_equal(RngStream(seed, 3).random(4), RngStream(7, 3).random(4))
        top = RngStream(np.uint64(2**64 - 1), 3)
        assert top.seed == 2**64 - 1
        assert np.array_equal(top.random(4), RngStream(2**64 - 1, 3).random(4))

    def test_seed_range_ends_are_distinct_streams(self):
        lo, hi = RngStream(0, 3), RngStream(2**64 - 1, 3)
        assert (lo.seed, hi.seed) == (0, 2**64 - 1)
        assert not np.array_equal(lo.random(4), hi.random(4))

    def test_draws_on_one_stream_do_not_shift_another(self):
        # counter-based keys: a sibling's consumption is invisible
        a = RngStream(8, 1)
        a.random(1000)
        fresh = RngStream(8, 2).random(10)
        assert np.array_equal(fresh, RngStream(8, 2).random(10))


class TestDatasetTypes:
    def test_dataset_rejects_nonfinite_features_and_negative_labels(self):
        with pytest.raises(ValueError, match="finite"):
            AmbiguousDataset(2, 2, np.array([[1.0, np.inf]]), np.array([0]))
        with pytest.raises(ValueError, match="labels must lie"):
            AmbiguousDataset(2, 2, np.array([[1.0, 2.0]]), np.array([-1]))

    def test_dataset_validation(self):
        x = np.zeros((4, 3), dtype=np.float32)
        y = np.array([0, 1, 2, 1])
        ds = AmbiguousDataset(3, 3, x, y)
        assert ds.n_examples == 4
        assert ds.labels[1] == 1
        with pytest.raises(ValueError):
            AmbiguousDataset(3, 3, x, np.array([0, 1, 2, 3]))  # label out of range
        with pytest.raises(ValueError):
            AmbiguousDataset(3, 2, x, y)  # width mismatch
        with pytest.raises(ValueError):
            AmbiguousDataset(3, 3, x, y, diagnostics=np.zeros((4, 2)))

    def test_diagnostics_round_to_soft_labels(self):
        x = np.zeros((2, 2), dtype=np.float32)
        diag = np.array([[0.5, 0.25, 0.25], [1, 0, 0]], dtype=np.float32)
        ds = AmbiguousDataset(3, 2, x, np.array([0, 0]), diagnostics=diag)
        softs = [SoftLabel(row) for row in ds.diagnostics]
        assert len(softs) == 2
        assert np.count_nonzero(softs[1].weights) == 1

    def test_class_priors_range(self):
        ClassPriors(0.1, 1.0)
        with pytest.raises(ValueError):
            ClassPriors(0.0, 0.5)
        with pytest.raises(ValueError):
            ClassPriors(0.1, 1.5)

    @pytest.mark.parametrize("bad", ["0.1", True, None, [0.1]])
    def test_class_priors_must_be_real_numbers(self, bad):
        with pytest.raises(ValueError, match="pi1 must be a real number"):
            ClassPriors(bad, 0.5)
        with pytest.raises(ValueError, match="pi2 must be a real number"):
            ClassPriors(0.5, bad)

    def test_class_priors_keep_ints_and_numpy_floats(self):
        priors = ClassPriors(1, np.float64(0.5))
        assert type(priors.pi1) is int  # not cast: run directories name it "1"
        assert priors.pi2 == 0.5
