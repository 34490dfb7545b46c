import math

import numpy as np
import pytest

from _oracles import BernoulliPair, classical_js, masked_stable_sigmoid, rel_err
from qll.core import RngStream
from qll.losses import (
    ALPHA_FLOOR,
    EPS,
    _stable_sigmoid,
    BinaryLossKind,
    MulticlassLossKind,
    baseline_loss_batch,
    binary_loss,
    binary_loss_grad,
    kl_div,
    sample_alpha,
    scaled_sjs,
    sjs_div,
    sjs_scale,
)

def baseline_loss(kind, logits, label):
    """One example through baseline_loss_batch: (loss, gradient row)."""
    losses, grads = baseline_loss_batch(kind, np.asarray(logits, dtype=np.float64)[None, :], [label])
    return float(losses[0]), grads[0]


ALL_BINARY = [
    (BinaryLossKind.kl(), None),
    (BinaryLossKind.scaled_sjs(), 0.37),
    (BinaryLossKind.scaled_sjs(), 0.2),
    (BinaryLossKind.scaled_sjs(), 0.5),
]

ALL_MULTI = [
    MulticlassLossKind.ce(),
    MulticlassLossKind.bootstrap(0.4),
    MulticlassLossKind.gce(0.7),
    MulticlassLossKind.sce(0.1, 1.0),
    MulticlassLossKind.js_pi(0.1),
    MulticlassLossKind.js_pi(0.6, scaled=False),
]


class TestKlDiv:
    def test_identical_distributions(self):
        assert kl_div([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-12)

    def test_single_term(self):
        assert kl_div([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_term_oracle(self):
        oracle = 0.3 * math.log(0.3 / 0.6) + 0.7 * math.log(0.7 / 0.4)
        assert kl_div([0.3, 0.7], [0.6, 0.4]) == pytest.approx(oracle, abs=1e-12)
        assert kl_div([0.3, 0.7], [0.6, 0.4]) == pytest.approx(0.18383, abs=1e-4)

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            kl_div([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_div(p, q) >= 0.0


class TestSjsDiv:
    def test_zero_at_equal(self):
        for a in (0.1, 0.3, 0.5):
            assert sjs_div([0.4, 0.6], [0.4, 0.6], a) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_example(self):
        # alpha=0.5, p=(1,0), q=(.5,.5): M=(.75,.25),
        # 0.5*KL(p||M) + 0.5*KL(q||M) = 0.21576...
        assert sjs_div([1, 0], [0.5, 0.5], 0.5) == pytest.approx(0.21576, abs=1e-4)

    def test_symmetry_at_half(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            assert sjs_div(p, q, 0.5) == pytest.approx(sjs_div(q, p, 0.5), abs=1e-12)

    def test_equals_classical_js_at_half(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.dirichlet(np.ones(2))
            q = rng.dirichlet(np.ones(2))
            assert abs(sjs_div(p, q, 0.5) - classical_js(p, q)) < 1e-10

    def test_bounded_by_log_two_for_two_point(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.dirichlet(np.ones(2))
            q = rng.dirichlet(np.ones(2))
            assert sjs_div(p, q, 0.5) <= math.log(2) + 1e-12

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            sjs_div([1, 0], [0.5, 0.5], 0.7)
        with pytest.raises(ValueError):
            sjs_div([1, 0], [0.5, 0.5], 0.0)


class TestScaledSjs:
    def test_scale_factor_at_half(self):
        assert sjs_scale(0.5) == pytest.approx(2.88539, abs=1e-4)

    def test_zero_at_equal(self):
        for a in (1e-3, 0.25, 0.5):
            assert scaled_sjs([0.3, 0.7], [0.3, 0.7], a) == pytest.approx(0.0, abs=1e-9)

    def test_kl_limit(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p0 = rng.uniform(0.1, 0.9)
            q0 = rng.uniform(0.1, 0.9)
            p, q = [p0, 1 - p0], [q0, 1 - q0]
            ref = kl_div(p, q)
            err_small = abs(scaled_sjs(p, q, 1e-4) - ref) / max(ref, 1e-12)
            err_big = abs(scaled_sjs(p, q, 1e-3) - ref) / max(ref, 1e-12)
            assert err_small < 0.01
            assert err_small <= err_big  # approximation improves as alpha shrinks


class TestSampleAlpha:
    def test_range_and_floor(self):
        rng = RngStream(1, 4)
        draws = np.array([sample_alpha(rng) for _ in range(5000)])
        assert np.all(draws >= ALPHA_FLOOR)
        assert np.all(draws <= 0.5)

    def test_mean_matches_halved_beta(self):
        rng = RngStream(2, 4)
        draws = np.array([sample_alpha(rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.25) < 0.01

    def test_deterministic_sequence(self):
        a = [sample_alpha(RngStream(3, 4).substream(i)) for i in range(20)]
        b = [sample_alpha(RngStream(3, 4).substream(i)) for i in range(20)]
        assert a == b


class TestBernoulliPair:
    def test_clamping(self):
        assert BernoulliPair(0.0).p_pos == EPS
        assert BernoulliPair(1.0).p_pos == 1.0 - EPS
        pair = BernoulliPair(0.3)
        assert pair.as_array().sum() == pytest.approx(1.0, abs=1e-12)

    def test_from_logit(self):
        assert BernoulliPair.from_logit(0.0).p_pos == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError):
            BernoulliPair.from_logit(float("nan"))


class TestStableSigmoid:
    def test_matches_masked_form_bit_for_bit(self):
        rng = np.random.default_rng(21)
        edges = np.array([0.0, -0.0, 1e-9, -1e-9, 40.0, -40.0, 800.0, -800.0])
        cases = [
            rng.normal(size=(16, 4)) * 3.0,
            rng.normal(size=(3, 16, 4)) * 3.0,
            np.concatenate([edges, rng.normal(size=200_000) * 10.0]),
        ]
        for x in cases:
            assert np.array_equal(_stable_sigmoid(x), masked_stable_sigmoid(x))
        # -0.0 lands on the x >= 0 side in both forms
        assert _stable_sigmoid(np.array([-0.0]))[0] == 0.5


class TestBinaryLoss:
    def test_kl_is_bce(self):
        assert binary_loss(BinaryLossKind.kl(), 0.0, 1) == pytest.approx(math.log(2), abs=1e-12)
        # saturated correct logit: loss collapses toward zero
        assert binary_loss(BinaryLossKind.kl(), 40.0, 1) < 1e-6

    def test_scaled_sjs_composes_oracles(self):
        # sigmoid(0) -> q=(.5,.5); scale * divergence = 2.88539 * 0.21576
        loss = binary_loss(BinaryLossKind.scaled_sjs(), 0.0, 1, 0.5)
        assert loss == pytest.approx(0.62258, abs=1e-3)

    def test_alpha_half_is_scaled_classical_js(self):
        rng = np.random.default_rng(5)
        for x in rng.normal(size=10) * 3:
            sig = 1.0 / (1.0 + math.exp(-x))
            loss = binary_loss(BinaryLossKind.scaled_sjs(), x, -1, 0.5)
            assert loss == pytest.approx(sjs_scale(0.5) * classical_js([0.0, 1.0], [sig, 1.0 - sig]), rel=1e-10)

    def test_monotone_in_logit(self):
        grid = np.linspace(-8, 8, 81)
        for kind, alpha in ALL_BINARY:
            pos = binary_loss(kind, grid, +1, alpha)
            neg = binary_loss(kind, grid, -1, alpha)
            assert np.all(np.diff(pos) <= 1e-12)
            assert np.all(np.diff(neg) >= -1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=200) * 6
        for kind, alpha in ALL_BINARY:
            assert np.all(binary_loss(kind, logits, +1, alpha) >= 0.0)
            assert np.all(binary_loss(kind, logits, -1, alpha) >= 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            binary_loss(BinaryLossKind.kl(), float("inf"), 1)
        with pytest.raises(ValueError):
            binary_loss(BinaryLossKind.scaled_sjs(), 0.0, 1)  # stochastic without alpha
        with pytest.raises(ValueError):
            binary_loss(BinaryLossKind.kl(), 0.0, 2)


class TestBinaryLossGrad:
    def test_kl_closed_forms(self):
        sig = 1.0 / (1.0 + math.exp(-0.3))
        g = binary_loss_grad(BinaryLossKind.kl(), 0.3, 1)
        assert g == pytest.approx(sig - 1.0, abs=1e-12)
        assert binary_loss_grad(BinaryLossKind.kl(), 0.0, -1) == pytest.approx(0.5, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for kind, alpha in ALL_BINARY:
            for _ in range(20):
                x = float(rng.normal() * 3)
                t = 1 if rng.random() < 0.5 else -1
                g = binary_loss_grad(kind, x, t, alpha)
                fd = (binary_loss(kind, x + h, t, alpha) - binary_loss(kind, x - h, t, alpha)) / (
                    2 * h
                )
                assert abs(g - fd) <= 1e-4 * max(abs(g), abs(fd), 1e-6)


class TestBaselineLoss:
    def test_ce_uniform_logits(self):
        loss, _ = baseline_loss(MulticlassLossKind.ce(), np.zeros(10), 3)
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_gce_zero_at_certain_prediction(self):
        z = np.zeros(4)
        z[2] = 60.0  # p_y -> 1
        loss, _ = baseline_loss(MulticlassLossKind.gce(0.7), z, 2)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_sce_reduces_to_weighted_parts(self):
        z = np.array([0.3, -0.2, 1.0])
        p = np.exp(z - z.max())
        p /= p.sum()
        ce = -math.log(p[1])
        rce = 4.0 * (1.0 - p[1])
        loss, _ = baseline_loss(MulticlassLossKind.sce(0.1, 1.0), z, 1)
        assert loss == pytest.approx(0.1 * ce + 1.0 * rce, abs=1e-12)

    def test_js_scaling_factor(self):
        z = np.array([0.5, -1.0, 0.2, 0.0])
        raw, _ = baseline_loss(MulticlassLossKind.js_pi(0.3, scaled=False), z, 0)
        scaled, _ = baseline_loss(MulticlassLossKind.js_pi(0.3, scaled=True), z, 0)
        assert scaled == pytest.approx(raw * sjs_scale(0.3), abs=1e-12)

    def test_js_matches_generic_divergence(self):
        z = np.array([1.0, 0.0, -0.5])
        p = np.exp(z - z.max())
        p /= p.sum()
        onehot = np.array([0.0, 1.0, 0.0])
        loss, _ = baseline_loss(MulticlassLossKind.js_pi(0.4, scaled=False), z, 1)
        m = 0.4 * onehot + 0.6 * p
        oracle = 0.4 * kl_div(onehot, m) + 0.6 * kl_div(p, m)
        assert loss == pytest.approx(oracle, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for kind in ALL_MULTI:
            z = rng.normal(size=(100, 5)) * 4
            y = rng.integers(0, 5, size=100)
            losses, _ = baseline_loss_batch(kind, z, y)
            assert np.all(losses >= -1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for kind in ALL_MULTI:
            for _ in range(20):
                z = rng.normal(size=6) * 2
                y = int(rng.integers(6))
                _, g = baseline_loss(kind, z, y)
                fd = np.zeros(6)
                for j in range(6):
                    zp, zm = z.copy(), z.copy()
                    zp[j] += h
                    zm[j] -= h
                    fd[j] = (
                        baseline_loss(kind, zp, y)[0] - baseline_loss(kind, zm, y)[0]
                    ) / (2 * h)
                assert rel_err(g, fd) < 1e-4

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(7, 4))
        y = rng.integers(0, 4, size=7)
        for kind in ALL_MULTI:
            losses, grads = baseline_loss_batch(kind, z, y)
            for i in range(7):
                li, gi = baseline_loss(kind, z[i], int(y[i]))
                assert losses[i] == pytest.approx(li, abs=1e-12)
                assert np.allclose(grads[i], gi, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_MULTI, ids=lambda k: f"{k.variant}-{k.scaled}")
    def test_stacked_runs_match_per_run_calls(self, kind):
        # Saturated rows (|z| = 40) put softmax entries under EPS, so the
        # clamped branches are covered too.
        rng = np.random.default_rng(12)
        z = rng.normal(size=(3, 9, 4)) * np.array([1.0, 5.0, 40.0])[:, None, None]
        y = rng.integers(0, 4, size=(3, 9))
        losses, grads = baseline_loss_batch(kind, z, y)
        assert losses.shape == (3, 9) and grads.shape == (3, 9, 4)
        for k in range(3):
            lk, gk = baseline_loss_batch(kind, z[k], y[k])
            assert np.array_equal(losses[k], lk)
            assert np.array_equal(grads[k], gk)
        with pytest.raises(ValueError):
            baseline_loss_batch(kind, z, y[0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            baseline_loss(MulticlassLossKind.ce(), np.array([1.0, np.inf]), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4)])
    def test_rejects_nonfinite_given_label_indices(self, shape, bad):
        # The trainer's divergence report rests on this check, and the
        # trainer passes label indices.
        z = np.zeros(shape)
        z.flat[7] = bad
        at = np.arange(math.prod(shape[:-1])).reshape(shape[:-1]) * shape[-1]
        for kind in ALL_MULTI:
            with pytest.raises(ValueError, match="logits must be finite"):
                baseline_loss_batch(kind, z, None, at=at)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_rejects_labels_outside_range(self, bad):
        z = np.zeros((3, 5, 4))
        y = np.zeros((3, 5), dtype=np.int64)
        y[1, 2] = bad
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
            baseline_loss_batch(MulticlassLossKind.ce(), z[1], y[1])
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
            baseline_loss_batch(MulticlassLossKind.ce(), z, y)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            MulticlassLossKind.bootstrap(1.5)
        with pytest.raises(ValueError):
            MulticlassLossKind.gce(0.0)
        with pytest.raises(ValueError):
            MulticlassLossKind.js_pi(1.0)
