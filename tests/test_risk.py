import numpy as np
import pytest

from _oracles import (
    assert_kernel_close,
    brute_force_cpu_risk,
    central_diff,
    class_partition,
    nnpu_class_risk,
    per_target_binary_loss,
    pu_risk_unbiased,
    rel_err,
    solve_kl_logit_minus,
    solve_kl_logits,
)
from qll.core import ClassPriors
from qll.losses import ALPHA_FLOOR, BinaryLossKind, _alpha_terms, binary_loss, binary_loss_grad
from qll.risk import (
    _branch_weights,
    _term_masks,
    batch_tables,
    cpu_risk,
    cpu_risk_grad,
    cpu_risk_with_grad,
)

KL = BinaryLossKind.kl()
SJS = BinaryLossKind.scaled_sjs()


def random_batch(rng, n_max=8, c_choices=(3, 4), scale=3.0):
    c = int(rng.choice(c_choices))
    n = int(rng.integers(2, n_max + 1))
    y = rng.integers(0, c, size=n)
    while np.unique(y).size < 2:
        y = rng.integers(0, c, size=n)
    z = rng.normal(size=(n, c)) * scale
    return z, y


class TestClassPartition:
    def test_basic_split(self):
        p, u = class_partition([0, 1, 0, 2], 0)
        assert list(p) == [0, 2]
        assert list(u) == [1, 3]

    def test_absent_class(self):
        p, u = class_partition([1, 2, 1], 0)
        assert len(p) == 0
        assert list(u) == [0, 1, 2]

    def test_partition_covers_batch(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            y = rng.integers(0, 5, size=int(rng.integers(1, 12)))
            for j in range(5):
                p, u = class_partition(y, j)
                assert len(p) + len(u) == y.size
                assert set(p).isdisjoint(u)

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError):
            class_partition([], 0)


class TestPuRiskUnbiased:
    def test_vanishing_loss_terms_give_zero_risk(self):
        # positive terms cancel at logit 0 (both means are ln 2) and the
        # unlabeled side saturates to zero loss, so the estimate vanishes
        val = pu_risk_unbiased([0.0, 0.0], [-40.0, -35.0], 0.4, KL)
        assert abs(val) < 1e-4

    def test_frozen_arithmetic(self):
        # component means (0.6, 0.3, 1.0) with pi=0.4 -> 0.4*0.6 + 0.3 - 0.4*1.0
        pos = solve_kl_logits(0.6, 1.0)
        unl = [solve_kl_logit_minus(0.3)]
        assert pu_risk_unbiased(pos, unl, 0.4, KL) == pytest.approx(0.14, abs=1e-9)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_p, n_u = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            pos = rng.normal(size=n_p) * 2
            unl = rng.normal(size=n_u) * 2
            pi = float(rng.uniform(0.05, 1.0))
            oracle = (
                pi * np.mean([binary_loss(KL, x, +1) for x in pos])
                + np.mean([binary_loss(KL, x, -1) for x in unl])
                - pi * np.mean([binary_loss(KL, x, -1) for x in pos])
            )
            got = pu_risk_unbiased(pos, unl, pi, KL)
            assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_can_be_negative(self):
        # strongly fit model drives the unbiased estimate below zero
        val = pu_risk_unbiased([8.0, 9.0], [-8.0], 0.9, KL)
        assert val < 0.0

    def test_both_empty_errors(self):
        with pytest.raises(ValueError):
            pu_risk_unbiased([], [], 0.5, KL)


class TestNnpuClassRisk:
    def test_corrected_case(self):
        pos = solve_kl_logits(0.6, 1.0)
        unl = [solve_kl_logit_minus(0.3)]
        bd, value = nnpu_class_risk(pos, unl, ClassPriors(0.4, 0.4), KL)
        assert value == pytest.approx(0.24, abs=1e-9)
        assert bd.corrected

    def test_uncorrected_case(self):
        pos = solve_kl_logits(0.6, 1.0)
        unl = [solve_kl_logit_minus(0.5)]
        bd, value = nnpu_class_risk(pos, unl, ClassPriors(0.4, 0.4), KL)
        assert value == pytest.approx(0.34, abs=1e-9)
        assert not bd.corrected

    def test_value_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pos = rng.normal(size=int(rng.integers(0, 4))) * 4
            unl = rng.normal(size=int(rng.integers(1, 5))) * 4
            pr = ClassPriors(float(rng.uniform(0.05, 1)), float(rng.uniform(0.05, 1)))
            _, value = nnpu_class_risk(pos, unl, pr, KL)
            assert value >= 0.0

    def test_empty_positive_side_allowed(self):
        bd, value = nnpu_class_risk([], [0.5, -0.5], ClassPriors(0.1, 0.5), KL)
        assert bd.n_p == 0
        assert bd.r_p_plus == 0.0 and bd.r_p_minus == 0.0
        assert value == pytest.approx(bd.r_u_minus, abs=1e-12)

    def test_empty_unlabeled_errors(self):
        with pytest.raises(ValueError, match="resample"):
            nnpu_class_risk([0.5], [], ClassPriors(0.1, 0.5), KL)


class TestCpuRisk:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for t in range(100):
            z, y = random_batch(rng)
            loss = SJS if t % 2 else KL
            alpha = float(rng.uniform(0.01, 0.5)) if t % 2 else None
            pr = ClassPriors(float(rng.uniform(0.05, 1)), float(rng.uniform(0.05, 1)))
            rep = cpu_risk(z, y, pr, loss, alpha)
            bv, bo, _ = brute_force_cpu_risk(z, y, pr.pi1, pr.pi2, loss, alpha)
            assert abs(rep.value - bv) <= 1e-10 * max(1.0, abs(bv))
            assert abs(rep.objective_value - bo) <= 1e-10 * max(1.0, abs(bo))

    def test_full_mode_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            z, y = random_batch(rng)
            pr = ClassPriors(0.1, 0.5)
            rep = cpu_risk(z, y, pr, KL, u_mode="full")
            bv, bo, _ = brute_force_cpu_risk(z, y, 0.1, 0.5, KL, u_mode="full")
            assert abs(rep.value - bv) <= 1e-10
            assert abs(rep.objective_value - bo) <= 1e-10

    def test_identical_class_values_average_to_themselves(self):
        # symmetric logits and a balanced batch give equal per-class risks
        c, reps = 4, 2
        z = np.zeros((c * reps, c))
        y = np.repeat(np.arange(c), reps)
        rep = cpu_risk(z, y, ClassPriors(0.3, 0.3), KL)
        per_values = [
            rep.per_class[j].r_p_plus * 0.3 + max(
                rep.per_class[j].r_u_minus - 0.3 * rep.per_class[j].r_p_minus, 0.0
            )
            for j in range(c)
        ]
        assert np.allclose(per_values, per_values[0])
        assert rep.value == pytest.approx(per_values[0], abs=1e-12)

    def test_objective_equals_value_when_no_correction(self):
        rng = np.random.default_rng(5)
        seen = 0
        for _ in range(300):
            z, y = random_batch(rng, scale=1.0)
            rep = cpu_risk(z, y, ClassPriors(0.1, 0.2), KL)
            if not any(b.corrected for b in rep.per_class):
                assert rep.objective_value == rep.value
                seen += 1
        assert seen > 50

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        z, y = random_batch(rng)
        perm = rng.permutation(len(y))
        a = cpu_risk(z, y, ClassPriors(0.1, 0.5), SJS, 0.3)
        b = cpu_risk(z[perm], y[perm], ClassPriors(0.1, 0.5), SJS, 0.3)
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-12)

    def test_reduces_to_unbiased_mean_when_no_clamp(self):
        # equal priors + inactive corrections: value = mean of unbiased risks
        rng = np.random.default_rng(7)
        pi = 0.3
        found = 0
        for _ in range(100):
            z, y = random_batch(rng, scale=0.8)
            rep = cpu_risk(z, y, ClassPriors(pi, pi), KL)
            if any(b.corrected for b in rep.per_class):
                continue
            c = z.shape[1]
            vals = []
            for j in range(c):
                pos = z[y == j, j]
                unl = z[y != j, j]
                vals.append(pu_risk_unbiased(pos, unl, pi, KL) if pos.size else
                            pu_risk_unbiased([], unl, pi, KL))
            assert rep.value == pytest.approx(np.mean(vals), abs=1e-10)
            found += 1
        assert found > 20

    def test_determinism(self):
        rng = np.random.default_rng(8)
        z, y = random_batch(rng)
        a = cpu_risk(z, y, ClassPriors(0.1, 0.5), SJS, 0.25)
        b = cpu_risk(z, y, ClassPriors(0.1, 0.5), SJS, 0.25)
        assert a == b

    def test_batch_preconditions(self):
        with pytest.raises(ValueError):
            cpu_risk(np.zeros((1, 3)), [0], ClassPriors(0.1, 0.5), KL)
        with pytest.raises(ValueError):
            cpu_risk(np.zeros((3, 3)), [1, 1, 1], ClassPriors(0.1, 0.5), KL)


class TestCpuRiskGrad:
    def test_matches_fd_without_correction(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 5:
            z, y = random_batch(rng, scale=0.7)
            pr = ClassPriors(0.1, 0.2)
            rep = cpu_risk(z, y, pr, SJS, 0.3)
            if any(b.corrected for b in rep.per_class):
                continue
            g = cpu_risk_grad(z, y, pr, SJS, 0.3)

            def f(flat):
                return cpu_risk(flat.reshape(z.shape), y, pr, SJS, 0.3).objective_value

            fd = central_diff(f, z.ravel()).reshape(z.shape)
            assert rel_err(g, fd) < 1e-4
            checked += 1

    def test_matches_fd_with_correction(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 5:
            z, y = random_batch(rng, scale=4.0)
            pr = ClassPriors(0.1, 0.8)
            rep = cpu_risk(z, y, pr, KL)
            negs = [b.r_u_minus - pr.pi2 * b.r_p_minus for b in rep.per_class]
            # keep clear of the branch boundary so fd does not straddle it
            if not any(b.corrected for b in rep.per_class) or min(abs(v) for v in negs) < 1e-3:
                continue
            g = cpu_risk_grad(z, y, pr, KL)

            def f(flat):
                return cpu_risk(flat.reshape(z.shape), y, pr, KL).objective_value

            fd = central_diff(f, z.ravel()).reshape(z.shape)
            assert rel_err(g, fd) < 1e-4
            checked += 1

    def test_absent_class_has_no_positive_contribution(self):
        z = np.array([[0.2, -0.1, 0.4], [0.1, 0.3, -0.2], [-0.4, 0.2, 0.1]])
        y = np.array([0, 1, 1])  # class 2 absent
        g = cpu_risk_grad(z, y, ClassPriors(0.1, 0.5), KL)
        expected_col2 = binary_loss_grad(KL, z[:, 2], -1) / 3 / 3  # (1/n_u)(1/c)
        assert np.allclose(g[:, 2], expected_col2, atol=1e-12)

    def test_with_grad_returns_consistent_pair(self):
        rng = np.random.default_rng(11)
        z, y = random_batch(rng)
        pr = ClassPriors(0.1, 0.5)
        rep1, grad1 = cpu_risk_with_grad(z, y, pr, SJS, 0.2)
        rep2 = cpu_risk(z, y, pr, SJS, 0.2)
        grad2 = cpu_risk_grad(z, y, pr, SJS, 0.2)
        assert rep1 == rep2
        assert np.array_equal(grad1, grad2)


# Both clamp regions (+-40), the sigmoid's branch point (0, +-1e-9) and
# ordinary logits; class 3 is absent, so its P side is empty.
EDGE_LOGITS = np.array(
    [
        [0.0, 1e-9, -1e-9, 40.0],
        [-40.0, 0.0, 40.0, -1e-9],
        [1e-9, -40.0, 0.0, 2.5],
        [3.0, -0.7, -40.0, 40.0],
        [-2.0, 40.0, 1.3, 0.0],
        [0.4, -1e-9, 1e-9, -3.1],
    ]
)
EDGE_LABELS = np.array([0, 1, 2, 0, 1, 2])
FUSED_CASES = [(KL, None)] + [(SJS, a) for a in (ALPHA_FLOOR, 0.25, 0.5)]


def four_call_cpu_risk(z, y, pr, loss, alpha, u_mode):
    """The class-wise risk from separate per-target binary_loss /
    binary_loss_grad calls, with the masks and arithmetic of the fused pass."""
    n, c = z.shape
    pos_mask = np.zeros((n, c))
    pos_mask[np.arange(n), y] = 1.0
    unl_mask = np.ones((n, c)) if u_mode == "full" else 1.0 - pos_mask
    n_p_safe = np.maximum(pos_mask.sum(axis=0), 1.0)
    n_u = unl_mask.sum(axis=0)
    r_p_plus = (pos_mask * binary_loss(loss, z, +1, alpha)).sum(axis=0) / n_p_safe
    r_p_minus = (pos_mask * binary_loss(loss, z, -1, alpha)).sum(axis=0) / n_p_safe
    r_u_minus = (unl_mask * binary_loss(loss, z, -1, alpha)).sum(axis=0) / n_u
    neg_part = r_u_minus - pr.pi2 * r_p_minus
    corrected = neg_part < 0.0
    values = pr.pi1 * r_p_plus + np.maximum(neg_part, 0.0)
    objectives = np.where(corrected, -neg_part, pr.pi1 * r_p_plus + neg_part)
    grad_pos = binary_loss_grad(loss, z, +1, alpha)
    grad_neg = binary_loss_grad(loss, z, -1, alpha)
    coef_pp = np.where(corrected, 0.0, pr.pi1) / n_p_safe
    coef_pm = np.where(corrected, pr.pi2, -pr.pi2) / n_p_safe
    coef_um = np.where(corrected, -1.0, 1.0) / n_u
    grad = (pos_mask * (grad_pos * coef_pp + grad_neg * coef_pm) + unl_mask * grad_neg * coef_um) / c
    components = np.stack([r_p_plus, r_u_minus, r_p_minus])
    return float(values.mean()), float(objectives.mean()), components, corrected, grad


class TestFusedPassBitExact:
    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("loss,alpha", FUSED_CASES)
    def test_matches_four_call_composition(self, loss, alpha, u_mode):
        branches = set()
        for pr in (ClassPriors(0.1, 0.2), ClassPriors(0.1, 0.9)):
            rep, grad = cpu_risk_with_grad(EDGE_LOGITS, EDGE_LABELS, pr, loss, alpha, u_mode)
            value, objective, components, corrected, ref_grad = four_call_cpu_risk(
                EDGE_LOGITS, EDGE_LABELS, pr, loss, alpha, u_mode
            )
            got = np.array([[b.r_p_plus, b.r_u_minus, b.r_p_minus] for b in rep.per_class]).T
            # kl's losses, and so its risks, keep their bits; sjs's risks take
            # the scale after the mean.
            check = np.testing.assert_array_equal if loss.variant == "kl" else assert_kernel_close
            check(rep.value, value)
            check(rep.objective_value, objective)
            check(got, components)
            assert [b.corrected for b in rep.per_class] == corrected.tolist()
            assert_kernel_close(grad, ref_grad)
            branches.update(corrected.tolist())
        assert branches == {True, False}

    @pytest.mark.parametrize("loss,alpha", FUSED_CASES)
    def test_binary_loss_matches_per_target_oracle(self, loss, alpha):
        for target in (+1, -1):
            ref_loss, ref_grad = per_target_binary_loss(loss, EDGE_LOGITS, target, alpha)
            for fn, ref, check in ((binary_loss, ref_loss, np.testing.assert_array_equal),
                                   (binary_loss_grad, ref_grad, assert_kernel_close)):
                batch = fn(loss, EDGE_LOGITS, target, alpha)
                scalar = [[fn(loss, float(x), target, alpha) for x in row] for row in EDGE_LOGITS]
                check(batch, ref)
                check(np.array(scalar), ref)


class TestStackedRuns:
    """K runs' logits stacked on a leading axis, each with its own priors,
    in one call: every member equals its own (n, c) call bit for bit."""

    PRIORS = [ClassPriors(0.1, 0.2), ClassPriors(0.1, 0.2), ClassPriors(0.1, 0.9)]
    LABELS = np.broadcast_to(EDGE_LABELS, (3, EDGE_LABELS.size))  # one row per run

    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("loss,alpha", FUSED_CASES)
    def test_members_match_solo_calls(self, loss, alpha, u_mode):
        rng = np.random.default_rng(31)
        z = np.stack([EDGE_LOGITS, 0.5 * EDGE_LOGITS, rng.normal(size=EDGE_LOGITS.shape) * 3.0])
        rep, grad = cpu_risk_with_grad(z, self.LABELS, self.PRIORS, loss, alpha, u_mode)
        c = z.shape[-1]
        assert rep.value.shape == rep.objective_value.shape == (3,)
        assert len(rep.per_class) == 3 * c
        for k, pr in enumerate(self.PRIORS):
            solo, solo_grad = cpu_risk_with_grad(z[k], EDGE_LABELS, pr, loss, alpha, u_mode)
            assert rep.value[k] == solo.value
            assert rep.objective_value[k] == solo.objective_value
            assert rep.per_class[k * c : (k + 1) * c] == solo.per_class
            assert np.array_equal(grad[k], solo_grad)

    def test_prior_count_must_match_runs(self):
        z = np.stack([EDGE_LOGITS] * 3)
        with pytest.raises(ValueError):
            cpu_risk(z, self.LABELS, ClassPriors(0.1, 0.5), KL)
        with pytest.raises(ValueError):
            cpu_risk(z, self.LABELS, self.PRIORS[:2], KL)
        with pytest.raises(ValueError):
            cpu_risk(EDGE_LOGITS, EDGE_LABELS, self.PRIORS, KL)
        with pytest.raises(ValueError):
            cpu_risk(z, self.LABELS[:, :-1], self.PRIORS, KL)


class TestBatchCounts:
    """Per-epoch ``batch_tables``: every batch's slice of the counts equals
    the counts of its own masks, and the per-batch label checks run for the
    whole epoch."""

    STARTS = np.arange(0, 23, 5)  # four batches of 5 and a final batch of 3

    def epoch_labels(self, runs):
        rng = np.random.default_rng(40)
        return rng.integers(0, 4, size=(runs, 23)) if runs else rng.integers(0, 4, size=23)

    def weights(self, runs):
        return _branch_weights(ClassPriors(0.1, 0.5) if runs is None else (ClassPriors(0.1, 0.5),) * runs, 4)

    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("runs", [None, 1, 3])
    def test_matches_per_batch_mask_sums(self, runs, u_mode):
        y = self.epoch_labels(runs)
        counts = batch_tables(y, self.STARTS, 4, u_mode, self.weights(runs))[0][0]
        assert counts.shape == (3, *y.shape[:-1], self.STARTS.size, 4)
        for b, (lo, hi) in enumerate(zip(self.STARTS, [*self.STARTS[1:], 23])):
            masks = _term_masks(4, u_mode).take(y[..., lo:hi], axis=1)
            assert np.array_equal(counts[..., b, :], masks.sum(axis=-2))

    @pytest.mark.parametrize("runs", [None, 3])
    def test_rejects_what_a_batch_call_rejects(self, runs):
        priors = ClassPriors(0.1, 0.5) if runs is None else [ClassPriors(0.1, 0.5)] * runs
        weights = self.weights(runs)
        for bad in (-1, 4):
            y = self.epoch_labels(runs)
            y[..., 21] = bad
            for call in (lambda: batch_tables(y, self.STARTS, 4, "complement", weights),
                         lambda: cpu_risk(np.zeros((*y.shape[:-1], 3, 4)), y[..., 20:], priors, KL)):
                with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
                    call()
        y = self.epoch_labels(runs)
        y[..., 5:10] = 2  # batch 1 holds one class
        for call in (lambda: batch_tables(y, self.STARTS, 4, "complement", weights),
                     lambda: cpu_risk(np.zeros((*y.shape[:-1], 5, 4)), y[..., 5:10], priors, KL)):
            with pytest.raises(ValueError, match="span at least 2 classes; resample"):
                call()
        y = self.epoch_labels(runs)
        for call in (lambda: batch_tables(y, self.STARTS, 4, "partial", weights),
                     lambda: cpu_risk(np.zeros((*y.shape[:-1], 5, 4)), y[..., :5], priors, KL, u_mode="partial")):
            with pytest.raises(ValueError, match="u_mode must be one of"):
                call()

    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("loss,alpha", [(KL, None), (SJS, 0.25)])
    @pytest.mark.parametrize("runs", [None, 3])
    def test_risk_with_counts_matches_without(self, runs, loss, alpha, u_mode):
        # The trainer's path: per-epoch masks and tables, the run's branch
        # weights and alpha terms from an array of per-batch alphas, sliced
        # per batch; the labels are then not read.
        y = self.epoch_labels(runs)
        priors = ClassPriors(0.1, 0.5) if runs is None else [ClassPriors(0.1, p) for p in (0.2, 0.5, 0.9)]
        weights = _branch_weights(priors if runs is None else tuple(priors), 4)
        table, coefs = batch_tables(y, self.STARTS, 4, u_mode, weights)
        masks = _term_masks(4, u_mode).take(y, axis=1)
        alphas = np.full((*y.shape[:-1], self.STARTS.size), alpha or 0.0)
        terms = _alpha_terms(alphas)[..., None, None] if alpha else None
        rng = np.random.default_rng(41)
        for b, (lo, hi) in enumerate(zip(self.STARTS, [*self.STARTS[1:], 23])):
            z = rng.normal(size=(*y.shape[:-1], hi - lo, 4)) * 3.0
            rep, grad = cpu_risk_with_grad(z, y[..., lo:hi], priors, loss, alpha, u_mode)
            batch = (weights, masks[..., lo:hi, :], table[..., b, :], coefs[..., b, :],
                     None if terms is None else terms[..., b, :, :])
            got, got_grad = cpu_risk_with_grad(z, None, priors, loss, u_mode=u_mode, tables=batch)
            assert np.array_equal(got.value, rep.value)
            assert np.array_equal(got.objective_value, rep.objective_value)
            assert got.per_class == rep.per_class
            assert np.array_equal(got_grad, grad)
            # With a row of the trainer's epoch log, the risks land in it
            # and the report reads them from there.
            row = np.full((3, *y.shape[:-1], 4), np.nan)
            logged, logged_grad = cpu_risk_with_grad(z, None, priors, loss, u_mode=u_mode, tables=(*batch, row))
            assert logged == rep
            assert np.array_equal(logged_grad, grad)
            assert np.array_equal(row, np.stack([got.parts[0], got.parts[2], got.parts[1]]))
            assert all(np.shares_memory(part, row) for part in logged.parts[:3])
