import re
from collections import Counter
from dataclasses import replace

import numpy as np
import _oracles
import pytest
from _oracles import reference_train

import qll.training
from qll.core import (
    AmbiguousDataset,
    ClassPriors,
    RngStream,
    STREAM_ALPHA,
    STREAM_BATCHING,
    STREAM_DATAGEN,
    STREAM_INIT,
)
from qll.datagen import BaseSpec, MixSpec, generate_ambiguous_dataset, synth_base
from qll.losses import BinaryLossKind, MulticlassLossKind, sample_alpha
from qll.models import LinearModel, forward, predict, save_model
from qll.training import (
    METRICS_HEADER,
    TrainConfig,
    evaluate,
    lr_at_epoch,
    sgd_step,
    train,
    train_runs,
    write_metrics,
)


def small_data(seed=3, n_per_class=40, n_out=240):
    root = RngStream(seed, STREAM_DATAGEN)
    spec = BaseSpec(c=4, d=8, n_per_class=n_per_class, separation=6.0, noise_sigma=1.0)
    base = synth_base(spec, root.substream(0))
    test = synth_base(spec, root.substream(1))
    ambig = generate_ambiguous_dataset(base, MixSpec("mixup", 2, 4), n_out, root.substream(2))
    return base, test, ambig


class TestSgdStep:
    def test_zero_lr_leaves_params(self):
        p, v = np.ones(3), np.zeros(3)
        sgd_step(p, np.ones(3), v, lr=0.0, momentum=0.9, weight_decay=0.1)
        assert np.array_equal(p, np.ones(3))

    def test_vanilla_sgd(self):
        p, v = np.array([1.0, 2.0]), np.zeros(2)
        sgd_step(p, np.array([0.5, -0.5]), v, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(p, [0.95, 2.05])

    def test_quadratic_descent_oracle(self):
        # f(w) = w^2 from w=1, lr=0.1: w scales by 0.8 each step
        p, v = np.array([1.0]), np.zeros(1)
        for _ in range(100):
            sgd_step(p, 2.0 * p, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert abs(p[0]) < 1e-3
        assert p[0] == pytest.approx(0.8**100, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.ones(3), np.ones(2), np.zeros(3), 0.1, 0.0, 0.0)

    def test_weight_decay_shrinks_norm(self):
        # identical gradient sequences: decay can only shrink or preserve norms
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=4) * 0.1 for _ in range(50)]
        p_wd, p_no = np.ones(4), np.ones(4)
        v_wd, v_no = np.zeros(4), np.zeros(4)
        for g in grads:
            sgd_step(p_wd, g.copy(), v_wd, 0.05, 0.9, 1e-2)
            sgd_step(p_no, g.copy(), v_no, 0.05, 0.9, 0.0)
        assert np.linalg.norm(p_wd) <= np.linalg.norm(p_no) + 1e-12


class TestLrSchedule:
    def test_exact_boundaries(self):
        cfg = TrainConfig(epochs=60, loss=MulticlassLossKind.ce(), lr=0.3)
        assert lr_at_epoch(cfg, 0) == 0.3
        assert lr_at_epoch(cfg, 29) == 0.3
        assert lr_at_epoch(cfg, 30) == 0.3 * 0.1
        assert lr_at_epoch(cfg, 44) == 0.3 * 0.1
        assert lr_at_epoch(cfg, 45) == 0.3 * 0.01
        assert lr_at_epoch(cfg, 59) == 0.3 * 0.01

    def test_decay_factors_not_compounded(self):
        cfg = TrainConfig(epochs=4, loss=MulticlassLossKind.ce(), lr=0.1)
        assert lr_at_epoch(cfg, 3) == 0.1 * 0.01


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, loss=MulticlassLossKind.ce())
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, loss=BinaryLossKind.kl())  # PU without priors

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["lr", "weight_decay"])
    def test_rejects_non_finite_step_sizes(self, name, value):
        # NaN fails no comparison and inf passes lr > 0: both would train
        # until the first non-finite step.
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), **{name: value})

    @pytest.mark.parametrize("value", [True, False, "0.1", None, 1j])
    @pytest.mark.parametrize("name", ["lr", "momentum", "weight_decay"])
    def test_rejects_non_real_step_settings(self, name, value):
        # True trained as 1.0 and "0.1" raised a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
            TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), **{name: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), seed=seed)
        assert TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), seed=2**64 - 1).seed == 2**64 - 1

    def test_real_step_settings_pass(self):
        cfg = TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), lr=1, momentum=np.float32(0.5),
                          weight_decay=0)
        assert (cfg.lr, cfg.momentum, cfg.weight_decay) == (1, 0.5, 0)

    def test_rejects_what_init_model_refuses(self):
        with pytest.raises(ValueError, match="model_kind must be one of"):
            TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), model_kind="cnn")
        with pytest.raises(ValueError, match="an mlp needs hidden_dim >= 1, got 0"):
            TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), hidden_dim=0)
        TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), model_kind="linear", hidden_dim=0)  # unread

    @pytest.mark.parametrize("name,value", [
        ("epochs", 2.5), ("epochs", True), ("batch_size", 4.5), ("hidden_dim", 3.5), ("seed", 1.5), ("seed", True),
    ])
    def test_rejects_non_integral_sizes(self, name, value):
        # Each would be accepted, then fail in train with a TypeError, or
        # (seed=1.5) train as seed 1.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{"epochs": 1, "loss": MulticlassLossKind.ce(), name: value})

    def test_numpy_integers_pass(self):
        cfg = TrainConfig(epochs=np.int64(2), loss=MulticlassLossKind.ce(), batch_size=np.int32(4),
                          hidden_dim=np.uint8(3), seed=np.int64(5))
        assert (cfg.epochs, cfg.batch_size, cfg.hidden_dim, cfg.seed) == (2, 4, 3, 5)


class TestEvaluate:
    def test_constant_predictor_hits_chance(self):
        _, test, _ = small_data()
        model = LinearModel(np.zeros((4, 8)), np.array([5.0, 0.0, 0.0, 0.0]))
        assert evaluate(model, test.features, test.labels) == pytest.approx(0.25, abs=1e-12)

    def test_manual_confusion_count(self):
        x = np.zeros((10, 2), dtype=np.float32)
        x[:, 0] = np.linspace(-1, 1, 10)
        labels = (x[:, 0] > 0).astype(int)
        labels[0] = 1  # one deliberate mismatch vs the sign rule
        ds = AmbiguousDataset(2, 2, x, labels)
        model = LinearModel(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.zeros(2))
        logits, _ = forward(model, x.astype(np.float64))
        preds = predict(logits)
        manual_acc = np.mean(preds == labels)
        assert evaluate(model, ds.features, ds.labels) == pytest.approx(manual_acc, abs=1e-12)


class TestTrain:
    def test_bit_identical_reruns(self, tmp_path):
        _, test, ambig = small_data()
        cfg = TrainConfig(
            epochs=4, loss=BinaryLossKind.scaled_sjs(), priors=ClassPriors(0.1, 0.5), seed=5
        )
        r1 = train(ambig, test, cfg)
        r2 = train(ambig, test, cfg)
        assert r1.per_epoch == r2.per_epoch
        assert r1.best_test_accuracy == r2.best_test_accuracy
        for a, b in zip(r1.final_model.params().values(), r2.final_model.params().values()):
            assert np.array_equal(a, b)
        write_metrics(r1, tmp_path / "a.csv")
        write_metrics(r2, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_clean_linear_separability_oracle(self):
        base, test, _ = small_data(seed=1, n_per_class=200)
        cfg = TrainConfig(epochs=30, loss=MulticlassLossKind.ce(), model_kind="linear", seed=1)
        report = train(base, test, cfg)
        assert report.best_test_accuracy > 0.95

    def test_cpu_objective_nonnegative_every_epoch(self):
        _, test, ambig = small_data()
        for loss in (BinaryLossKind.scaled_sjs(), BinaryLossKind.kl()):
            cfg = TrainConfig(epochs=5, loss=loss, priors=ClassPriors(0.1, 0.5), seed=2)
            report = train(ambig, test, cfg)
            assert all(s.train_objective >= 0.0 for s in report.per_epoch)

    def test_best_accuracy_is_max_over_epochs(self):
        _, test, ambig = small_data()
        cfg = TrainConfig(epochs=6, loss=MulticlassLossKind.ce(), seed=3)
        report = train(ambig, test, cfg)
        assert report.best_test_accuracy == max(s.test_accuracy for s in report.per_epoch)
        assert report.last5_avg_accuracy == pytest.approx(
            np.mean([s.test_accuracy for s in report.per_epoch[-5:]]), abs=1e-12
        )

    def test_batch_order_independent_of_init_stream(self):
        # same seed, different architectures: batching stream is untouched
        _, test, ambig = small_data()
        seq_a = RngStream(9, STREAM_BATCHING).permutation(ambig.n_examples)
        RngStream(9, STREAM_INIT).standard_normal(1000)  # consume init heavily
        seq_b = RngStream(9, STREAM_BATCHING).permutation(ambig.n_examples)
        assert np.array_equal(seq_a, seq_b)

    def test_dimension_mismatch_errors(self):
        _, test, ambig = small_data()
        other = AmbiguousDataset(
            4, 5, np.zeros((8, 5), dtype=np.float32), np.arange(8) % 4
        )
        cfg = TrainConfig(epochs=1, loss=MulticlassLossKind.ce())
        with pytest.raises(ValueError):
            train(ambig, other, cfg)

    def test_partial_final_batch_kept(self):
        _, test, ambig = small_data(n_out=230)  # 230 = 14*16 + 6
        cfg = TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), batch_size=16, seed=4)
        report = train(ambig, test, cfg)  # must not raise, covers all examples
        assert len(report.per_epoch) == 1

    def test_one_example_final_batch_fails_before_training(self):
        # 161 = 10*16 + 1: the last batch holds one example, so it can never
        # span the two classes the PU risk needs
        _, test, ambig = small_data(n_out=161)
        cfg = TrainConfig(epochs=1, loss=BinaryLossKind.kl(), priors=ClassPriors(0.1, 0.5), batch_size=16)
        with pytest.raises(ValueError, match="161 examples at batch size 16 leave a final batch of one"):
            train(ambig, test, cfg)
        with pytest.raises(ValueError, match="161 examples"):
            train_runs(ambig, test, [cfg, replace(cfg, seed=2)])
        assert len(train(small_data(n_out=162)[2], test, cfg).per_epoch) == 1
        # a baseline needs no two classes per batch
        assert len(train(ambig, test, replace(cfg, loss=MulticlassLossKind.ce(), priors=None)).per_epoch) == 1

    @pytest.mark.parametrize("minority", [100, 99])
    def test_minority_class_must_reach_every_batch(self, minority, monkeypatch):
        # 1,600 examples at batch 16 make 100 batches, and each needs one of
        # the minority class: 100 of them can be batched so, 99 cannot.
        labels = np.repeat([0, 1], [1600 - minority, minority])
        x = np.random.default_rng(0).normal(size=(1600, 2)) + 3.0 * labels[:, None]
        data = AmbiguousDataset(2, 2, x, labels)
        cfg = TrainConfig(epochs=2, loss=BinaryLossKind.kl(), priors=ClassPriors(0.1, 0.5), batch_size=16)
        steps = []
        monkeypatch.setattr("qll.training.forward", lambda *a, **k: steps.append(1) or forward(*a, **k))
        if minority == 100:
            assert len(train(data, data, cfg).per_epoch) == 2
            assert len(steps) == 2 * (100 + 1)  # every step and each epoch's evaluation
            return
        with pytest.raises(ValueError, match="1600 examples at batch size 16 make 100 batches, "
                                             "but only 99 lie outside the largest class"):
            train(data, data, cfg)
        assert not steps


METHOD_LOSSES = {
    "cpu-sjs": BinaryLossKind.scaled_sjs(), "cpu-kl": BinaryLossKind.kl(),
    "ce": MulticlassLossKind.ce(), "bs": MulticlassLossKind.bootstrap(), "gce": MulticlassLossKind.gce(),
    "sce": MulticlassLossKind.sce(), "js": MulticlassLossKind.js_pi(),
}


class TestReferenceLoop:
    """``train`` equals the plain per-step loop of ``_oracles.reference_train``
    in every epoch and in the final parameters, bit for bit, for both model
    kinds; so does each member of a stacked ``train_runs`` group."""

    @staticmethod
    def assert_matches(report, stats, params):
        assert report.per_epoch == stats
        got = report.final_model.params()
        assert list(got) == list(params)
        for name, p in params.items():
            assert np.array_equal(got[name], p), name

    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("loss,model_kind", [
        pytest.param(loss, kind, id=name if kind == "mlp" else f"{name}-{kind}")
        for kind in ("mlp", "linear") for name, loss in METHOD_LOSSES.items()
    ])
    def test_train_matches_reference_loop(self, loss, model_kind, u_mode):
        _, test, ambig = small_data(n_out=230)  # a partial final batch of 6
        priors = ClassPriors(0.1, 0.5) if isinstance(loss, BinaryLossKind) else None
        cfg = TrainConfig(epochs=4, loss=loss, priors=priors, seed=6, model_kind=model_kind, hidden_dim=8,
                          u_mode=u_mode)
        self.assert_matches(train(ambig, test, cfg), *reference_train(ambig, test, cfg))

    @pytest.mark.parametrize("pi2", [0.75, 1.0])
    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("loss", [BinaryLossKind.scaled_sjs(), BinaryLossKind.kl()], ids=["cpu-sjs", "cpu-kl"])
    def test_train_matches_reference_loop_where_the_correction_fires(self, monkeypatch, loss, u_mode, pi2):
        # At these priors most steps correct some class, so most booked
        # objectives take the corrected branch. The reference loop counts
        # them; the trainer reads no report.
        _, test, ambig = small_data(n_out=230)
        cfg = TrainConfig(epochs=4, loss=loss, priors=ClassPriors(0.1, pi2), seed=6, hidden_dim=8, u_mode=u_mode)
        risk, corrected = _oracles.cpu_risk_with_grad, []

        def counting(*args, **kwargs):
            result = risk(*args, **kwargs)
            corrected.append(any(b.corrected for b in result[0].per_class))
            return result

        monkeypatch.setattr(_oracles, "cpu_risk_with_grad", counting)
        self.assert_matches(train(ambig, test, cfg), *reference_train(ambig, test, cfg))
        assert len(corrected) == 4 * 15 and np.mean(corrected) > 0.8

    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("loss", [BinaryLossKind.scaled_sjs(), BinaryLossKind.kl()], ids=["cpu-sjs", "cpu-kl"])
    def test_stacked_members_match_reference_loop(self, loss, u_mode):
        # Runs 0 and 2 share seed 6 and the train set: one batch order and
        # one alpha stream, under different priors.
        _, test, ambig = small_data(n_out=230)
        cfgs = [TrainConfig(epochs=4, loss=loss, priors=ClassPriors(pi1, pi2), seed=seed, hidden_dim=8,
                            u_mode=u_mode)
                for seed, pi1, pi2 in ((6, 0.1, 0.5), (7, 0.2, 1.0), (6, 0.1, 0.75))]
        for cfg, report in zip(cfgs, train_runs(ambig, test, cfgs)):
            self.assert_matches(report, *reference_train(ambig, test, cfg))


class TestMetricsFile:
    def test_format(self, tmp_path):
        _, test, ambig = small_data()
        cfg = TrainConfig(epochs=3, loss=MulticlassLossKind.ce(), seed=6)
        report = train(ambig, test, cfg)
        path = tmp_path / "metrics.csv"
        write_metrics(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == report.per_epoch[0].train_objective
        assert float(first[2]) == report.per_epoch[0].test_accuracy


class TestTrainRuns:
    """A stacked group's members write the bytes of their solo runs."""

    PRIORS = (ClassPriors(0.1, 0.25), ClassPriors(0.1, 0.25), ClassPriors(0.1, 0.75))

    def _files(self, report, path):
        path.mkdir()
        write_metrics(report, path / "metrics.csv")
        save_model(report.final_model, path / "model.ckpt")
        return (path / "metrics.csv").read_bytes(), (path / "model.ckpt").read_bytes()

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("model_kind", ["mlp", "linear"])
    @pytest.mark.parametrize("loss", [BinaryLossKind.scaled_sjs(), BinaryLossKind.kl()])
    def test_members_byte_identical_to_solo(self, tmp_path, loss, model_kind, u_mode, runs):
        _, test, ambig = small_data()
        cfgs = [
            TrainConfig(epochs=3, loss=loss, priors=pr, seed=4, model_kind=model_kind,
                        hidden_dim=8, u_mode=u_mode)
            for pr in self.PRIORS[:runs]
        ]
        reports = train_runs(ambig, test, cfgs)
        assert len(reports) == runs
        for k, (cfg, report) in enumerate(zip(cfgs, reports)):
            solo = train(ambig, test, cfg)
            assert report.per_epoch == solo.per_epoch
            # Each final model owns its arrays, not views of the training buffer.
            assert all(a.base is None for a in report.final_model.params().values())
            assert self._files(report, tmp_path / f"stacked{k}") == self._files(solo, tmp_path / f"solo{k}")

    # (seed, dataset, priors) per member: two members share seed 4 on data A,
    # seed 4 also runs on data B, and seed 5 runs twice on data B.
    MIXED = ((4, 0, 0), (5, 1, 1), (4, 0, 2), (6, 0, 0), (5, 1, 2), (4, 1, 1))
    METHODS = (
        BinaryLossKind.scaled_sjs(),
        BinaryLossKind.kl(),
        MulticlassLossKind.ce(),
        MulticlassLossKind.bootstrap(),
        MulticlassLossKind.gce(),
        MulticlassLossKind.sce(),
        MulticlassLossKind.js_pi(),
    )

    @pytest.mark.parametrize("model_kind", ["mlp", "linear"])
    @pytest.mark.parametrize("loss", METHODS, ids=lambda k: k.variant)
    def test_mixed_seeds_and_datasets_byte_identical_to_solo(self, tmp_path, loss, model_kind):
        cpu = isinstance(loss, BinaryLossKind)
        cfgs = [
            TrainConfig(epochs=3, loss=loss, priors=self.PRIORS[pr] if cpu else None, seed=seed,
                        model_kind=model_kind, hidden_dim=8)
            for seed, _, pr in self.MIXED
        ]
        # 230 examples leave a final batch of 6, whose runs lie 6 rows apart.
        for n_out in (240, 230):
            data = [small_data(seed=3, n_out=n_out)[1:], small_data(seed=8, n_out=n_out)[1:]]  # (test, ambig)
            trains = [data[d][1] for _, d, _ in self.MIXED]
            tests = [data[d][0] for _, d, _ in self.MIXED]
            reports = train_runs(trains, tests, cfgs)
            assert len(reports) == len(cfgs)
            for k, (cfg, report) in enumerate(zip(cfgs, reports)):
                solo = train(trains[k], tests[k], cfg)
                assert report.per_epoch == solo.per_epoch
                stacked, alone = tmp_path / f"stacked{n_out}-{k}", tmp_path / f"solo{n_out}-{k}"
                assert self._files(report, stacked) == self._files(solo, alone)

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("loss", [BinaryLossKind.kl(), MulticlassLossKind.ce()], ids=["cpu-kl", "ce"])
    def test_labels_changed_after_construction_are_refused(self, loss, bad):
        _, test, ambig = small_data()
        ambig.labels[5] = bad
        priors = ClassPriors(0.1, 0.5) if isinstance(loss, BinaryLossKind) else None
        cfgs = [TrainConfig(epochs=1, loss=loss, priors=priors, seed=s) for s in (1, 2)]
        for group in (cfgs[:1], cfgs):
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
                train_runs(ambig, test, group)

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_test_labels_changed_after_construction_are_refused(self, bad):
        _, test, ambig = small_data()
        _, other_test, _ = small_data(seed=8)
        other_test.labels[3] = bad
        cfgs = [TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), seed=s) for s in (1, 2)]
        for trains, tests, group in ((ambig, other_test, cfgs[:1]), (ambig, [test, other_test], cfgs)):
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
                train_runs(trains, tests, group)

    @pytest.mark.parametrize("u_mode", ["complement", "full"])
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("loss", [BinaryLossKind.scaled_sjs(), BinaryLossKind.kl()], ids=["cpu-sjs", "cpu-kl"])
    def test_bound_risk_calls_equal_calls_without_tables(self, monkeypatch, loss, runs, u_mode):
        # Every step's call on its bound tables, for full batches of 16 and
        # the final batch of 6, against a call without tables on the batch's
        # labels (the columns its P masks mark), priors and alpha, which is
        # its run's draw for the batch.
        _, test, ambig = small_data(n_out=230)
        cfgs = [TrainConfig(epochs=2, loss=loss, priors=ClassPriors(0.1, 0.25 * (k + 1)), seed=4 + k % 2,
                            hidden_dim=8, u_mode=u_mode) for k in range(runs)]
        streams = {seed: RngStream(seed, STREAM_ALPHA) for seed in (4, 5)}
        draws = {seed: np.concatenate([sample_alpha(rng, size=15) for _ in range(2)]) for seed, rng in streams.items()}
        risk, sizes = qll.training.cpu_risk_with_grad, Counter()

        def checked(logits, labels, priors, loss, *, tables):
            got, grad = risk(logits, labels, priors, loss, tables=tables)
            y = tables.masks[0].argmax(axis=-1)
            alpha = None
            if tables.terms is not None:
                alpha = tables.terms[0].ravel().tolist()
                assert alpha == [draws[cfg.seed][sum(sizes.values())] for cfg in cfgs]
            want, want_grad = risk(logits, y, priors, loss, alpha if runs > 1 else alpha and alpha[0], u_mode)
            assert np.array_equal(grad, want_grad)
            for part, expected in zip(got.parts[:6], want.parts[:6]):  # risks, counts, corrected
                assert np.array_equal(part, expected)
            assert np.array_equal(got.value, want.value)
            assert np.array_equal(got.objective_value, want.objective_value)
            sizes[logits.shape[-2]] += 1
            return got, grad

        monkeypatch.setattr(qll.training, "cpu_risk_with_grad", checked)
        train_runs(ambig, test, cfgs)
        assert sizes == Counter({16: 2 * 14, 6: 2})

    def test_configs_must_differ_only_in_seed_and_priors(self):
        _, test, ambig = small_data()
        base = TrainConfig(epochs=1, loss=BinaryLossKind.kl(), priors=ClassPriors(0.1, 0.5), seed=1)
        others = [
            replace(base, epochs=2),
            replace(base, lr=0.05),
            replace(base, loss=BinaryLossKind.scaled_sjs()),
            replace(base, loss=MulticlassLossKind.ce(), priors=None),
        ]
        for other in others:
            with pytest.raises(ValueError, match="only in seed and priors"):
                train_runs(ambig, test, [base, other])
        with pytest.raises(ValueError, match="at least one config"):
            train_runs(ambig, test, [])

    def test_datasets_must_share_a_shape(self):
        _, test, ambig = small_data()
        _, _, shorter = small_data(n_out=230)
        cfgs = [TrainConfig(epochs=1, loss=MulticlassLossKind.ce(), seed=s) for s in (1, 2)]
        with pytest.raises(ValueError, match="train sets of one shape"):
            train_runs([ambig, shorter], test, cfgs)
        narrow = AmbiguousDataset(4, 5, np.zeros((8, 5), dtype=np.float32), np.arange(8) % 4)
        with pytest.raises(ValueError, match="share"):
            train_runs(ambig, [test, narrow], cfgs)
        with pytest.raises(ValueError, match="2 runs"):
            train_runs([ambig], test, cfgs)


class TestStepCallContract:
    """perfbench's tracer wraps these ``qll.training`` names: a step makes
    one call each to forward, the risk or baseline loss, backward and
    sgd_step, an epoch one evaluate per distinct test set (whose forward
    call the tracer also sees) and one alpha draw per stream, and the
    risk's report lists every run's classes."""

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("loss", [MulticlassLossKind.ce(), BinaryLossKind.scaled_sjs()], ids=["ce", "cpu-sjs"])
    def test_one_call_per_step(self, monkeypatch, loss, runs):
        _, test, ambig = small_data(n_out=230)  # 14 batches of 16 and a final batch of 6
        _, other_test, _ = small_data(seed=8)
        cpu = isinstance(loss, BinaryLossKind)
        # Runs 0 and 2 share seed 4 (one stream) and one test set.
        cfgs = [TrainConfig(epochs=2, loss=loss, priors=ClassPriors(0.1, 0.25 * (k + 1)) if cpu else None,
                            seed=4 + k % 2, hidden_dim=8) for k in range(runs)]
        tests = [test, other_test, test][:runs]
        risk = "cpu_risk_with_grad" if cpu else "baseline_loss_batch"
        calls = Counter()

        def count(name):
            original = getattr(qll.training, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = original(*args, **kwargs)
                if name == "cpu_risk_with_grad":
                    assert len(result[0].per_class) == runs * 4
                return result

            monkeypatch.setattr(qll.training, name, wrapper)

        for name in ("forward", "backward", risk, "sgd_step", "evaluate", "sample_alpha"):
            count(name)
        train_runs(ambig, tests, cfgs)
        steps, evals, streams = 2 * 15, 2 * min(runs, 2), min(runs, 2)
        assert calls == Counter({"forward": steps + evals, "backward": steps, risk: steps, "sgd_step": steps,
                                 "evaluate": evals, "sample_alpha": 2 * streams if cpu else 0})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    """A non-finite logit stops training with a RuntimeError that names the
    epoch, the iteration and every run that diverged there."""

    PATTERN = r"diverged at epoch (\d+), iteration (\d+): .* in run\(s\) (.*); try"

    def _cfg(self, seed, pi2):
        return TrainConfig(epochs=40, loss=BinaryLossKind.scaled_sjs(), priors=ClassPriors(0.1, pi2),
                           seed=seed, lr=1e8)

    def _failure(self, ambig, test, cfgs):
        with pytest.raises(RuntimeError) as info:
            train_runs(ambig, test, cfgs)
        m = re.search(self.PATTERN, str(info.value))
        assert m, str(info.value)
        return (int(m.group(1)), int(m.group(2))), m.group(3).split("; ")

    def test_solo_and_stacked(self):
        _, test, ambig = small_data()
        # Runs on the scaled copy overflow a few steps before the others.
        scaled = AmbiguousDataset(4, 8, ambig.features * 1e20, ambig.labels)
        members = [(seed, pi2, data) for seed in (1, 2) for pi2 in (0.25, 0.75) for data in (ambig, scaled)]
        cfgs = [self._cfg(seed, pi2) for seed, pi2, _ in members]
        trains = [data for *_, data in members]
        solo = [self._failure(data, test, [cfg]) for cfg, data in zip(cfgs, trains)]
        for cfg, (_, names) in zip(cfgs, solo):
            assert names == [f"seed={cfg.seed} pi1=0.1 pi2={cfg.priors.pi2}"]
        # Members run as they do alone, so the group stops where the first of
        # them does and names exactly the members that fail there.
        first = min(where for where, _ in solo)
        assert max(where for where, _ in solo) > first
        where, names = self._failure(trains, test, cfgs)
        assert where == first
        assert names == [name for w, (name,) in solo if w == first]

    def test_baseline(self):
        _, test, ambig = small_data()
        cfg = TrainConfig(epochs=40, loss=MulticlassLossKind.ce(), seed=2, lr=1e8)
        with pytest.raises(RuntimeError, match=r"iteration \d+: .* run\(s\) seed=2; try"):
            train(ambig, test, cfg)
        # Stacked, as for PU methods: the group stops where its first member
        # does alone and names exactly the members that fail there.
        scaled = AmbiguousDataset(4, 8, ambig.features * 1e20, ambig.labels)
        trains = [ambig, scaled, scaled]
        cfgs = [replace(cfg, seed=seed) for seed in (1, 2, 3)]
        solo = [self._failure(data, test, [c]) for c, data in zip(cfgs, trains)]
        assert [names for _, names in solo] == [["seed=1"], ["seed=2"], ["seed=3"]]
        first = min(where for where, _ in solo)
        assert max(where for where, _ in solo) > first
        where, names = self._failure(trains, test, cfgs)
        assert where == first
        assert names == [name for w, (name,) in solo if w == first]
