import struct

import numpy as np
import pytest

from _oracles import central_diff, rel_err
from qll.core import ClassPriors, RngStream
from qll.losses import BinaryLossKind, MulticlassLossKind, baseline_loss_batch
from qll.models import (
    LinearModel,
    MlpModel,
    backward,
    bind_layers,
    forward,
    init_model,
    load_model,
    predict,
    save_model,
)
from qll.risk import cpu_risk


class TestInitModel:
    def test_deterministic(self):
        a = init_model("mlp", 4, 8, RngStream(1, 3), hidden_dim=16)
        b = init_model("mlp", 4, 8, RngStream(1, 3), hidden_dim=16)
        for x, y in zip(a.params().values(), b.params().values()):
            assert np.array_equal(x, y)

    def test_biases_zero(self):
        m = init_model("mlp", 3, 5, RngStream(2, 3))
        assert np.all(m.hidden_b == 0.0)
        assert np.all(m.out_b == 0.0)
        lin = init_model("linear", 3, 5, RngStream(2, 3))
        assert np.all(lin.bias == 0.0)

    def test_weight_variance_matches_fan_in(self):
        d = 64
        m = init_model("mlp", 4, d, RngStream(3, 3), hidden_dim=200)
        var = m.hidden_w.var()
        assert abs(var - 2.0 / d) < 0.1 * (2.0 / d)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            init_model("resnet", 3, 4, RngStream(0, 0))


class TestForward:
    def test_zero_weights_give_bias(self):
        m = LinearModel(np.zeros((3, 4)), np.array([0.5, -1.0, 2.0]))
        logits, _ = forward(m, np.ones((1, 4)))
        assert np.allclose(logits, m.bias)

    def test_linear_algebra(self):
        w = np.arange(12, dtype=np.float64).reshape(3, 4)
        m = LinearModel(w, np.zeros(3))
        e1 = np.zeros((1, 4))
        e1[0, 0] = 1.0
        logits, _ = forward(m, e1)
        assert np.allclose(logits[0], w[:, 0])

    def test_batch_matches_per_example(self):
        rng = RngStream(4, 3)
        m = init_model("mlp", 4, 6, rng, hidden_dim=8)
        x = np.random.default_rng(4).normal(size=(9, 6))
        batch_logits, _ = forward(m, x)
        for i in range(9):
            single, _ = forward(m, x[i : i + 1])
            assert np.allclose(batch_logits[i], single[0], atol=1e-12)

    def test_single_example_vector_rejected(self):
        m = init_model("linear", 3, 4, RngStream(4, 3))
        with pytest.raises(ValueError):
            forward(m, np.ones(4))

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_stacked_members_match_solo_bit_for_bit(self, kind):
        members = [init_model(kind, 4, 6, RngStream(s, 3), hidden_dim=8) for s in (1, 2, 3)]
        stacked = type(members[0])(
            **{k: np.stack([m.params()[k] for m in members]) for k in members[0].params()}
        )
        x = np.random.default_rng(5).normal(size=(7, 6))
        g = np.random.default_rng(6).normal(size=(3, 7, 4))
        logits, cache = forward(stacked, x)
        grads = backward(stacked, cache, g)
        assert logits.shape == (3, 7, 4)
        for k, m in enumerate(members):
            solo_logits, solo_cache = forward(m, x)
            assert np.array_equal(logits[k], solo_logits)
            for name, solo_grad in backward(m, solo_cache, g[k]).items():
                assert np.array_equal(grads[name][k], solo_grad)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_unstacked_model_refuses_3d_features(self, kind):
        m = init_model(kind, 3, 4, RngStream(4, 3), hidden_dim=5)
        with pytest.raises(ValueError, match=r"\(2, 5, 4\)"):
            forward(m, np.ones((2, 5, 4)))
        stacked = type(m)(**{k: np.stack([v] * 2) for k, v in m.params().items()})
        logits, _ = forward(stacked, np.ones((2, 5, 4)))
        assert logits.shape == (2, 5, 3)

    def test_batch_order_independence(self):
        m = init_model("linear", 3, 5, RngStream(5, 3))
        x = np.random.default_rng(5).normal(size=(7, 5))
        perm = np.random.default_rng(6).permutation(7)
        a, _ = forward(m, x)
        b, _ = forward(m, x[perm])
        assert np.allclose(a[perm], b, atol=1e-12)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        m = init_model("mlp", 3, 4, RngStream(6, 3), hidden_dim=5)
        _, cache = forward(m, np.ones((2, 4)))
        grads = backward(m, cache, np.zeros((2, 3)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_bias_grad_is_summed_upstream(self):
        m = init_model("linear", 3, 4, RngStream(7, 3))
        x = np.random.default_rng(7).normal(size=(5, 4))
        _, cache = forward(m, x)
        d = np.random.default_rng(8).normal(size=(5, 3))
        grads = backward(m, cache, d)
        assert np.allclose(grads["bias"], d.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("runs", [None, 3])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_out_arrays_match_dict_form(self, kind, runs):
        m = init_model(kind, 4, 6, RngStream(9, 3), hidden_dim=8)
        lead = () if runs is None else (runs,)
        if runs is not None:
            rng = np.random.default_rng(9)
            m = type(m)(**{k: v + rng.normal(size=(runs, *v.shape)) for k, v in m.params().items()})
        x = np.random.default_rng(10).normal(size=(*lead, 7, 6))
        g = np.random.default_rng(11).normal(size=(*lead, 7, 4))
        _, cache = forward(m, x)
        grads = backward(m, cache, g)
        flat = np.full(sum(v.size for v in m.params().values()), np.nan)
        out, at = {}, 0
        for k, v in m.params().items():
            out[k] = flat[at : at + v.size].reshape(v.shape)
            at += v.size
        views = dict(out)
        got = backward(m, cache, g, out=out)
        assert got is out
        assert all(got[k] is views[k] for k in views)
        for k, v in grads.items():
            assert np.array_equal(views[k], v)

    def test_shape_mismatch_errors(self):
        m = init_model("linear", 3, 4, RngStream(8, 3))
        _, cache = forward(m, np.ones((2, 4)))
        with pytest.raises(ValueError):
            backward(m, cache, np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"\(3, 3\)"):
            backward(m, cache, np.zeros((3, 3)).tolist())  # a list has no .shape

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_cpu_risk_pipeline_matches_fd(self, kind):
        rng = RngStream(9, 3)
        model = init_model(kind, 3, 5, rng, hidden_dim=6)
        x = np.random.default_rng(9).normal(size=(6, 5))
        y = np.array([0, 1, 2, 0, 1, 2])
        pr = ClassPriors(0.1, 0.4)
        loss, alpha = BinaryLossKind.scaled_sjs(), 0.3

        logits, cache = forward(model, x)
        from qll.risk import cpu_risk_grad

        d_logits = cpu_risk_grad(logits, y, pr, loss, alpha)
        grads = backward(model, cache, d_logits)

        names = list(model.params())
        shapes = [model.params()[k].shape for k in names]

        def unpack(flat):
            out, i = {}, 0
            for name, shape in zip(names, shapes):
                size = int(np.prod(shape))
                out[name] = flat[i : i + size].reshape(shape)
                i += size
            return out

        def objective(flat):
            p = unpack(flat)
            if kind == "linear":
                m2 = LinearModel(p["weights"], p["bias"])
            else:
                m2 = MlpModel(p["hidden_w"], p["hidden_b"], p["out_w"], p["out_b"])
            z, _ = forward(m2, x)
            return cpu_risk(z, y, pr, loss, alpha).objective_value

        flat0 = np.concatenate([model.params()[k].ravel() for k in names])
        fd = unpack(central_diff(objective, flat0))
        for name in names:
            assert rel_err(grads[name], fd[name]) < 1e-4

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_baseline_pipeline_matches_fd(self, kind):
        model = init_model(kind, 4, 5, RngStream(10, 3), hidden_dim=6)
        x = np.random.default_rng(10).normal(size=(5, 5))
        y = np.array([0, 1, 2, 3, 1])
        loss_kind = MulticlassLossKind.js_pi(0.2)

        logits, cache = forward(model, x)
        _, g_logits = baseline_loss_batch(loss_kind, logits, y)
        grads = backward(model, cache, g_logits / len(y))

        names = list(model.params())
        shapes = [model.params()[k].shape for k in names]

        def unpack(flat):
            out, i = {}, 0
            for name, shape in zip(names, shapes):
                size = int(np.prod(shape))
                out[name] = flat[i : i + size].reshape(shape)
                i += size
            return out

        def objective(flat):
            p = unpack(flat)
            if kind == "linear":
                m2 = LinearModel(p["weights"], p["bias"])
            else:
                m2 = MlpModel(p["hidden_w"], p["hidden_b"], p["out_w"], p["out_b"])
            z, _ = forward(m2, x)
            losses, _ = baseline_loss_batch(loss_kind, z, y)
            return float(losses.mean())

        flat0 = np.concatenate([model.params()[k].ravel() for k in names])
        fd = unpack(central_diff(objective, flat0))
        for name in names:
            assert rel_err(grads[name], fd[name]) < 1e-4


class TestBoundLayers:
    """A trainer binds its model's layers once, to views of flat parameter
    and gradient vectors, and passes ``layers=`` on every step: the same
    kernels as the checked calls, without the checks."""

    @staticmethod
    def _views(flat, like):
        ends = np.cumsum([v.size for v in like.values()])
        return {k: flat[e - v.size : e].reshape(v.shape) for (k, v), e in zip(like.items(), ends)}

    @pytest.mark.parametrize("runs", [None, 3])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_bound_calls_equal_checked_calls_bit_for_bit(self, kind, runs):
        m = init_model(kind, 4, 6, RngStream(12, 3), hidden_dim=8)
        rng = np.random.default_rng(12)
        lead = () if runs is None else (runs,)
        if runs is not None:
            m = type(m)(**{k: v + rng.normal(size=(runs, *v.shape)) for k, v in m.params().items()})
        flat = np.concatenate([v.ravel() for v in m.params().values()])
        grad_flat = np.empty_like(flat)
        model = type(m)(**self._views(flat, m.params()))
        grads = self._views(grad_flat, m.params())
        layers = bind_layers(model, grads)
        for n in (16, 6, 16):  # a partial batch between full ones
            x = rng.normal(size=(*lead, n, 6))
            g = rng.normal(size=(*lead, n, 4))
            logits, cache = forward(model, x, layers=layers)
            assert backward(model, cache, g, out=grads, layers=layers) is grads
            # A model that owns copies of the current parameters: the bound
            # views must read the values the previous step wrote in place.
            alone = type(m)(**{k: v.copy() for k, v in model.params().items()})
            want_logits, want_cache = forward(alone, x)
            assert np.array_equal(logits, want_logits)
            for k, want in backward(alone, want_cache, g).items():
                assert np.array_equal(grads[k], want), k
            flat -= 0.1 * grad_flat

    @pytest.mark.parametrize("runs", [None, 3])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_checked_calls_still_refuse_wrong_shapes(self, kind, runs):
        m = init_model(kind, 4, 6, RngStream(12, 3), hidden_dim=8)
        lead = () if runs is None else (runs,)
        if runs is not None:
            m = type(m)(**{k: np.stack([v] * runs) for k, v in m.params().items()})
        with pytest.raises(ValueError, match="feature batch"):
            forward(m, np.zeros((*lead, 16, 5)))
        _, cache = forward(m, np.zeros((*lead, 16, 6)))
        for shape in ((*lead, 6, 4), (*lead, 16, 3)):  # another batch's rows, or classes
            with pytest.raises(ValueError, match="does not match the forward pass"):
                backward(m, cache, np.zeros(shape))


class TestPredict:
    def test_argmax(self):
        assert list(predict(np.array([[0.1, 0.9, 0.3]]))) == [1]

    def test_tie_breaks_low(self):
        assert list(predict(np.array([[0.5, 0.5, 0.5]]))) == [0]

    def test_shift_invariance(self):
        z = np.array([[0.2, -0.4, 0.9, 0.1]])
        assert list(predict(z)) == list(predict(z + 100.0)) == [2]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(size=(1, 5))
            assert predict(z)[0] == predict(np.exp(z))[0] == predict(3.0 * z + 7.0)[0]

    def test_batch(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert list(predict(z)) == [0, 1]


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_layout(self, tmp_path, kind):
        # read without load_model: header, then float32 blocks in params() order
        m = init_model(kind, 4, 6, RngStream(18, 3), hidden_dim=5)
        raw = save_model(m, tmp_path / "m.ckpt").read_bytes()
        fmt, header = ("<4sBII", (b"QLLM", 1, 4, 6)) if kind == "linear" else ("<4sBIII", (b"QLLM", 2, 4, 6, 5))
        assert struct.unpack_from(fmt, raw) == header
        body = b"".join(p.astype("<f4").tobytes() for p in m.params().values())
        assert raw[struct.calcsize(fmt) :] == body

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_stacked_model_rejected_before_writing(self, tmp_path, kind):
        m = init_model(kind, 4, 6, RngStream(19, 3), hidden_dim=5)
        stacked = type(m)(*[np.stack([v, v]) for v in m.params().values()])
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="one unstacked model"):
            save_model(stacked, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "code, dims",
        [(1, (0, 0)), (1, (1, 3)), (1, (2, 0)), (2, (1, 3, 2)), (2, (2, 0, 2)), (2, (2, 3, 0))],
    )
    def test_dims_init_model_refuses_rejected(self, tmp_path, code, dims):
        c, d, *h = dims
        sizes = [d, *h, c]
        count = sum(o * i + o for i, o in zip(sizes, sizes[1:]))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"QLLM" + struct.pack(f"<B{len(dims)}I", code, *dims) + b"\x00" * 4 * count)
        with pytest.raises(ValueError, match="bad.ckpt: need class_count >= 2"):
            load_model(bad)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_roundtrip(self, tmp_path, kind):
        m = init_model(kind, 4, 6, RngStream(12, 3), hidden_dim=5)
        path = save_model(m, tmp_path / "m.ckpt")
        assert path.read_bytes()[:4] == b"QLLM"
        back = load_model(path)
        assert type(back) is type(m)
        for a, b in zip(m.params().values(), back.params().values()):
            assert np.allclose(a, b, atol=1e-6)  # float32 storage
            assert np.array_equal(a.astype(np.float32), b.astype(np.float32))

    def test_resave_identical(self, tmp_path):
        m = init_model("mlp", 3, 4, RngStream(13, 3), hidden_dim=4)
        p1 = save_model(m, tmp_path / "a.ckpt")
        p2 = save_model(m, tmp_path / "b.ckpt")
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_model(bad)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_truncated_or_padded_rejected(self, tmp_path, kind):
        m = init_model(kind, 4, 6, RngStream(14, 3), hidden_dim=5)
        raw = save_model(m, tmp_path / "m.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        # inside the magic, at the kind code, inside the dims, at the end of
        # the header, inside a parameter block, one byte short
        for cut in (2, 4, 5, 9, 13, 20, len(raw) - 1):
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                load_model(bad)
        bad.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="size mismatch"):
            load_model(bad)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected(self, tmp_path, kind, value):
        m = init_model(kind, 4, 6, RngStream(16, 3), hidden_dim=5)
        raw = save_model(m, tmp_path / "m.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        off = 13 if kind == "linear" else 17
        for name, block in m.params().items():
            # the last value of each block
            at = off + 4 * (block.size - 1)
            bad.write_bytes(raw[:at] + np.float32(value).tobytes() + raw[at + 4 :])
            with pytest.raises(ValueError, match=f"block {name} holds non-finite"):
                load_model(bad)
            off += 4 * block.size

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_float32_overflow_rejected_before_writing(self, tmp_path, kind, value):
        # finite in float64, inf once stored as float32: load_model would refuse it
        for name in init_model(kind, 4, 6, RngStream(17, 3), hidden_dim=5).params():
            m = init_model(kind, 4, 6, RngStream(17, 3), hidden_dim=5)
            m.params()[name].flat[-1] = value
            path = tmp_path / f"{name}.ckpt"
            with pytest.raises(ValueError, match=f"block {name} holds finite values beyond the float32"):
                save_model(m, path)
            assert not path.exists()
        m = init_model(kind, 4, 6, RngStream(17, 3), hidden_dim=5)
        m.params()[name].flat[-1] = 3.4e38  # within range: saved and loaded back
        assert load_model(save_model(m, tmp_path / "ok.ckpt")).params()[name].flat[-1] == np.float32(3.4e38)

    def test_unknown_kind_code_rejected(self, tmp_path):
        raw = bytearray(save_model(init_model("linear", 3, 4, RngStream(15, 3)), tmp_path / "m.ckpt").read_bytes())
        raw[4] = 9
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="kind code"):
            load_model(bad)
