"""Property tests: byte-exact file round trips, errors on damaged files,
the label invariants of generated data, the class-wise risk's
non-negativity, batch-order invariance and stacking, and PU batching."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qll.core import STREAM_BATCHING, ClassPriors, RngStream
from qll.datagen import BaseSpec, MixSpec, generate_ambiguous_dataset, synth_base
from qll.dataio import load_dataset, save_dataset
from qll.losses import ALPHA_FLOOR, BinaryLossKind
from qll.models import init_model, load_model, save_model
from qll.risk import cpu_risk, cpu_risk_with_grad
from qll.training import _epoch_order


@st.composite
def generated_datasets(draw):
    c = draw(st.integers(3, 5))
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["mixup", "patchmix"]))
    m = draw(st.integers(2, 4))
    r = draw(st.integers(1, d if kind == "patchmix" else 8))
    reject = r > 1 and draw(st.booleans())  # r = 1 mixes are always one-hot
    seed = draw(st.integers(0, 2**64 - 1))
    base = synth_base(BaseSpec(c=c, d=d, n_per_class=draw(st.integers(2, 6))), RngStream(seed, 1))
    n = draw(st.integers(1, 30))
    return generate_ambiguous_dataset(base, MixSpec(kind, m, r, reject), n, RngStream(seed, 2))


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["linear", "mlp"]))
    c, d, h = draw(st.integers(2, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    model = init_model(kind, c, d, RngStream(seed, 3), hidden_dim=h)
    scale = draw(st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30]))
    gen = np.random.default_rng(seed)
    for p in model.params().values():
        p[...] = gen.standard_normal(p.shape) * scale
    return model


@st.composite
def damaged(draw, raw: bytes):
    """``raw`` cut short, with 1-4 bytes overwritten, or with bytes appended."""
    how = draw(st.sampled_from(["cut", "overwrite", "append"]))
    if how == "cut":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "append":
        return raw + draw(st.binary(min_size=1, max_size=8))
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


@given(ds=generated_datasets())
def test_qll_round_trip_is_byte_identical(ds, workdir):
    raw = save_dataset(ds, workdir / "a.qll").read_bytes()
    back = load_dataset(workdir / "a.qll")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.diagnostics, ds.diagnostics)
    assert save_dataset(back, workdir / "b.qll").read_bytes() == raw
    assert (workdir / "b.meta").read_bytes() == (workdir / "a.meta").read_bytes()


@given(model=models())
def test_ckpt_round_trip_is_byte_identical(model, workdir):
    raw = save_model(model, workdir / "a.ckpt").read_bytes()
    back = load_model(workdir / "a.ckpt")
    assert type(back) is type(model)
    assert save_model(back, workdir / "b.ckpt").read_bytes() == raw


@given(ds=generated_datasets())
def test_soft_labels_sum_to_one_with_mass_on_the_observed_label(ds):
    soft = ds.diagnostics.astype(np.float64)
    assert np.allclose(soft.sum(axis=1), 1.0, rtol=0.0, atol=1e-6)
    assert (soft[np.arange(ds.n_examples), ds.labels] > 0.0).all()


def _valid_qll(tmp_path_factory):
    base = synth_base(BaseSpec(c=3, d=3, n_per_class=3), RngStream(1, 1))
    ds = generate_ambiguous_dataset(base, MixSpec("mixup", 2, 4), 4, RngStream(1, 2))
    return save_dataset(ds, tmp_path_factory.mktemp("qll") / "ok.qll").read_bytes()


def _valid_ckpt(tmp_path_factory):
    model = init_model("mlp", 3, 2, RngStream(1, 3), hidden_dim=2)
    return save_model(model, tmp_path_factory.mktemp("ckpt") / "ok.ckpt").read_bytes()


@pytest.mark.parametrize(
    "make_raw, load", [(_valid_qll, load_dataset), (_valid_ckpt, load_model)], ids=["qll", "ckpt"]
)
def test_damaged_files_raise_only_value_error(make_raw, load, tmp_path_factory):
    raw = make_raw(tmp_path_factory)
    path = tmp_path_factory.mktemp("bad") / "bad.bin"

    @given(bad=damaged(raw))
    def check(bad):
        path.write_bytes(bad)
        if len(bad) != len(raw):
            with pytest.raises(ValueError):
                load(path)
            return
        try:
            out = load(path)
        except ValueError:
            return
        arrays = out.params().values() if load is load_model else (out.features, out.diagnostics)
        assert all(np.isfinite(a).all() for a in arrays)

    check()


priors = st.builds(ClassPriors, st.floats(0.01, 1.0), st.floats(0.01, 1.0))
alphas = st.floats(ALPHA_FLOOR, 0.5)


@st.composite
def risk_batches(draw, runs=None):
    """(logits, labels, loss kind, alpha draw): (n, c) logits, or (K, n, c)
    when ``runs`` is K, with labels spanning at least two classes."""
    c, n = draw(st.integers(2, 5)), draw(st.integers(2, 16))
    shape = (n, c) if runs is None else (runs, n, c)
    logit = st.floats(-60.0, 60.0) | st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 40.0, -40.0, 800.0])
    z = np.array(draw(st.lists(logit, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    y[:2] = draw(st.permutations(range(c)))[:2]
    kind = draw(st.sampled_from([BinaryLossKind.kl(), BinaryLossKind.scaled_sjs()]))
    return z.reshape(shape), y, kind, draw(alphas) if kind.needs_alpha else None


@given(batch=risk_batches(), pr=priors, u_mode=st.sampled_from(["complement", "full"]))
def test_cpu_risk_is_nonnegative(batch, pr, u_mode):
    z, y, kind, alpha = batch
    assert cpu_risk(z, y, pr, kind, alpha, u_mode).value >= 0.0


@given(batch=risk_batches(), pr=priors, u_mode=st.sampled_from(["complement", "full"]),
       seed=st.integers(0, 2**32 - 1))
def test_cpu_risk_is_invariant_to_batch_order(batch, pr, u_mode, seed):
    z, y, kind, alpha = batch
    order = np.random.default_rng(seed).permutation(y.size)
    a = cpu_risk(z, y, pr, kind, alpha, u_mode).value
    b = cpu_risk(z[order], y[order], pr, kind, alpha, u_mode).value
    assert b == pytest.approx(a, rel=1e-12)


@given(runs=st.integers(1, 4), data=st.data())
def test_stacked_cpu_risk_equals_per_run_calls(runs, data):
    z, y, kind, _ = data.draw(risk_batches(runs))
    if data.draw(st.booleans()):  # each run its own rotation of the batch's labels
        y = np.stack([np.roll(y, k) for k in range(runs)])
    else:  # one row repeated for every run
        y = np.broadcast_to(y, (runs, y.size))
    prs = data.draw(st.lists(priors, min_size=runs, max_size=runs))
    alpha = data.draw(st.lists(alphas, min_size=runs, max_size=runs)) if kind.needs_alpha else None
    u_mode = data.draw(st.sampled_from(["complement", "full"]))
    rep, grad = cpu_risk_with_grad(z, y, prs, kind, alpha, u_mode)
    c = z.shape[-1]
    for k in range(runs):
        solo, solo_grad = cpu_risk_with_grad(
            z[k], y[k], prs[k], kind, alpha and alpha[k], u_mode
        )
        assert rep.value[k] == solo.value
        assert rep.objective_value[k] == solo.objective_value
        assert rep.per_class[k * c : (k + 1) * c] == solo.per_class
        assert np.array_equal(grad[k], solo_grad)


@st.composite
def batched_labels(draw):
    """(labels, batch size): class 0 and up to three others, with the count
    outside class 0 often near the number of batches."""
    batch_size, n = draw(st.integers(2, 8)), draw(st.integers(1, 64))
    batches = -(-n // batch_size)
    outside = draw(st.integers(max(0, batches - 2), min(n, batches + 2)) | st.integers(0, n))
    others = draw(st.lists(st.integers(1, 3), min_size=outside, max_size=outside))
    return np.array(draw(st.permutations([0] * (n - outside) + others))), batch_size


@given(batch=batched_labels(), seed=st.integers(0, 2**32 - 1))
# Seed 3 draws batches [0, 0] and [1, 1]: the first swap mixes both, so the
# second must be left as it is.
@example(batch=(np.array([0, 0, 1, 1]), 2), seed=3)
def test_epoch_order_mixes_every_batch_or_raises(batch, seed):
    labels, batch_size = batch
    n = labels.size
    starts = np.arange(0, n, batch_size)

    def mixed(order):
        return all(np.unique(labels[order[s : s + batch_size]]).size >= 2 for s in starts)

    first = RngStream(seed, STREAM_BATCHING).permutation(n)
    assert np.array_equal(_epoch_order(labels, batch_size, RngStream(seed, STREAM_BATCHING), False), first)
    if n % batch_size == 1 or n - np.bincount(labels).max() < starts.size:
        with pytest.raises(ValueError, match=f"{n} examples at batch size {batch_size} "):
            _epoch_order(labels, batch_size, RngStream(seed, STREAM_BATCHING), True)
        return
    order = _epoch_order(labels, batch_size, RngStream(seed, STREAM_BATCHING), True)
    assert np.array_equal(np.sort(order), np.arange(n))
    assert mixed(order)
    if mixed(first):
        assert np.array_equal(order, first)
