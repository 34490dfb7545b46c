"""Property tests: byte-exact file round trips, errors on damaged files,
the label invariants of generated data, the class-wise risk's
non-negativity, batch-order invariance and stacking, its gradient under
any branch weights table, the per-epoch PU tables, PU batching, per-epoch
alpha draws, and the closed form of the label-entry baseline gradients."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qll.core import STREAM_BATCHING, ClassPriors, RngStream
from qll.datagen import BaseSpec, MixSpec, generate_ambiguous_dataset, synth_base
from qll.dataio import load_dataset, save_dataset
from qll.losses import (
    ALPHA_FLOOR,
    EPS,
    _PAIR_SIGN,
    BinaryLossKind,
    MulticlassLossKind,
    _resolve_terms,
    baseline_loss_batch,
    sample_alpha,
)
from qll.models import init_model, load_model, save_model
from qll.risk import CpuRiskReport, _term_masks, batch_tables, cpu_risk, cpu_risk_with_grad
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


@given(runs=st.sampled_from([None, 1, 3]), data=st.data())
def test_lazy_report_is_the_branch_objective_of_its_risks_in_any_read_order(runs, data):
    z, y, kind, _ = data.draw(risk_batches(runs))
    prs = data.draw(st.lists(priors, min_size=runs or 1, max_size=runs or 1))
    alpha = None
    if kind.needs_alpha:
        alpha = data.draw(alphas) if runs is None else data.draw(st.lists(alphas, min_size=runs, max_size=runs))
    u_mode = data.draw(st.sampled_from(["complement", "full"]))
    args = (z, y, prs[0], kind, alpha, u_mode) if runs is None else (
        z, np.broadcast_to(y, (runs, y.size)), prs, kind, alpha, u_mode)

    # Each read order of a fresh report reads the same three values.
    names = ("value", "per_class", "objective_value")
    reads = []
    for order in itertools.permutations(names):
        rep = cpu_risk_with_grad(*args)[0]
        reads.append({name: getattr(rep, name) for name in order})
    for read in reads[1:]:
        assert read["per_class"] == reads[0]["per_class"]
        assert np.array_equal(read["value"], reads[0]["value"])
        assert np.array_equal(read["objective_value"], reads[0]["objective_value"])
    if runs is None:
        assert type(rep.objective_value) is float and type(rep.value) is float
    else:
        assert rep.objective_value.shape == rep.value.shape == (runs,)

    # Both values, rebuilt per run from the breakdowns and the priors.
    c = z.shape[-1]
    for k, pr in enumerate(prs):
        objectives, values = [], []
        for b in rep.per_class[k * c : (k + 1) * c]:
            neg_part = b.r_u_minus - pr.pi2 * b.r_p_minus
            assert b.corrected == (neg_part < 0.0)
            objectives.append(-neg_part if b.corrected else pr.pi1 * b.r_p_plus + neg_part)
            values.append(pr.pi1 * b.r_p_plus + max(neg_part, 0.0))
        got = (rep.objective_value, rep.value) if runs is None else (rep.objective_value[k], rep.value[k])
        assert got == (np.add.reduce(np.array(objectives)) / c, np.add.reduce(np.array(values)) / c)

    # Equal inputs give equal reports; a report whose risks differ in one
    # last bit is not equal.
    assert rep == cpu_risk_with_grad(*args)[0]
    for t in range(3):
        parts = list(rep.parts)
        parts[t] = np.nextafter(parts[t], np.inf)
        assert rep != CpuRiskReport(tuple(parts))


@st.composite
def branch_table_cases(draw):
    """(logits, labels, loss kind, alpha, rule, table): a batch of one run or
    K=3 with logits in [-6, 6], and a (2, 3, [K,] c) branch table. Under the
    "random" rule both rows are random in [-2, 2]; otherwise row 1 is the
    value's (pi1, -pi2, 1) and row 0 nnPU's corrected row (0, pi2, -1) or
    the clamp row (pi1, 0, 0)."""
    runs, c, n = draw(st.sampled_from([(), (3,)])), draw(st.integers(3, 4)), draw(st.integers(2, 10))
    size = math.prod((*runs, n, c))
    z = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=size, max_size=size))).reshape(*runs, n, c)
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    y[:2] = draw(st.permutations(range(c)))[:2]
    kind = draw(st.sampled_from([BinaryLossKind.kl(), BinaryLossKind.scaled_sjs()]))
    alpha = None
    if kind.needs_alpha:
        alpha = draw(st.lists(alphas, min_size=3, max_size=3)) if runs else draw(alphas)
    rule = draw(st.sampled_from(["random", "nnpu", "clamp"]))
    if rule == "random":
        size = 6 * math.prod(runs) * c
        table = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))).reshape(2, 3, *runs, c)
    else:
        prior = st.floats(0.05, 1.0)
        pi1, pi2 = (np.array(draw(st.lists(prior, min_size=math.prod(runs), max_size=math.prod(runs))))
                    .reshape(*runs, 1).repeat(c, axis=-1) for _ in range(2))
        zero, one = np.zeros_like(pi1), np.ones_like(pi1)
        corrected = [zero, pi2, -one] if rule == "nnpu" else [pi1, zero, zero]
        table = np.array([corrected, [pi1, -pi2, one]])
    return z, np.broadcast_to(y, (*runs, n)), kind, alpha, rule, table


@given(case=branch_table_cases(), u_mode=st.sampled_from(["complement", "full"]))
def test_gradient_follows_the_branch_objective_of_any_table(case, u_mode):
    # The kernel, the report and the gradient read one table: the gradient
    # is the derivative of objective_value wherever no class changes row
    # within +-h, and under the clamp row objective_value is the value.
    z, y, kind, alpha, rule, weights = case
    c, h = z.shape[-1], 1e-5
    table, coefs = batch_tables(y, np.zeros(1, dtype=np.intp), c, u_mode, weights)
    tables = (weights, _term_masks(c, u_mode).take(y, axis=1), table[..., 0, :], coefs[..., 0, :],
              _resolve_terms(kind, alpha, z.shape))

    def report(x):
        return cpu_risk_with_grad(x, None, None, kind, tables=tables)[0]

    rep, grad = cpu_risk_with_grad(z, None, None, kind, tables=tables)
    if rule == "clamp":
        assert np.array_equal(rep.objective_value, rep.value)
    corrected = rep.parts[5]
    for i in range(z.size):
        step = np.zeros(z.size)
        step[i] = h
        up, down = report(z + step.reshape(z.shape)), report(z - step.reshape(z.shape))
        if not (np.array_equal(up.parts[5], corrected) and np.array_equal(down.parts[5], corrected)):
            continue  # a class changes row within +-h
        # Only the run that holds logit i moves: the others' objectives are equal.
        numeric = np.sum(np.subtract(up.objective_value, down.objective_value)) / (2.0 * h)
        assert abs(numeric - grad.flat[i]) <= 1e-7 * max(1.0, abs(grad.flat[i]))


@st.composite
def epoch_tables_input(draw):
    """(labels, starts, c, weights, pick): (n,), (1, n) or (3, n) labels
    whose batches, of two or more examples each, span two classes; and
    branch weights of the runs that ``pick`` selects among the label rows."""
    c = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=6))
    starts = np.cumsum([0, *sizes[:-1]])
    rows = draw(st.sampled_from([None, 1, 3]))
    n = sum(sizes)
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n * (rows or 1), max_size=n * (rows or 1))))
    y = y.reshape(-1, n) if rows else y
    for lo in starts:  # each batch's first two labels differ, so it spans two classes
        one_class = (y[..., lo : lo + 2] == y[..., lo : lo + 1]).all(axis=-1)
        y[..., lo + 1] = np.where(one_class, (y[..., lo] + 1) % c, y[..., lo + 1])
    pick = slice(None)
    if rows:
        pick = draw(st.sampled_from([
            slice(None), draw(st.integers(0, rows - 1)),
            np.array(draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=4)), dtype=np.intp),
        ]))
    runs = np.empty(rows)[pick].shape if rows else ()  # () for one run, else (K,)
    size = 6 * int(np.prod(runs)) * c
    weights = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))).reshape(2, 3, *runs, c)
    return y, starts, c, weights, pick


@given(case=epoch_tables_input(), u_mode=st.sampled_from(["complement", "full"]), data=st.data())
def test_epoch_tables_equal_per_batch_mask_sums(case, u_mode, data):
    y, starts, c, weights, pick = case
    table, coefs = batch_tables(y, starts, c, u_mode, weights, pick)
    assert table.shape == (2, 3, *y.shape[:-1], starts.size, c)
    for b, (lo, hi) in enumerate(zip(starts, [*starts[1:], y.shape[-1]])):
        masks = _term_masks(c, u_mode).take(y[..., lo:hi], axis=1)
        assert np.array_equal(table[0][..., b, :], masks.sum(axis=-2))
    assert np.array_equal(table[1], np.maximum(table[0], 1.0))
    assert coefs.shape == (2, *weights.shape[1:-1], starts.size, c)
    # Each term's weight takes its target's gradient sign (r_p_plus reads the
    # +1 target, the other two the -1 target) over c.
    signs = (_PAIR_SIGN[[0, 1, 1]] / c).reshape(3, *[1] * (weights.ndim - 2))
    assert np.array_equal(coefs, (weights * signs)[..., None, :] / table[1][:, pick])

    # The checks of a one-batch call, made for every batch at once.
    b = data.draw(st.integers(0, starts.size - 1))
    lo, hi = starts[b], ([*starts[1:], y.shape[-1]])[b]
    bad = y.copy()
    bad[..., lo:hi] = data.draw(st.integers(0, c - 1))
    with pytest.raises(ValueError, match="span at least 2 classes; resample"):
        batch_tables(bad, starts, c, u_mode, weights, pick)
    bad = y.copy()
    bad[..., data.draw(st.integers(lo, hi - 1))] = data.draw(st.sampled_from([-1, c, c + 1, 2**40]))
    with pytest.raises(ValueError, match=rf"labels must lie in \[0, {c}\)"):
        batch_tables(bad, starts, c, u_mode, weights, pick)


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


@given(seed=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**64 - 1), n=st.integers(1, 300))
def test_alpha_array_draw_equals_scalar_draws(seed, stream_id, n):
    # The trainer draws an epoch's alphas at once; each must be the float a
    # per-step draw gives, and the stream must go on from the same place.
    batched, scalar = RngStream(seed, stream_id), RngStream(seed, stream_id)
    draws = sample_alpha(batched, size=n)
    assert draws.shape == (n,) and draws.dtype == np.float64
    assert draws.tolist() == [sample_alpha(scalar) for _ in range(n)]
    assert sample_alpha(batched) == sample_alpha(scalar)


@st.composite
def baseline_batches(draw):
    """(n, c) or (K, n, c) logits with labels. Logits include +-800, and
    the first row's label sits at -800 beside an 800, so its p_y is 0."""
    c, n, runs = draw(st.integers(2, 6)), draw(st.integers(1, 8)), draw(st.sampled_from([None, 2, 3]))
    shape = (n, c) if runs is None else (runs, n, c)
    size = math.prod(shape)
    logit = st.floats(-60.0, 60.0) | st.sampled_from([0.0, 40.0, -40.0, 800.0, -800.0])
    z = np.array(draw(st.lists(logit, min_size=size, max_size=size))).reshape(shape)
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=size // c, max_size=size // c)))
    z.reshape(-1, c)[0, [y[0], (y[0] + 1) % c]] = -800.0, 800.0
    return z, y.reshape(shape[:-1])


@given(batch=baseline_batches(), kind=st.sampled_from(
    [MulticlassLossKind.ce(), MulticlassLossKind.gce(0.7), MulticlassLossKind.gce(1.0), MulticlassLossKind.sce()]))
def test_label_entry_gradient_is_a_row_weight_times_p_minus_onehot(batch, kind):
    z, y = batch
    c = z.shape[-1]
    _, grad = baseline_loss_batch(kind, z, y)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    py = np.take_along_axis(p, y[..., None], axis=-1)[..., 0]
    live = py > EPS
    # w = -g_y * p_y, with g_y the loss's derivative in p_y.
    if kind.variant == "ce":
        w = np.where(live, 1.0, 0.0)
    elif kind.variant == "gce":
        w = py * np.power(np.maximum(py, EPS), kind.q - 1.0)
    else:
        w = np.where(live, kind.a, 0.0) + 4.0 * kind.b * py
    assert np.array_equal(grad, w[..., None] * (p - (np.arange(c) == y[..., None])))
    # Each row sums to w * (sum(p) - 1): 0 within c ulps of w.
    sums = np.array([math.fsum(row) for row in grad.reshape(-1, c)])
    assert np.all(np.abs(sums) <= c * np.finfo(np.float64).eps * w.ravel())
    if kind.variant == "ce":  # saturated rows are +0.0 throughout
        assert not live.all()
        assert not grad[~live].view(np.uint64).any()
