"""Bit-exact checks of the stacked training kernels against the separate
per-array forms they replace: the (2, ...) binary pass against four arrays,
the mask-table risk core against dense scattered masks, and the flat SGD
buffer against per-parameter updates. These hold in any environment: both
sides run the same float operations on the same machine."""

import numpy as np
import pytest

from _oracles import dense_mask_cpu_core, four_array_binary_parts, per_parameter_sgd_step
from qll.core import ClassPriors, RngStream
from qll.losses import EPS, BinaryLossKind, _binary_parts
from qll.models import init_model
from qll.risk import cpu_risk_with_grad
from qll.training import sgd_step

# The logit at which the sigmoid crosses EPS, and its float neighbours.
_EDGE = float(np.log(EPS / (1.0 - EPS)))
SPECIAL = np.array(
    [0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0]
    + [s * e for s in (1.0, -1.0) for e in (_EDGE, np.nextafter(_EDGE, 0.0), np.nextafter(_EDGE, -np.inf))]
)
SHAPES = [(16, 4), (3, 16, 4)]
PRIORS = [ClassPriors(0.1, 0.2), ClassPriors(0.3, 0.75), ClassPriors(0.1, 0.9)]


def edge_batch(shape, seed):
    """Logits with every SPECIAL value in each run, the rest ordinary, and
    labels (one row per run) that span at least two classes."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape) * 3.0
    for run in z.reshape(-1, *shape[-2:]):
        run.flat[rng.choice(run.size, SPECIAL.size, replace=False)] = SPECIAL
    y = rng.integers(0, shape[-1], size=shape[:-1])
    y[..., :2] = [0, 1]
    return z, y


def cases(shape):
    """(kind, alpha) pairs: kl, fixed-alpha sjs, a float alpha, and for a
    stack one alpha per run."""
    out = [(BinaryLossKind.kl(), None), (BinaryLossKind.scaled_sjs(0.5), None),
           (BinaryLossKind.scaled_sjs(), 1e-3), (BinaryLossKind.scaled_sjs(), 0.37)]
    if len(shape) == 3:
        out.append((BinaryLossKind.scaled_sjs(), [1e-3, 0.21, 0.5]))
    return out


@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_binary_parts_equal_four_arrays(shape):
    z, _ = edge_batch(shape, 5)
    for kind, alpha in cases(shape):
        loss, grad = _binary_parts(kind, z, alpha)
        assert loss.shape == grad.shape == (2, *shape)
        ref = four_array_binary_parts(kind, z, alpha)
        for got, want in zip((loss[0], loss[1], grad[0], grad[1]), ref):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("u_mode", ["complement", "full"])
@pytest.mark.parametrize("shape", SHAPES)
def test_mask_table_core_equals_dense_masks(shape, u_mode):
    z, y = edge_batch(shape, 7)
    stacked = len(shape) == 3
    # Per-run labels, and one row repeated for every run.
    label_sets = [y, np.broadcast_to(y[0], y.shape)] if stacked else [y]
    for kind, alpha in cases(shape):
        for labels in label_sets:
            for j in range(len(PRIORS)):
                priors = PRIORS if stacked else PRIORS[j]
                if stacked:
                    pi1 = np.array([[p.pi1] for p in priors])
                    pi2 = np.array([[p.pi2] for p in priors])
                else:
                    pi1, pi2 = priors.pi1, priors.pi2
                rep, grad = cpu_risk_with_grad(z, labels, priors, kind, alpha, u_mode)
                value, objective, *parts, ref_grad = dense_mask_cpu_core(
                    z, labels, pi1, pi2, kind, alpha, u_mode
                )
                assert np.array_equal(rep.value, value)
                assert np.array_equal(rep.objective_value, objective)
                r_p_plus, r_u_minus, r_p_minus, n_p, n_u, corrected = parts
                got = rep.parts
                for a, b in zip(got, (r_p_plus, r_u_minus, r_p_minus, n_p, n_u, corrected)):
                    assert np.array_equal(a, b)
                assert np.array_equal(grad, ref_grad)
                if stacked:
                    break  # one call covers every prior


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("runs", [1, 3])
def test_flat_sgd_buffer_equals_per_parameter_update(kind, runs):
    rng = np.random.default_rng(11)
    models = [init_model(kind, 4, 8, RngStream(s, 3), hidden_dim=5) for s in range(runs)]
    params = {k: np.stack([m.params()[k] for m in models]) if runs > 1 else v
              for k, v in models[0].params().items()}
    velocity = {k: rng.normal(size=v.shape) for k, v in params.items()}
    flat_p = np.concatenate([v.ravel() for v in params.values()])
    flat_v = np.concatenate([v.ravel() for v in velocity.values()])
    for lr in (0.1, 0.01, 0.001):
        grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-8, 3) for k, v in params.items()}
        flat_g = np.concatenate([g.ravel() for g in grads.values()])
        sgd_step(flat_p, flat_g, flat_v, lr, 0.9, 1e-4)
        per_parameter_sgd_step(params, grads, velocity, lr, 0.9, 1e-4)
    assert np.array_equal(flat_p, np.concatenate([v.ravel() for v in params.values()]))
    assert np.array_equal(flat_v, np.concatenate([v.ravel() for v in velocity.values()]))
