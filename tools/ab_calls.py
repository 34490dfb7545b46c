"""Time the training step's calls of two ``src/`` trees side by side, in one process.

    python3 tools/ab_calls.py --parent ../qll-parent [--loss sjs] [--runs 1] [--baseline ce]

``--parent`` is a checkout (a directory holding ``src/qll``) of the parent
commit; the change is the checkout that holds this script. Each tree is
imported under its own package name (``qll_parent``, ``qll_change``), so both
live in this process at once and share its numpy, BLAS and host.

From each tree the script builds the acceptance setting (c=4, d=8, Mixup m=2
r=4, 2000 ambiguous train and 1000 clean test examples, MLP h=32, batch 16)
with its own ``synth_base`` and ``generate_ambiguous_dataset``. It then
trains ``--runs`` stacked runs of ``cpu-<loss>`` (seeds 1..K, pi1 0.1 and
pi2 cycling over 0.25, 0.5, 0.75) and one run of the ``--baseline`` loss
(default ce, at the CLI's default parameters) through the tree's own
``train_runs``, stops each at step 60, and keeps the arguments that
``train_runs`` passed to ``forward``, ``cpu_risk_with_grad`` (with its
resolved tables), ``backward`` and ``baseline_loss_batch`` on that step. So
each side's call is timed on the arguments its own trainer builds, whatever
their layout.

Then, for ``--rounds`` rounds, each call is timed in one block of ``--calls``
calls per side, the side that goes first alternating by round; the short
``train`` block is one ``train_runs`` call of two epochs of the PU method.
The garbage collector is off inside a block. For each call the script
prints each side's median µs per call over the rounds, the ratio of the
change's median to the parent's, and the rounds each side won.

Per-call differences of a few percent need this: a traced benchmark pass
reads each layer on a host whose speed drifts between passes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CALLS = ("forward", "cpu_risk_with_grad", "backward", "baseline_loss_batch", "train")
PI2_CYCLE = (0.25, 0.5, 0.75)
STEP, TRAIN_EPOCHS = 60, 2
BASELINES = ("ce", "bs", "gce", "sce", "js")


def load_tree(checkout: Path, name: str):
    """Import ``checkout/src/qll`` as the package ``name``."""
    init = checkout / "src" / "qll" / "__init__.py"
    if not init.is_file():
        sys.exit(f"no src/qll/__init__.py under {checkout}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class _Stop(Exception):
    """Raised from a wrapped call to end a capture run."""


def capture(qll, train_sets, test_set, cfgs, step: int) -> dict:
    """Run ``qll.training.train_runs`` to the end of step ``step`` (0-based)
    and return the (args, kwargs) of each wrapped call made on it."""
    training = qll.training
    names = ("forward", "cpu_risk_with_grad", "backward", "baseline_loss_batch")
    seen, saved, count = {}, {n: getattr(training, n) for n in names}, [0]

    def wrap(name):
        real = saved[name]

        def call(*args, **kwargs):
            seen[name] = (args, kwargs)
            result = real(*args, **kwargs)
            if name == "backward":
                count[0] += 1
                if count[0] > step:
                    raise _Stop
            return result
        return call

    try:
        for n in names:
            setattr(training, n, wrap(n))
        training.train_runs(train_sets, test_set, cfgs)
    except _Stop:
        return seen
    finally:
        for n, fn in saved.items():
            setattr(training, n, fn)
    sys.exit(f"training ended before step {step}")


def side_calls(qll, args) -> dict:
    """Each timed call of one tree, as a function of no arguments."""
    core, datagen, losses, training = qll.core, qll.datagen, qll.losses, qll.training
    base_spec = datagen.BaseSpec(c=4, d=8, n_per_class=250)
    root = core.RngStream(1, core.STREAM_DATAGEN)
    base, test = (datagen.synth_base(base_spec, root.substream(k)) for k in (0, 1))
    train_set = datagen.generate_ambiguous_dataset(base, datagen.MixSpec("mixup", 2, 4), 2000, root.substream(2))
    pu_loss = losses.BinaryLossKind.scaled_sjs() if args.loss == "sjs" else losses.BinaryLossKind.kl()
    common = dict(batch_size=16, hidden_dim=32)
    pu = [training.TrainConfig(epochs=2, loss=pu_loss, seed=k + 1, **common,
                               priors=core.ClassPriors(0.1, PI2_CYCLE[k % 3])) for k in range(args.runs)]
    seen = capture(qll, train_set, test, pu, STEP)
    baseline = importlib.import_module(f"{qll.__name__}.cli").build_loss(args.baseline)
    seen.update(capture(qll, train_set, test, [training.TrainConfig(epochs=2, loss=baseline, **common)], STEP))
    short = [replace(c, epochs=TRAIN_EPOCHS) for c in pu]
    fns = {name: (lambda fn=getattr(training, name), a=seen[name]: fn(*a[0], **a[1])) for name in CALLS[:-1]}
    fns["train"] = lambda: training.train_runs(train_set, test, short)
    return fns


def time_block(fn, calls: int) -> float:
    """µs per call of ``calls`` calls of ``fn``, with the collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls * 1e6
    finally:
        gc.enable()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--loss", choices=("sjs", "kl"), default="sjs", help="the PU method's binary loss")
    p.add_argument("--runs", type=int, default=1, help="stacked PU runs K")
    p.add_argument("--baseline", choices=BASELINES, default="ce", help="the baseline run's loss")
    p.add_argument("--rounds", type=int, default=60)
    p.add_argument("--calls", type=int, default=400, help="calls per block")
    p.add_argument("--only", nargs="+", choices=CALLS, default=list(CALLS), help="calls to time")
    args = p.parse_args(argv)
    if min(args.runs, args.rounds, args.calls) < 1:
        p.error("--runs, --rounds and --calls must be >= 1")

    trees = {side: load_tree(path.resolve(), f"qll_{side}")
             for side, path in (("parent", args.parent), ("change", ROOT))}
    fns = {side: side_calls(qll, args) for side, qll in trees.items()}
    times = {name: {side: [] for side in SIDES} for name in args.only}
    for r in range(args.rounds):
        for name in args.only:
            calls = 1 if name == "train" else args.calls
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[name][side].append(time_block(fns[side][name], calls))

    print(f"python {platform.python_version()}, numpy {np.__version__}; loss {args.loss}, "
          f"baseline {args.baseline}, K={args.runs}, step {STEP}; {args.rounds} rounds of "
          f"{args.calls} calls (train: 1 call of {TRAIN_EPOCHS} epochs)")
    print(f"{'call':<22}{'parent µs':>12}{'change µs':>12}{'ratio':>8}{'won parent/change':>20}")
    for name, t in times.items():
        med = {side: statistics.median(t[side]) for side in SIDES}
        won = sum(c < p for p, c in zip(t["parent"], t["change"]))
        lost = sum(c > p for p, c in zip(t["parent"], t["change"]))
        print(f"{name:<22}{med['parent']:>12.2f}{med['change']:>12.2f}"
              f"{med['change'] / med['parent']:>8.3f}{f'{lost}/{won}':>20}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
