"""Digest the outputs of a fixed set of small ``qll`` runs.

    python3 tools/output_digests.py --out DIR > digests.txt

Runs, in this process and with ``DIR`` as the working directory, ``qll
generate`` for Mixup and PatchMix (600 examples each), once plain and
once with ``--reject-degenerate`` (whose redraw loop the plain runs
never enter); ``qll generate`` for PatchMix with m=3 (three Floyd draws
and four block draws in [0, 3) per example), for Mixup m=3 on a base of
exactly 3 examples (Floyd's first draw has bound 1, and every pick set
is the whole base), for Mixup and PatchMix with m=3 and
``--reject-degenerate`` (redraw rounds whose 7-word attempts straddle
Philox's 4-word blocks), and for Mixup m=2 r=64 (an attempt of 66 words
whose counts sum 64 draws); ``qll train`` for all seven methods with the
MLP and for cpu-sjs, cpu-kl and ce with the linear model (8 epochs
each), then ``qll report`` over those runs, then ``qll train`` for
cpu-sjs and cpu-kl with the MLP and ``--u-mode full`` (the report comes
first, as it refuses a cell whose runs differ in u_mode); one config
``qll sweep`` of ce and cpu-sjs over 3 seeds x 3 pi2 values (6 epochs),
and ``qll report`` over its runs; one config ``qll sweep`` of ce and
cpu-kl on the clean base (``"mix": {}``, no ambiguous set) over 2 seeds
(2 epochs), and ``qll report`` over its runs, whose cells read dataset
``clean``; for cpu-kl and cpu-sjs one ``qll sweep`` of the PatchMix
files with the linear model and ``--u-mode full`` over 2 seeds x 2 pi1 x
2 pi2 values (4 epochs), whose runs of one seed share one train file and
one batch stream; one ``qll train --method gce --gce-q 0.3`` with the
MLP into ``gce-q0.3/``, outside ``runs/``, whose run.json records a loss
parameter off its default; one ``qll train --method ce`` on the Mixup
set's clean base file (``base_train.qll``, header m=0) into
``clean-ce/``; and a one-run ``qll sweep`` (cpu-kl, seed 1, pi2 0.5)
into ``one-run/sweep/`` next to the matching ``qll train`` into
``one-run/train/``, whose run files read the same; and for bs and js one
``qll sweep`` of the Mixup files over 3 seeds (4 epochs), three stacked
runs whose label entries lie at per-run offsets in each batch's logits,
8 rows apart in the final batch of 8; and one config ``qll sweep`` of
ce, gce and cpu-kl over 2 seeds x 2 pi2 values (4 epochs) into
``sweep-lanes/``, which on two or more usable cores trains cpu-kl (4
runs) in this process and ce and gce (2 runs each) in one forked child,
and whose bytes do not depend on that split. Then prints one ``sha256
path`` line, sorted by path, for every ``.qll``, ``metrics.csv``,
``model.ckpt``, ``run.json``, ``sweep_table.csv`` and (report)
``table.csv`` under ``DIR``. The commands' own output goes to standard
error.

Every path the commands see is relative to ``DIR``, so the lines do not
depend on where ``DIR`` is. Run the script at two commits of one
environment, each into an empty directory, and diff the two outputs: a
change that keeps every output byte-identical prints the same lines.
Bytes hold only within one environment (Python, numpy and BLAS build), so
the digests are not compared across machines, and this is not a test.

The ``qll`` package is imported from ``src/`` of the checkout that holds
this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qll import cli  # noqa: E402

HASHED = (".qll", "metrics.csv", "model.ckpt", "run.json", "sweep_table.csv", "table.csv")
METHODS = ("cpu-sjs", "cpu-kl", "ce", "bs", "gce", "sce", "js")
LINEAR_METHODS = ("cpu-sjs", "cpu-kl", "ce")
FULL_U_METHODS = ("cpu-sjs", "cpu-kl")
DATA = ("--c", "4", "--d", "8", "--n-per-class", "150", "--m", "2", "--r", "4", "--n", "600")
SWEEP = {
    "base": {"c": 4, "d": 8, "n_per_class": 150},
    "mix": {"kind": "mixup", "m": 2, "r": 4, "n_out": 600},
    "train": {"epochs": 6, "batch_size": 16, "pi1": 0.1},
    "methods": ["ce", "cpu-sjs"],
    "seeds": [1, 2, 3],
    "pi2_grid": [0.25, 0.5, 0.75],
    "out": "sweep",
}
CLEAN_SWEEP = {
    "base": {"c": 4, "d": 8, "n_per_class": 150},
    "mix": {},
    "train": {"epochs": 2, "batch_size": 16, "pi1": 0.1},
    "methods": ["ce", "cpu-kl"],
    "seeds": [1, 2],
    "pi2_grid": [0.5],  # pi2 auto is m/c, which a clean base has not
    "out": "sweep-clean",
}
LANES_SWEEP = {
    **SWEEP,
    "train": {"epochs": 4, "batch_size": 16, "pi1": 0.1},
    "methods": ["ce", "gce", "cpu-kl"],
    "seeds": [1, 2],
    "pi2_grid": [0.3, 0.6],
    "out": "sweep-lanes",
}


def calls() -> list[list[str]]:
    """Every qll argv, in run order; paths are relative to the output directory."""
    argvs = [["generate", *DATA, "--mix", mix, *reject, "--seed", "7",
              "--out", f"data-{mix}" + ("-reject" if reject else "")]
             for mix in ("mixup", "patchmix") for reject in ((), ("--reject-degenerate",))]
    argvs.append(["generate", *DATA[:6], "--m", "3", "--r", "4", "--n", "600", "--mix", "patchmix",
                  "--seed", "7", "--out", "data-patchmix-m3"])
    argvs.append(["generate", "--c", "3", "--d", "8", "--n-per-class", "1", "--m", "3", "--r", "4",
                  "--n", "200", "--mix", "mixup", "--seed", "7", "--out", "data-base-of-m"])
    argvs += [["generate", *DATA[:6], "--m", "3", "--r", "4", "--n", "600", "--mix", mix,
               "--reject-degenerate", "--seed", "7", "--out", f"data-{mix}-m3-reject"]
              for mix in ("mixup", "patchmix")]
    argvs.append(["generate", *DATA[:6], "--m", "2", "--r", "64", "--n", "600", "--mix", "mixup",
                  "--seed", "7", "--out", "data-mixup-r64"])

    def train(data: str, method: str, model: str, u_mode: str = "complement") -> list[str]:
        full = ["--u-mode", "full"] if u_mode == "full" else []
        return ["train", "--data", f"{data}/ambig_train.qll", "--test", f"{data}/base_test.qll",
                "--method", method, "--model", model, *full, "--epochs", "8", "--seed", "1",
                "--out", f"runs/{model}-{method}" + ("-full" if full else "")]

    argvs += [train("data-mixup", m, "mlp") for m in METHODS]
    argvs += [train("data-patchmix", m, "linear") for m in LINEAR_METHODS]
    # Before the u-mode full runs join runs/: a cpu-sjs or cpu-kl cell would
    # then hold runs that differ in u_mode, which qll report refuses.
    argvs.append(["report", "--runs", "runs"])
    argvs += [train("data-mixup", m, "mlp", "full") for m in FULL_U_METHODS]
    argvs.append(["sweep", "--config", "sweep.json"])
    argvs.append(["report", "--runs", "sweep/runs"])
    argvs.append(["sweep", "--config", "sweep-clean.json"])
    argvs.append(["report", "--runs", "sweep-clean/runs"])
    argvs += [["sweep", "--data", "data-patchmix/ambig_train.qll", "--test", "data-patchmix/base_test.qll",
               "--method", m, "--model", "linear", "--u-mode", "full", "--pi1-grid", "0.1,0.3",
               "--pi2-grid", "0.25,auto", "--seeds", "1,2", "--epochs", "4", "--out", f"sweep-{m}"]
              for m in FULL_U_METHODS]
    argvs.append([*train("data-mixup", "gce", "mlp")[:-2], "--gce-q", "0.3", "--out", "gce-q0.3"])
    argvs.append(["train", "--data", "data-mixup/base_train.qll", "--test", "data-mixup/base_test.qll",
                  "--method", "ce", "--epochs", "8", "--seed", "1", "--out", "clean-ce"])
    argvs.append(["sweep", "--data", "data-mixup/ambig_train.qll", "--test", "data-mixup/base_test.qll",
                  "--method", "cpu-kl", "--seeds", "1", "--pi2-grid", "0.5", "--epochs", "8",
                  "--out", "one-run/sweep"])
    argvs.append([*train("data-mixup", "cpu-kl", "mlp")[:-2], "--pi2", "0.5", "--out", "one-run/train"])
    argvs += [["sweep", "--data", "data-mixup/ambig_train.qll", "--test", "data-mixup/base_test.qll",
               "--method", m, "--seeds", "1,2,3", "--epochs", "4", "--out", f"sweep-{m}"]
              for m in ("bs", "js")]
    argvs.append(["sweep", "--config", "sweep-lanes.json"])
    return argvs


def digests(root: Path) -> list[str]:
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name.endswith(HASHED)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="an empty or new directory for the runs")
    out = Path(parser.parse_args(argv).out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    for name, config in (("sweep", SWEEP), ("sweep-clean", CLEAN_SWEEP), ("sweep-lanes", LANES_SWEEP)):
        (out / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")

    cwd = Path.cwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for argv_ in calls():
                if cli.main(argv_) != 0:
                    print(f"error: qll {' '.join(argv_)} failed", file=sys.stderr)
                    return 1
    finally:
        os.chdir(cwd)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
