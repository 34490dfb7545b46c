"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop with one caller: each ``qll`` command is a
call to ``qll.cli.main(argv)`` in this process and waits for the previous
one. Inputs are a pure function of the workload seed. A workload has a
set-up (building its inputs) and a pass (the timed CLI calls); a run repeats
the pass on the same inputs, so every pass must write the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qll.dataio import load_dataset, save_dataset
from qll.models import load_model
from qll.training import METRICS_HEADER

# The acceptance experiment's shape: c=4, d=8, Mixup m=2 r=4, 2000 ambiguous
# train and 1000 clean test examples, MLP h=32, batch 16, 60 epochs.
C, D, M, R = 4, 8, 2, 4
N_PER_CLASS = 250
N_AMBIG = 2000
BATCH = 16
EPOCHS = 60
HIDDEN = 32

# Datagen must dominate `generate`; its short trains prove the files feed
# `qll train` and give the workload its accuracies. Four epochs, not two:
# `last5_acc_mean` over two epochs spread 0.058 over ten seeds.
GEN_N = 6000
GEN_TRAIN_EPOCHS = 4
# `sweep`: three seeds per pass, so that one collapsed cpu-sjs run (pi2 =
# 0.75 collapses on about half of all seeds) moves the mean accuracy less,
# and 20 epochs keep one pass near 15 s.
SWEEP_SEEDS = 3
SWEEP_EPOCHS = 20
SWEEP_PI2 = (0.25, 0.5, 0.75)
SWEEP_METHODS = ("ce", "cpu-sjs")

HASHED = (".qll", "metrics.csv", "sweep_table.csv")


class CheckError(Exception):
    """An output failed a check."""


@dataclass
class Call:
    """One CLI call. Its outputs go to ``out`` (a directory)."""

    name: str
    argv: list[str]
    kind: str  # "generate" | "train" | "sweep"
    out: Path
    steps: int = 0  # SGD steps the call runs
    examples: int = 0  # ambiguous examples the call writes
    expect: dict = field(default_factory=dict)


def steps_for(n: int, epochs: int, runs: int = 1) -> int:
    return math.ceil(n / BATCH) * epochs * runs


def generate_call(name: str, out: Path, seed: int, mix: str = "mixup", n: int = N_AMBIG,
                  reject: bool = False) -> Call:
    argv = ["generate", "--c", str(C), "--d", str(D), "--n-per-class", str(N_PER_CLASS),
            "--mix", mix, "--m", str(M), "--r", str(R), "--n", str(n), "--seed", str(seed),
            "--out", str(out)]
    if reject:
        argv.append("--reject-degenerate")
    return Call(name, argv, "generate", out, examples=n, expect={"n": n, "reject": reject})


def train_call(name: str, out: Path, data_dir: Path, method: str, seed: int,
               epochs: int = EPOCHS, n: int = N_AMBIG) -> Call:
    argv = ["train", "--data", str(data_dir / "ambig_train.qll"),
            "--test", str(data_dir / "base_test.qll"), "--method", method, "--pi2", "auto",
            "--epochs", str(epochs), "--batch-size", str(BATCH), "--hidden", str(HIDDEN),
            "--seed", str(seed), "--out", str(out)]
    return Call(name, argv, "train", out, steps=steps_for(n, epochs), expect={"epochs": epochs})


def sweep_seeds(seed: int) -> list[int]:
    return [seed + i for i in range(SWEEP_SEEDS)]


def sweep_config(seed: int, out: Path) -> dict:
    return {
        "base": {"c": C, "d": D, "n_per_class": N_PER_CLASS},
        "mix": {"kind": "mixup", "m": M, "r": R, "n_out": N_AMBIG},
        "train": {"epochs": SWEEP_EPOCHS, "batch_size": BATCH, "hidden": HIDDEN, "pi1": 0.1},
        "methods": list(SWEEP_METHODS),
        "seeds": sweep_seeds(seed),
        "pi2_grid": list(SWEEP_PI2),
        "out": str(out),
    }


# -- workloads -------------------------------------------------------------


class Workload:
    name = ""
    why = ""

    def setup_calls(self, inputs: Path, seed: int) -> list[Call]:
        """CLI calls that build the inputs (run during set-up)."""
        return []

    def pass_calls(self, inputs: Path, out: Path, seed: int) -> list[Call]:
        raise NotImplementedError


class _TrainWorkload(Workload):
    methods: tuple[str, ...] = ()

    def setup_calls(self, inputs, seed):
        return [generate_call("data", inputs / "data", seed)]

    def pass_calls(self, inputs, out, seed):
        return [train_call(f"train-{m}", out / f"train-{m}", inputs / "data", m, seed)
                for m in self.methods]


class PuTrain(_TrainWorkload):
    name = "pu-train"
    why = "the paper's method: qll train with cpu-sjs then cpu-kl; the risk layer dominates"
    methods = ("cpu-sjs", "cpu-kl")


class BaselineTrain(_TrainWorkload):
    name = "baseline-train"
    why = "qll train with ce, bs, gce, sce and js; the risk layer is never called"
    methods = ("ce", "bs", "gce", "sce", "js")


class Sweep(Workload):
    name = "sweep"
    why = "qll sweep --config: per-seed generation, then ce and cpu-sjs over a pi2 grid"

    def setup_calls(self, inputs, seed):
        # Reference data: the sweep must write these same bytes per seed.
        return [generate_call(f"ref-seed{s}", inputs / f"seed{s}", s) for s in sweep_seeds(seed)]

    def pass_calls(self, inputs, out, seed):
        sweep_dir = out / "sweep"
        sweep_dir.mkdir(parents=True, exist_ok=True)
        config = sweep_dir / "experiment.json"
        config.write_text(json.dumps(sweep_config(seed, sweep_dir), indent=2) + "\n")
        seeds = sweep_seeds(seed)
        runs = len(seeds) * (1 + len(SWEEP_PI2))
        return [Call("sweep", ["sweep", "--config", str(config)], "sweep", sweep_dir,
                     steps=steps_for(N_AMBIG, SWEEP_EPOCHS, runs), examples=N_AMBIG * len(seeds),
                     expect={"seeds": seeds, "inputs": inputs})]


class Generate(Workload):
    name = "generate"
    why = "qll generate for Mixup, PatchMix and rejecting Mixup at large n; datagen dominates"

    def pass_calls(self, inputs, out, seed):
        gens = [
            generate_call("gen-mixup", out / "gen-mixup", seed, "mixup", GEN_N),
            generate_call("gen-patchmix", out / "gen-patchmix", seed, "patchmix", GEN_N),
            generate_call("gen-reject", out / "gen-reject", seed, "mixup", GEN_N, reject=True),
        ]
        trains = [train_call(f"train-{g.name}", out / f"train-{g.name}", g.out, "ce", seed,
                             GEN_TRAIN_EPOCHS, GEN_N) for g in gens]
        return gens + trains


WORKLOADS = {w.name: w for w in (PuTrain(), BaselineTrain(), Sweep(), Generate())}


# -- output checks ---------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_outputs(root: Path) -> dict[str, str]:
    """sha256 of every dataset, metrics.csv and sweep_table.csv under root."""
    return {
        str(p.relative_to(root)): sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name.endswith(HASHED)
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_dataset(path: Path, n: int, ambiguous: bool, reject: bool = False) -> None:
    """Invariants of a written dataset, and a byte-exact round trip."""
    ds = load_dataset(path)
    _require((ds.class_count, ds.feature_dim, ds.n_examples) == (C, D, n),
             f"{path}: shape {(ds.class_count, ds.feature_dim, ds.n_examples)}")
    _require(bool(np.all((ds.labels >= 0) & (ds.labels < C))), f"{path}: label out of range")
    soft = ds.diagnostics.astype(np.float64)
    _require(bool(np.allclose(soft.sum(axis=1), 1.0, atol=1e-5)), f"{path}: soft labels do not sum to 1")
    _require(bool(np.all(soft[np.arange(n), ds.labels] > 0.0)),
             f"{path}: a label has zero soft-label mass")
    if ambiguous and reject:
        _require(bool(np.all(soft.max(axis=1) < 1.0)), f"{path}: one-hot row despite rejection")
    copy = path.with_name(path.name + ".roundtrip")
    try:
        save_dataset(ds, copy, sidecar=False)
        _require(copy.read_bytes() == path.read_bytes(), f"{path}: load/save round trip changed bytes")
    finally:
        copy.unlink(missing_ok=True)


def check_generate(call: Call) -> None:
    check_dataset(call.out / "base_train.qll", C * N_PER_CLASS, ambiguous=False)
    check_dataset(call.out / "base_test.qll", C * N_PER_CLASS, ambiguous=False)
    check_dataset(call.out / "ambig_train.qll", call.expect["n"], True, call.expect["reject"])


def check_run(run_dir: Path, epochs: int) -> dict:
    """metrics.csv, run.json and model.ckpt of one training run agree."""
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    _require(lines[0] == METRICS_HEADER, f"{run_dir}: metrics.csv header {lines[0]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _require([int(r[0]) for r in rows] == list(range(1, epochs + 1)), f"{run_dir}: epoch column")
    accs = [r[2] for r in rows]
    _require(all(math.isfinite(r[1]) for r in rows), f"{run_dir}: non-finite objective")
    _require(all(0.0 <= a <= 1.0 for a in accs), f"{run_dir}: accuracy outside [0, 1]")
    record = json.loads((run_dir / "run.json").read_text())
    _require(record["best_test_accuracy"] == max(accs), f"{run_dir}: best accuracy disagrees")
    _require(record["last5_avg_accuracy"] == float(np.mean(accs[-5:])),
             f"{run_dir}: last-5 accuracy disagrees")
    model = load_model(run_dir / "model.ckpt")
    _require(model.class_count == C and model.feature_dim == D, f"{run_dir}: checkpoint shape")
    _require(all(np.all(np.isfinite(p)) for p in model.params().values()),
             f"{run_dir}: non-finite checkpoint")
    return record


def check_sweep(call: Call) -> tuple[list[dict], float]:
    """Every run, the table and the per-seed data; returns (runs, prior margin)."""
    out, seeds = call.out, call.expect["seeds"]
    for s in seeds:
        data = out / "data" / f"seed{s}"
        ref = call.expect["inputs"] / f"seed{s}"
        for f in ("base_train.qll", "base_test.qll", "ambig_train.qll"):
            _require(sha256(data / f) == sha256(ref / f), f"{data / f}: differs from qll generate")
    records = [check_run(p.parent, SWEEP_EPOCHS) for p in sorted((out / "runs").glob("*/run.json"))]
    groups: dict[tuple, dict[int, float]] = {}
    for rec in records:
        groups.setdefault((rec["method"], rec["pi1"], rec["pi2"]), {})[rec["seed"]] = rec["best_test_accuracy"]
    _require(len(groups) == 1 + len(SWEEP_PI2), f"{out}: {len(groups)} method/prior cells")
    means = {}
    for key, by_seed in groups.items():
        _require(sorted(by_seed) == sorted(seeds), f"{out}: cell {key} misses seeds")
        means[key] = float(np.mean([by_seed[s] for s in seeds]))
    table = (out / "sweep_table.csv").read_text().splitlines()
    _require(table[0] == "method,pi1,pi2,mean_best_accuracy,std_best_accuracy,n_seeds",
             f"{out}: sweep_table.csv header")
    for line in table[1:-1]:
        method, p1, p2, mean, _, n = line.split(",")
        key = (method, float(p1) if p1 else None, float(p2) if p2 else None)
        _require(key in means and float(mean) == means[key] and int(n) == len(seeds),
                 f"{out}: table row {line!r} disagrees with its runs")
    _require(len(table) == len(means) + 2, f"{out}: sweep_table.csv row count")
    ce = means[("ce", None, None)]
    margin = min(v - ce for (m, _, _), v in means.items() if m == "cpu-sjs")
    return records, margin


def check_call(call: Call) -> dict:
    """Run the checks for a call; returns what the metrics need from it."""
    if call.kind == "generate":
        check_generate(call)
        return {"runs": []}
    if call.kind == "train":
        return {"runs": [check_run(call.out, call.expect["epochs"])]}
    records, margin = check_sweep(call)
    return {"runs": records, "prior_margin": margin}
