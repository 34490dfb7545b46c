"""Command-line entry point.

Subcommands:

    generate   synthesize a clean base (train/test) and an ambiguous,
               quantized-label training set; write them as QLL1 files
    train      run one method on a generated dataset; write metrics,
               checkpoint, and a run record
    sweep      train over a grid of class priors x seeds; tabulate
    report     aggregate completed runs into a results table

Every command that takes ``--seed`` is bitwise reproducible, and all file
writes are atomic. The environment variable ``QLL_OUT`` overrides the
default output root. Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import STREAM_DATAGEN, AmbiguousDataset, ClassPriors, RngStream
from .dataio import atomic_write_text, load_dataset, save_dataset
from .datagen import BaseSpec, MixSpec, generate_ambiguous_dataset, synth_base
from .losses import BinaryLossKind, MulticlassLossKind
from .models import save_model
from .training import TrainConfig, train, train_runs, write_metrics

__all__ = ["main", "METHODS", "ExperimentConfig", "build_loss"]

METHODS = ("ce", "bs", "gce", "sce", "js", "cpu-sjs", "cpu-kl")
CPU_METHODS = ("cpu-sjs", "cpu-kl")

_DEFAULT_METHOD_PARAMS = {
    "bs_beta": 0.4,
    "gce_q": 0.7,
    "sce_a": 0.1,
    "sce_b": 1.0,
    "js_pi1": 0.1,
    "js_scaled": True,
}


class UsageError(Exception):
    pass


def _out_root() -> Path:
    return Path(os.environ.get("QLL_OUT", "qll-out"))


def build_loss(method: str, params: dict | None = None):
    """Map a method name to its loss kind."""
    p = dict(_DEFAULT_METHOD_PARAMS)
    p.update(params or {})
    if method == "ce":
        return MulticlassLossKind.ce()
    if method == "bs":
        return MulticlassLossKind.bootstrap(p["bs_beta"])
    if method == "gce":
        return MulticlassLossKind.gce(p["gce_q"])
    if method == "sce":
        return MulticlassLossKind.sce(p["sce_a"], p["sce_b"])
    if method == "js":
        return MulticlassLossKind.js_pi(p["js_pi1"], p["js_scaled"])
    if method == "cpu-sjs":
        return BinaryLossKind.scaled_sjs()
    if method == "cpu-kl":
        return BinaryLossKind.kl()
    raise ValueError(f"unknown method {method!r}; known: {', '.join(METHODS)}")


def resolve_pi2(spec: str | float, dataset: AmbiguousDataset) -> float:
    """'auto' means m/c from the dataset's generation record."""
    if isinstance(spec, str) and spec.strip().lower() == "auto":
        m = dataset.gen_meta.m
        if m < 1:
            raise ValueError("--pi2 auto needs a mixed dataset (its record has m >= 1)")
        return m / dataset.class_count
    return float(spec)


def dataset_tag(ds: AmbiguousDataset) -> str:
    meta = ds.gen_meta
    if meta.kind == "none":
        return "clean"
    return f"{meta.kind}-m{meta.m}-r{meta.r}"


@dataclass
class ExperimentConfig:
    """Structured experiment description loaded from a JSON file."""

    base: dict
    mix: dict
    train: dict = field(default_factory=dict)
    methods: list[str] = field(default_factory=lambda: ["cpu-sjs"])
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    out: str | None = None
    pi1_grid: list[float] | None = None
    pi2_grid: list | None = None  # floats or "auto"

    def __post_init__(self) -> None:
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} in config; known: {', '.join(METHODS)}")
        if not self.seeds:
            raise ValueError("config needs a nonempty seed list")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {"base", "mix", "train", "methods", "seeds", "out", "pi1_grid", "pi2_grid"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "base" not in raw or "mix" not in raw:
            raise ValueError("config needs 'base' and 'mix' sections")
        return cls(**raw)


def _entropy_summary(diag: np.ndarray) -> tuple[float, float, float]:
    p = diag.astype(np.float64)
    p = p / p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    ent = -terms.sum(axis=1)
    return float(ent.mean()), float(ent.min()), float(ent.max())


def _generate_datasets(
    base_kw: dict, mix_kw: dict, seed: int, out_dir: Path
) -> tuple[Path, Path, Path | None]:
    """Shared by cmd_generate and config-driven sweeps."""
    spec = BaseSpec(
        c=int(base_kw["c"]),
        d=int(base_kw["d"]),
        n_per_class=int(base_kw.get("n_per_class", 250)),
        separation=float(base_kw.get("separation", 6.0)),
        noise_sigma=float(base_kw.get("noise_sigma", 1.0)),
    )
    test_spec = BaseSpec(
        c=spec.c,
        d=spec.d,
        n_per_class=int(base_kw.get("test_n_per_class", spec.n_per_class)),
        separation=spec.separation,
        noise_sigma=spec.noise_sigma,
    )
    root = RngStream(seed, STREAM_DATAGEN)
    base_train = synth_base(spec, root.substream(0))
    base_test = synth_base(test_spec, root.substream(1))

    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = save_dataset(base_train, out_dir / "base_train.qll")
    test_path = save_dataset(base_test, out_dir / "base_test.qll")

    ambig_path = None
    if mix_kw.get("kind", "none") != "none":
        mspec = MixSpec(
            kind=mix_kw["kind"],
            m=int(mix_kw.get("m", 2)),
            r=int(mix_kw.get("r", 4)),
            reject_degenerate=bool(mix_kw.get("reject_degenerate", False)),
        )
        n_out = int(mix_kw.get("n_out", 2000))
        ambig = generate_ambiguous_dataset(base_train, mspec, n_out, root.substream(2))
        ambig_path = save_dataset(ambig, out_dir / "ambig_train.qll")
        mean_e, min_e, max_e = _entropy_summary(ambig.diagnostics)
    else:
        mean_e, min_e, max_e = _entropy_summary(base_train.diagnostics)
    print(f"diagnostic entropy: mean={mean_e:.4f} min={min_e:.4f} max={max_e:.4f}")
    return train_path, test_path, ambig_path


def cmd_generate(args) -> int:
    base_kw = {
        "c": args.c,
        "d": args.d,
        "n_per_class": args.n_per_class,
        "test_n_per_class": args.test_n_per_class or args.n_per_class,
        "separation": args.separation,
        "noise_sigma": args.noise_sigma,
    }
    mix_kw = {
        "kind": args.mix,
        "m": args.m,
        "r": args.r,
        "n_out": args.n,
        "reject_degenerate": args.reject_degenerate,
    }
    out_dir = Path(args.out) if args.out else _out_root() / "data"
    paths = _generate_datasets(base_kw, mix_kw, args.seed, out_dir)
    for p in paths:
        if p is not None:
            print(f"wrote {p}")
    return 0


def _train_config(
    method: str, pi1: float, pi2_spec, train_kw: dict, seed: int, train_ds: AmbiguousDataset
) -> TrainConfig:
    priors = None
    if method in CPU_METHODS:
        priors = ClassPriors(pi1, resolve_pi2(pi2_spec, train_ds))
    return TrainConfig(
        epochs=int(train_kw.get("epochs", 60)),
        loss=build_loss(method, train_kw.get("method_params")),
        priors=priors,
        batch_size=int(train_kw.get("batch_size", 16)),
        lr=float(train_kw.get("lr", 0.1)),
        momentum=float(train_kw.get("momentum", 0.9)),
        weight_decay=float(train_kw.get("weight_decay", 1e-4)),
        seed=seed,
        model_kind=train_kw.get("model", "mlp"),
        hidden_dim=int(train_kw.get("hidden", 32)),
        u_mode=train_kw.get("u_mode", "complement"),
    )


def _write_run(
    run_dir: Path,
    method: str,
    cfg: TrainConfig,
    report,
    train_ds: AmbiguousDataset,
    data_path: Path,
    test_path: Path,
) -> dict:
    """Write metrics.csv, model.ckpt and run.json; returns the run record."""
    run_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(report, run_dir / "metrics.csv")
    save_model(report.final_model, run_dir / "model.ckpt")
    record = {
        "method": method,
        "dataset": dataset_tag(train_ds),
        "data": str(data_path),
        "test_data": str(test_path),
        "seed": cfg.seed,
        "pi1": cfg.priors.pi1 if cfg.priors else None,
        "pi2": cfg.priors.pi2 if cfg.priors else None,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "lr": cfg.lr,
        "model": cfg.model_kind,
        "hidden": cfg.hidden_dim,
        "u_mode": cfg.u_mode,
        "best_test_accuracy": report.best_test_accuracy,
        "last5_avg_accuracy": report.last5_avg_accuracy,
    }
    atomic_write_text(run_dir / "run.json", json.dumps(record, sort_keys=True, indent=2) + "\n")
    return record


def _train_kw_from_args(args) -> dict:
    return {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "momentum": args.momentum,
        "weight_decay": args.weight_decay,
        "model": args.model,
        "hidden": args.hidden,
        "u_mode": args.u_mode,
        "method_params": {
            "bs_beta": args.bs_beta,
            "gce_q": args.gce_q,
            "sce_a": args.sce_a,
            "sce_b": args.sce_b,
            "js_pi1": args.js_pi1,
            "js_scaled": not args.js_unscaled,
        },
    }


def cmd_train(args) -> int:
    run_dir = Path(args.out) if args.out else _out_root() / "runs" / f"{args.method}-seed{args.seed}"
    data_path, test_path = Path(args.data), Path(args.test)
    train_ds = load_dataset(data_path)
    test_ds = load_dataset(test_path)
    cfg = _train_config(args.method, args.pi1, args.pi2, _train_kw_from_args(args), args.seed, train_ds)
    report = train(train_ds, test_ds, cfg)
    record = _write_run(run_dir, args.method, cfg, report, train_ds, data_path, test_path)
    print(
        f"{record['method']} seed={record['seed']} "
        f"best_test_accuracy={record['best_test_accuracy']:.4f} -> {run_dir}"
    )
    return 0


def _fmt_cell(accs: list[float]) -> str:
    mean = float(np.mean(accs))
    if len(accs) >= 2:
        return f"{mean:.4f} ± {np.std(accs, ddof=1):.4f}"
    return f"{mean:.4f} ± n/a"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([line(headers)] + [line(r) for r in rows]) + "\n"


def _parse_grid(text: str | None, fallback) -> list:
    if text is None:
        return [fallback]
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        out.append("auto" if tok.lower() == "auto" else float(tok))
    if not out:
        raise ValueError("empty grid")
    return out


def cmd_sweep(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        out_dir = Path(cfg.out) if cfg.out else _out_root() / "sweep"
        methods = cfg.methods
        seeds = [int(s) for s in cfg.seeds]
        train_kw = dict(cfg.train)
        pi1_grid = cfg.pi1_grid or [float(train_kw.get("pi1", 0.1))]
        pi2_grid = cfg.pi2_grid or [train_kw.get("pi2", "auto")]
        data_by_seed = {}
        for seed in seeds:
            _, test_path, ambig_path = _generate_datasets(
                cfg.base, cfg.mix, seed, out_dir / "data" / f"seed{seed}"
            )
            data_by_seed[seed] = (ambig_path or (out_dir / "data" / f"seed{seed}" / "base_train.qll"), test_path)
    else:
        if not (args.data and args.test):
            raise UsageError("sweep needs --data and --test (or --config)")
        out_dir = Path(args.out) if args.out else _out_root() / "sweep"
        methods = [args.method]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not seeds:
            raise UsageError("empty --seeds")
        train_kw = _train_kw_from_args(args)
        pi1_grid = _parse_grid(args.pi1_grid, args.pi1)
        pi2_grid = _parse_grid(args.pi2_grid, args.pi2)
        data_by_seed = {seed: (Path(args.data), Path(args.test)) for seed in seeds}

    # Each file is read once. Seeds whose train sets share a shape form one
    # group, and each method trains a group's seeds x prior grid as one
    # stacked run (in practice every seed has the same shape: one group).
    paths = dict.fromkeys(p for pair in data_by_seed.values() for p in pair)
    loaded = {path: load_dataset(path) for path in paths}
    groups: dict[tuple, list[int]] = {}
    for seed in seeds:
        ds = loaded[data_by_seed[seed][0]]
        groups.setdefault((ds.class_count, ds.feature_dim, ds.n_examples), []).append(seed)

    rows = []
    for method in methods:
        grid = [(p1, p2) for p1 in pi1_grid for p2 in pi2_grid] if method in CPU_METHODS else [(None, None)]
        best = {}  # (seed, grid index) -> best test accuracy
        for group in groups.values():
            members = [(seed, j, p1, p2) for seed in group for j, (p1, p2) in enumerate(grid)]
            trains = [loaded[data_by_seed[seed][0]] for seed, *_ in members]
            tests = [loaded[data_by_seed[seed][1]] for seed, *_ in members]
            cfgs = [
                _train_config(
                    method, p1 if p1 is not None else 0.1, p2 if p2 is not None else "auto",
                    train_kw, seed, train_ds,
                )
                for (seed, _, p1, p2), train_ds in zip(members, trains)
            ]
            reports = train_runs(trains, tests, cfgs)
            for (seed, j, p1, p2), run_cfg, report, train_ds in zip(members, cfgs, reports, trains):
                tag = f"{method}" + (f"-pi1_{p1}-pi2_{p2}" if p1 is not None else "")
                data_path, test_path = data_by_seed[seed]
                record = _write_run(
                    out_dir / "runs" / f"{tag}-seed{seed}", method, run_cfg, report,
                    train_ds, data_path, test_path,
                )
                best[seed, j] = record["best_test_accuracy"]
        rows += [(method, p1, p2, [best[seed, j] for seed in seeds]) for j, (p1, p2) in enumerate(grid)]

    headers = ["method", "pi1", "pi2", "best_test_accuracy", "n_seeds"]
    table_rows = []
    csv_lines = ["method,pi1,pi2,mean_best_accuracy,std_best_accuracy,n_seeds"]
    means = []
    for method, p1, p2, accs in rows:
        mean = float(np.mean(accs))
        std = float(np.std(accs, ddof=1)) if len(accs) >= 2 else None
        means.append(mean)
        table_rows.append(
            [method, "-" if p1 is None else f"{p1}", "-" if p2 is None else f"{p2}", _fmt_cell(accs), str(len(accs))]
        )
        csv_lines.append(
            f"{method},{'' if p1 is None else p1},{'' if p2 is None else p2},"
            f"{mean!r},{'' if std is None else repr(std)},{len(accs)}"
        )
    spread = max(means) - min(means) if means else 0.0
    text = _render_table(headers, table_rows) + f"spread (max-min of means) = {spread:.4f}\n"
    atomic_write_text(out_dir / "sweep_table.txt", text)
    atomic_write_text(out_dir / "sweep_table.csv", "\n".join(csv_lines) + f"\nspread,{spread!r}\n")
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    root = Path(args.runs)
    records = []
    for path in sorted(root.rglob("run.json")):
        with open(path, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise RuntimeError(f"no completed runs found under {root}")

    by_cell: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        by_cell.setdefault((rec["method"], rec["dataset"]), []).append(rec["best_test_accuracy"])
    datasets = sorted({ds for _, ds in by_cell})
    methods = sorted({m for m, _ in by_cell})

    def row_mean(method: str) -> float:
        cells = [np.mean(by_cell[(method, ds)]) for ds in datasets if (method, ds) in by_cell]
        return float(np.mean(cells))

    methods.sort(key=row_mean)  # ascending mean, worst method first
    headers = ["method"] + datasets
    table_rows = []
    csv_lines = ["method,dataset,mean_best_accuracy,std_best_accuracy,n_seeds"]
    for m in methods:
        row = [m]
        for ds in datasets:
            accs = by_cell.get((m, ds))
            row.append(_fmt_cell(accs) if accs else "-")
            if accs:
                std = repr(float(np.std(accs, ddof=1))) if len(accs) >= 2 else ""
                csv_lines.append(f"{m},{ds},{float(np.mean(accs))!r},{std},{len(accs)}")
        table_rows.append(row)

    text = _render_table(headers, table_rows)
    out_dir = Path(args.out) if args.out else root
    atomic_write_text(out_dir / "table.txt", text)
    atomic_write_text(out_dir / "table.csv", "\n".join(csv_lines) + "\n")
    print(text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="cpu-sjs", choices=METHODS)
    p.add_argument("--pi1", type=float, default=0.1, help="positive-risk prior (CPU methods)")
    p.add_argument("--pi2", default="auto", help="negative-risk prior, a float or 'auto' (= m/c)")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--model", default="mlp", choices=("linear", "mlp"))
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--u-mode", default="complement", choices=("complement", "full"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bs-beta", type=float, default=_DEFAULT_METHOD_PARAMS["bs_beta"])
    p.add_argument("--gce-q", type=float, default=_DEFAULT_METHOD_PARAMS["gce_q"])
    p.add_argument("--sce-a", type=float, default=_DEFAULT_METHOD_PARAMS["sce_a"])
    p.add_argument("--sce-b", type=float, default=_DEFAULT_METHOD_PARAMS["sce_b"])
    p.add_argument("--js-pi1", type=float, default=_DEFAULT_METHOD_PARAMS["js_pi1"])
    p.add_argument("--js-unscaled", action="store_true")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qll", description="Quantized-label learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[], help="synthesize datasets")
    g.add_argument("--c", type=int, default=4, help="class count")
    g.add_argument("--d", type=int, default=8, help="feature dimension")
    g.add_argument("--n-per-class", type=int, default=250, help="base train examples per class")
    g.add_argument("--test-n-per-class", type=int, default=None)
    g.add_argument("--separation", type=float, default=6.0)
    g.add_argument("--noise-sigma", type=float, default=1.0)
    g.add_argument("--mix", default="mixup", choices=("none", "mixup", "patchmix"))
    g.add_argument("--m", type=int, default=2, help="instances mixed per output")
    g.add_argument("--r", type=int, default=4, help="multinomial trials / block count")
    g.add_argument("--n", type=int, default=2000, help="ambiguous examples to generate")
    g.add_argument("--reject-degenerate", action="store_true")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train one method on a dataset")
    t.add_argument("--data", required=True, help="ambiguous training set (.qll)")
    t.add_argument("--test", required=True, help="clean test set (.qll)")
    _add_train_flags(t)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sweep", help="grid of priors x seeds")
    s.add_argument("--config", default=None, help="experiment config JSON")
    s.add_argument("--data", default=None)
    s.add_argument("--test", default=None)
    s.add_argument("--pi1-grid", default=None, help="comma-separated pi1 values")
    s.add_argument("--pi2-grid", default=None, help="comma-separated pi2 values (or 'auto')")
    s.add_argument("--seeds", default="1,2,3,4,5")
    _add_train_flags(s)
    s.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="aggregate run records into a table")
    r.add_argument("--runs", required=True, help="directory scanned recursively for run.json")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args) or 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
