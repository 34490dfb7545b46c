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
import numbers
import os
import sys
from dataclasses import InitVar, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import STREAM_DATAGEN, AmbiguousDataset, ClassPriors, RngStream, entropy
from .dataio import atomic_write_text, load_dataset, save_dataset
from .datagen import MIX_KINDS, BaseSpec, MixSpec, generate_ambiguous_dataset, synth_base
from .losses import BinaryLossKind, MulticlassLossKind
from .models import MODEL_KINDS, save_model
from .risk import U_MODES
from .training import TrainConfig, train, train_runs, write_metrics

__all__ = ["main", "METHODS", "ExperimentConfig", "TrainSettings", "build_loss"]


@dataclass(frozen=True)
class TrainSettings:
    """A training run's settings but its method and seed. Each field is a
    flag of `train` and `sweep` (``--batch-size`` sets ``batch_size``) and a
    key of a sweep config's "train" section. A setting is its default here
    (TrainConfig's where it has one), replaced by the config file's value,
    replaced by a given flag."""

    pi1: float = 0.1  # positive-risk prior of the CPU methods
    pi2: str | float = "auto"  # negative-risk prior; "auto" is m/c of the train set
    epochs: int = 60
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    momentum: float = TrainConfig.momentum
    weight_decay: float = TrainConfig.weight_decay
    model: str = TrainConfig.model_kind
    hidden: int = TrainConfig.hidden_dim
    u_mode: str = TrainConfig.u_mode
    bs_beta: float = 0.4
    gce_q: float = 0.7
    sce_a: float = 0.1
    sce_b: float = 1.0
    js_pi1: float = 0.1
    js_unscaled: bool = False


_TRAIN_CHOICES = {"model": MODEL_KINDS, "u_mode": U_MODES}
# Method name -> its loss kind, given the train settings.
_LOSSES = {
    "ce": lambda s: MulticlassLossKind.ce(),
    "bs": lambda s: MulticlassLossKind.bootstrap(s.bs_beta),
    "gce": lambda s: MulticlassLossKind.gce(s.gce_q),
    "sce": lambda s: MulticlassLossKind.sce(s.sce_a, s.sce_b),
    "js": lambda s: MulticlassLossKind.js_pi(s.js_pi1, not s.js_unscaled),
    "cpu-sjs": lambda s: BinaryLossKind.scaled_sjs(),
    "cpu-kl": lambda s: BinaryLossKind.kl(),
}
METHODS = tuple(_LOSSES)
CPU_METHODS = ("cpu-sjs", "cpu-kl")


class UsageError(Exception):
    pass


def _out_root() -> Path:
    return Path(os.environ.get("QLL_OUT", "qll-out"))


def build_loss(method: str, settings: TrainSettings | None = None):
    """Map a method name to its loss kind, with its parameters from ``settings``."""
    if method not in _LOSSES:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
    return _LOSSES[method](settings or TrainSettings())


def _is_auto(spec) -> bool:
    return isinstance(spec, str) and spec.strip().lower() == "auto"


def resolve_pi2(spec: str | float, dataset: AmbiguousDataset) -> float:
    """'auto' means m/c from the dataset's generation record."""
    if _is_auto(spec):
        m = dataset.gen_meta.m
        if m < 1:
            raise ValueError("--pi2 auto needs a mixed dataset (its record has m >= 1)")
        return m / dataset.class_count
    try:
        return float(spec)
    except (TypeError, ValueError):
        raise ValueError(f"pi2 must be a number or 'auto', got {spec!r}") from None


def dataset_tag(ds: AmbiguousDataset) -> str:
    meta = ds.gen_meta
    if meta.kind == "none":
        return "clean"
    return f"{meta.kind}-m{meta.m}-r{meta.r}"


class DataSpecs(NamedTuple):  # what _generate_datasets makes from one seed
    base: BaseSpec
    test: BaseSpec
    mix: MixSpec | None  # None: no ambiguous set, train on the clean base
    n_out: int


_CASTS = {"int": int, "float": float, "bool": bool, "str": str}


def _cast(section: str, key: str, kind: str, v):
    """``v`` cast to type ``kind`` as a flag's text is; a ValueError naming
    the section and key if that changes its value (a bool is no number)."""
    try:
        if kind != "str" and isinstance(v, bool) != (kind == "bool"):
            raise ValueError
        out = _CASTS[kind](v)
        if kind == "int" and isinstance(v, numbers.Real) and out != v:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{section}: {key} must be of type {kind}, got {v!r}") from None
    return out


def _build(cls, section: str, kw: dict):
    """``cls(**kw)``, each int, float, bool or str field's value passed
    through ``_cast``; a missing or unknown key is a ValueError naming it."""
    kinds = {f.name: f.type for f in fields(cls) if f.type in _CASTS}
    try:
        return cls(**{k: _cast(section, k, kinds[k], v) if k in kinds else v for k, v in kw.items()})
    except TypeError as e:
        raise ValueError(f"{section}: {e}") from None


def _data_specs(base: dict, mix: dict) -> DataSpecs:
    """Specs from a config's ``base`` and ``mix`` sections, whose keys are
    the BaseSpec and MixSpec fields plus ``test_n_per_class`` (default:
    n_per_class) and ``n_out``. A mix of kind "none" (the default) makes no
    ambiguous set, so it rejects the mixing keys m, r and reject_degenerate.
    ``qll generate`` passes its flags under the same names."""
    base = {"n_per_class": 250, **base}
    mix = {"kind": "none", "n_out": 2000, **mix}
    test_n = base.pop("test_n_per_class", base["n_per_class"])
    n_out = _cast("mix", "n_out", "int", mix.pop("n_out"))
    spec = _build(BaseSpec, "base", base)
    test_n = _cast("base", "test_n_per_class", "int", test_n)
    unused = sorted(mix.keys() & {"m", "r", "reject_degenerate"}) if mix["kind"] == "none" else []
    if unused:
        raise ValueError(f"mix: kind 'none' mixes nothing, so {', '.join(unused)} would be ignored")
    mix_spec = None if mix["kind"] == "none" else _build(MixSpec, "mix", mix)
    return DataSpecs(spec, replace(spec, n_per_class=test_n), mix_spec, n_out)


@dataclass
class ExperimentConfig:
    """A sweep: methods x seeds x prior grid. A config file's ``base`` and
    ``mix`` sections become ``data``, the specs of the data generated for
    each seed; without them the data comes as files. The ``train`` section
    becomes ``settings``."""

    base: InitVar[dict | None] = None
    mix: InitVar[dict | None] = None
    train: InitVar[dict | None] = None
    methods: list[str] = field(default_factory=lambda: ["cpu-sjs"])
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    out: str | None = None
    pi1_grid: list[float] | None = None
    pi2_grid: list | None = None  # floats or "auto"
    settings: TrainSettings = field(init=False)
    data: DataSpecs | None = field(init=False)

    def __post_init__(self, base, mix, train) -> None:
        for key in ("methods", "seeds", "pi1_grid", "pi2_grid"):
            value = getattr(self, key)
            if not (isinstance(value, list) and value or key.endswith("_grid") and value is None):
                raise ValueError(f"config: {key} must be a nonempty list, got {value!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} in config; known: {', '.join(METHODS)}")
        self.seeds = [_cast("config", "seeds", "int", s) for s in self.seeds]
        # Checked before any data is made. Not cast: an int prior stays an
        # int, as in run directory names.
        for name, grid, also in (("pi1", self.pi1_grid, ""), ("pi2", self.pi2_grid, " or auto")):
            for p in grid or []:
                if isinstance(p, bool) or not (isinstance(p, numbers.Real) or also and _is_auto(p)):
                    raise ValueError(f"{name}_grid: {name} must be a real number{also}, got {p!r}")
        self.settings = _build(TrainSettings, "train", train or {})
        self.data = None if base is None else _data_specs(base, mix or {})

    @classmethod
    def from_file(cls, path, **flags) -> "ExperimentConfig":
        """Load a config file. ``flags`` replace its top-level values, and
        ``flags["train"]`` replaces single train settings."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if "base" not in raw or "mix" not in raw:
            raise ValueError("config needs 'base' and 'mix' sections")
        train_kw = {**raw.pop("train", {}), **flags.pop("train", {})}
        return _build(cls, "config", {**raw, **flags, "train": train_kw})


def _generate_datasets(specs: DataSpecs, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write one seed's base train and test sets and, with a mix spec, its
    ambiguous set; returns the paths of the (train, test) sets to train on."""
    root = RngStream(seed, STREAM_DATAGEN)
    base_train = synth_base(specs.base, root.substream(0))
    base_test = synth_base(specs.test, root.substream(1))

    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = save_dataset(base_train, out_dir / "base_train.qll")
    test_path = save_dataset(base_test, out_dir / "base_test.qll")
    written = [train_path, test_path]
    diagnostics = base_train.diagnostics
    if specs.mix is not None:
        ambig = generate_ambiguous_dataset(base_train, specs.mix, specs.n_out, root.substream(2))
        train_path = save_dataset(ambig, out_dir / "ambig_train.qll")
        written.append(train_path)
        diagnostics = ambig.diagnostics
    ent = entropy(diagnostics)
    print(f"diagnostic entropy: mean={ent.mean():.4f} min={ent.min():.4f} max={ent.max():.4f}")
    for path in written:
        print(f"wrote {path}")
    return train_path, test_path


def cmd_generate(args) -> int:
    flags = vars(args)  # data flags not given are absent (see build_parser)
    base_keys = ("c", "d", "n_per_class", "test_n_per_class", "separation", "noise_sigma")
    base = {k: flags[k] for k in base_keys if k in flags}
    mix = {k: flags[k] for k in ("kind", "m", "r", "n_out", "reject_degenerate") if k in flags}
    out_dir = Path(args.out) if args.out else _out_root() / "data"
    _generate_datasets(_data_specs(base, mix), args.seed, out_dir)
    return 0


def _train_config(method: str, s: TrainSettings, seed: int, train_ds: AmbiguousDataset) -> TrainConfig:
    priors = None
    if method in CPU_METHODS:
        priors = ClassPriors(s.pi1, resolve_pi2(s.pi2, train_ds))
    return TrainConfig(
        epochs=s.epochs,
        loss=build_loss(method, s),
        priors=priors,
        batch_size=s.batch_size,
        lr=s.lr,
        momentum=s.momentum,
        weight_decay=s.weight_decay,
        seed=seed,
        model_kind=s.model,
        hidden_dim=s.hidden,
        u_mode=s.u_mode,
    )


def _write_run(
    run_dir: Path,
    method: str,
    cfg: TrainConfig,
    report,
    train_ds: AmbiguousDataset,
    paths: tuple[Path, Path],
) -> dict:
    """Write metrics.csv, model.ckpt and run.json; returns the run record."""
    run_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(report, run_dir / "metrics.csv")
    save_model(report.final_model, run_dir / "model.ckpt")
    record = {
        "method": method,
        "dataset": dataset_tag(train_ds),
        "data": str(paths[0]),
        "test_data": str(paths[1]),
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


def cmd_train(args) -> int:
    run_dir = Path(args.out) if args.out else _out_root() / "runs" / f"{args.method}-seed{args.seed}"
    paths = (Path(args.data), Path(args.test))
    train_ds = load_dataset(paths[0])
    test_ds = load_dataset(paths[1])
    settings = _build(TrainSettings, "train", _train_flags(args))
    cfg = _train_config(args.method, settings, args.seed, train_ds)
    report = train(train_ds, test_ds, cfg)
    record = _write_run(run_dir, args.method, cfg, report, train_ds, paths)
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


def _csv_stats(accs: list[float]) -> str:
    """The mean, std and n_seeds cells of a csv row; std is empty for one seed."""
    std = repr(float(np.std(accs, ddof=1))) if len(accs) >= 2 else ""
    return f"{float(np.mean(accs))!r},{std},{len(accs)}"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([line(headers)] + [line(r) for r in rows]) + "\n"


def cmd_sweep(args) -> int:
    # Flags not given are absent from args; a given one replaces the config
    # file's value for its setting.
    flags = vars(args)
    over = {k: flags[k] for k in ("seeds", "out", "pi1_grid", "pi2_grid") if k in flags}
    if "method" in flags:
        over["methods"] = [flags["method"]]
    over["train"] = _train_flags(args)
    if args.config:
        if args.data or args.test:
            raise UsageError("--config cannot be combined with --data/--test")
        exp = ExperimentConfig.from_file(args.config, **over)
    elif args.data and args.test:
        exp = ExperimentConfig(**over)
    else:
        raise UsageError("sweep needs --data and --test (or --config)")
    if len(set(exp.seeds)) < len(exp.seeds):
        raise UsageError(f"duplicate seeds in {exp.seeds}")

    out_dir = Path(exp.out) if exp.out else _out_root() / "sweep"
    data_by_seed = {  # seed -> (train path, test path)
        seed: (Path(args.data), Path(args.test)) if exp.data is None
        else _generate_datasets(exp.data, seed, out_dir / "data" / f"seed{seed}")
        for seed in exp.seeds
    }

    # Each file is read once. Every seed's train set has one shape (one
    # --data file, or data made from one spec), so each method trains its
    # seeds x prior grid as one stacked run, seed-major.
    paths = dict.fromkeys(p for pair in data_by_seed.values() for p in pair)
    loaded = {path: load_dataset(path) for path in paths}

    pi1_grid = exp.pi1_grid or [exp.settings.pi1]
    pi2_grid = exp.pi2_grid or [exp.settings.pi2]
    rows = []
    for method in exp.methods:
        grid = [(p1, p2) for p1 in pi1_grid for p2 in pi2_grid] if method in CPU_METHODS else [(None, None)]
        members = [(seed, p1, p2) for seed in exp.seeds for p1, p2 in grid]
        trains = [loaded[data_by_seed[seed][0]] for seed, *_ in members]
        tests = [loaded[data_by_seed[seed][1]] for seed, *_ in members]
        cfgs = [
            _train_config(method, replace(exp.settings, pi1=p1, pi2=p2), seed, train_ds)
            for (seed, p1, p2), train_ds in zip(members, trains)
        ]
        best = []  # best test accuracy per member
        for (seed, p1, p2), run_cfg, report, train_ds in zip(members, cfgs, train_runs(trains, tests, cfgs), trains):
            tag = f"{method}" + (f"-pi1_{p1}-pi2_{p2}" if p1 is not None else "")
            record = _write_run(
                out_dir / "runs" / f"{tag}-seed{seed}", method, run_cfg, report, train_ds, data_by_seed[seed]
            )
            best.append(record["best_test_accuracy"])
        rows += [(method, p1, p2, best[j :: len(grid)]) for j, (p1, p2) in enumerate(grid)]

    headers = ["method", "pi1", "pi2", "best_test_accuracy", "n_seeds"]
    table_rows = []
    csv_lines = ["method,pi1,pi2,mean_best_accuracy,std_best_accuracy,n_seeds"]
    for method, p1, p2, accs in rows:
        priors = ["" if p is None else f"{p}" for p in (p1, p2)]
        table_rows.append([method] + [p or "-" for p in priors] + [_fmt_cell(accs), str(len(accs))])
        csv_lines.append(",".join([method, *priors, _csv_stats(accs)]))
    means = [float(np.mean(accs)) for *_, accs in rows]
    spread = max(means) - min(means) if means else 0.0
    text = _render_table(headers, table_rows) + f"spread (max-min of means) = {spread:.4f}\n"
    atomic_write_text(out_dir / "sweep_table.txt", text)
    atomic_write_text(out_dir / "sweep_table.csv", "\n".join(csv_lines) + f"\nspread,{spread!r}\n")
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    root = Path(args.runs)
    by_cell: dict[tuple[str, str], list[float]] = {}
    for path in sorted(root.rglob("run.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        by_cell.setdefault((rec["method"], rec["dataset"]), []).append(rec["best_test_accuracy"])
    if not by_cell:
        raise RuntimeError(f"no completed runs found under {root}")
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
                csv_lines.append(f"{m},{ds},{_csv_stats(accs)}")
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
    """One flag per TrainSettings field. Like every flag of a parser built
    with ``argument_default=SUPPRESS``, one not given is absent from the
    namespace."""
    for f in fields(TrainSettings):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, action="store_true")
        else:  # pi2 has no cast: it may be "auto"
            cast, choices = _CASTS.get(f.type), _TRAIN_CHOICES.get(f.name)
            p.add_argument(flag, type=cast, choices=choices, help=f"default {f.default}")


def _train_flags(args) -> dict:
    return {f.name: getattr(args, f.name) for f in fields(TrainSettings) if hasattr(args, f.name)}


def _seed_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _prior_grid(text: str) -> list:
    return ["auto" if _is_auto(tok) else float(tok) for tok in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qll", description="Quantized-label learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    suppress = {"argument_default": argparse.SUPPRESS}

    # Data flags not given take their defaults in _data_specs.
    g = sub.add_parser("generate", help="synthesize datasets", **suppress)
    g.add_argument("--c", type=int, default=4, help="class count")
    g.add_argument("--d", type=int, default=8, help="feature dimension")
    g.add_argument("--n-per-class", type=int, help="base train examples per class")
    g.add_argument("--test-n-per-class", type=int)
    g.add_argument("--separation", type=float)
    g.add_argument("--noise-sigma", type=float)
    g.add_argument("--mix", dest="kind", default="mixup", choices=("none",) + MIX_KINDS)
    g.add_argument("--m", type=int, help="instances mixed per output")
    g.add_argument("--r", type=int, help="multinomial trials / block count")
    g.add_argument("--n", dest="n_out", type=int, help="ambiguous examples to generate")
    g.add_argument("--reject-degenerate", action="store_true")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train one method on a dataset", **suppress)
    t.add_argument("--data", required=True, help="ambiguous training set (.qll)")
    t.add_argument("--test", required=True, help="clean test set (.qll)")
    t.add_argument("--method", default="cpu-sjs", choices=METHODS)
    t.add_argument("--seed", type=int, default=1)
    t.add_argument("--out", default=None)
    _add_train_flags(t)
    t.set_defaults(func=cmd_train)

    # Sweep flags not given take the config file's value or the
    # ExperimentConfig default.
    s = sub.add_parser("sweep", help="grid of priors x seeds", **suppress)
    s.add_argument("--config", default=None, help="experiment config JSON")
    s.add_argument("--data", default=None)
    s.add_argument("--test", default=None)
    s.add_argument("--method", choices=METHODS)
    s.add_argument("--seeds", type=_seed_list, help="comma-separated seeds")
    s.add_argument("--pi1-grid", type=_prior_grid, help="comma-separated pi1 values")
    s.add_argument("--pi2-grid", type=_prior_grid, help="comma-separated pi2 values (or 'auto')")
    s.add_argument("--out")
    _add_train_flags(s)
    s.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="aggregate run records into a table")
    r.add_argument("--runs", required=True, help="directory scanned recursively for run.json")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args) or 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
