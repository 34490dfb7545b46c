"""Command-line entry point.

Subcommands:

    generate   synthesize a clean base (train/test) and an ambiguous,
               quantized-label training set; write them as QLL1 files
    train      run one method on a generated dataset; write metrics,
               checkpoint, and a run record
    sweep      train over a grid of class priors x seeds; tabulate
    report     aggregate completed runs into a results table

``train`` is a sweep of one run: both commands plan, train and write their
runs through ``_run_experiment``. A sweep's methods train side by side on
the usable cores, each in one process (see ``_train_groups``), and its
output bytes do not depend on the core count.

A command that takes ``--seed`` repeats its output bytes within one
environment (Python, numpy and BLAS build) and one OpenBLAS kernel set. The
same wheel picks other kernels on a CPU that OpenBLAS classes differently,
and then training bytes differ; generated ``.qll`` bytes did not change
under three kernel sets. All file writes are atomic. The environment
variable ``QLL_OUT`` overrides the default output root. Exit codes: 0
success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import pickle
import signal
import sys
import warnings
from dataclasses import InitVar, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import STREAM_DATAGEN, AmbiguousDataset, ClassPriors, RngStream, _is_number, entropy
from .dataio import atomic_write_text, load_dataset, save_dataset
from .datagen import MIX_KINDS, BaseSpec, MixSpec, generate_ambiguous_dataset, synth_base
from .losses import BinaryLossKind, MulticlassLossKind
from .models import MODEL_KINDS, save_model
from .risk import U_MODES
from .training import TrainConfig, TrainReport, train, train_runs, write_metrics

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


def resolve_pi2(spec: str | float, m: int, c: int) -> float:
    """'auto' means m/c of the train set: its instances mixed per example
    (its generation record's m) over its class count."""
    if _is_auto(spec):
        if m < 1:
            raise ValueError("pi2 auto is m/c, so it needs a mixed train set (m >= 1)")
        if m > c:
            raise ValueError(f"pi2 auto is m/c = {m}/{c} = {m / c!r}, above 1; give pi2 as a number in (0, 1]")
        return m / c
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


def _object(name: str, v) -> dict:
    """``v``, or a ValueError naming it if it is no JSON object."""
    if not isinstance(v, dict):
        raise ValueError(f"{name} must be an object, got {v!r}")
    return v


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
                if not (_is_number(p) or also and _is_auto(p)):
                    raise ValueError(f"{name}_grid: {name} must be a real number{also}, got {p!r}")
        for name, section in (("base", base), ("mix", mix), ("train", train)):
            if section is not None:
                _object(f"config: {name}", section)
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"config: out must be a string, got {self.out!r}")
        self.settings = _build(TrainSettings, "train", train or {})
        self.data = None if base is None else _data_specs(base, mix or {})

    @classmethod
    def from_file(cls, path, **flags) -> "ExperimentConfig":
        """Load a config file. ``flags`` replace its top-level values, and
        ``flags["train"]`` replaces single train settings."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = _object("config", json.load(fh))
        if "base" not in raw or "mix" not in raw:
            raise ValueError("config needs 'base' and 'mix' sections")
        sections = {key: _object(f"config: {key}", raw.pop(key, {})) for key in ("base", "mix", "train")}
        sections["train"] = {**sections["train"], **flags.pop("train", {})}
        return _build(cls, "config", {**raw, **flags, **sections})


def _generate_datasets(specs: DataSpecs, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write one seed's base train and test sets and, with a mix spec, its
    ambiguous set; returns the paths of the (train, test) sets to train on."""
    # Every set is built before any is written, so a spec that the
    # generator refuses leaves no file behind.
    root = RngStream(seed, STREAM_DATAGEN)
    base_train = synth_base(specs.base, root.substream(0))
    sets = {"base_train": base_train, "base_test": synth_base(specs.test, root.substream(1))}
    train_name = "base_train"
    if specs.mix is not None:
        train_name = "ambig_train"
        sets[train_name] = generate_ambiguous_dataset(base_train, specs.mix, specs.n_out, root.substream(2))

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: save_dataset(ds, out_dir / f"{name}.qll") for name, ds in sets.items()}
    ent = entropy(sets[train_name].diagnostics)
    print(f"diagnostic entropy: mean={ent.mean():.4f} min={ent.min():.4f} max={ent.max():.4f}")
    for path in paths.values():
        print(f"wrote {path}")
    return paths[train_name], paths["base_test"]


def cmd_generate(args) -> int:
    flags = vars(args)  # data flags not given are absent (see build_parser)
    base_keys = ("c", "d", "n_per_class", "test_n_per_class", "separation", "noise_sigma")
    base = {k: flags[k] for k in base_keys if k in flags}
    mix = {k: flags[k] for k in ("kind", "m", "r", "n_out", "reject_degenerate") if k in flags}
    out_dir = Path(args.out) if args.out else _out_root() / "data"
    _generate_datasets(_data_specs(base, mix), args.seed, out_dir)
    return 0


def _train_config(method: str, s: TrainSettings, seed: int, m: int, c: int) -> TrainConfig:
    """The run's config on a train set of class count c mixed from m
    instances per example (see ``resolve_pi2``)."""
    priors = None
    if method in CPU_METHODS:
        priors = ClassPriors(s.pi1, resolve_pi2(s.pi2, m, c))
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


def _write_run(run_dir: Path, method: str, cfg: TrainConfig, report, data, paths: tuple[Path, Path]) -> dict:
    """Write metrics.csv, model.ckpt and run.json; returns the run record:
    every TrainConfig field (its priors as pi1 and pi2, null for a
    baseline), the method, data paths, the sha256 of the train file's bytes
    (data_sha256) and accuracies, and the generation records of the
    (train, test) sets in ``data``, flattened with a ``train_`` or
    ``test_`` prefix: the train set's shape and each set's sidecar extras.
    Their generation seeds are left out, so the runs of a per-seed sweep
    stay replicates."""
    run_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(report, run_dir / "metrics.csv")
    save_model(report.final_model, run_dir / "model.ckpt")
    record = asdict(cfg)
    record.update(record.pop("priors") or {"pi1": None, "pi2": None})
    record.update({f"train_{k}": getattr(data[0], k) for k in ("class_count", "feature_dim", "n_examples")})
    for name, ds in zip(("train", "test"), data):
        record.update({f"{name}_{k}": v for k, v in ds.gen_meta.extra.items()})
    record.update(method=method, dataset=dataset_tag(data[0]), data=str(paths[0]), test_data=str(paths[1]),
                  data_sha256=hashlib.sha256(paths[0].read_bytes()).hexdigest(),
                  best_test_accuracy=report.best_test_accuracy, last5_avg_accuracy=report.last5_avg_accuracy)
    atomic_write_text(run_dir / "run.json", json.dumps(record, sort_keys=True, indent=2) + "\n")
    return record


# A run's own fields: the replicates in one table cell differ in these and
# in the cell's key fields only.
_RUN_FIELDS = ("seed", "data", "data_sha256", "test_data", "best_test_accuracy", "last5_avg_accuracy")


def _write_table(runs: dict[Path, dict], keys: tuple[str, ...], out_dir: Path, name: str, by_mean=False) -> None:
    """Group run records, keyed by their run.json path, into cells of equal
    ``keys`` values. Write ``<name>.txt`` (and print it) and ``<name>.csv``
    under ``out_dir``, one row per cell: its key values, the mean ± std of
    best_test_accuracy and n_seeds. Rows keep first-seen order and end with
    the spread (max - min) of the means, or with ``by_mean`` ascend by mean.
    A cell must hold replicates: a ValueError names two of its records that
    differ in a field both hold, bar ``keys`` and _RUN_FIELDS, or that share
    their seed and train data (one deterministic run recorded twice): its
    data_sha256, or for a record without one its data path."""
    cells: dict[tuple, list[float]] = {}
    seen: dict[tuple, tuple[Path, object]] = {}  # (cell key, field) -> its first record's path and value
    run_paths: dict[tuple, Path] = {}  # (cell key, seed and train data) -> the record's path
    for path, rec in runs.items():
        key = tuple(rec[k] for k in keys)
        for f in sorted(rec.keys() - {*keys, *_RUN_FIELDS}):  # a field that one record lacks counts as equal
            first_path, v = seen.setdefault((key, f), (path, rec[f]))
            if v != rec[f]:
                raise ValueError(f"{first_path} and {path} share a table cell but differ in {f}: {v!r} != {rec[f]!r}")
        same = "data_sha256" if "data_sha256" in rec else "data"
        first_path = run_paths.setdefault((key, json.dumps([rec.get("seed"), rec.get(same)])), path)
        if first_path != path:
            raise ValueError(f"{first_path} and {path} share a table cell and are one run recorded twice: "
                             f"equal seed and {same}")
        cells.setdefault(key, []).append(rec["best_test_accuracy"])
    rows = []  # (mean, key cells, std or None for one seed, n_seeds)
    for key, accs in cells.items():
        std = float(np.std(accs, ddof=1)) if len(accs) >= 2 else None
        rows.append((float(np.mean(accs)), ["" if v is None else f"{v}" for v in key], std, len(accs)))
    if by_mean:
        rows.sort(key=lambda row: row[:2])

    table = [[*keys, "best_test_accuracy", "n_seeds"]]
    table += [[v or "-" for v in key] + [f"{mean:.4f} ± " + ("n/a" if std is None else f"{std:.4f}"), str(n)]
              for mean, key, std, n in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    text = "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in table)
    csv_lines = [",".join([*keys, "mean_best_accuracy", "std_best_accuracy", "n_seeds"])]
    csv_lines += [",".join([*key, repr(mean), "" if std is None else repr(std), str(n)]) for mean, key, std, n in rows]
    if not by_mean:
        spread = max(row[0] for row in rows) - min(row[0] for row in rows)
        text += f"spread (max-min of means) = {spread:.4f}\n"
        csv_lines.append(f"spread,{spread!r}")
    atomic_write_text(out_dir / f"{name}.txt", text)
    atomic_write_text(out_dir / f"{name}.csv", "\n".join(csv_lines) + "\n")
    print(text, end="")


def _train_group(trains, tests, cfgs) -> list[TrainReport] | Exception:
    """One method's runs trained as one stacked run: their reports, or the
    ValueError or RuntimeError that training raised."""
    try:
        # A lone run calls train, train_runs' K=1 case, as perfbench traces qll.cli.train.
        return train_runs(trains, tests, cfgs) if len(cfgs) > 1 else [train(trains[0], tests[0], cfgs[0])]
    except (ValueError, RuntimeError) as e:
        return e


def _lanes(weights: list[int], count: int) -> list[list[int]]:
    """The indices of ``weights`` dealt to ``count`` lanes, heaviest first,
    each to the lightest lane so far; heaviest lane first, each lane's
    indices ascending."""
    lanes, loads = [[] for _ in range(count)], [0] * count
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        lane = loads.index(min(loads))
        lanes[lane].append(i)
        loads[lane] += weights[i]
    return [sorted(lane) for _, lane in sorted(zip(loads, lanes), key=lambda pair: -pair[0])]


def _fork_lane(groups, lane: list[int]):
    """Fork a child that trains the groups of ``lane`` and pickles their
    results (see _train_group) into a pipe; returns its pid and the pipe's
    read end. The child leaves by os._exit, so it runs no exit handler and
    flushes none of the parent's buffers (flushed here before the fork);
    an error outside a group is printed, and the child exits 1 with no
    result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns that a fork with threads alive may deadlock
        # the child. The threads are OpenBLAS's pool, which OpenBLAS stops
        # before a fork by its pthread_atfork handler.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump([_train_group(*groups[i]) for i in lane], pipe)
            code = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _train_groups(groups: list[tuple]) -> list[list[TrainReport] | Exception]:
    """Each group's result (see _train_group), in order. Groups share no
    state, so they train on as many lanes as there are groups and usable
    cores, dealt by weight (runs x epochs x examples; see _lanes). This
    process trains the heaviest lane, and one forked child each other lane.
    A child that ends without a result fails its groups with a RuntimeError.
    On any exception the children are killed; they are reaped on every
    path. One lane forks nothing."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    weights = [sum(t.n_examples for t in trains) * cfgs[0].epochs for trains, _, cfgs in groups]
    lanes = _lanes(weights, min(len(groups), cores))
    results, children = {}, []  # children: (pid, pipe, lane) of each forked lane not yet reaped
    try:
        for lane in lanes[1:]:
            children.append((*_fork_lane(groups, lane), lane))
        for i in lanes[0]:
            results[i] = _train_group(*groups[i])
        while children:
            pid, pipe, lane = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code == 0:
                results.update(zip(lane, pickle.loads(data)))
            else:
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                lost = RuntimeError(f"its training process ended without a result ({how})")
                results.update(dict.fromkeys(lane, lost))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(groups))]


def _run_experiment(exp: ExperimentConfig, data: tuple[Path, Path] | Path, run_dir) -> dict[Path, dict]:
    """Train every run of ``exp`` and write each into ``run_dir(method,
    seed, pi1, pi2)`` (the priors None for a baseline); returns the run
    records by run.json path. ``data`` is the (train, test) files of every
    run, or, for an ``exp`` with data specs, the directory that each seed's
    generated sets go into (as ``seed<seed>/``). The runs are written in
    plan order once all have trained, so their bytes do not depend on the
    lanes (see _train_groups). A method whose training fails writes no run,
    but the others still write theirs; then a RuntimeError names each
    failed method and its error."""
    # Every seed's train set has one shape and mix (one train file, or data
    # made from one spec), so pi2 "auto" is one m/c.
    if exp.data is None:
        data_by_seed = dict.fromkeys(exp.seeds, data)
        loaded = {path: load_dataset(path) for path in dict.fromkeys(data)}
        m, c = loaded[data[0]].gen_meta.m, loaded[data[0]].class_count
    else:
        m, c = exp.data.mix.m if exp.data.mix else 0, exp.data.base.c
    # A repeated entry, or a pi2 equal to an "auto" entry's m/c, would train
    # one run twice; refused before anything is written.
    auto = m / c if m else "auto"
    for key in ("methods", "seeds", "pi1_grid", "pi2_grid"):
        entries = [auto if _is_auto(v) else v for v in getattr(exp, key) or []]
        if len(set(entries)) < len(entries):
            hint = f" (auto is m/c = {auto})" if key == "pi2_grid" and m else ""
            raise UsageError(f"duplicate {key} in {getattr(exp, key)}{hint}")

    # Every run's config is built, and so checked, before any data is made
    # or any run trains.
    pi1_grid = exp.pi1_grid or [exp.settings.pi1]
    pi2_grid = exp.pi2_grid or [exp.settings.pi2]
    plans = []  # (method, its (seed, pi1, pi2) members, their configs)
    for method in exp.methods:
        grid = [(p1, p2) for p1 in pi1_grid for p2 in pi2_grid] if method in CPU_METHODS else [(None, None)]
        members = [(seed, p1, p2) for seed in exp.seeds for p1, p2 in grid]
        cfgs = [_train_config(method, replace(exp.settings, pi1=p1, pi2=p2), seed, m, c) for seed, p1, p2 in members]
        plans.append((method, members, cfgs))

    if exp.data is not None:  # each file is read once
        data_by_seed = {seed: _generate_datasets(exp.data, seed, data / f"seed{seed}") for seed in exp.seeds}
        loaded = {path: load_dataset(path) for pair in data_by_seed.values() for path in pair}

    # Each method trains its seeds x prior grid as one stacked run, seed-major.
    groups = [([loaded[data_by_seed[seed][0]] for seed, *_ in members],
               [loaded[data_by_seed[seed][1]] for seed, *_ in members], cfgs) for _, members, cfgs in plans]
    runs, failures = {}, []
    for (method, members, cfgs), (trains, tests, _), result in zip(plans, groups, _train_groups(groups)):
        if isinstance(result, Exception):
            failures.append(f"{method}: {result}")
            continue
        for (seed, p1, p2), cfg, report, *pair in zip(members, cfgs, result, trains, tests):
            path = run_dir(method, seed, p1, p2)
            runs[path / "run.json"] = _write_run(path, method, cfg, report, pair, data_by_seed[seed])
    if failures:
        raise RuntimeError("\n".join(failures))
    return runs


def cmd_train(args) -> int:
    exp = ExperimentConfig(methods=[args.method], seeds=[args.seed], train=_train_flags(args))
    run_dir = Path(args.out) if args.out else _out_root() / "runs" / f"{args.method}-seed{args.seed}"
    [record] = _run_experiment(exp, (Path(args.data), Path(args.test)), lambda *_: run_dir).values()
    print(f"{args.method} seed={args.seed} best_test_accuracy={record['best_test_accuracy']:.4f} -> {run_dir}")
    return 0


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
    out_dir = Path(exp.out) if exp.out else _out_root() / "sweep"

    def run_dir(method, seed, p1, p2):
        return out_dir / "runs" / (f"{method}" + (f"-pi1_{p1}-pi2_{p2}" if p1 is not None else "") + f"-seed{seed}")

    data = out_dir / "data" if exp.data is not None else (Path(args.data), Path(args.test))
    _write_table(_run_experiment(exp, data, run_dir), ("method", "pi1", "pi2"), out_dir, "sweep_table")
    return 0


def _read_run(path: Path) -> dict:
    """A run.json's record, its table fields checked: method and dataset
    strings, pi1 and pi2 null (or absent) or in (0, 1], best_test_accuracy
    in [0, 1]. A bool is no number, and NaN lies in no range."""
    try:
        rec = json.loads(path.read_text(encoding="utf-8"))
        method, dataset, accuracy = rec["method"], rec["dataset"], rec["best_test_accuracy"]
    except KeyError as e:
        raise ValueError(f"{path}: run record has no {e} field") from None
    except (ValueError, TypeError) as e:  # not JSON, or not a JSON object
        raise ValueError(f"{path}: not a run record: {e}") from None
    for key, v in (("method", method), ("dataset", dataset)):
        if not isinstance(v, str):
            raise ValueError(f"{path}: {key} must be a string, got {v!r}")

    for key in ("pi1", "pi2"):
        v = rec.setdefault(key, None)
        if v is not None and not (_is_number(v) and 0.0 < v <= 1.0):
            raise ValueError(f"{path}: {key} must be null or a number in (0, 1], got {v!r}")
    if not (_is_number(accuracy) and 0.0 <= accuracy <= 1.0):
        raise ValueError(f"{path}: best_test_accuracy must be a number in [0, 1], got {accuracy!r}")
    return rec


def cmd_report(args) -> int:
    root = Path(args.runs)
    runs = {path: _read_run(path) for path in sorted(root.rglob("run.json"))}
    if not runs:
        raise RuntimeError(f"no completed runs found under {root}")
    out_dir = Path(args.out) if args.out else root
    _write_table(runs, ("method", "dataset", "pi1", "pi2"), out_dir, "table", by_mean=True)
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
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _prior_grid(text: str) -> list:
    try:
        return ["auto" if _is_auto(tok) else float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers or auto, got {text!r}") from None


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


# The parser, built by the first ``main`` call of a process and reused by
# the rest: building it costs some 25 times what one parse does. Not built
# at import, so that code which imports the module only to read a file does
# not pay for it. ``parse_args`` keeps no state on the parser between calls.
_parser = None


def main(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        return args.func(args) or 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
