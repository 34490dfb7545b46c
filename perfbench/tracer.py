"""Outside-in tracer for the qll package.

Wrappers are installed where a function is *called*, not where it is
defined: the qll modules import names directly (``from .models import
forward``), so replacing ``qll.models.forward`` alone would record nothing.
Each wrapper records one span (name, start, end, parent) into flat arrays in
memory; nothing is written until the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (owner, attribute, span name). The owner is the module, or class, whose
# attribute lookup the calling code performs.
SITES = (
    ("qll.cli", "main", "cli.main"),
    ("qll.cli", "synth_base", "datagen.synth_base"),
    ("qll.cli", "generate_ambiguous_dataset", "datagen.generate_ambiguous_dataset"),
    ("qll.cli", "save_dataset", "dataio.save_dataset"),
    ("qll.cli", "load_dataset", "dataio.load_dataset"),
    ("qll.cli", "train", "training.train"),
    ("qll.cli", "write_metrics", "training.write_metrics"),
    ("qll.cli", "save_model", "models.save_model"),
    ("qll.training", "forward", "models.forward"),
    ("qll.training", "backward", "models.backward"),
    ("qll.training", "cpu_risk_with_grad", "risk.cpu_risk_with_grad"),
    ("qll.training", "baseline_loss_batch", "losses.baseline_loss_batch"),
    ("qll.training", "sample_alpha", "losses.sample_alpha"),
    ("qll.training", "sgd_step", "training.sgd_step"),
    ("qll.training", "evaluate", "training.evaluate"),
    ("qll.risk", "binary_loss", "losses.binary_loss"),
    ("qll.risk", "binary_loss_grad", "losses.binary_loss_grad"),
    ("qll.core.RngStream", "substream", "core.RngStream.substream"),
)

# Call counts only, no span: these feed the ratio metrics.
COUNTED = (
    ("qll.core.RngStream", "choice", "core.RngStream.choice"),
    ("qll.core.RngStream", "permutation", "core.RngStream.permutation"),
)

SPAN_NAMES = tuple(name for _, _, name in SITES)

# Per wrapped function: metric suffix -> unit.
LAYER_FIELDS = {"calls": "count", "us_p50": "us", "us_p99": "us", "self_s": "s"}
RATIOS = {
    "datagen.us_per_example": "us",
    "datagen.draws_per_example": "ratio",
    "training.shuffles_per_epoch": "ratio",
    "losses.binary_loss.calls_per_step": "ratio",
    "risk.corrected_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as in BENCHMARK.json."""
    names = {f"{f}.{k}": u for f in SPAN_NAMES for k, u in LAYER_FIELDS.items()}
    names.update(RATIOS)
    return names


def resolve_owner(path: str):
    """Module or class for a dotted path such as ``qll.core.RngStream``."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Span recorder. Install with ``installed()``; read with ``arrays()``."""

    def __init__(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tag = array("i")  # index into self.tags, inherited from the parent
        self.tags: list[str] = []
        self.counts = {name: 0 for _, _, name in COUNTED}
        self.examples = 0  # n_out summed over generate_ambiguous_dataset calls
        self.risk_pairs = 0  # (class, step) pairs seen by cpu_risk_with_grad
        self.risk_corrected = 0
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------

    def _on_enter_train(self, idx: int, args) -> None:
        tag = args[2].loss.variant
        if tag not in self.tags:
            self.tags.append(tag)
        self.tag[idx] = self.tags.index(tag)

    def _on_enter_generate(self, idx: int, args) -> None:
        self.examples += int(args[2])

    def _on_exit_risk(self, result) -> None:
        per_class = result[0].per_class
        self.risk_pairs += len(per_class)
        self.risk_corrected += sum(1 for b in per_class if b.corrected)

    def _span_wrapper(self, fn, name: str):
        nid = SPAN_NAMES.index(name)
        on_enter = {
            "training.train": self._on_enter_train,
            "datagen.generate_ambiguous_dataset": self._on_enter_generate,
        }.get(name)
        on_exit = self._on_exit_risk if name == "risk.cpu_risk_with_grad" else None
        stack, start, end, tags = self._stack, self.start, self.end, self.tag
        push_name, push_parent, push_tag = self.name_id.append, self.parent.append, tags.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent = stack[-1] if stack else -1
            push_name(nid)
            push_parent(parent)
            push_tag(tags[parent] if parent >= 0 else -1)
            if on_enter is not None:
                on_enter(idx, args)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore every original on exit."""
        saved = []
        try:
            for sites, make in ((SITES, self._span_wrapper), (COUNTED, self._count_wrapper)):
                for owner_path, attr, name in sites:
                    owner = resolve_owner(owner_path)
                    original = owner.__dict__.get(attr)
                    if original is None:
                        print(f"trace: {owner_path}.{attr} not found; {name} left untraced",
                              file=sys.stderr)
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        tag = np.frombuffer(self.tag, dtype=np.int32).copy()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        child = child.astype(np.int64)  # exact: integer sums far below 2**53
        return {
            "name_id": name_id,
            "parent": parent,
            "start_ns": start,
            "end_ns": end,
            "tag": tag,
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def save(self, path) -> None:
        """Write every span, plus the name and tag tables, as one .npz file."""
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES), tags=np.array(self.tags, dtype=str), **self.arrays()
        )

    def layer_metrics(self, traced_passes: int, untraced_wall: float, traced_wall: float) -> dict:
        """Every per-layer metric, per traced pass; see ``per_layer_units``."""
        a = self.arrays()
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            sel = a["name_id"] == i
            dur_us = a["dur_ns"][sel] / 1e3
            out[f"{name}.calls"] = int(sel.sum()) / traced_passes
            out[f"{name}.us_p50"] = float(np.percentile(dur_us, 50)) if dur_us.size else 0.0
            out[f"{name}.us_p99"] = float(np.percentile(dur_us, 99)) if dur_us.size else 0.0
            out[f"{name}.self_s"] = float(a["self_ns"][sel].sum()) / 1e9 / traced_passes

        def total(name: str) -> float:
            return float(a["dur_ns"][a["name_id"] == SPAN_NAMES.index(name)].sum())

        def calls(name: str) -> int:
            return int((a["name_id"] == SPAN_NAMES.index(name)).sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        overhead = traced_wall - untraced_wall
        out.update({
            "datagen.us_per_example": ratio(total("datagen.generate_ambiguous_dataset") / 1e3, self.examples),
            "datagen.draws_per_example": ratio(self.counts["core.RngStream.choice"], self.examples),
            "training.shuffles_per_epoch": ratio(self.counts["core.RngStream.permutation"],
                                                 calls("training.evaluate")),
            "losses.binary_loss.calls_per_step": ratio(
                calls("losses.binary_loss") + calls("losses.binary_loss_grad"),
                calls("risk.cpu_risk_with_grad")),
            "risk.corrected_frac": ratio(self.risk_corrected, self.risk_pairs),
            "trace.overhead_s": overhead,
            "trace.accounted_frac": ratio(
                float(a["self_ns"].sum()) / 1e9 / traced_passes - overhead, untraced_wall),
        })
        return out

    def step_table(self) -> list[dict]:
        """Per-loss cost of one SGD step by layer: us per call, calls and share."""
        a = self.arrays()
        idx = {n: i for i, n in enumerate(SPAN_NAMES)}
        parent_name = np.where(a["parent"] >= 0, a["name_id"][a["parent"]], -1)
        in_eval = parent_name == idx["training.evaluate"]
        rows = []
        for t, tag in enumerate(self.tags):
            mine = a["tag"] == t
            steps = int((mine & (a["name_id"] == idx["training.sgd_step"])).sum())
            if not steps:
                continue
            loop_ns = (a["dur_ns"][mine & (a["name_id"] == idx["training.train"])].sum()
                       - a["dur_ns"][mine & (a["name_id"] == idx["training.evaluate"])].sum())
            for layer in ("models.forward", "losses.sample_alpha", "risk.cpu_risk_with_grad",
                          "losses.binary_loss", "losses.binary_loss_grad",
                          "losses.baseline_loss_batch", "models.backward", "training.sgd_step"):
                sel = mine & (a["name_id"] == idx[layer]) & ~in_eval
                if sel.any():
                    rows.append({
                        "loss": tag, "layer": layer,
                        "us_per_call": float(np.median(a["dur_ns"][sel])) / 1e3,
                        "calls_per_step": int(sel.sum()) / steps,
                        "share_of_step": float(a["dur_ns"][sel].sum()) / loop_ns,
                    })
            sel = mine & (a["name_id"] == idx["models.forward"]) & in_eval
            rows.append({"loss": tag, "layer": "eval models.forward",
                         "us_per_call": float(np.median(a["dur_ns"][sel])) / 1e3,
                         "calls_per_step": int(sel.sum()) / steps, "share_of_step": 0.0})
            rows.append({"loss": tag, "layer": "step (training loop)",
                         "us_per_call": loop_ns / steps / 1e3, "calls_per_step": 1.0,
                         "share_of_step": 1.0})
        return rows
