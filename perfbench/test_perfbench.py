"""Self-tests of the benchmark.  Run:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import re
import signal
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracer

cli = run.import_qll()

import workloads  # noqa: E402  (imports qll, so it needs src/ on the path first)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _originals():
    return {
        (owner, attr): tracer.resolve_owner(owner).__dict__[attr]
        for owner, attr, _ in tracer.SITES + tracer.COUNTED
    }


def test_metric_names_are_well_formed_and_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == tracer.per_layer_units()
    for name in [*e2e, *layer, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_host_factor_is_one_at_the_reference_speed():
    ref = hostspeed.REF_SLICE_S
    assert hostspeed.factor([ref] * 3) == 1.0
    assert hostspeed.factor([ref, 3 * ref]) == 2.0
    assert len(hostspeed.burst(4)) == 4


def test_measure_samples_during_the_call_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, seconds, slices = hostspeed.measure(busy, 0.2)
    assert result == "done"
    assert len(slices) >= 0.2 / hostspeed.INTERVAL_S / 2
    # The call's time leaves out the slices sampled during it.
    assert 0.2 - sum(slices[1:]) - 0.05 < seconds < 0.2 + 0.05
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_site_exists():
    originals = _originals()
    assert len(originals) == len(tracer.SITES) + len(tracer.COUNTED)
    assert all(callable(f) for f in originals.values())


def test_wrappers_restore_originals():
    before = _originals()
    t = tracer.Tracer()
    with t.installed():
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
    assert _originals() == before
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    assert all(_originals()[k] is before[k] for k in before)


def _train_argv(data: Path, out: Path, method: str) -> list[str]:
    return ["train", "--data", str(data / "ambig_train.qll"), "--test", str(data / "base_test.qll"),
            "--method", method, "--epochs", "2", "--seed", "3", "--out", str(out)]


def test_traced_and_untraced_runs_write_identical_metrics(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["generate", "--n-per-class", "50", "--n", "200", "--seed", "3",
                     "--out", str(data)]) == 0
    methods = ("cpu-sjs", "ce")
    for method in methods:
        assert cli.main(_train_argv(data, tmp_path / "plain" / method, method)) == 0
    t = tracer.Tracer()
    with t.installed():
        for method in methods:
            assert cli.main(_train_argv(data, tmp_path / "traced" / method, method)) == 0
    for method in methods:
        plain = (tmp_path / "plain" / method / "metrics.csv").read_bytes()
        traced = (tmp_path / "traced" / method / "metrics.csv").read_bytes()
        assert plain == traced

    a = t.arrays()
    names = tracer.SPAN_NAMES
    count = {n: int((a["name_id"] == names.index(n)).sum()) for n in names}
    steps = math.ceil(200 / 16) * 2
    assert count["cli.main"] == 2
    assert count["training.sgd_step"] == 2 * steps
    assert count["risk.cpu_risk_with_grad"] == steps
    assert count["losses.baseline_loss_batch"] == steps
    assert count["losses.binary_loss"] + count["losses.binary_loss_grad"] == 4 * steps
    assert count["training.evaluate"] == 4
    # Self times partition the root spans exactly.
    roots = a["parent"] < 0
    assert int(a["self_ns"].sum()) == int(a["dur_ns"][roots].sum())
    assert (a["self_ns"] >= 0).all()
    assert t.tags == ["scaled_sjs", "ce"]
