"""qll benchmark: one workload, one run.

    python3 perfbench/run.py --workload pu-train --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, then repeats the workload's
pass (a fixed list of ``qll.cli.main(argv)`` calls) for about ``--seconds``
seconds, checking every output. ``--trace 0`` reports the end-to-end
metrics, with times scaled to the reference host speed (``hostspeed.py``);
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Everything is written under ``.perfbench/`` at the root of the checkout.
The package is imported from ``src/`` of the same checkout and nowhere
else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_PASSES = 2
# Runs below this best accuracy are listed (chance is 0.25): at pi2 = 0.75
# cpu-sjs training collapses on some seeds.
LOW_ACCURACY = 0.5

# name -> unit, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "best_acc_mean": "ratio",
    "last5_acc_mean": "ratio",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qll.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_qll():
    """Import qll from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "qll" / "__init__.py").is_file():
        print(f"error: no qll package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qll.cli

    if Path(qll.cli.__file__).resolve().parent != SRC / "qll":
        print(f"error: imported qll from {qll.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return qll.cli


def import_seconds() -> float:
    """Import time of qll.cli in a fresh interpreter (this process has it cached)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def env_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class Runner:
    """Runs CLI calls, checks their outputs, and keeps the tallies."""

    def __init__(self, cli, workloads) -> None:
        self.cli = cli
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0

    def call(self, call, sample: bool = True) -> tuple[float, list[float], object]:
        """Time one CLI call; returns (seconds, host speed samples, exit code).

        The samples are taken during the call (``hostspeed.measure``); there
        are none with ``sample=False``."""
        self.attempted += 1

        def run():
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    return self.cli.main(call.argv)
            except Exception:
                traceback.print_exc()
                return "exception"

        if sample:
            code, seconds, slices = hostspeed.measure(run)
            return seconds, slices, code
        t0 = time.perf_counter()
        code = run()
        return time.perf_counter() - t0, [], code

    def check(self, call, code) -> dict | None:
        """Check a call's outputs; a failure is counted and gives None."""
        if code != 0:
            self.fail(call.name, f"qll {' '.join(call.argv)} -> exit {code}")
            return None
        try:
            return self.workloads.check_call(call)
        except (self.workloads.CheckError, OSError, ValueError, KeyError) as e:
            self.fail(call.name, str(e))
            return None

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {name}: {why}", file=sys.stderr)


def run_setup(runner, wl, seed: int, work: Path):
    """Build the inputs SETUP_REPEATS times; all builds must be identical.

    A build's time is its import time plus its CLI calls. Builds are too
    short for a steady factor each, so one host slowness factor, from a
    burst of slices after every build, scales their median to the reference
    host speed. The import runs in a child process, and slices sampled while
    it runs would compete with it for the cores, so builds are not sampled."""
    wl_mod = runner.workloads
    setup_s, slices, hashes = [], [], []
    gen = {"examples": 0, "seconds": 0.0}
    for k in range(SETUP_REPEATS):
        imp = import_seconds()
        inputs = work / f"inputs{k}"
        inputs.mkdir()
        calls = wl.setup_calls(inputs, seed)
        timed = [(c, *runner.call(c, sample=False)) for c in calls]
        slices += hostspeed.burst()
        gen_time = sum(seconds for _, seconds, _, _ in timed)
        print(f"setup {k} setup_s {imp + gen_time!r}")
        setup_s.append(imp + gen_time)
        if calls:
            gen["examples"] += sum(c.examples for c in calls)
            gen["seconds"] += gen_time
        for c, _, _, code in timed:
            runner.check(c, code)
        hashes.append(wl_mod.hash_outputs(inputs))
    for k in range(1, SETUP_REPEATS):
        if hashes[k] != hashes[0]:
            runner.fail(f"setup{k}", "inputs differ between two builds from the same seed")
        shutil.rmtree(work / f"inputs{k}")
    f = hostspeed.factor(slices)
    print(f"setup host_factor {f!r}")
    gen["seconds"] /= f
    return work / "inputs0", statistics.median(setup_s) / f, gen, hashes[0]


def run_pass(runner, wl, seed, inputs, out, tracer=None):
    """One pass of the workload. Returns its timings and checked results.

    ``wall`` is in measured seconds; ``ref``, ``train_s`` and ``gen_s`` are
    scaled to the reference host speed by the pass's slowness factor. Only
    untraced passes sample the host speed, since the samples would land in
    the spans of a traced one."""
    calls = wl.pass_calls(inputs, out, seed)
    with tracer.installed() if tracer else contextlib.nullcontext():
        timed = [(c, *runner.call(c, sample=tracer is None)) for c in calls]
    slices = [t for _, _, call_slices, _ in timed for t in call_slices]
    f = hostspeed.factor(slices) if slices else math.nan
    result = {"wall": 0.0, "train_s": 0.0, "steps": 0, "gen_s": 0.0, "examples": 0,
              "runs": [], "prior_margin": None, "factor": f}
    for c, seconds, _, code in timed:
        result["wall"] += seconds
        if c.steps:
            result["train_s"] += seconds / f
            result["steps"] += c.steps
        if c.kind == "generate":
            result["gen_s"] += seconds / f
            result["examples"] += c.examples
        checked = runner.check(c, code)
        if checked is None:
            continue
        result["runs"] += checked["runs"]
        if "prior_margin" in checked:
            result["prior_margin"] = checked["prior_margin"]
    result["ref"] = result["wall"] / f
    result["hashes"] = runner.workloads.hash_outputs(out)
    return result


def compare_hashes(runner, ref: dict, got: dict, label: str) -> None:
    """A pass must write the same bytes as the first pass, traced or not."""
    bad_calls = {p.split(os.sep)[0] for p in set(ref) | set(got) if ref.get(p) != got.get(p)}
    for name in sorted(bad_calls):
        runner.fail(name, f"{label}: outputs differ from the first pass")


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def main(argv=None) -> int:
    cli = import_qll()
    import tracer as tracer_mod
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**31
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = env_fingerprint()
    print("env " + json.dumps(env, sort_keys=True))
    (work / "env.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")

    runner = Runner(cli, workloads)
    inputs, setup_s, setup_gen, input_hashes = run_setup(runner, wl, seed, work)

    tracer = tracer_mod.Tracer() if args.trace else None
    passes, ref_hashes = [], None
    t_start = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(tracer) and k % 2 == 1
        out = work / f"pass{k}"
        res = run_pass(runner, wl, seed, inputs, out, tracer if traced else None)
        res["traced"] = traced
        if ref_hashes is None:
            ref_hashes = res["hashes"]
        else:
            compare_hashes(runner, ref_hashes, res["hashes"], f"pass {k}")
        shutil.rmtree(out)
        passes.append(res)
        print(f"pass {k} {'traced' if traced else 'untraced'} wall_s {res['wall']!r}"
              + ("" if traced else f" host_factor {res['factor']!r} ref_s {res['ref']!r}"))
        elapsed = time.perf_counter() - t_start
        # Start another pass if it should end by half a pass past --seconds,
        # so that a run measures about --seconds on average.
        walls = statistics.median(r["wall"] for r in passes)
        if len(passes) >= MIN_PASSES and elapsed + walls / 2 > args.seconds:
            break

    runs = passes[0]["runs"]
    for path, digest in sorted({**{f"inputs/{p}": h for p, h in input_hashes.items()},
                                **ref_hashes}.items()):
        print(f"sha256 {digest}  {path}")
    for rec in runs:
        if rec["best_test_accuracy"] < LOW_ACCURACY:
            print(f"low accuracy: {rec['method']} seed {rec['seed']} pi2 {rec['pi2']} "
                  f"best_test_accuracy {rec['best_test_accuracy']!r}")
    margin = passes[0]["prior_margin"]
    if margin is not None:
        print(f"prior_margin {margin!r} (min over pi2 of mean cpu-sjs minus mean ce best accuracy)")

    if tracer:
        untraced = [r for r in passes if not r["traced"]]
        traced = [r for r in passes if r["traced"]]
        wall_s = statistics.median(r["wall"] for r in untraced)
        traced_wall = statistics.median(r["wall"] for r in traced)
        print(f"untraced wall_s {wall_s!r}; traced wall_s {traced_wall!r}; "
              f"passes {len(untraced)} untraced, {len(traced)} traced")
        tracer.save(work / "spans.npz")
        table = tracer.step_table()
        (work / "step_table.json").write_text(json.dumps(table, indent=2) + "\n")
        for row in table:
            print(f"step {row['loss']:<10} {row['layer']:<28} {row['us_per_call']:10.1f} us/call "
                  f"{row['calls_per_step']:8.3f} calls/step {100 * row['share_of_step']:6.1f}% of step")
        values = tracer.layer_metrics(len(traced), wall_s, traced_wall)
        units = tracer_mod.per_layer_units()
    else:
        # Rates over all of the run's training and generation, for reading
        # only: on some workloads they rest on a second or two of calls.
        train_s = sum(r["train_s"] for r in passes)
        gen = ({"examples": sum(r["examples"] for r in passes),
                "seconds": sum(r["gen_s"] for r in passes)} if passes[0]["gen_s"] else setup_gen)
        if train_s:
            print(f"steps_per_s {sum(r['steps'] for r in passes) / train_s!r} (reference speed)")
        print(f"examples_per_s {gen['examples'] / gen['seconds']!r} (reference speed)")
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["ref"] for r in passes),
            "best_acc_mean": mean(r["best_test_accuracy"] for r in runs),
            "last5_acc_mean": mean(r["last5_avg_accuracy"] for r in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    shutil.rmtree(inputs)
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
