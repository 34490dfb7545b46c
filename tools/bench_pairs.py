"""Run alternating pairs of benchmark runs in two checkouts and summarise them.

    python3 tools/bench_pairs.py --parent ../qll-parent --pairs 10 --out BENCH_16.json

``--parent`` is a checkout of the parent commit, such as a ``git
worktree``; the change is the checkout that holds this script. For each
workload of ``BENCHMARK.json``, pair i runs ``python3 perfbench/run.py
--workload W --seed SEED+i --seconds S --trace 0`` once in each checkout,
with S the ``run_seconds`` of ``BENCHMARK.json``, one run at a time: the
parent first in even pairs, the change first in odd ones. Each run imports
``src/`` of its own checkout and writes under that checkout's
``.perfbench/``.

The JSON file written to ``--out`` holds:

- ``env``: the ``env {...}`` fingerprint the runs printed, and whether
  every run printed the same one; and the name of the OpenBLAS kernel set
  (``SkylakeX``, ``Haswell``, ...) that numpy's OpenBLAS picks in a fresh
  interpreter with the runs' environment, read after each run through
  ``ctypes`` (null where no loaded OpenBLAS library exports
  ``scipy_openblas_get_corename64_`` or ``openblas_get_corename``), and
  whether every run saw the same name. Two kernel sets round matrix
  products differently, so a file whose runs saw different names compares
  different arithmetic; the script then says so on stderr;
- ``checkouts``: each side's ``git describe --always --dirty`` and a
  sha256 over its ``src/`` files, which names the code that ran;
- ``workloads``: for each workload and each end-to-end metric of
  ``BENCHMARK.json``, both sides' values by pair, their medians and
  quartiles, the change of the median relative to the parent's, and the
  pairs the change won, lost and tied (``better`` gives the direction);
  the failed and attempted operations of each side; under ``passes``, the
  same summary of each run's median raw pass time (``raw_wall_s``: the
  measured ``wall_s`` of its ``pass k untraced`` lines, not scaled to the
  reference speed) and median ``host_factor`` from those lines; and for
  each pair its seed, which side ran first and whether the two runs
  printed the same ``sha256`` lines.

A change that keeps a second core busy while the benchmark's host-speed
slices run could read as host slowness and so as a scaled gain; the raw
pass times and host factors show whether its gain is also there unscaled.

The script refuses to start while either checkout holds a
``__pycache__`` directory under ``src/``, and names it. A run imports
cached bytecode without compiling it, so a cache on one side only would
shorten that side's ``setup_s``; remove the directories (or run both sides
from fresh copies) and start again. Under ``PYTHONDONTWRITEBYTECODE=1`` the
runs write none.

A run that exits nonzero or prints no result stops the script with exit
code 1, and nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# Prints, as JSON, the kernel set name that the first OpenBLAS library
# loaded with numpy reports, or null. /proc/self/maps lists the loaded
# libraries on Linux; elsewhere the name reads null.
KERNEL_PROBE = """
import ctypes, json, numpy
try:
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
except OSError:
    paths = []
getters = (getattr(ctypes.CDLL(path), symbol, None) for path in paths
           for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"))
get = next((g for g in getters if g is not None), None)
if get is not None:
    get.restype = ctypes.c_char_p
print(json.dumps(None if get is None else get().decode()))
"""


def describe(checkout: Path) -> dict:
    """The checkout's git description and a digest of its ``src/`` files."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                         capture_output=True, text=True, check=False)
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git": out.stdout.strip() or None, "src_sha256": digest.hexdigest()}


def cached_bytecode(checkout: Path) -> list[Path]:
    """The ``__pycache__`` directories under the checkout's ``src/``."""
    return sorted(p for p in (checkout / "src").rglob("__pycache__") if p.is_dir())


def openblas_kernel() -> str | None:
    """The OpenBLAS kernel set name a fresh interpreter of this environment
    reports (``KERNEL_PROBE``), or None."""
    out = subprocess.run([sys.executable, "-c", KERNEL_PROBE], capture_output=True, text=True,
                         check=False, timeout=120)
    return json.loads(out.stdout) if out.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run: its fingerprint, sha256 lines, tallies and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False,
                         timeout=20 * seconds + 600)
    lines = out.stdout.splitlines()
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    if out.returncode != 0 or not lines or not env:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # "pass K untraced wall_s W host_factor F ref_s R"
    passes = [line.split() for line in lines if line.startswith("pass ") and line.split()[2] == "untraced"]
    return {
        "env": env[0],
        "openblas_kernel": openblas_kernel(),
        "sha256": sorted(line for line in lines if line.startswith("sha256 ")),
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "passes": {name: statistics.median(float(words[i]) for words in passes)
                   for name, i in (("raw_wall_s", 4), ("host_factor", 6))},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of at least one value."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


# Read from each run's untraced pass lines; a lower value is better for
# both, the second being a faster host.
PASS_FIGURES = ({"name": "raw_wall_s", "unit": "s", "better": "lower", "bound": None},
                {"name": "host_factor", "unit": "ratio", "better": "lower", "bound": None})


def summarise(metric: dict, pairs: list[dict], key: str = "metrics") -> dict:
    """One metric, from each run's ``key`` values, over the pairs of one workload."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [p[side][key][name] for p in pairs] for side in SIDES}
    won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    tied = sum(p == c for p, c in zip(values["parent"], values["change"]))
    stats = {side: spread(values[side]) for side in SIDES}
    base = stats["parent"]["median"]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        **stats,
        "median_change": (stats["change"]["median"] - base) / base if base else None,
        "won": won, "lost": len(pairs) - won - tied, "tied": tied,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write, e.g. BENCH_16.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    for side, path in checkouts.items():
        if cached := cached_bytecode(path):
            p.error(f"the {side} checkout holds cached bytecode, which its runs would import "
                    f"without compiling; remove {', '.join(map(str, cached))}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])

    envs, kernels, report = [], [], {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
                envs.append(pair[side].pop("env"))
                kernels.append(pair[side].pop("openblas_kernel"))
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"wall_s {pair[side]['metrics'].get('wall_s')!r} "
                      f"raw_wall_s {pair[side]['passes']['raw_wall_s']!r} failed {pair[side]['failed']}",
                      file=sys.stderr)
            pairs.append(pair)
        report[workload] = {
            "metrics": {m["name"]: summarise(m, pairs) for m in bench["end_to_end"]},
            "passes": {m["name"]: summarise(m, pairs, "passes") for m in PASS_FIGURES},
            **{f"{side}_{tally}": sum(p[side][tally] for p in pairs)
               for side in SIDES for tally in ("failed", "attempted")},
            "pairs": [{"seed": p["seed"], "first": p["first"],
                       "sha256_match": p["parent"]["sha256"] == p["change"]["sha256"],
                       "sha256_lines": len(p["change"]["sha256"])} for p in pairs],
        }

    if len(set(kernels)) > 1:
        print(f"warning: the runs saw different OpenBLAS kernel sets: {sorted(set(kernels), key=str)}",
              file=sys.stderr)
    out = {
        "env": {"fingerprint": envs[0], "same_in_every_run": all(e == envs[0] for e in envs),
                "openblas_kernel": kernels[0], "openblas_kernel_same_in_every_run": len(set(kernels)) == 1},
        "settings": {"pairs": args.pairs, "first_seed": args.seed, "seconds": seconds, "trace": 0},
        "checkouts": {side: describe(path) for side, path in checkouts.items()},
        "workloads": report,
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
