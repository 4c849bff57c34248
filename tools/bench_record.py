"""The benchmark record: wall times of the five end-to-end commands.

``--record N`` writes ``BENCH_N.json`` at the repository root with the
wall time of each of the five commands that ROADMAP aim 1 names: the
criterion-8 run (``GlobalGamma1``, 16²×9, 2000 steps), a 32²×17
``LocalGamma1`` run, ``spectrum`` at 32²×17, and ``resolvent`` at 32²×17
at λ = 0 and on the imaginary axis (λ = 37i), the path of the resolvent
estimate.
Each command runs through ``cpelab.cli.main`` in a fresh process with one
BLAS thread (``perfbench/run.py`` sets it before numpy is imported) and is
timed at its best of ``REPEATS`` runs in that process; a tree's time is
the best over its ``ROUNDS`` processes.  ``--parent DIR`` also measures the
checkout at DIR (for example the parent commit, made with ``git archive``),
its processes alternating with this checkout's, parent first::

    git archive HEAD~1 --prefix=parent/ | tar -x -C /tmp
    python3 tools/bench_record.py --record 38 --parent /tmp/parent

The record holds the seconds of each tree, the change's ratio to the
parent, the thread counts and the numpy version.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))
import run  # noqa: E402  (sets one BLAS thread before numpy is imported)

ROUNDS = 3
REPEATS = 3
_GRID32 = {"nx": 32, "ny": 32, "nz": 17}
# name: (subcommand, config); the configs of ROADMAP aim 1
COMMANDS = {
    "criterion8": ("simulate", {
        "schema_version": 1, "mode": "GlobalGamma1",
        "grid": {"nx": 16, "ny": 16, "nz": 9},
        "params": {"mu": 1.0, "mu_prime": 1.0}, "dt": 0.02, "t_end": 40.0,
        "output_every": 10, "preset": "fourier_perturbation",
        "amplitude": 1e-3, "perturbation_mode": [1, 0]}),
    "local32": ("simulate", {
        "schema_version": 1, "mode": "LocalGamma1", "grid": _GRID32,
        "params": {"mu": 1.0, "mu_prime": 1.0, "M1": 0.5, "M2": 2.0},
        "dt": 0.01, "t_end": 0.15, "output_every": 5,
        "preset": "random_smooth", "amplitude": 0.2, "seed": 1}),
    "spectrum": ("spectrum", {
        "schema_version": 1, "mode": "GlobalGamma1", "grid": _GRID32,
        "params": {"mu": 1.0, "mu_prime": 0.5}}),
    "resolvent": ("resolvent", {
        "schema_version": 1, "grid": _GRID32,
        "params": {"mu": 1.0, "mu_prime": 0.5}, "lam": 0.0,
        "rhs": "manufactured"}),
    "resolvent_imag": ("resolvent", {
        "schema_version": 1, "grid": _GRID32,
        "params": {"mu": 1.0, "mu_prime": 0.5}, "lam": [0.0, 37.0],
        "rhs": "manufactured"}),
}


def _measure(src: str, work: str) -> dict:
    """Best seconds of each command of ``work/commands.json`` over its
    repeats, run by the ``cpelab`` under ``src`` in this process, with the
    environment of the run."""
    sys.path.insert(0, src)
    from cpelab import cli
    with open(os.path.join(work, "commands.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    best = {}
    for name, argv in spec["commands"].items():
        out = os.path.join(work, "out", name)
        for _ in range(spec["repeats"]):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--output-dir", out])
            seconds = time.perf_counter() - t0
            if code != 0:
                raise SystemExit(f"bench_record: {name} exited {code}")
            best[name] = min(best.get(name, seconds), seconds)
    return {"seconds": best, "env": run.environment()}


def record(n: int, trees: dict, commands: dict = COMMANDS,
           rounds: int = ROUNDS, repeats: int = REPEATS,
           out_dir: str = REPO) -> str:
    """Measure each tree (label: checkout root) in ``rounds`` alternating
    processes and write ``BENCH_<n>.json`` in ``out_dir``; returns its path."""
    runs = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as work:
        argv = {}
        for name, (sub, cfg) in commands.items():
            path = os.path.join(work, "inputs", name + ".json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1)
            argv[name] = [sub, path]
        with open(os.path.join(work, "commands.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"commands": argv, "repeats": repeats}, fh)
        for _ in range(rounds):
            for label, root in trees.items():
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--measure",
                     os.path.join(root, "src"), work],
                    capture_output=True, text=True, check=True, timeout=3600)
                runs[label].append(json.loads(proc.stdout))
    best = {label: {name: min(r["seconds"][name] for r in rs)
                    for name in commands} for label, rs in runs.items()}
    env = runs[next(iter(trees))][0]["env"]
    out = {"record": n, "numpy": env["numpy"],
           "blas_threads": env["numpy_blas_threads"],
           "blas_threads_requested": env["blas_threads_requested"],
           "cpus": len(os.sched_getaffinity(0)),
           "rule": f"best of {repeats} runs in a process, best over "
                   f"{rounds} alternating processes",
           "commands": {name: {"argv": sub, "config": cfg}
                        for name, (sub, cfg) in commands.items()},
           "seconds": best,
           "rounds": {label: [r["seconds"] for r in rs]
                      for label, rs in runs.items()}}
    if "parent" in best:
        out["change_over_parent"] = {
            name: best["change"][name] / best["parent"][name]
            for name in commands}
    path = os.path.join(out_dir, f"BENCH_{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=int, metavar="N")
    parser.add_argument("--parent", metavar="DIR")
    parser.add_argument("--measure", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(_measure(*args.measure)))
        return 0
    if args.record is None:
        parser.error("--record N is required")
    trees = {"change": REPO}
    if args.parent:
        trees = {"parent": os.path.abspath(args.parent), **trees}
    print(record(args.record, trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
