"""Benchmark of cpelab: one workload, one process, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark imports ``cpelab`` from ``src/`` of the checkout it sits in,
writes the workload's config files under ``.perfbench/NAME/`` and drives
the program through ``cpelab.cli.main`` in rounds until ``--seconds`` have
passed.  Each round's outputs are checked after its timed part.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median over fresh
  processes that set up and stop before the first timed operation),
  ``run_s`` (wall time of one round, each operation at its fastest run)
  and ``peak_rss_mb``.
* ``--trace 1``: rounds alternate untraced and traced; the per-layer span
  metrics are per traced round, with ``run_s.untraced``, ``run_s.traced``
  and their difference ``trace.overhead_s``.

See perfbench/README.md for the workloads and the layer-to-metric map.
"""

import os
import sys
import time

# One BLAS/OpenMP thread, set before numpy is first imported, so that the
# numbers measure the program rather than the scheduler of a small machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
READY = "perfbench-setup-done"
SETUP_SAMPLES = 5
# The probe kernel's fastest time on the host the bounds were set on
# (Intel Xeon vCPU, fast state); run_s is scaled to this speed.
REFERENCE_PROBE_S = 1.3e-3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cpelab():
    """Import cpelab.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cpelab", "cli.py")):
        raise SystemExit(f"perfbench: no cpelab sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import cpelab.cli
    seconds = time.perf_counter() - t0
    if not os.path.abspath(cpelab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: cpelab imported from "
                         f"{cpelab.cli.__file__}, not from {SRC}")
    return cpelab.cli, seconds


def environment() -> dict:
    """BLAS threads in effect and the versions of the numeric stack."""
    import ctypes
    import glob

    import numpy
    import scipy
    import sympy

    env = {"blas_threads_requested": int(BLAS_THREADS), "python":
           sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "sympy": sympy.__version__}
    for mod, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        name = mod.__name__
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[f"{name}_blas"] = f"{blas['name']} {blas['version']}"
        threads = None
        for lib in glob.glob(os.path.dirname(mod.__file__)
                             + ".libs/*openblas*.so*"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
        env[f"{name}_blas_threads"] = threads
    return env


def setup_seconds(args, fastest_cpu) -> float:
    """Median time for a fresh benchmark process to reach its first
    timed operation: interpreter start, imports and the inputs written."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        fastest_cpu.move()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != READY or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    print(f"setup samples {[round(x, 4) for x in samples]}", file=sys.stderr)
    return statistics.median(samples)


class FastestCpu:
    """Moves this process to the CPU that now runs a fixed kernel fastest.

    Each CPU of this host alternates, independently of the other, between
    a fast state and one about 1.8x slower (other tenants of the machine),
    each lasting seconds.  Starting each round and each setup sample on
    the faster CPU keeps more of the measured time in the fast state.
    ``fastest``, the fastest probe seen, scales ``run_s`` (see
    :func:`round_seconds`).
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.a = rng.standard_normal((16, 16, 9, 2))
        self.b = rng.standard_normal((16, 16, 9, 9))
        self.fastest = float("inf")   # fastest probe seen in this process

    def _kernel_seconds(self) -> float:
        import numpy as np
        t0 = time.perf_counter()
        for _ in range(4):
            f = np.fft.ifft2(np.fft.fft2(self.a, axes=(0, 1)), axes=(0, 1))
            np.einsum("abij,abjc->abic", self.b, f.real)
        return time.perf_counter() - t0

    def move(self) -> None:
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t = min(self._kernel_seconds() for _ in range(3))
            self.fastest = min(self.fastest, t)
            if best is None or t < best[0]:
                best = (t, cpu)
        os.sched_setaffinity(0, {best[1]})


def run_round(cli, ops, tracer=None):
    """Run one round; returns the seconds each operation took and its
    result: the exit code, or for an operation that raised, the error as a
    string (an exception kept here would keep the failed run's frames and
    arrays alive through a reference cycle)."""
    for op in ops:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    seconds, results = {}, []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for op in ops:
                t0 = time.perf_counter()
                try:
                    results.append(cli.main(op.argv))
                except Exception as exc:  # a failed operation, counted
                    results.append(f"{type(exc).__name__}: {exc}")
                seconds[op.label] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, results


def round_seconds(samples: list, fastest_cpu: FastestCpu) -> float:
    """One round's wall time at the reference speed of the host.

    Each operation is taken at its fastest run: the slower runs mostly
    measure the other tenants of the machine (see :class:`FastestCpu`).
    The sum is scaled by the probe kernel's reference time over its
    fastest time in this process, which takes out the drift of the whole
    host's speed over minutes that every run of a process shares.
    """
    fastest = sum(min(s[label] for s in samples) for label in samples[0])
    return fastest * REFERENCE_PROBE_S / fastest_cpu.fastest


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, import_s = import_cpelab()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    work_dir = os.path.join(ROOT, ".perfbench", args.workload)
    if args.setup_probe:
        work_dir += f"-probe{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(workload.in_dir)
    workload.write_inputs()
    if args.setup_probe:
        shutil.rmtree(work_dir)
        print(READY, flush=True)
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.record(spans.IMPORT_SPAN, import_s)
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)

    fastest_cpu = FastestCpu()
    times = {False: [], True: []}
    attempted = failed = 0
    problems, failures = [], {}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(times[False]) > len(times[True])
        ops = workload.round_ops()
        fastest_cpu.move()
        seconds, results = run_round(cli, ops, tracer if traced else None)
        times[traced].append(seconds)
        for op, rc in zip(ops, results):
            attempted += 1
            if isinstance(rc, str):
                failed += 1
                failures.setdefault(op.label, rc)
                continue
            problems.extend(f"{op.label}: {p}" for p in op.check(op.out_dir, rc))
        enough = times[True] if tracer is not None else times[False]
        if time.perf_counter() - start >= args.seconds and enough:
            break

    for label, msg in sorted(failures.items()):
        print(f"failed operation {label}: {msg}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for traced, samples in times.items():
        totals = [round(sum(x.values()), 4) for x in samples]
        print(f"rounds traced={traced}: {len(samples)}, round totals {totals}",
              file=sys.stderr)
    print(f"fastest probe {fastest_cpu.fastest:.6f} s (reference "
          f"{REFERENCE_PROBE_S} s)", file=sys.stderr)

    if tracer is None:
        metrics = {   # run_s first: it uses the probes of the timed part only
            "run_s": (round_seconds(times[False], fastest_cpu), "s"),
            "setup_s": (setup_seconds(args, fastest_cpu), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        untraced = round_seconds(times[False], fastest_cpu)
        traced = round_seconds(times[True], fastest_cpu)
        metrics = tracer.metrics(len(times[True]))
        metrics.update({"run_s.untraced": (untraced, "s"),
                        "run_s.traced": (traced, "s"),
                        "trace.overhead_s": (traced - untraced, "s")})
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
