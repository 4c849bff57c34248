"""The byte ledger: every output byte of a fixed command list, hashed.

``--write FILE`` runs the checked-in command list below through
``cpelab.cli.main``, with whatever ``cpelab`` is importable, and writes one
line per output file: command id, exit code, file name and SHA-256.  The
inputs and outputs are kept in ``FILE.out/`` (both replaced on each
write).  A command's standard error is hashed as the file ``<stderr>``
when it is not empty, which covers every command that fails: an exception
that escapes ``main`` is recorded as exit ``exception`` with its type and
message.  Text that names the run's own directory, and the file and line
of a warning, are left out, so that two trees that compute the same bytes
write the same ledger.

``--compare A B`` lists every command, file or exit code that differs
between two ledgers, and, for a numeric file (``.npy``, ``.csv``,
``.json``) whose bytes differ, the largest difference relative to the
file's largest value.  It exits 0 when the ledgers
are equal and 1 otherwise.

Bytes depend on the numpy build, so compare two ledgers made on one host,
for example the parent commit's tree against a change::

    PYTHONPATH=../parent/src python3 tools/ledger.py --write /tmp/a.ledger
    PYTHONPATH=src python3 tools/ledger.py --write /tmp/b.ledger
    python3 tools/ledger.py --compare /tmp/a.ledger /tmp/b.ledger

The command list holds the benchmark's workloads (``perfbench/workloads.py``
makes their inputs), ``simulate`` in every mode and preset on grid shapes
on both sides of ``grid.DENSE_SWEEP_MAX_N``, ``resolvent`` at four λ with
each kind of data, ``spectrum`` in three modes and on three grids, and
hostile ``resolvent`` problems that exit 2, 6 and 9.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import sys
import warnings

import numpy as np  # cpelab's own dependency; reads .npy files

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (workload, seeds): the two gated workloads at one seed (guard_sweep's
# configs do not depend on it), the two run by hand at two seeds each
WORKLOAD_SEEDS = (("guard_sweep", (7,)), ("operators32", (7,)),
                  ("global16_decay", (1, 2)), ("local32_random", (1, 2)))
MODES = {"LocalGamma1": {}, "LocalGamma2": {}, "GlobalGamma1": {},
         "GeneralNoGravity": {"pressure": {"law": "tanh", "alpha": 0.5}}}
PRESETS = {"steady": {"amplitude": 0.0},
           "fourier_perturbation": {"amplitude": 0.05,
                                    "perturbation_mode": [1, 1]},
           "random_smooth": {"amplitude": 0.05, "seed": 3}}
# three shapes on the matmul sweep (max(nx, ny) <= 40), one above it
SIMULATE_GRIDS = ((8, 8, 5), (12, 16, 7), (24, 24, 9), (48, 48, 5))
LAMBDAS = {"0": 0.0, "3.7": 3.7, "37i": [0.0, 37.0], "0.5+2i": [0.5, 2.0]}
RESOLVENT_GRIDS = ((12, 16, 9), (32, 32, 17))
# spectrum configs, label: (mode, grid, params beside mu = 1, mu' = 0.5),
# and a lambda = 0 resolvent with nx > ny: with the workloads they reach
# every branch of the shell blocks (the three vertical weights, xi_bar
# other than 1, the real and complex forms, pinned shells)
SPECTRA = {
    "LocalGamma2": ("LocalGamma2", (16, 16, 9), {}),
    "GeneralNoGravity": ("GeneralNoGravity", (16, 16, 9),
                         {"pressure": {"law": "tanh", "alpha": 0.5}}),
    "24x12x13": ("GlobalGamma1", (24, 12, 13), {}),
    "xi_bar-1.3": ("LocalGamma1", (16, 16, 9), {"xi_bar": 1.3}),
}
NX_ABOVE_NY = (24, 12, 13)
HOSTILE = {  # label: problem keys over an 8x8x5 manufactured problem
    "lam_negative": {"lam": -1.0},                                # 2
    "xi_bar_zero": {"params": {"mu": 1.0, "mu_prime": 0.5,
                               "xi_bar": 0.0}},                   # 2
    "nx_odd": {"grid": {"nx": 7, "ny": 8, "nz": 5}},              # 2
    "random_at_zero": {"rhs": "random", "seed": 3},               # 6
    "zeta_row_overflows": {"rhs": "random", "lam": 1.0,
                           "params": {"mu": 1.0, "mu_prime": 0.5,
                                      "xi_bar": 1e308}},          # 9
    "data_overflow": {"lam": 1e308},                              # 9
    "norm_overflows": {"params": {"mu": 1.0, "mu_prime": 0.5,
                                  "xi_bar": 1e300}},              # 9
    "lam_1e300i": {"lam": [0.0, 1e300]},                          # 9
}
STDERR = "<stderr>"


def _grid(shape) -> dict:
    return dict(zip(("nx", "ny", "nz"), shape))


def _input(work: str, cid: str, obj: dict) -> str:
    path = os.path.join(work, "inputs", cid + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return path


def commands(work: str) -> list:
    """The fixed command list as ``(id, argv)`` pairs, ``argv`` without
    ``--output-dir``; the inputs are written under ``work``."""
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import workloads
    cmds = []
    for name, seeds in WORKLOAD_SEEDS:
        for seed in seeds:
            w = workloads.WORKLOADS[name](
                seed, os.path.join(work, "inputs", f"{name}-{seed}"))
            os.makedirs(w.in_dir, exist_ok=True)
            w.write_inputs()
            for op in sorted(w.round_ops(), key=lambda op: op.label):
                cmds.append((f"{name}-{seed}/{op.label}", op.argv[:2]))
    for shape, (mode, extra), (preset, keys) in itertools.product(
            SIMULATE_GRIDS, MODES.items(), PRESETS.items()):
        cid = "simulate/{}x{}x{}/{}/{}".format(*shape, mode, preset)
        cmds.append((cid, ["simulate", _input(work, cid, {
            "schema_version": 1, "mode": mode, "grid": _grid(shape),
            "params": {"mu": 0.5, "mu_prime": 0.25, **extra},
            "dt": 0.01, "t_end": 0.05, "output_every": 1,
            "preset": preset, **keys})]))
    for shape, (lam_id, lam), rhs in itertools.product(
            RESOLVENT_GRIDS, LAMBDAS.items(),
            ("manufactured", "random", "zero")):
        cid = "resolvent/{}x{}x{}/{}/{}".format(*shape, lam_id, rhs)
        cmds.append((cid, ["resolvent", _input(work, cid, {
            "schema_version": 1, "grid": _grid(shape),
            "params": {"mu": 1.0, "mu_prime": 0.5}, "lam": lam,
            "rhs": rhs, "seed": 0})]))
    cid = "resolvent/{}x{}x{}/0/manufactured".format(*NX_ABOVE_NY)
    cmds.append((cid, ["resolvent", _input(work, cid, {
        "schema_version": 1, "grid": _grid(NX_ABOVE_NY),
        "params": {"mu": 1.0, "mu_prime": 0.5}, "lam": 0.0,
        "rhs": "manufactured"})]))
    for label, (mode, shape, extra) in SPECTRA.items():
        cid = f"spectrum/{label}"
        cmds.append((cid, ["spectrum", _input(work, cid, {
            "schema_version": 1, "mode": mode, "grid": _grid(shape),
            "params": {"mu": 1.0, "mu_prime": 0.5, **extra}})]))
    for label, keys in HOSTILE.items():
        cid = f"hostile/{label}"
        cmds.append((cid, ["resolvent", _input(work, cid, {
            "schema_version": 1, "grid": _grid((8, 8, 5)),
            "params": {"mu": 1.0, "mu_prime": 0.5}, "lam": 0.0,
            "rhs": "manufactured", **keys})]))
    return cmds


def _cli_main():
    """``cpelab.cli.main`` of the cpelab on the path: the tree measured."""
    try:
        from cpelab import cli
    except ImportError as exc:
        sys.exit(f"ledger: {exc}; put the src/ of the tree to measure on "
                 "PYTHONPATH")
    return cli.main


def _run(main, argv: list, out: str):
    """Exit code and standard error of ``main(argv + --output-dir out)``,
    warnings shown as a fresh process shows them, once per place."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            code = main([*argv, "--output-dir", out])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome to record
            code = "exception"
            print(f"{type(exc).__name__}: {exc}", file=err)
    text = err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, text


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write(path: str, cmds=None) -> None:
    """Run ``cmds`` (default: :func:`commands`) and write the ledger."""
    main = _cli_main()
    root = path + ".out"
    shutil.rmtree(root, ignore_errors=True)
    cmds = commands(root) if cmds is None else cmds
    lines = [f"# cpelab byte ledger, numpy {np.__version__}: "
             "command id, exit code, file, sha256"]
    for cid, argv in cmds:
        out = os.path.join(root, "runs", cid)
        code, err = _run(main, argv, out)
        err = err.replace(root, "<root>")
        files = []
        for d, _, names in os.walk(out):
            files += [os.path.relpath(os.path.join(d, n), out) for n in names]
        rows = [(f, _sha256(os.path.join(out, f))) for f in sorted(files)]
        if err:
            os.makedirs(os.path.dirname(out), exist_ok=True)
            with open(out + ".stderr", "w", encoding="utf-8") as fh:
                fh.write(err)
            rows.append((STDERR, hashlib.sha256(err.encode()).hexdigest()))
        for f, sha in rows or [("-", "-")]:
            lines.append(f"{cid}\t{code}\t{f}\t{sha}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read(path: str) -> dict:
    """``{id: (exit code, {file: sha256})}`` of a ledger file."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            cid, code, f, sha = line.rstrip("\n").split("\t")
            entries.setdefault(cid, (code, {}))[1][f] = sha
    return entries


def _leaves(obj, at=""):
    """``(place, value)`` of every leaf of a parsed JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{at}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{at}[{i}]")
    else:
        yield at, obj


def _numbers(path: str):
    """The numbers of an output file as an array, its other content as a
    list (compared for equality), or None for a file of another kind."""
    if path.endswith(".npy"):
        return np.load(path, allow_pickle=False).ravel(), []
    if path.endswith(".csv"):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        return np.loadtxt(path, delimiter=",", skiprows=1,
                          ndmin=1).ravel(), [header]
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            leaves = list(_leaves(json.load(fh)))
        num = [(k, v) for k, v in leaves if type(v) in (int, float)]
        return (np.array([v for _, v in num], dtype=float),
                [x for x in leaves if x not in num] + [k for k, _ in num])
    return None


def relative_difference(a: str, b: str) -> str:
    """The largest difference between the numbers of two output files,
    relative to the largest value in either, as text."""
    na, nb = _numbers(a), _numbers(b)
    if na is None or nb is None:
        return ""
    (xa, rest_a), (xb, rest_b) = na, nb
    if xa.shape != xb.shape or rest_a != rest_b:
        return "; shapes or non-numeric content differ"
    with np.errstate(invalid="ignore", over="ignore"):
        same = (xa == xb) | (np.isnan(xa) & np.isnan(xb))
        diff = np.where(same, 0.0, np.abs(xa - xb)).max(initial=0.0)
        scale = np.nanmax(np.abs(np.r_[xa, xb, math.ulp(0.0)]))
    return f"; largest difference {diff / scale:.2e} of the largest value"


def compare(a: str, b: str) -> list:
    """The differences between ledgers ``a`` and ``b``, one line each."""
    la, lb = read(a), read(b)
    found = []
    for cid in sorted(la.keys() | lb.keys()):
        if cid not in lb or cid not in la:
            found.append(f"{cid}: only in {a if cid in la else b}")
            continue
        (ca, fa), (cb, fb) = la[cid], lb[cid]
        if ca != cb:
            found.append(f"{cid}: exit {ca} -> {cb}")
        for f in sorted(fa.keys() | fb.keys()):
            if f not in fb or f not in fa:
                found.append(f"{cid} {f}: only in {a if f in fa else b}")
            elif fa[f] != fb[f]:
                pa, pb = (os.path.join(x + ".out", "runs", cid, f)
                          for x in (a, b))
                rel = ""
                if os.path.exists(pa) and os.path.exists(pb):
                    rel = relative_difference(pa, pb)
                found.append(f"{cid} {f}: bytes differ{rel}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="FILE")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.write:
        write(args.write)
        return 0
    found = compare(*args.compare)
    for line in found:
        print(line)
    if not found:
        n = read(args.compare[0])
        print(f"identical: {len(n)} commands, "
              f"{sum(len(f) for _, f in n.values())} ledger lines")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
