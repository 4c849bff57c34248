"""The benchmark's workloads: inputs made from a seed, operations, checks.

A workload writes its config files once, then runs in rounds.  A round is
a fixed list of operations, each one call of ``cpelab.cli.main`` on a
generated config with its own output directory, and each operation has a
check that reads that directory after the round's timed part.  Every round
of a workload attempts the same operations, so the share of failed
operations does not depend on the run length.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    label: str
    argv: list
    out_dir: str
    check: Callable          # check(out_dir, rc) -> list of problems


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed % 2**32
        self.rng = np.random.default_rng(self.seed)
        self.in_dir = os.path.join(work_dir, "inputs")
        self.out_dir = os.path.join(work_dir, "out")

    def write_inputs(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> list:
        """The operations of the next round."""
        raise NotImplementedError

    def _simulate(self, label: str, cfg: dict, check) -> Op:
        path = _write_json(os.path.join(self.in_dir, f"{label}.json"), cfg)
        out = os.path.join(self.out_dir, label)
        return Op(label, ["simulate", path, "--output-dir", out], out, check)


def _run_config(mode, grid, params, dt, t_end, output_every, preset,
                amplitude, seed, **extra) -> dict:
    return {"schema_version": 1, "mode": mode,
            "grid": dict(zip(("nx", "ny", "nz"), grid)), "params": params,
            "dt": dt, "t_end": t_end, "output_every": output_every,
            "preset": preset, "amplitude": amplitude, "seed": seed, **extra}


def _eta0(grid, **params) -> float:
    """The program's spectral bound, for checks; computed outside timing."""
    from cpelab.grid import make_grid
    from cpelab.stokes_solver import spectral_bound
    from cpelab.transforms import PhysicalParams
    return spectral_bound(make_grid(*grid),
                          PhysicalParams(model="Gamma1", **params))


def _n_rows(cfg: dict) -> int:
    n_steps = round(cfg["t_end"] / cfg["dt"])
    return 1 + n_steps // cfg["output_every"] + (n_steps % cfg["output_every"] > 0)


class Global16Decay(Workload):
    """Criterion-8 decay run, shortened: GlobalGamma1 at 16x16x9."""

    name = "global16_decay"
    GRID = (16, 16, 9)
    PARAMS = {"mu": 1.0, "mu_prime": 1.0, "xi_bar": 1.0}

    def write_inputs(self) -> None:
        # One of the eight unit wavevectors and an amplitude around 1e-3:
        # every choice stays in the linear regime that decays at eta0.
        modes = [m for m in itertools.product((-1, 0, 1), repeat=2)
                 if m != (0, 0)]
        self.cfg = _run_config(
            "GlobalGamma1", self.GRID, self.PARAMS, dt=0.02, t_end=2.0,
            output_every=5, preset="fourier_perturbation",
            amplitude=1e-3 * (0.5 + self.rng.random()), seed=self.seed,
            perturbation_mode=list(modes[self.rng.integers(len(modes))]))
        self._eta0 = None
        self.op = self._simulate("run", self.cfg, self._check)

    def _check(self, out_dir, rc):
        if self._eta0 is None:
            self._eta0 = _eta0(self.GRID, **self.PARAMS)
        return checks.check_decay_run(out_dir, rc, _n_rows(self.cfg),
                                      self._eta0, self.PARAMS["xi_bar"])

    def round_ops(self):
        return [self.op]


class Local32Random(Workload):
    """Large-data LocalGamma1 run at 32x32x17 from a seeded random state."""

    name = "local32_random"
    M1, M2, DET_FLOOR = 0.5, 2.0, 0.1

    def write_inputs(self) -> None:
        self.cfg = _run_config(
            "LocalGamma1", (32, 32, 17),
            {"mu": 1.0, "mu_prime": 1.0, "M1": self.M1, "M2": self.M2},
            dt=0.01, t_end=0.15, output_every=5, preset="random_smooth",
            amplitude=0.2, seed=int(self.rng.integers(2**31)),
            tolerances={"det_floor": self.DET_FLOOR})
        self.op = self._simulate("run", self.cfg, lambda out, rc: (
            checks.check_large_data_run(out, rc, _n_rows(self.cfg), self.M1,
                                        self.M2, self.DET_FLOOR)))

    def round_ops(self):
        return [self.op]


class Operators32(Workload):
    """spectrum, then manufactured resolvent solves, at 32x32x17."""

    name = "operators32"
    GRID = (32, 32, 17)
    COARSE_GRID = (8, 8, 9)

    def write_inputs(self) -> None:
        r = self.rng.random(4)
        self.mu, self.mu_prime = 0.5 + r[0], 0.25 + 0.75 * r[1]
        params = {"mu": self.mu, "mu_prime": self.mu_prime}
        grid = dict(zip(("nx", "ny", "nz"), self.GRID))
        self._eta0_coarse = None
        spec = _write_json(os.path.join(self.in_dir, "spectrum.json"), {
            "schema_version": 1, "mode": "GlobalGamma1", "grid": grid,
            "params": params})
        out = os.path.join(self.out_dir, "spectrum")
        self.ops = [Op("spectrum", ["spectrum", spec, "--output-dir", out],
                       out, self._check_spectrum)]
        # lambda = 0 (steady), a real and an imaginary-axis point.
        for label, lam in (("lam_zero", 0.0), ("lam_real", 0.5 + 9.5 * r[2]),
                           ("lam_imag", 1j * (1.0 + 99.0 * r[3]))):
            lam = complex(lam)
            path = _write_json(os.path.join(self.in_dir, f"{label}.json"), {
                "schema_version": 1, "grid": grid, "params": params,
                "lam": [lam.real, lam.imag], "rhs": "manufactured"})
            out = os.path.join(self.out_dir, label)
            self.ops.append(Op(
                label, ["resolvent", path, "--output-dir", out], out,
                lambda o, rc, lam=lam: checks.check_resolvent(
                    o, rc, lam, self.GRID)))

    def _check_spectrum(self, out_dir, rc):
        if self._eta0_coarse is None:
            self._eta0_coarse = _eta0(self.COARSE_GRID, mu=self.mu,
                                      mu_prime=self.mu_prime)
        return checks.check_spectrum(out_dir, rc, self.mu, self.mu_prime,
                                     self._eta0_coarse)

    def round_ops(self):
        return list(self.ops)


class GuardSweep(Workload):
    """Violent short runs in all four modes that end at a terminal guard."""

    name = "guard_sweep"
    MODES = ("LocalGamma1", "LocalGamma2", "GlobalGamma1", "GeneralNoGravity")
    DTS = (0.02, 0.1, 0.5)
    AMPLITUDES = (0.45, 0.9)

    def write_inputs(self) -> None:
        # The grid of configs is fixed: six of them fail today, and an
        # operation that fails must fail on inputs the seed does not touch.
        # The seed orders the configs within each round.  M1 is lowered so
        # that amplitude 0.9 starts inside the local modes' density window.
        self.ops = []
        for mode, dt, amp in itertools.product(self.MODES, self.DTS,
                                               self.AMPLITUDES):
            cfg = _run_config(
                mode, (12, 12, 7),
                {"mu": 0.02, "mu_prime": 0.02, "M1": 0.05, "M2": 2.0},
                dt=dt, t_end=2.0, output_every=1,
                preset="fourier_perturbation", amplitude=amp, seed=0,
                perturbation_mode=[1, 0])
            self.ops.append(self._simulate(f"{mode}_dt{dt}_amp{amp}", cfg,
                                           checks.check_guard_run))

    def round_ops(self):
        return [self.ops[i] for i in self.rng.permutation(len(self.ops))]


WORKLOADS = {w.name: w for w in (Global16Decay, Local32Random, Operators32,
                                 GuardSweep)}
