"""Spans around calls into cpelab's public functions, for the traced run.

The program is not changed: :class:`Tracer` replaces module attributes
with timing wrappers while it is installed and puts the originals back on
:meth:`Tracer.uninstall`.  A function that another cpelab module imported
by name (``from .grid import dealias as dealias_field``) is replaced there
too, found by identity, so calls through every binding are seen.

Each span keeps a call count, its total time and its self time: the total
minus the time covered by the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Span name -> (module, attribute).  "Class.method" patches the class.
TARGETS = {
    "cli.main": ("cpelab.cli", "main"),
    "cli.parse_run_config": ("cpelab.cli", "parse_run_config"),
    "evolve.run_simulation": ("cpelab.evolve", "run_simulation"),
    "evolve.Stepper.init": ("cpelab.evolve", "Stepper.__init__"),
    "evolve.Stepper.step": ("cpelab.evolve", "Stepper.step"),
    "evolve.nonlinearity_F2": ("cpelab.evolve", "nonlinearity_F2"),
    "evolve.nonlinearity_F1": ("cpelab.evolve", "nonlinearity_F1"),
    "evolve.reconstruct_w": ("cpelab.evolve", "reconstruct_w"),
    "flowmap.advance_flow_lagrangian": ("cpelab.flowmap",
                                        "advance_flow_lagrangian"),
    "flowmap.check_invertibility": ("cpelab.flowmap", "check_invertibility"),
    "diagnostics.lagrangian_energy": ("cpelab.diagnostics",
                                      "lagrangian_energy"),
    "diagnostics.write_diagnostics_csv": ("cpelab.diagnostics",
                                          "write_diagnostics_csv"),
    "grid.dealias": ("cpelab.grid", "dealias"),
    "grid.grad_h_vec": ("cpelab.grid", "grad_h_vec"),
    "operators.vertical_lame_block": ("cpelab.operators",
                                      "vertical_lame_block"),
    "operators.apply_hydrostatic_lame": ("cpelab.operators",
                                         "apply_hydrostatic_lame"),
    "stokes_solver.spectral_bound": ("cpelab.stokes_solver", "spectral_bound"),
    "stokes_solver.solve_resolvent": ("cpelab.stokes_solver",
                                      "solve_resolvent"),
    "stokes_solver.resolvent_residual": ("cpelab.stokes_solver",
                                         "resolvent_residual"),
}

# Spans recorded once by the benchmark itself rather than by a wrapper.
IMPORT_SPAN = "import.cpelab"
SPAN_NAMES = (IMPORT_SPAN,) + tuple(TARGETS)


class Tracer:
    """Installable timing wrappers around the functions in :data:`TARGETS`."""

    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self._open = []          # child time covered, one entry per open span
        self._patches = []       # (owner, attribute, original)

    def record(self, name: str, seconds: float) -> None:
        """Add one span measured outside the wrappers."""
        s = self.stats[name]
        s[0] += 1
        s[1] += seconds
        s[2] += seconds

    def _wrap(self, name: str, fn):
        stats, open_spans = self.stats[name], self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if open_spans:
                    open_spans[-1] += dt
        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == "cpelab" or n.startswith("cpelab.")]
        for name, (module, attr) in TARGETS.items():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int) -> dict:
        """Per-round ``<span>.calls``, ``<span>.s`` and ``<span>.self_s``.

        The import span happens once per process and is reported as is.
        """
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            n = 1 if name == IMPORT_SPAN else rounds
            out[f"{name}.calls"] = (calls / n, "count")
            out[f"{name}.s"] = (total / n, "s")
            out[f"{name}.self_s"] = (self_s / n, "s")
        return out
