"""Fixtures shared by several test modules."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cpelab.grid import make_grid


def _grid_of_any_parity(nx, ny, nz):
    """A grid whose horizontal sizes may be odd (make_grid takes even ones).

    Only the horizontal fields are set for odd sizes: the nodes, the
    wavenumbers, the derivative multipliers and the 2/3 mask.
    """
    g = make_grid(nx + nx % 2, ny + ny % 2, nz)
    if nx % 2 == 0 and ny % 2 == 0:
        return g
    fields = {"nx": nx, "ny": ny}
    keep = []
    for axis, n in (("x", nx), ("y", ny)):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        ik = 1j * k
        if n % 2 == 0:
            ik[n // 2] = 0.0
        fields.update({axis: np.arange(n) / n, "k" + axis: k, "ik" + axis: ik})
        keep.append(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3)
    fields["dealias_mask"] = keep[0][:, None] & keep[1][None, :]
    return dataclasses.replace(g, **fields)


@pytest.fixture(scope="session")
def grid_of_any_parity():
    """Factory ``(nx, ny, nz) -> Grid`` that also takes odd nx, ny."""
    return _grid_of_any_parity
