"""CPU-speed calibration, so that timings taken at different moments compare.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to about 1.6x over tens of seconds.  A fixed
calibration, run between consecutive timed units, measures that drift:
each unit's time is multiplied by ``reference / c``, where ``c`` is the
mean of the calibrations just before and just after the unit.  The result
is the time the unit would have taken at the reference speed.  Neither
calibration runs grassvar code, so no change to the program can move it.

In-process units use ``calibration_kernel``, which copies the shape of
grassvar's per-node work (math calls, small numpy arrays, 2x2
determinants, a frozen dataclass).  Fresh-process units use the launch of
a reference process that imports numpy and a few standard modules
(``REFERENCE_IMPORTS``): start-up slows with the machine in ways the
in-process kernel does not see.
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median times of the two calibrations on the reference machine (2 vCPUs at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6).  Any constants would do; these keep
# scaled times close to the seconds measured there at median speed.
REFERENCE_S = 0.025
REFERENCE_LAUNCH_S = 0.17
REFERENCE_IMPORTS = "import numpy, json, csv, argparse, dataclasses"

_ROWS = ([0, 1], [0, 2], [1, 2])


@dataclass(frozen=True)
class _Lift:
    base: np.ndarray
    comps: np.ndarray


def calibration_kernel(nodes: int = 800) -> float:
    """Seconds taken by a fixed per-node pipeline over a sphere patch."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(nodes):
        th, ph = 0.1 + 1e-3 * i, 0.2 + 2e-3 * i
        y = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
        J = np.array(
            [
                [math.cos(th) * math.cos(ph), -math.sin(th) * math.sin(ph)],
                [math.cos(th) * math.sin(ph), math.sin(th) * math.cos(ph)],
                [-math.sin(th), 0.0],
            ]
        )
        comps = np.empty(3)
        for r, rows in enumerate(_ROWS):
            comps[r] = np.linalg.det(J[rows, :])
        lift = _Lift(y.reshape(-1), comps.reshape(-1))
        if not (np.all(np.isfinite(lift.base)) and np.all(np.isfinite(lift.comps))):
            raise FloatingPointError("calibration kernel produced a non-finite value")
        total += float(np.linalg.norm(lift.comps))
    elapsed = time.perf_counter() - t0
    if not total > 0.0:
        raise FloatingPointError("calibration kernel computed nothing")
    return elapsed


class ScaledTimer:
    """Units timed one after another, with a calibration between each two.

    ``calibrate`` returns the seconds a fixed piece of work took just now;
    ``reference`` is its time at the reference speed.
    """

    def __init__(self, calibrate=calibration_kernel, reference: float = REFERENCE_S):
        self.units: list[tuple] = []  # (key, seconds, calibration before, after)
        self._calibrate = calibrate
        self._reference = reference
        self._last = calibrate()

    def add(self, key, seconds: float) -> None:
        """Record a unit that ended just now, then calibrate for the next."""
        before, self._last = self._last, self._calibrate()
        self.units.append((key, seconds, before, self._last))

    def skip(self) -> None:
        """Drop a unit that ended just now (failed or warm-up); recalibrate."""
        self._last = self._calibrate()

    def medians(self, scaled: bool = True) -> dict:
        """Median time per key, scaled to the reference speed by default."""
        by_key: dict = {}
        for key, seconds, before, after in self.units:
            factor = 2.0 * self._reference / (before + after) if scaled else 1.0
            by_key.setdefault(key, []).append(seconds * factor)
        return {key: statistics.median(v) for key, v in by_key.items()}
