"""Machine-speed yardstick for the end-to-end times.

On a 2-vCPU Xeon VM at 2.1 GHz whose cores are shared with other tenants,
the same round of simulation ran 1.5x slower for tens of seconds at a time,
in both wall and CPU time, so no run length averages it out.  Between
operations the benchmark therefore times a fixed piece of work of its own,
made of the three kinds of work the simulator does: Python table arithmetic
(the codecs), many small numpy calls (mapping, per-frame loops) and an FFT
convolution over sub-channel rows (the filter bank).  `slowness()` is the
mean over the three parts of their time against a fixed nominal time, so it
reads about 1 on an undisturbed machine; dividing a measured time by it
gives the time at nominal machine speed.  This code is part of the
benchmark and must not change between the commits it compares.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.signal import fftconvolve

# Nominal seconds per part: medians measured on a 2-vCPU Xeon at 2.1 GHz.
NOMINAL_S = (2.5e-3, 2.75e-3, 6.0e-3)

_EXP = [(3 ** i) % 127 + 1 for i in range(254)]
_LOG = {v: i for i, v in enumerate(_EXP[:127])}
_SMALL = np.random.default_rng(0).standard_normal(128)
_ROWS = np.zeros((64, 32 * 39 + 1), dtype=complex)
_ROWS[:, ::32] = 1.0
_TAPS = np.random.default_rng(1).standard_normal((64, 255)) + 0j


def _table_arithmetic() -> int:
    s = 0
    for i in range(15000):
        s ^= _EXP[(_LOG.get(i % 127 + 1, 0) + s % 7) % 254]
    return s


def _small_numpy() -> float:
    acc = 0.0
    for _ in range(400):
        acc += float((np.abs(_SMALL) ** 2).mean())
    return acc


def _filter_bank() -> complex:
    return complex(fftconvolve(_ROWS, _TAPS, axes=1)[0, 0])


_PARTS = (_table_arithmetic, _small_numpy, _filter_bank)


def slowness() -> float:
    """Mean of (part time / nominal part time) over the three parts."""
    ratios = []
    for part, nominal in zip(_PARTS, NOMINAL_S):
        t0 = time.perf_counter()
        part()
        ratios.append((time.perf_counter() - t0) / nominal)
    return sum(ratios) / len(ratios)
