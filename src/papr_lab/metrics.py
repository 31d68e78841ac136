"""Measurement helpers: PAPR, empirical CCDF, BER counting.

The shared error kinds ConfigError, DegenerateSignal and LengthMismatch are
defined here once and re-exported where raised; fec.rs defines the codecs'."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A parameter or name the package cannot use."""


class DegenerateSignal(ValueError):
    """A signal or sample set with nothing to measure."""


class LengthMismatch(ValueError):
    """Arrays whose lengths or shapes do not fit together."""


def papr_db(window: np.ndarray) -> float | np.ndarray:
    """10 log10(peak instantaneous power / mean power) over the last axis."""
    # C order, so each window's mean sums in the same order however the
    # windows were gathered or stacked
    power = np.abs(np.ascontiguousarray(window)) ** 2
    mean = power.mean(axis=-1)
    if not (np.all(mean) and np.isfinite(mean).all()):  # NaN, inf reach it
        raise DegenerateSignal("all-zero or non-finite window")
    return 10.0 * np.log10(power.max(axis=-1) / mean)


def frame_paprs(signal: np.ndarray, M: int, Lp: int,
                n_frames: int) -> np.ndarray:
    """Per-frame PAPR of a burst (..., samples) -> (..., n_frames): one
    M-sample window centered on each frame's steady-state span (group delay
    (Lp-1)/2 accounted for).  Leading axes stack bursts.  The windows tile
    the burst from sample (Lp-1)//2 - M//2, which is (K-1)M/2 - 1 >= 0 for
    a bank of Lp = K M - 1, so they are one reshaped view of it."""
    signal = np.asarray(signal)
    start = (Lp - 1) // 2 - M // 2
    stop = start + n_frames * M
    if start < 0:
        raise LengthMismatch(f"a prototype of length {Lp} puts the first "
                             f"{M}-sample window at sample {start}")
    if stop > signal.shape[-1]:
        raise LengthMismatch(f"{n_frames} frame windows need {stop} "
                             f"samples, got {signal.shape[-1]}")
    return papr_db(signal[..., start:stop].reshape(
        *signal.shape[:-1], n_frames, M))


@dataclass(frozen=True)
class CcdfCurve:
    thresholds_db: np.ndarray
    probabilities: np.ndarray


CCDF_GRID_STEP_DB = 0.1
CCDF_MIN_SAMPLES = 100  # fewer samples make no CCDF


def ccdf(samples_db: np.ndarray) -> CcdfCurve:
    """Empirical complementary CDF of PAPR samples on a 0.1 dB grid."""
    samples_db = np.asarray(samples_db, dtype=float)
    if samples_db.size < CCDF_MIN_SAMPLES:
        raise DegenerateSignal(f"need >= {CCDF_MIN_SAMPLES} samples, "
                            f"got {samples_db.size}")
    ordered = np.sort(samples_db)  # a NaN sorts last
    lo = np.floor(ordered[0] / CCDF_GRID_STEP_DB) * CCDF_GRID_STEP_DB
    hi = np.ceil(ordered[-1] / CCDF_GRID_STEP_DB) * CCDF_GRID_STEP_DB
    if not np.isfinite((lo, hi)).all():
        raise DegenerateSignal("non-finite PAPR samples")
    grid = np.arange(lo, hi + CCDF_GRID_STEP_DB / 2, CCDF_GRID_STEP_DB)
    # the share of samples above g: those right of g in sorted order
    above = samples_db.size - np.searchsorted(ordered, grid, side="right")
    probs = above / samples_db.size
    return CcdfCurve(thresholds_db=grid, probabilities=probs)


def papr_at_probability(curve: CcdfCurve, prob: float) -> float:
    """Smallest grid threshold whose exceedance probability is <= prob."""
    idx = np.flatnonzero(curve.probabilities <= prob)
    if idx.size == 0:
        return float(curve.thresholds_db[-1])
    return float(curve.thresholds_db[idx[0]])


@dataclass(frozen=True)
class BerRecord:
    snr_db: float
    scheme: str
    channel: str
    companding: bool
    bits_total: int
    bits_error: int

    @property
    def ber(self) -> float:
        return self.bits_error / self.bits_total if self.bits_total else 0.0


def ber(tx_bits: np.ndarray, rx_bits: np.ndarray) -> tuple[int, int]:
    """(error count, total count) between two equal-length bit streams."""
    tx_bits = np.asarray(tx_bits).ravel()
    rx_bits = np.asarray(rx_bits).ravel()
    if tx_bits.size != rx_bits.size:
        raise LengthMismatch(
            f"stream lengths differ: {tx_bits.size} vs {rx_bits.size}")
    return int(np.count_nonzero(tx_bits != rx_bits)), int(tx_bits.size)
