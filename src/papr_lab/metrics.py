"""Measurement helpers: PAPR, empirical CCDF, BER counting, information
content of a codeword-probability.

LengthMismatch and DegenerateSignal are defined here once; modem, compander
and fec.rs re-export them."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateSignal(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class DomainError(ValueError):
    pass


def papr_db(window: np.ndarray) -> float | np.ndarray:
    """10 log10(peak instantaneous power / mean power) over the last axis."""
    # C order, so each window's mean sums in the same order however the
    # windows were gathered or stacked
    power = np.abs(np.ascontiguousarray(window)) ** 2
    mean = power.mean(axis=-1)
    if not np.all(mean):
        raise DegenerateSignal("all-zero window")
    return 10.0 * np.log10(power.max(axis=-1) / mean)


def frame_paprs(signal: np.ndarray, M: int, Lp: int,
                n_frames: int) -> np.ndarray:
    """Per-frame PAPR of a burst (..., samples) -> (..., n_frames): one
    M-sample window centered on each frame's steady-state span (group delay
    (Lp-1)/2 accounted for).  Leading axes stack bursts."""
    signal = np.asarray(signal)
    starts = np.maximum((Lp - 1) // 2 + M * np.arange(n_frames) - M // 2, 0)
    if starts.size and starts[-1] + M > signal.shape[-1]:
        raise LengthMismatch(f"{n_frames} frame windows need "
                             f"{starts[-1] + M} samples, "
                             f"got {signal.shape[-1]}")
    return papr_db(signal[..., starts[:, None] + np.arange(M)])


@dataclass(frozen=True)
class CcdfCurve:
    thresholds_db: np.ndarray
    probabilities: np.ndarray


CCDF_GRID_STEP_DB = 0.1


def ccdf(samples_db: np.ndarray) -> CcdfCurve:
    """Empirical complementary CDF of PAPR samples on a 0.1 dB grid."""
    samples_db = np.asarray(samples_db, dtype=float)
    if samples_db.size < 100:
        raise TooFewSamples(f"need >= 100 samples, got {samples_db.size}")
    lo = np.floor(samples_db.min() / CCDF_GRID_STEP_DB) * CCDF_GRID_STEP_DB
    hi = np.ceil(samples_db.max() / CCDF_GRID_STEP_DB) * CCDF_GRID_STEP_DB
    grid = np.arange(lo, hi + CCDF_GRID_STEP_DB / 2, CCDF_GRID_STEP_DB)
    # the share of samples above g: those right of g in sorted order
    above = samples_db.size - np.searchsorted(np.sort(samples_db), grid,
                                              side="right")
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


def information(p: float) -> float:
    """Information content in bits of an outcome with probability p."""
    if not 0.0 < p <= 1.0:
        raise DomainError(f"probability {p} outside (0, 1]")
    return -math.log2(p)
