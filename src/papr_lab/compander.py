"""Mu-law companding applied componentwise to complex baseband samples.

Forward: F(y) = sgn(y) ln(1 + mu |y|) / ln(1 + mu) on peak-normalized
components; inverse: F^-1(r) = sgn(r) (1/mu) ((1 + mu)^|r| - 1), then the
peak scale is restored.  The scale is treated as known at the receiver.
Each row of a stacked signal (..., samples) is one burst with its own scale,
its largest absolute component, which peak_scale alone computes.  Once that
scale is known the law acts on each component alone, so any samples of a
burst, companded at the whole burst's scale, are byte for byte those
samples of the companded burst: the harness's one send step takes the
scale of each whole burst and compands only the samples it keeps.  Both
directions work in place on the interleaved floats of a copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import ConfigError, DegenerateSignal, LengthMismatch

CLAMP_TOLERANCE = 1e-6
# The range of mu taken.  Below it the expander's scale / mu overflows for
# the modem's bursts, whose components stay under 93 (2.03 |taps| a sample
# times M / sqrt(2)); at the largest float the compressor's peak rounds up
# to inf.  Measured round trip over the scale: inf at 1e-307, 3.2e-16 at
# 1e-306 also for a scale of 92, 1.7e-13 at 1e308 (criterion 5: 1e-12).
MU_MIN, MU_MAX = 1e-306, 1e308


@dataclass(frozen=True)
class CompanderConfig:
    mu: float = 25.0

    def __post_init__(self):
        if not MU_MIN <= self.mu <= MU_MAX:  # also refuses nan
            raise ConfigError(f"mu must be in {MU_MIN:g}..{MU_MAX:g}, "
                              f"got {self.mu}")


def _per_row(scale, signal: np.ndarray) -> np.ndarray:
    """A scale per row of signal as a (..., 1) float array; LengthMismatch
    unless its shape is the signal's leading shape."""
    if np.shape(scale) != signal.shape[:-1]:
        raise LengthMismatch(f"scale shape {np.shape(scale)} does not match "
                             f"the signal's leading shape {signal.shape[:-1]}")
    return np.asarray(scale, dtype=float)[..., None]


def peak_scale(signal: np.ndarray) -> float | np.ndarray:
    """The mu-law scale of each row (the last axis) of a complex signal, the
    one peak routine: its largest absolute real or imaginary component, the
    larger of their max and minus their min, 1 for an all-zero row; a float
    for a 1-D signal and an array of the leading shape for a stack.
    DegenerateSignal for an empty signal or a non-finite component
    anywhere in it."""
    sig = np.asarray(signal, dtype=complex)
    if sig.strides[-1:] != (sig.itemsize,):  # the float view needs unit steps
        sig = np.ascontiguousarray(sig)
    comp = sig.view(float)
    if comp.size == 0:
        raise DegenerateSignal("empty signal")
    scale = np.maximum(comp.max(axis=-1), -comp.min(axis=-1))
    if not np.isfinite(scale).all():
        raise DegenerateSignal("non-finite sample in the signal")
    return np.where(scale == 0.0, 1.0, scale)[()]


def mu_compress(signal: np.ndarray, cfg: CompanderConfig = CompanderConfig(),
                scale: float | np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Compand a complex signal; returns (companded signal, peak scale).

    Both components of each row (the last axis) are normalized by its scale
    before the transform, so outputs lie in [-1, 1] per component.  The
    scale is one per row (LengthMismatch unless its shape is the signal's
    leading shape), peak_scale(signal) when none is given; peak_scale of a
    whole burst compands any samples of it as the whole burst's compression
    does.
    """
    out = np.array(signal, dtype=complex)
    comp = out.view(float)
    peak = _per_row(peak_scale(out) if scale is None else scale, out)
    mag = np.abs(comp)
    mag *= cfg.mu / peak
    np.log1p(mag, out=mag)
    mag *= 1.0 / np.log1p(cfg.mu)
    np.copysign(mag, comp, out=comp)
    return out, peak[..., 0][()]


def mu_expand(signal: np.ndarray, scale,
              cfg: CompanderConfig = CompanderConfig()) -> tuple[np.ndarray, int]:
    """Invert mu_compress; returns (signal, saturation count).

    scale is mu_compress's, one per row: its shape must be the signal's
    leading shape.  Components outside [-1, 1] (noise overshoot) are
    clamped; the count of clamped components beyond the tolerance, over all
    rows, is reported.
    """
    out = np.array(signal, dtype=complex)
    peak = _per_row(scale, out)
    comp = out.view(float)
    mag = np.abs(comp)
    saturated = int(np.count_nonzero(mag > 1 + CLAMP_TOLERANCE))
    np.minimum(mag, 1.0, out=mag)
    mag *= np.log1p(cfg.mu)
    np.expm1(mag, out=mag)
    np.copysign(mag, comp, out=comp)
    comp *= peak / cfg.mu
    return out, saturated
