"""Mu-law companding applied componentwise to complex baseband samples.

Forward: F(y) = sgn(y) ln(1 + mu |y|) / ln(1 + mu) on peak-normalized
components; inverse: F^-1(r) = sgn(r) (1/mu) ((1 + mu)^|r| - 1), then the
peak scale is restored.  The scale is treated as known at the receiver.
Each row of a stacked signal (..., samples) is one burst with its own scale;
both directions work in place on the interleaved floats of a copy of it.
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


def mu_compress(signal: np.ndarray, cfg: CompanderConfig = CompanderConfig()
                ) -> tuple[np.ndarray, np.ndarray]:
    """Compand a complex signal; returns (companded signal, peak scale).

    The scale of each row (the last axis) is its largest absolute real or
    imaginary component, a float for a 1-D signal and an array of the
    leading shape for a stack; both components are normalized by it before
    the transform, so outputs lie in [-1, 1] per component.  An all-zero row
    passes through with scale 1; a row with a non-finite component raises
    DegenerateSignal.
    """
    out = np.array(signal, dtype=complex)
    if out.size == 0:
        raise DegenerateSignal("empty signal")
    comp = out.view(float)
    mag = np.abs(comp)
    scale = mag.max(axis=-1, keepdims=True)
    if not np.isfinite(scale).all():
        raise DegenerateSignal("non-finite sample in the signal")
    scale[scale == 0.0] = 1.0
    mag *= cfg.mu / scale
    np.log1p(mag, out=mag)
    mag *= 1.0 / np.log1p(cfg.mu)
    np.copysign(mag, comp, out=comp)
    return out, scale[..., 0][()]


def mu_expand(signal: np.ndarray, scale,
              cfg: CompanderConfig = CompanderConfig()) -> tuple[np.ndarray, int]:
    """Invert mu_compress; returns (signal, saturation count).

    scale is mu_compress's, one per row: its shape must be the signal's
    leading shape.  Components outside [-1, 1] (noise overshoot) are
    clamped; the count of clamped components beyond the tolerance, over all
    rows, is reported.
    """
    out = np.array(signal, dtype=complex)
    if np.shape(scale) != out.shape[:-1]:
        raise LengthMismatch(f"scale shape {np.shape(scale)} does not match "
                             f"the signal's leading shape {out.shape[:-1]}")
    comp = out.view(float)
    mag = np.abs(comp)
    saturated = int(np.count_nonzero(mag > 1 + CLAMP_TOLERANCE))
    np.minimum(mag, 1.0, out=mag)
    mag *= np.log1p(cfg.mu)
    np.expm1(mag, out=mag)
    np.copysign(mag, comp, out=comp)
    comp *= (np.asarray(scale) / cfg.mu)[..., None]
    return out, saturated
