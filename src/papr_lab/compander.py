"""Mu-law companding applied componentwise to complex baseband samples.

Forward: F(y) = sgn(y) ln(1 + mu |y|) / ln(1 + mu) on peak-normalized
components; inverse: F^-1(r) = sgn(r) (1/mu) ((1 + mu)^|r| - 1), then the
peak scale is restored.  The scale is treated as known at the receiver.
Each row of a stacked signal (..., samples) is one burst with its own scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import DegenerateSignal  # noqa: F401  (re-exported)

CLAMP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CompanderConfig:
    mu: float = 25.0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")


def _forward(y: np.ndarray, mu: float) -> np.ndarray:
    return np.sign(y) * np.log1p(mu * np.abs(y)) / np.log1p(mu)


def _inverse(r: np.ndarray, mu: float) -> np.ndarray:
    return np.sign(r) * (np.expm1(np.abs(r) * np.log1p(mu))) / mu


def mu_compress(signal: np.ndarray, cfg: CompanderConfig = CompanderConfig()
                ) -> tuple[np.ndarray, np.ndarray]:
    """Compand a complex signal; returns (companded signal, peak scale).

    The scale of each row (the last axis) is its largest absolute real or
    imaginary component, a float for a 1-D signal and an array of the
    leading shape for a stack; both components are normalized by it before
    the transform, so outputs lie in [-1, 1] per component.  An all-zero row
    passes through with scale 1.
    """
    signal = np.asarray(signal, dtype=complex)
    if signal.size == 0:
        raise DegenerateSignal("empty signal")
    scale = np.maximum(np.abs(signal.real).max(axis=-1),
                       np.abs(signal.imag).max(axis=-1))
    scale = np.where(scale == 0.0, 1.0, scale)[()]
    rows = np.asarray(scale)[..., None]
    out = (_forward(signal.real / rows, cfg.mu)
           + 1j * _forward(signal.imag / rows, cfg.mu))
    return out, scale


def mu_expand(signal: np.ndarray, scale,
              cfg: CompanderConfig = CompanderConfig()) -> tuple[np.ndarray, int]:
    """Invert mu_compress; returns (signal, saturation count).

    scale is mu_compress's, one per row.  Components outside [-1, 1] (noise
    overshoot) are clamped; the count of clamped components beyond the
    tolerance, over all rows, is reported.
    """
    signal = np.asarray(signal, dtype=complex)
    re, im = signal.real, signal.imag
    saturated = int(np.sum(np.abs(re) > 1 + CLAMP_TOLERANCE)
                    + np.sum(np.abs(im) > 1 + CLAMP_TOLERANCE))
    re = np.clip(re, -1.0, 1.0)
    im = np.clip(im, -1.0, 1.0)
    out = ((_inverse(re, cfg.mu) + 1j * _inverse(im, cfg.mu))
           * np.asarray(scale)[..., None])
    return out, saturated
