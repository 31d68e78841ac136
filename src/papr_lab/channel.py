"""AWGN and ITU tapped-delay-line channels with block Rayleigh fading,
plus the one-tap zero-forcing sub-channel equalizer.

Tap tables follow the standard ITU-R M.1225 Pedestrian B / Vehicular A
definitions.  Fading is quasi-static per burst: one complex Gaussian gain
per tap, power profile normalized to unit total average power.  A
realization is a plain complex array of sample-spaced taps at SAMPLE_RATE,
(span,) for one burst or (..., span) for a stack of bursts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import ConfigError

SAMPLE_RATE = 10e6  # 100 ns ticks: each ITU delay lands on its own sample


@dataclass(frozen=True)
class ChannelProfile:
    name: str
    tap_delays_ns: tuple  # strictly increasing, first 0
    tap_powers_db: tuple
    fading: str  # "none" | "block-rayleigh"


_PROFILES = {
    "awgn": ChannelProfile(
        name="awgn", tap_delays_ns=(0.0,), tap_powers_db=(0.0,),
        fading="none"),
    "pedestrian_b": ChannelProfile(
        name="pedestrian_b",
        tap_delays_ns=(0.0, 200.0, 800.0, 1200.0, 2300.0, 3700.0),
        tap_powers_db=(0.0, -0.9, -4.9, -8.0, -7.8, -23.9),
        fading="block-rayleigh"),
    "vehicular_a": ChannelProfile(
        name="vehicular_a",
        tap_delays_ns=(0.0, 310.0, 710.0, 1090.0, 1730.0, 2510.0),
        tap_powers_db=(0.0, -1.0, -9.0, -10.0, -15.0, -20.0),
        fading="block-rayleigh"),
}


def make_profile(name: str) -> ChannelProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown channel profile {name!r}") from None


@functools.cache
def _tap_powers(profile: ChannelProfile) -> np.ndarray:
    """Average power per sample-spaced tap at SAMPLE_RATE, normalized to
    unit total.  Fixed per profile."""
    powers_lin = 10.0 ** (np.asarray(profile.tap_powers_db) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()  # unit average channel power
    idx = np.rint(np.asarray(profile.tap_delays_ns) * 1e-9 * SAMPLE_RATE)
    tap_power = np.zeros(int(idx.max()) + 1)
    tap_power[idx.astype(int)] = powers_lin  # delays land on distinct samples
    tap_power.setflags(write=False)
    return tap_power


def realize(profile: ChannelProfile,
            rng: np.random.Generator | Sequence[np.random.Generator] | None
            = None) -> np.ndarray:
    """Draw quasi-static realizations of the profile: read-only complex
    taps (span,) for one Generator, or (bursts, span) for a sequence of
    Generators, one per burst, as in apply.  Each burst draws span real
    parts, then span imaginary parts, from its own Generator.  Block-Rayleigh
    profiles need an rng; without fading the taps are (span,) and fixed.
    Tap delays are rounded to the nearest sample.
    """
    tap_power = _tap_powers(profile)
    if profile.fading == "none":
        taps = np.sqrt(tap_power).astype(complex)
    else:
        if rng is None:
            raise ValueError("fading profile requires an rng")
        one = isinstance(rng, np.random.Generator)
        rngs = [rng] if one else rng
        g = np.empty((len(rngs), 2, tap_power.size))
        for burst_rng, burst in zip(rngs, g):
            burst_rng.standard_normal(out=burst)
        taps = np.sqrt(tap_power / 2.0) * (g[:, 0] + 1j * g[:, 1])
        taps = taps[0] if one else taps
    rows = taps.reshape(-1, taps.shape[-1])  # a view: taps are contiguous
    # a degenerate all-zero draw is measure-zero but fatal
    rows[~np.any(rows, axis=1), 0] = 1.0
    taps.setflags(write=False)
    return taps


def apply(signal: np.ndarray, taps: np.ndarray, snr_db: float,
          rng: np.random.Generator | Sequence[np.random.Generator] | None
          = None) -> np.ndarray:
    """Convolve with the channel taps and add complex white Gaussian noise.

    signal is one burst (samples,) or a stack (..., samples), and taps
    are the matching (span,) or (..., span) as in equalize; the output is
    the full convolution (..., samples + span - 1), one multiply-add per
    nonzero tap delay over the whole stack.  Noise power is set per burst
    against the empirical power of its faded signal, so each burst's
    received SNR over the full band equals snr_db; rng is a Generator per
    burst (a sequence over the flattened leading axes; one Generator for
    one burst), and each burst's noise is drawn from its own.  snr_db =
    +inf skips the noise entirely; NaN and -inf raise ValueError.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db {snr_db} is not a dB value or +inf")
    signal = np.asarray(signal, dtype=complex)
    n, span = signal.shape[-1], taps.shape[-1]
    lead = np.broadcast_shapes(signal.shape[:-1], taps.shape[:-1])
    faded = np.zeros(lead + (n + span - 1,), dtype=complex)
    for d in np.flatnonzero(np.any(taps.reshape(-1, span), axis=0)):
        faded[..., d:d + n] += taps[..., d, None] * signal
    if snr_db == math.inf:
        return faded
    if rng is None:
        raise ValueError("finite snr requires an rng")
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if len(rngs) != math.prod(lead):
        raise ValueError(f"{len(rngs)} rngs for {math.prod(lead)} bursts")
    sig_power = np.mean(np.abs(faded) ** 2, axis=-1)
    noise_power = sig_power / (10.0 ** (snr_db / 10.0))
    # per burst: faded.shape[-1] real parts, then as many imaginary parts
    noise = np.empty((len(rngs), 2, faded.shape[-1]))
    for burst_rng, burst in zip(rngs, noise):
        burst_rng.standard_normal(out=burst)
    noise *= np.sqrt(noise_power / 2.0).reshape(-1, 1, 1)
    rows = faded.reshape(len(rngs), -1)  # a view: faded is contiguous
    rows.real += noise[:, 0]
    rows.imag += noise[:, 1]
    return faded


SINGULAR_THRESHOLD = 1e-6


def frequency_response(taps: np.ndarray, M: int) -> np.ndarray:
    """Channel response at the M sub-channel center frequencies 2 pi k / M,
    (..., M) for taps (..., span): every n-th bin of the n*M-point DFT, n =
    ceil(span / M), so taps past M alias as in the M-point sum."""
    n = -(-taps.shape[-1] // M)
    return np.fft.fft(taps, n * M)[..., ::n]


def equalize(grid: np.ndarray,
             taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-tap zero-forcing per sub-channel with genie channel knowledge.

    grid is (..., M, n) and taps are the matching (..., span).  Returns
    (equalized grid, singular-subchannel mask (..., M)); sub-channels whose
    response magnitude is below the threshold pass through unequalized and
    are flagged.
    """
    H = frequency_response(taps, grid.shape[-2])
    singular = np.abs(H) < SINGULAR_THRESHOLD
    Hsafe = np.where(singular, 1.0, H)
    return grid / Hsafe[..., None], singular
