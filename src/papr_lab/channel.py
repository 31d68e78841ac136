"""AWGN and ITU tapped-delay-line channels with block Rayleigh fading,
plus the one-tap zero-forcing sub-channel equalizer.

Tap tables follow the standard ITU-R M.1225 Pedestrian B / Vehicular A
definitions.  Fading is quasi-static per burst: one complex Gaussian gain
per tap, power profile normalized to unit total average power.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_SAMPLE_RATE = 10e6  # 100 ns resolution: all ITU delays land cleanly


class UnknownProfile(ValueError):
    pass


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
        raise UnknownProfile(f"unknown channel profile {name!r}") from None


@dataclass(frozen=True)
class ChannelRealization:
    # complex, at the simulation sample rate; (bursts, span) stacks the
    # realizations of several bursts for equalize
    fir_taps: np.ndarray
    merged_taps: bool = False  # True when delays collided onto one sample

    def __post_init__(self):
        self.fir_taps.setflags(write=False)


@functools.cache
def _tap_powers(profile: ChannelProfile,
                sample_rate: float) -> tuple[np.ndarray, bool]:
    """Average power per sample-spaced tap, normalized to unit total, and
    whether delays collided onto one sample.  Fixed per (profile, rate)."""
    powers_lin = 10.0 ** (np.asarray(profile.tap_powers_db) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()  # unit average channel power
    idx = np.rint(np.asarray(profile.tap_delays_ns) * 1e-9 * sample_rate)
    idx = idx.astype(int)
    span = int(idx.max()) + 1
    merged = len(np.unique(idx)) != len(idx)
    tap_power = np.zeros(span)
    for i, p in zip(idx, powers_lin):
        tap_power[i] += p
    tap_power.setflags(write=False)
    return tap_power, merged


def realize(profile: ChannelProfile, sample_rate: float,
            rng: np.random.Generator | None = None) -> ChannelRealization:
    """Draw one quasi-static realization of the profile.

    Block-Rayleigh profiles need an rng; tap delays are rounded to the
    nearest sample, colliding taps merge with power addition.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    tap_power, merged = _tap_powers(profile, sample_rate)
    if profile.fading == "none":
        taps = np.sqrt(tap_power).astype(complex)
    else:
        if rng is None:
            raise ValueError("fading profile requires an rng")
        span = tap_power.size
        g = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        taps = np.sqrt(tap_power / 2.0) * g
    if not np.any(taps):
        taps[0] = 1.0  # degenerate all-zero draw is measure-zero but fatal
    return ChannelRealization(fir_taps=taps, merged_taps=merged)


def apply(signal: np.ndarray, ch: ChannelRealization, snr_db: float,
          rng: np.random.Generator | Sequence[np.random.Generator] | None
          = None) -> np.ndarray:
    """Convolve with the channel taps and add complex white Gaussian noise.

    signal is one burst (samples,) or a stack (..., samples), and ch holds
    the matching taps, (span,) or (..., span) as in equalize; the output is
    the full convolution (..., samples + span - 1), one multiply-add per
    nonzero tap delay over the whole stack.  Noise power is set per burst
    against the empirical power of its faded signal, so each burst's
    received SNR over the full band equals snr_db; rng is a Generator per
    burst (a sequence over the flattened leading axes; one Generator for
    one burst), and each burst's noise is drawn from its own.  snr_db =
    +inf (or None) skips the noise entirely; NaN and -inf raise ValueError.
    """
    if snr_db is not None and (math.isnan(snr_db) or snr_db == -math.inf):
        raise ValueError(f"snr_db {snr_db} is not a dB value or +inf")
    signal = np.asarray(signal, dtype=complex)
    taps = ch.fir_taps
    n, span = signal.shape[-1], taps.shape[-1]
    lead = np.broadcast_shapes(signal.shape[:-1], taps.shape[:-1])
    faded = np.zeros(lead + (n + span - 1,), dtype=complex)
    for d in np.flatnonzero(np.any(taps.reshape(-1, span), axis=0)):
        faded[..., d:d + n] += taps[..., d, None] * signal
    if snr_db is None or snr_db == math.inf:
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
    parts = faded.view(float).reshape(len(rngs), -1, 2)  # re, im per sample
    parts += noise.transpose(0, 2, 1)
    return faded


SINGULAR_THRESHOLD = 1e-6


@functools.cache
def _dft_kernel(M: int, span: int) -> np.ndarray:
    """exp(-2 pi i k t / M) for M sub-channels k and span taps t."""
    t = np.arange(span)
    k = np.arange(M)[:, None]
    kernel = np.exp(-2j * np.pi * k * t / M)
    kernel.setflags(write=False)
    return kernel


def frequency_response(ch: ChannelRealization, M: int) -> np.ndarray:
    """Channel response at the M sub-channel center frequencies 2 pi k / M,
    (..., M) for taps (..., span)."""
    taps = ch.fir_taps[..., None, :]
    return (taps * _dft_kernel(M, taps.shape[-1])).sum(axis=-1)


def equalize(grid: np.ndarray, ch: ChannelRealization,
             M: int) -> tuple[np.ndarray, np.ndarray]:
    """One-tap zero-forcing per sub-channel with genie channel knowledge.

    grid is (..., M, n) and ch holds the matching (..., span) taps.  Returns
    (equalized grid, singular-subchannel mask (..., M)); sub-channels whose
    response magnitude is below the threshold pass through unequalized and
    are flagged.
    """
    if grid.shape[-2] != M:
        raise ValueError(f"grid has {grid.shape[-2]} sub-channels, expected {M}")
    H = frequency_response(ch, M)
    singular = np.abs(H) < SINGULAR_THRESHOLD
    Hsafe = np.where(singular, 1.0, H)
    return grid / Hsafe[..., None], singular
