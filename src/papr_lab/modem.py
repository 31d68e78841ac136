"""FBMC-OQAM modem: 4-QAM mapping, OQAM staggering, synthesis/analysis banks.

Sub-channel k filters with g_k(m) = p(m) exp(j 2 pi k / M (m - c)), the
exponential modulation of one real linear-phase prototype p of length
Lp = K M - 1 designed by frequency sampling, c = (Lp - 1)/2.  Sub-channel
data moves at twice the QAM symbol rate (real/imag staggered by half a
symbol), with phase factors j^(k+n) keeping adjacent sub-channels orthogonal.

The banks are the polyphase network (Bellanger et al., PHYDYAS 2010): as
exp(j 2 pi k m / M) has period M in m, grid column n adds p(m) x_n(m mod M)
at sample n M/2 + m, x_n = M ifft_k(d[k, n] exp(-j 2 pi k c / M)).  As
2 c = K M - 2, that phase shifts x_n circularly by one sample, plus M/2 for
odd K, so the banks weight the plain IFFT with [0, p], one sample's delay of
p, and swap the halves of x_n for odd K.  Analysis is the transpose; both
equal the direct form up to rounding.

Every function takes leading batch axes: a stack of bursts goes through each
stage as one array, and each burst comes out as it would alone.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .metrics import DegenerateSignal, LengthMismatch  # noqa: F401  (re-exported)


class UnsupportedOverlap(ValueError):
    pass


class ConfigMismatch(ValueError):
    pass


# frequency-sampling target values per overlap factor
_FREQ_SAMPLES = {
    2: [1.0, np.sqrt(2) / 2],
    3: [1.0, 0.911438, 0.411438],
    4: [1.0, 0.971960, np.sqrt(2) / 2, 0.235147],
}


def design_prototype(M: int, K: int) -> np.ndarray:
    """Length K*M - 1 real symmetric prototype, unit center tap."""
    if K not in _FREQ_SAMPLES:
        raise UnsupportedOverlap(f"no coefficient table for K = {K}")
    if M < 2 or M & (M - 1):
        raise ConfigMismatch(f"M = {M} is not a power of two")
    A = _FREQ_SAMPLES[K]
    L = K * M - 1
    m = np.arange(L)
    p = np.full(L, A[0])
    for k in range(1, K):
        p = p + 2.0 * (-1) ** k * A[k] * np.cos(2 * np.pi * k * (m + 1) / (K * M))
    return p / p[(L - 1) // 2]


@dataclass(frozen=True)
class ModemConfig:
    """Bank parameters and the constants derived from them once: the
    prototype p and the bank weights, [0, p] cut into (K, 2 halves, M)
    floats, each tap twice for a sample's real and imaginary part; the
    analysis weights carry the gain 1 / sum(p^2)."""
    M: int = 64
    K: int = 4
    prototype: np.ndarray = field(init=False, repr=False, compare=False)
    blocks: np.ndarray = field(init=False, repr=False, compare=False)
    analysis_blocks: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def Lp(self) -> int:
        return self.K * self.M - 1

    def __post_init__(self):
        p = design_prototype(self.M, self.K)
        blocks = np.repeat(np.append(0.0, p), 2).reshape(self.K, 2, self.M)
        for name, value in (("prototype", p), ("blocks", blocks),
                            ("analysis_blocks", blocks / np.sum(p ** 2))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


# the 4-QAM level of bit 0 and of bit 1
_QAM_LEVELS = np.array([1.0, -1.0]) / np.sqrt(2)


def qam_map(bits: np.ndarray) -> np.ndarray:
    """(..., 2M) bits -> (..., M) Gray-mapped unit-energy 4-QAM symbols
    (bit 0 -> +): bit 2i is the real part of symbol i, bit 2i + 1 its
    imaginary part, so the levels are the symbols' interleaved floats."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % 2:
        raise LengthMismatch("bit count must be even")
    return _QAM_LEVELS.take(bits).view(complex)


def qam_demap(symbols: np.ndarray) -> np.ndarray:
    """(..., M) symbols -> (..., 2M) bits: hard-decision nearest-point
    demapping, scale invariant; the sign of each interleaved float."""
    symbols = np.ascontiguousarray(symbols, dtype=complex)
    return (symbols.view(float) < 0).view(np.uint8)


def frames_to_grid(frames: np.ndarray, M: int) -> np.ndarray:
    """(..., L, 2M) bit frames -> (..., M, L) QAM grid, one frame per
    column."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.uint8))
    if frames.shape[-1] != 2 * M:
        raise LengthMismatch(f"frame length {frames.shape[-1]} != {2 * M}")
    return np.swapaxes(qam_map(frames), -1, -2)


def grid_to_frames(grid: np.ndarray) -> np.ndarray:
    """(..., M, L) QAM grid -> (..., L, 2M) bit frames."""
    return qam_demap(np.swapaxes(grid, -1, -2))


@functools.cache
def _stagger_signs(M: int) -> np.ndarray:
    """(l mod 2, t, 2k + slot) table of the OQAM stage: half-symbol column
    n = 2l + t of sub-channel k carries slot (k + n) mod 2 (0 real, 1
    imaginary part) of symbol (k, l) times j^(k+n), which keeps that slot
    and gives it the sign (-1)^floor(((k + n) mod 4) / 2); the other slot
    is 0."""
    kn = np.arange(4)[:, None, None] + np.arange(M)[:, None]
    signs = np.where(kn % 2 == np.arange(2), 1 - (kn & 2), 0.0)
    signs.setflags(write=False)
    return signs.reshape(2, 2, 2 * M)


def oqam_preprocess(grid: np.ndarray) -> np.ndarray:
    """(..., M, L) complex QAM grid -> (..., M, 2L) staggered grid with
    j^(k+n) phases, a swapped view of C-contiguous (..., 2L, M) rows, the
    layout the synthesis IFFT reads.

    Even sub-channels transmit the real part first, odd ones the imaginary
    part; the half-symbol stagger doubles the time axis.  Each column is a
    signed copy of one slot of each symbol (_stagger_signs).
    """
    rows = np.swapaxes(np.asarray(grid, dtype=complex), -1, -2)
    *lead, L, M = rows.shape
    slots = rows[..., None].view(float).reshape(*lead, L, 1, 2 * M)
    signs = _stagger_signs(M)
    out = np.empty((*lead, L, 2, 2 * M))
    for lp in (0, 1):
        np.multiply(slots[..., lp::2, :, :], signs[lp],
                    out=out[..., lp::2, :, :])
    return np.swapaxes(out.view(complex).reshape(*lead, 2 * L, M), -1, -2)


def oqam_postprocess(grid: np.ndarray) -> np.ndarray:
    """Inverse of oqam_preprocess: (..., M, 2L) staggered grid -> (..., M, L)
    complex QAM estimates, a swapped view of C-contiguous (..., L, M) rows.
    Each slot of symbol (k, l) is the same slot of column 2l + t, t = (k +
    slot) mod 2, times that column's sign: the real part of conj(j^(k+n))
    times the column."""
    *lead, M, n_half = grid.shape
    if n_half % 2:
        raise LengthMismatch(f"odd half-symbol column count {n_half}: "
                             f"columns pair into symbols")
    rows = np.swapaxes(np.asarray(grid, dtype=complex), -1, -2)
    pairs = rows[..., None].view(float).reshape(*lead, n_half // 2, 4 * M)
    j = np.arange(2 * M)  # 2k + slot
    t = (j // 2 + j) % 2
    out = pairs.take(t * 2 * M + j, axis=-1)
    signs = _stagger_signs(M)[:, t, j]
    out[..., 0::2, :] *= signs[0]
    out[..., 1::2, :] *= signs[1]
    return np.swapaxes(out.view(complex), -1, -2)


def synthesis(grid: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Staggered grid (..., M, n_half) -> (..., (n_half - 1) M/2 + Lp)
    baseband samples: IFFT, prototype weighting and overlap-add with hop
    M/2."""
    *lead, M, n_half = grid.shape
    if M != cfg.M:
        raise ConfigMismatch(f"grid has {M} sub-channels, config {cfg.M}")
    if n_half < 1:
        raise DegenerateSignal(f"empty grid: {n_half} half-symbol columns")
    pad = 2 * cfg.K - 1
    x = np.zeros((*lead, n_half + 2 * pad, M), dtype=complex)
    np.fft.ifft(np.swapaxes(grid, -1, -2), axis=-1, norm="forward",
                out=x[..., pad:pad + n_half, :])
    x = x[..., pad:, :].view(float).reshape(*lead, -1, 2, M)[
        ..., ::(-1) ** cfg.K, :]  # odd K swaps the halves
    # output half-row r sums weight [i, h] times half h of x row r - 2i - h
    *s, row, half, tap = x.strides
    x = as_strided(x, (*lead, n_half + pad, cfg.K, 2, M),
                   (*s, row, -2 * row, half - row, tap), writeable=False)
    out = np.einsum("...rihj,ihj->...rj", x, cfg.blocks).view(complex)
    return out.reshape(*lead, -1)[..., 1:]


def analysis(signal: np.ndarray, cfg: ModemConfig, n_half: int) -> np.ndarray:
    """Baseband samples (..., samples) -> (..., M, n_half) staggered grid,
    delay compensated: column n is the FFT of samples [n M/2, n M/2 + K M)
    weighted by p and folded to M, with the bank's gain removed.  Later
    samples are ignored."""
    signal = np.asarray(signal, dtype=complex)
    *lead, size = signal.shape
    if n_half < 1:
        raise DegenerateSignal(f"empty grid: {n_half} half-symbol columns")
    need = (n_half - 1) * cfg.M // 2 + cfg.Lp
    if size < need:
        raise LengthMismatch(f"need {need} samples, got {size}")
    x = np.zeros((*lead, n_half - 1 + 2 * cfg.K, cfg.M))
    x.reshape(*lead, -1).view(complex)[..., 1:need + 1] = signal[..., :need]
    # half h of window n sums weight [i, h] times half-row n + 2i + h
    x = sliding_window_view(x, 2 * cfg.K, axis=-2)
    x = x.reshape(*lead, n_half, cfg.M, cfg.K, 2)
    y = np.einsum("...njih,ihj->...nhj", x, cfg.analysis_blocks)
    y = y[..., ::(-1) ** cfg.K, :].view(complex)  # odd K swaps the halves
    y = np.fft.fft(y.reshape(*lead, n_half, cfg.M), axis=-1)
    return np.swapaxes(y, -1, -2)


def modulate_frames(frames: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Bit frames (..., L, 2M) -> baseband bursts (..., samples)."""
    return synthesis(oqam_preprocess(frames_to_grid(frames, cfg.M)), cfg)
