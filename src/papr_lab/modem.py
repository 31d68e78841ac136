"""FBMC-OQAM modem: 4-QAM mapping, OQAM staggering, synthesis/analysis banks.

Sub-channel k filters with g_k(m) = p(m) exp(j 2 pi k / M (m - c)), the
exponential modulation of one real linear-phase prototype p of length
Lp = K M - 1 designed by frequency sampling, c = (Lp - 1)/2.  Sub-channel
data moves at twice the QAM symbol rate (real/imag staggered by half a
symbol), with phase factors j^(k+n) keeping adjacent sub-channels orthogonal.

The banks are the polyphase network (Bellanger et al., PHYDYAS 2010): as
exp(j 2 pi k m / M) has period M in m, grid column n adds p(m) x_n(m mod M)
at sample n M/2 + m, x_n = M ifft_k(d[k, n] exp(-j 2 pi k c / M)).  Analysis
is the transpose; both equal the direct form up to rounding.

Every function takes leading batch axes: a stack of bursts goes through each
stage as one array, and each burst comes out as it would alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import LengthMismatch  # noqa: F401  (re-exported)


class UnsupportedOverlap(ValueError):
    pass


class ConfigMismatch(ValueError):
    pass


class SignalTooShort(ValueError):
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
    prototype p, p zero-padded to (2K, M/2) blocks and the phase twiddles
    (with gain)."""
    M: int = 64
    K: int = 4
    prototype: np.ndarray = field(init=False, repr=False, compare=False)
    blocks: np.ndarray = field(init=False, repr=False, compare=False)
    synthesis_phase: np.ndarray = field(init=False, repr=False, compare=False)
    analysis_phase: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def Lp(self) -> int:
        return self.K * self.M - 1

    def __post_init__(self):
        p = design_prototype(self.M, self.K)
        # -2 pi k c / M = -pi k (Lp - 1) / M, reduced exactly mod 2 pi
        turns = np.arange(self.M) * (self.Lp - 1) % (2 * self.M)
        phase = np.exp(-1j * np.pi * turns / self.M)
        for name, value in (
                ("prototype", p),
                ("blocks", np.append(p, 0.0).reshape(2 * self.K, -1)),
                ("synthesis_phase", phase),
                ("analysis_phase", phase.conj() / np.sum(p ** 2))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


_QAM_SCALE = 1 / np.sqrt(2)


def qam_map(bits: np.ndarray) -> np.ndarray:
    """(..., 2M) bits -> (..., M) Gray-mapped unit-energy 4-QAM symbols
    (bit 0 -> +)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % 2:
        raise LengthMismatch("bit count must be even")
    re = 1.0 - 2.0 * bits[..., 0::2]
    im = 1.0 - 2.0 * bits[..., 1::2]
    return (re + 1j * im) * _QAM_SCALE


def qam_demap(symbols: np.ndarray) -> np.ndarray:
    """(..., M) symbols -> (..., 2M) bits: hard-decision nearest-point
    demapping, scale invariant."""
    symbols = np.asarray(symbols)
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],),
                    dtype=np.uint8)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits


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


_J_POWERS = np.array([1, 1j, -1, -1j])


def theta(M: int, n_half: int) -> np.ndarray:
    """(M, n_half) phase grid j^(k+n) = j^k j^n, looked up mod 4."""
    return np.outer(_J_POWERS[np.arange(M) % 4],
                    _J_POWERS[np.arange(n_half) % 4])


def oqam_preprocess(grid: np.ndarray) -> np.ndarray:
    """(..., M, L) complex QAM grid -> (..., M, 2L) staggered grid with
    j^(k+n) phases.

    Even sub-channels transmit the real part first, odd ones the imaginary
    part; the half-symbol stagger doubles the time axis.
    """
    *lead, M, L = grid.shape
    d = np.empty((*lead, M, 2 * L))
    d[..., 0::2, 0::2] = grid[..., 0::2, :].real
    d[..., 0::2, 1::2] = grid[..., 0::2, :].imag
    d[..., 1::2, 0::2] = grid[..., 1::2, :].imag
    d[..., 1::2, 1::2] = grid[..., 1::2, :].real
    return d * theta(M, 2 * L)


def oqam_postprocess(grid: np.ndarray) -> np.ndarray:
    """Inverse of oqam_preprocess: conjugate phases, take the real part,
    recombine staggered pairs into complex QAM estimates."""
    *lead, M, n_half = grid.shape
    d = (grid * np.conj(theta(M, n_half))).real
    out = np.empty((*lead, M, n_half // 2), dtype=complex)
    out[..., 0::2, :] = d[..., 0::2, 0::2] + 1j * d[..., 0::2, 1::2]
    out[..., 1::2, :] = d[..., 1::2, 1::2] + 1j * d[..., 1::2, 0::2]
    return out


def synthesis(grid: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Staggered grid (..., M, n_half) -> (..., (n_half - 1) M/2 + Lp)
    baseband samples: IFFT, prototype weighting and overlap-add with hop
    M/2."""
    *lead, M, n_half = grid.shape
    if M != cfg.M:
        raise ConfigMismatch(f"grid has {M} sub-channels, config {cfg.M}")
    hop = M // 2
    x = np.fft.ifft(grid * cfg.synthesis_phase[:, None], axis=-2,
                    norm="forward")
    out = np.zeros((*lead, n_half + 2 * cfg.K - 1, hop), dtype=complex)
    for b, weights in enumerate(cfg.blocks):  # block b of x_n lands at n + b
        half = x[..., (b % 2) * hop:(b % 2 + 1) * hop, :]
        out[..., b:b + n_half, :] += np.swapaxes(half, -1, -2) * weights
    return out.reshape(*lead, -1)[..., :(n_half - 1) * hop + cfg.Lp]


def analysis(signal: np.ndarray, cfg: ModemConfig, n_half: int) -> np.ndarray:
    """Baseband samples (..., samples) -> (..., M, n_half) staggered grid,
    delay compensated: column n is the FFT of samples [n M/2, n M/2 + K M)
    weighted by p and folded to M, phase and gain corrected.  Later samples
    are ignored."""
    signal = np.asarray(signal, dtype=complex)
    *lead, size = signal.shape
    hop = cfg.M // 2
    need = (n_half - 1) * hop + cfg.Lp
    if size < need:
        raise SignalTooShort(f"need {need} samples, got {size}")
    # the sample under the zero padding tap of the prototype can be zero
    blocks = np.zeros((*lead, need + 1), dtype=complex)
    blocks[..., :need] = signal[..., :need]
    blocks = blocks.reshape(*lead, -1, hop)
    folded = np.zeros((*lead, n_half, 2, hop), dtype=complex)
    for b, weights in enumerate(cfg.blocks):
        folded[..., b % 2, :] += blocks[..., b:b + n_half, :] * weights
    y = np.fft.fft(folded.reshape(*lead, n_half, cfg.M), axis=-1)
    return np.swapaxes(y, -1, -2) * cfg.analysis_phase[:, None]


def modulate_frames(frames: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Bit frames (..., L, 2M) -> baseband bursts (..., samples)."""
    return synthesis(oqam_preprocess(frames_to_grid(frames, cfg.M)), cfg)
