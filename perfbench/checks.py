"""Checks of the simulator's outputs against computations made apart from it.

Each check returns a list of problems; an empty list means the output passed.
Nothing here calls papr_lab's modem, compander or metrics code: the closed
forms, the direct-sum synthesis, the μ-law and the windowed PAPR are written
out again from their definitions.  Only the encoders are shared, since
re-encoding a decoded message is what the bounded-distance check is about.
"""
from __future__ import annotations

import math

import numpy as np

# Binomial counts must fall within Z standard deviations (plus one count of
# slack for tiny expectations) of the reference mean.
Z = 5.0

BCH_N, BCH_T = 127, 6


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def burst_samples(M: int, K: int, frames_per_burst: int) -> int:
    """Synthesis output length N_s = (2L - 1) M/2 + K M - 1."""
    return (2 * frames_per_burst - 1) * M // 2 + K * M - 1


def uncoded_ber(snr_db: float, M: int, K: int, frames_per_burst: int) -> float:
    """4-QAM bit error probability over AWGN with the noise power set against
    the mean power of the whole burst, ramps included: Q(sqrt(γ N_s/(M L)))."""
    gamma = 10.0 ** (snr_db / 10.0)
    ratio = burst_samples(M, K, frames_per_burst) / (M * frames_per_burst)
    return q_function(math.sqrt(gamma * ratio))


def bch_failure_probability(p: float, n: int = BCH_N, t: int = BCH_T) -> float:
    """P[Binom(n, p) > t]: more bit errors than the decoder corrects."""
    return 1.0 - sum(math.comb(n, i) * p ** i * (1.0 - p) ** (n - i)
                     for i in range(t + 1))


def binomial_check(what: str, count: int, n: int, p: float) -> list[str]:
    mean = n * p
    slack = Z * math.sqrt(n * p * (1.0 - p)) + 1.0
    if abs(count - mean) > slack:
        return [f"{what}: {count} outside {mean:.1f} ± {slack:.1f} "
                f"(n = {n}, p = {p:.3e})"]
    return []


# --- BER -------------------------------------------------------------------

def ber_bookkeeping(record, cfg, payload_bits: int,
                    errors_expected: bool) -> list[str]:
    """bits_total is whole bursts of measured frames; the error count is
    below half the bits, and positive where errors are expected."""
    per_burst = (cfg.frames_per_burst - 2) * payload_bits
    want = -(-cfg.bits // per_burst) * per_burst
    out = []
    if record.bits_total != want:
        out.append(f"bits_total {record.bits_total} != {want}")
    low = 1 if errors_expected else 0
    if not low <= record.bits_error < record.bits_total / 2:
        out.append(f"bits_error {record.bits_error} outside "
                   f"[{low}, {record.bits_total / 2})")
    return out


def uncoded_ber_check(record, cfg) -> list[str]:
    p = uncoded_ber(record.snr_db, cfg.M, cfg.K, cfg.frames_per_burst)
    return binomial_check(f"uncoded errors at {record.snr_db} dB",
                          record.bits_error, record.bits_total, p)


def bch_failure_check(failed: int, frames: int, snr_db: float, cfg) -> list[str]:
    p = uncoded_ber(snr_db, cfg.M, cfg.K, cfg.frames_per_burst)
    return binomial_check(f"BCH failed decodes at {snr_db} dB", failed,
                          frames, bch_failure_probability(p))


# --- bounded-distance decoding ---------------------------------------------

def symbol_distance(a: np.ndarray, b: np.ndarray, widths) -> int:
    """Number of differing fields when a and b are cut into fields of the
    given bit widths, starting at bit 0."""
    widths = np.asarray(widths)
    diff = (np.asarray(a[:widths.sum()]) != np.asarray(b[:widths.sum()]))
    starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
    return int(np.count_nonzero(np.add.reduceat(diff.astype(int), starts)))


def make_decode_check(encoders: dict):
    """Build the Tracer's decode check.  A successful decode must re-encode,
    through the original public encoder, to within the code's correction
    radius of the received frame: 6 bits for BCH(127,85), 4 symbols for
    RS(25,16) (12 parity symbols, 3 of them punctured erasures), 6 symbols for
    CRS(31,19).  A CRS decode that left the p-bit alphabet is not
    re-encodable from its low bits and is not checked."""
    def check(name: str, args: tuple, out: tuple) -> bool:
        if name == "bch_decode":
            frame = args[0]
            cw = encoders["bch_encode"](out[0])
            return symbol_distance(frame, cw, [1] * BCH_N) <= BCH_T
        if name == "rs2516_decode":
            frame = args[0]
            cw = encoders["rs2516_frame"](out[0])
            return symbol_distance(frame, cw, [5] * 25) <= 4
        if name == "crs_decode":
            layout, frame = args
            if not out[2]:
                return True
            cw = encoders["crs_encode"](layout, out[0])
            widths = [layout.p] * layout.k_prime + [layout.q] * layout.r
            return symbol_distance(frame, cw, widths) <= layout.r // 2
        raise ValueError(f"no radius for {name}")
    return check


# --- PAPR ------------------------------------------------------------------

def papr_outputs(result, frames: int, M: int) -> list[str]:
    s = np.asarray(result.samples_db)
    out = []
    if s.size != frames:
        out.append(f"{s.size} PAPR samples, want {frames}")
    hi = 10.0 * math.log10(M)
    if not (np.all(np.isfinite(s)) and np.all(s > 0) and np.all(s <= hi)):
        out.append(f"PAPR sample outside (0, {hi:.3f}] dB")
    if result.curve is None:
        out.append("no CCDF")
    else:
        p = np.asarray(result.curve.probabilities)
        if np.any(np.diff(p) > 0) or p[-1] != 0:
            out.append("CCDF not non-increasing to 0")
    return out


_FREQ_SAMPLES_K4 = (1.0, 0.971960, math.sqrt(2.0) / 2.0, 0.235147)


def reference_prototype(M: int, K: int) -> np.ndarray:
    """Frequency-sampling prototype (Bellanger, PHYDYAS primer):
    h(m) = H0 + 2 Σ_k (-1)^k H_k cos(2π k m / (K M)), m = 1 .. K M - 1."""
    if K != 4:
        raise ValueError("reference coefficients are for K = 4")
    m = np.arange(1, K * M)
    h = np.full(m.size, _FREQ_SAMPLES_K4[0])
    for k in range(1, K):
        h += 2.0 * (-1) ** k * _FREQ_SAMPLES_K4[k] * np.cos(
            2.0 * np.pi * k * m / (K * M))
    return h


def reference_synthesis(frames: np.ndarray, M: int, K: int) -> np.ndarray:
    """Direct-sum FBMC-OQAM synthesis of (L, 2M) bit frames.

    Bits (2i, 2i+1) of a frame give the Gray 4-QAM symbol of sub-channel i.
    Each symbol becomes two real half-symbols (real part first on even
    sub-channels, imaginary part first on odd ones) with phase j^(k+n); the
    half-symbol n of sub-channel k adds
    a_kn j^(k+n) h(m) exp(j 2π k (m - (KM-2)/2) / M) at sample m + n M/2.
    """
    L = frames.shape[0]
    Lp = K * M - 1
    re = 1.0 - 2.0 * frames[:, 0::2].T    # (M, L)
    im = 1.0 - 2.0 * frames[:, 1::2].T
    k = np.arange(M)[:, None]
    first = np.where(k % 2 == 0, re, im)
    second = np.where(k % 2 == 0, im, re)
    a = np.empty((M, 2 * L))
    a[:, 0::2], a[:, 1::2] = first, second
    n = np.arange(2 * L)[None, :]
    a = a * np.exp(0.5j * np.pi * ((k + n) % 4))
    m = np.arange(Lp)
    g = reference_prototype(M, K) * np.exp(
        2j * np.pi * k * (m - (Lp - 1) / 2) / M)    # (M, Lp)
    out = np.zeros((2 * L - 1) * (M // 2) + Lp, dtype=complex)
    for i in range(2 * L):
        start = i * (M // 2)
        out[start:start + Lp] += a[:, i] @ g
    return out


def reference_mu_law(x: np.ndarray, mu: float) -> np.ndarray:
    """μ-law on real and imaginary parts, each normalized by the largest
    absolute component of the burst."""
    peak = max(np.abs(x.real).max(), np.abs(x.imag).max())

    def f(v):
        return np.sign(v) * np.log(1.0 + mu * np.abs(v / peak)) / np.log(1.0 + mu)
    return f(x.real) + 1j * f(x.imag)


def reference_frame_paprs(x: np.ndarray, M: int, K: int, L: int) -> np.ndarray:
    """PAPR in dB of the M-sample window centred on each frame's span, the
    synthesis group delay (K M - 2)/2 taken into account."""
    delay = (K * M - 2) // 2
    out = np.empty(L)
    for l in range(L):
        start = max(delay + l * M - M // 2, 0)
        w = np.abs(x[start:start + M]) ** 2
        out[l] = 10.0 * np.log10(w.max() / w.mean())
    return out


def reference_synthesis_check(program_db: np.ndarray, frames: np.ndarray,
                              M: int, K: int, mu: float | None) -> list[str]:
    """The program's per-frame PAPR of one burst against the reference chain
    (μ-law applied when mu is given); must agree to 1e-9 dB."""
    x = reference_synthesis(frames, M, K)
    if mu is not None:
        x = reference_mu_law(x, mu)
    ref = reference_frame_paprs(x, M, K, frames.shape[0])
    err = float(np.max(np.abs(np.asarray(program_db) - ref)))
    if not err <= 1e-9:
        return [f"PAPR differs from the reference synthesis by {err:.3e} dB"]
    return []
