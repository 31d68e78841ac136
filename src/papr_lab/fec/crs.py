"""Constrained RS framing: fit an RS(n, k) codeword into one 2^(N+1)-bit frame.

Each of the k' transmitted message symbols is restricted to p < q bits
(low-order bits of its q-bit field symbol), so k' p-bit message fields plus
all r q-bit parity symbols fit the frame with a small zero pad.  The
remaining k - k' message symbols are implicit zeros (shortening).  The code
is a GF(2)-linear subcode of RS(n, k), so the frame encoder goes through the
binary image: the RS encoder builds a (k' p, frame bits) generator matrix per
layout on first use, and a frame is (message bits @ G) mod 2.  The decoder
takes its syndromes through the layout's parity-check matrix in the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# re-exported: callers catch crs.ConstraintViolation
from .rs import (ConstraintViolation, DecodeFailure, LengthMismatch, rs_spec,
                 rs_encode, _binary_syndromes, _checked_message, _correct,
                 _encode_bits, _error_locator, _symbols_to_bits,
                 _bits_to_symbols, _syndromes)


class LayoutInfeasible(ValueError):
    pass


class UnknownScheme(ValueError):
    pass


@dataclass(frozen=True)
class CrsFrameLayout:
    N: int           # log2 of sub-channel count
    n: int           # RS codeword symbols
    k: int           # RS message symbols
    q: int           # bits per parity symbol (field symbol width)
    k_prime: int     # transmitted message symbol count
    p: int           # bits per constrained message symbol
    p_lower: float   # open lower bound of the feasible p interval (k' = k)
    p_upper: float   # closed upper bound of the feasible p interval

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def frame_bits(self) -> int:
        return 1 << (self.N + 1)

    @property
    def message_bits(self) -> int:
        return self.k_prime * self.p

    @property
    def pad_bits(self) -> int:
        return self.frame_bits - (self.k_prime * self.p + self.r * self.q)


DEFAULT_K_PRIME = 16  # transmitted message symbols for the N = 6 frame


def crs_layout(N: int, n: int, k: int,
               k_prime: int = DEFAULT_K_PRIME) -> CrsFrameLayout:
    """Solve the frame-fitting constraints for an RS(n, k) code.

    q is the field symbol width (n = 2^q - 1); p is the largest integer with
    p < q that keeps k' p-bit fields plus r q-bit parity symbols within the
    2^(N+1)-bit frame.
    """
    q = n.bit_length()
    if n != (1 << q) - 1:
        raise LayoutInfeasible(f"n = {n} is not 2^q - 1")
    if not 0 < k < n:
        raise LayoutInfeasible(f"k = {k} outside (0, {n})")
    if k_prime > k:
        raise LayoutInfeasible(f"k' = {k_prime} exceeds k = {k}")
    r = n - k
    frame_bits = 1 << (N + 1)
    if r * q > (1 << N):
        raise LayoutInfeasible(
            f"parity bits r*q = {r * q} exceed half frame 2^N = {1 << N}")
    p_upper = (frame_bits - r * q) / k_prime
    p_lower = (frame_bits - r * q) / k
    p = min(q - 1, int(np.floor(p_upper)))
    if p < 1:
        raise LayoutInfeasible("no integer p >= 1 fits the frame")
    return CrsFrameLayout(N=N, n=n, k=k, q=q, k_prime=k_prime, p=p,
                          p_lower=p_lower, p_upper=p_upper)


def _crs_encode_algebraic(layout: CrsFrameLayout,
                          bits: np.ndarray) -> np.ndarray:
    """crs_encode through the RS encoder; builds the generator matrix."""
    spec = rs_spec(layout.q, layout.k)
    shortened = [0] * (layout.k - layout.k_prime)
    codeword = rs_encode(spec, shortened + _bits_to_symbols(bits, layout.p))
    frame = np.zeros(layout.frame_bits, dtype=np.uint8)
    frame[:bits.size] = bits
    pbits = _symbols_to_bits(codeword[layout.k:], layout.q)
    frame[bits.size:bits.size + pbits.size] = pbits
    return frame


def crs_encode(layout: CrsFrameLayout, message_bits: np.ndarray) -> np.ndarray:
    """k'*p message bits -> one frame_bits-long bit frame; a (..., k'*p)
    stack gives (..., frame_bits) frames.

    Frame layout: [k' p-bit message fields | r q-bit parity symbols | zero pad].
    """
    bits = _checked_message(message_bits, layout.message_bits, 2,
                            "message bit")
    return _encode_bits(layout, lambda b: _crs_encode_algebraic(layout, b),
                        bits)


def _crs_word(layout: CrsFrameLayout, frame: np.ndarray) -> list[int]:
    """The RS(n, k) word of a frame: shortened zeros, the k' p-bit message
    fields and the r parity symbols."""
    nm = layout.message_bits
    msg_syms = _bits_to_symbols(frame[:nm], layout.p)
    parity = _bits_to_symbols(frame[nm:nm + layout.r * layout.q], layout.q)
    return ([0] * (layout.k - layout.k_prime)) + msg_syms + parity


def _crs_syndromes(layout: CrsFrameLayout, frame: np.ndarray) -> list[int]:
    """Syndromes of a frame's word through the layout's parity-check
    matrix."""
    spec = rs_spec(layout.q, layout.k)
    return _binary_syndromes(
        layout, lambda f: _syndromes(spec.field, _crs_word(layout, f), spec.r),
        frame, layout.q)


def crs_decode(layout: CrsFrameLayout,
               frame: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Decode one frame -> (message bits, corrected symbols, constraint_ok).

    constraint_ok is False when a corrected message symbol has nonzero bits
    above the p-bit subset, i.e. the error pattern left the constrained
    alphabet; the low p bits are still returned.
    """
    frame = np.asarray(frame, dtype=np.uint8)
    if frame.size != layout.frame_bits:
        raise LengthMismatch(f"frame length {frame.size} != {layout.frame_bits}")
    spec = rs_spec(layout.q, layout.k)
    synd = _crs_syndromes(layout, frame)
    if not any(synd):
        return frame[:layout.message_bits].copy(), 0, True
    lam = _error_locator(spec.field, synd)
    word = _crs_word(layout, frame)
    positions = _correct(spec, word, synd, lam, [1])
    if any(word[:layout.k - layout.k_prime]):
        raise DecodeFailure("shortened prefix decoded nonzero")
    out_syms = word[layout.k - layout.k_prime:layout.k]
    constraint_ok = all(s < (1 << layout.p) for s in out_syms)
    low = [s & ((1 << layout.p) - 1) for s in out_syms]
    return _symbols_to_bits(low, layout.p), len(positions), constraint_ok


# --- codeword density --------------------------------------------------------

_DENSITIES = {
    # scheme -> (message bits, transmitted bits)
    "bch": (85, 128),
    "rs31_19_raw": (95, 155),
    "rs2516": (80, 128),
    "crs31_19": (64, 128),
}


def codeword_density(scheme: str) -> int:
    """log2 of the probability that a random transmitted frame is a valid
    codeword: message bits minus transmitted bits."""
    try:
        msg, tx = _DENSITIES[scheme]
    except KeyError:
        raise UnknownScheme(f"unknown scheme {scheme!r}") from None
    return msg - tx
