"""Constrained RS framing: fit an RS(n, k) codeword into one 2^(N+1)-bit frame.

Each of the k' transmitted message symbols is restricted to p < q bits
(low-order bits of its q-bit field symbol), so k' p-bit message fields plus
all r q-bit parity symbols fit the frame with a small zero pad.  The
remaining k - k' message symbols are implicit zeros (shortening).
crs_layout solves for p and returns an unpunctured rs.RsFrameLayout; the
codec is the shared RS frame codec, rs.frame_encode and rs.frame_decode.
"""
from __future__ import annotations

import numpy as np

from .bch import bch_spec
# re-exported: callers catch crs.ConstraintViolation
from .rs import (RS2516, ConstraintViolation, RsFrameLayout,  # noqa: F401
                 frame_decode, frame_encode)


class LayoutInfeasible(ValueError):
    pass


class UnknownScheme(ValueError):
    pass


DEFAULT_K_PRIME = 16  # transmitted message symbols for the N = 6 frame


def crs_layout(N: int, n: int, k: int,
               k_prime: int = DEFAULT_K_PRIME) -> RsFrameLayout:
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
    p = min(q - 1, int(np.floor((frame_bits - r * q) / k_prime)))
    if p < 1:
        raise LayoutInfeasible("no integer p >= 1 fits the frame")
    return RsFrameLayout(q=q, k=k, k_prime=k_prime, p=p, punctured=0,
                         frame_bits=frame_bits)


# the constrained RS codec is the shared frame codec on a crs_layout:
# crs_encode(layout, k' p message bits) -> frames, crs_decode(layout, frame)
# -> (message bits, corrected symbols, constraint_ok)
crs_encode = frame_encode
crs_decode = frame_decode


# --- codeword density --------------------------------------------------------

def codeword_density(scheme: str) -> int:
    """log2 of the probability that a random transmitted frame is a valid
    codeword: message bits minus transmitted bits.  rs31_19_raw is the
    unshortened RS(31,19) codeword sent as its 155 bits."""
    if scheme == "bch":
        spec = bch_spec()
        return spec.k - (spec.n + 1)  # the frame's pad bit is sent too
    layouts = {"rs31_19_raw": RsFrameLayout(5, 19, 19, 5, 0, 155),
               "rs2516": RS2516, "crs31_19": crs_layout(6, 31, 19)}
    if scheme not in layouts:
        raise UnknownScheme(f"unknown scheme {scheme!r}")
    return layouts[scheme].message_bits - layouts[scheme].frame_bits
