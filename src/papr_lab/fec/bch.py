"""Binary BCH(127,85) codec over GF(2^7).

Narrow-sense construction: the generator is the product of (x + alpha^j)
over the cyclotomic cosets of alpha^1..alpha^(2t), the same roots-to-
polynomial step as the RS generators, with t grown until its degree reaches
n - k = 42 (which happens at t = 6).  Encoding is systematic; the 127
codeword bits are suffixed with one zero pad bit to fill a 128-bit frame.
The code's binary generator matrix G (85, 128) is a cached function,
_generator, built on first use from the systematic division rs_encode runs
(gf2m.poly_divmod), with the generator's 0/1 coefficients taken as elements
of GF(128).  A frame is (message @ G) mod 2.  The decoder reads one record,
an rs._Decoder cached by _decoder and built at the first decode: its
syndromes are one lookup per frame byte in XOR tables (rs._byte_tables)
built from the syndromes of each unit word, the powers alpha^((n-1-i) j) of
rs._powers.  It shares BM (with its table of inverses), the error bound and
the packed Chien search with the RS codec, skipping the steps of BM whose
discrepancy is zero for a binary word, and checks the residual by adding
the syndromes of each flipped bit, a table entry, to the frame's.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import gf2m
from ..gf2m import FieldSpec
from .rs import (DecodeFailure, LengthMismatch, _binary_matrix,
                 _byte_tables, _checked_message, _Decoder, _error_locator,
                 _evaluate, _evaluation_tables, _gf2, _lookup, _powers,
                 _roots, _unpack)


@dataclass(frozen=True)
class BchCodeSpec:
    field: FieldSpec
    n: int
    k: int
    t: int
    generator: int  # bit-encoded binary polynomial, bit d = coeff of x^d

    @property
    def r(self) -> int:
        return self.n - self.k


@functools.cache
def bch_spec() -> BchCodeSpec:
    """The BCH(127,85) spec; t is resolved from the generator degree."""
    fs = gf2m.cached_field(7)
    n = fs.order
    roots = set()  # exponents j of the generator's roots alpha^j
    t = 0
    while len(roots) < 42:
        t += 1
        for i in (2 * t - 1, 2 * t):  # the coset {i, 2i, 4i, ...} mod n
            roots.update((i << s) % n for s in range(fs.m))
    if len(roots) != 42:
        raise AssertionError(f"generator degree {len(roots)} != 42")
    # a product over whole cosets has binary coefficients
    poly = gf2m.poly_from_roots(fs, [gf2m.pow_alpha(fs, j) for j in roots])
    return BchCodeSpec(field=fs, n=n, k=n - len(roots), t=t,
                       generator=sum(c << d for d, c in enumerate(poly)))


def _bch_encode_algebraic(message: np.ndarray) -> np.ndarray:
    """bch_encode of one message by gf2m.poly_divmod, the systematic
    division of rs_encode: the generator's coefficients are 0 and 1 in
    GF(128), so the remainder's are too.  message[0] has degree n - 1."""
    spec = bch_spec()
    generator = [(spec.generator >> d) & 1 for d in range(spec.r + 1)]
    shifted = [0] * spec.r + message[::-1].tolist()
    _, rem = gf2m.poly_divmod(spec.field, shifted, generator)
    frame = np.zeros(spec.n + 1, dtype=np.uint8)
    frame[:spec.k] = message
    frame[spec.k:spec.n] = (rem + [0] * (spec.r - len(rem)))[::-1]
    return frame


@functools.cache
def _generator() -> np.ndarray:
    """The (k, n + 1) generator matrix G of the 128-bit frame."""
    return _binary_matrix(_bch_encode_algebraic, bch_spec().k)


def bch_encode(message: np.ndarray) -> np.ndarray:
    """85 message bits -> 128-bit frame (127 codeword bits + 1 zero pad);
    a (..., 85) stack gives (..., 128) frames."""
    bits = _checked_message(message, bch_spec().k, 2, "message bit")
    return _gf2(bits, _generator())


@functools.cache
def _decoder() -> _Decoder:
    """The code's rs._Decoder, built at its first decode.  Its tables are
    the rs._byte_tables of S_1..S_2t over the 128-bit frame: the syndromes
    of the unit word at position i are alpha^((n-1-i) j), j = 1..2t; the
    pad bit's image is zero.  No position is erased, so Gamma is 1."""
    spec = bch_spec()
    tables = _byte_tables(_powers(spec.field, np.arange(spec.n)[::-1],
                                  np.arange(1, 2 * spec.t + 1)).tolist())
    return _Decoder(spec.field, spec.n, 2 * spec.t, spec.n + 1, spec.k,
                    tables, (1,))


def bch_decode(frame: np.ndarray) -> tuple[np.ndarray, int]:
    """128-bit frame -> (85 message bits, corrected bit count).

    Corrects any pattern of <= t bit errors in the 127 codeword bits; the pad
    bit is ignored.  Raises DecodeFailure when the syndromes are inconsistent.
    """
    frame = np.asarray(frame, dtype=np.uint8)
    fs, n, r, frame_bits, k, tables, _ = _decoder()
    if frame.size != frame_bits:
        raise LengthMismatch(f"frame length {frame.size} != {frame_bits}")
    value = _lookup(tables, frame)
    if not value:
        return frame[:k].copy(), 0

    lam = _error_locator(fs, _unpack(value, r), binary=True)  # degree <= t
    flips = _roots(_evaluate(_evaluation_tables(fs, n, r // 2), lam, n))
    if len(flips) != gf2m.poly_deg(lam):
        raise DecodeFailure("locator degree does not match root count")
    # the flipped word's syndromes: those of the frame plus those of the
    # flipped bits alone
    for i in flips:
        value ^= tables[i >> 3][0x80 >> (i & 7)]
    if value:
        raise DecodeFailure("residual syndromes after correction")
    message = frame[:k].copy()
    message[[i for i in flips if i < k]] ^= 1
    return message, len(flips)
