"""Binary BCH(127,85) codec over GF(2^7).

Narrow-sense construction: the generator is the LCM of the minimal
polynomials of alpha^1..alpha^(2t), grown until its degree reaches
n - k = 42 (which happens at t = 6).  Encoding is systematic; the 127
codeword bits are suffixed with one zero pad bit to fill a 128-bit frame.
The code's binary generator matrix G (85, 128) and parity-check matrix H
(127, 2t m) are cached functions, _generator and _parity_check, built on
first use from the polynomial-division encoder and rs._syndromes.  A
frame is (message @ G) mod 2.  Its syndromes are one lookup per frame byte
in the XOR tables built from H (rs._byte_tables); the decoder shares BM,
its error bound and the packed Chien search with the RS codec, skipping the
steps of BM whose discrepancy is zero for a binary word, and checks the
residual by adding the syndromes of each flipped bit to the frame's.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import gf2m
from ..gf2m import FieldSpec
from .rs import (DecodeFailure, LengthMismatch, _binary_matrix,
                 _byte_tables, _checked_message, _error_locator, _evaluate,
                 _evaluation_tables, _gf2, _lookup, _pack_symbols, _roots,
                 _symbols_to_bits, _syndromes, _unpack)


def _gf2_poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _gf2_poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _minimal_poly(fs: FieldSpec, i: int) -> int:
    """Minimal polynomial of alpha^i over GF(2), as a bit-encoded polynomial."""
    # conjugacy class {i, 2i, 4i, ...} mod (2^m - 1)
    coset = []
    c = i % fs.order
    while c not in coset:
        coset.append(c)
        c = (2 * c) % fs.order
    # product of (x - alpha^j) over the coset, coefficients collapse to GF(2)
    poly = gf2m.poly_from_roots(fs, [gf2m.pow_alpha(fs, j) for j in coset])
    assert all(c in (0, 1) for c in poly)
    out = 0
    for d, c in enumerate(poly):
        out |= c << d
    return out


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
    gen = 1
    seen = set()
    t = 0
    while gen.bit_length() - 1 < 42:
        t += 1
        for i in range(2 * t - 1, 2 * t + 1):
            mp = _minimal_poly(fs, i)
            if mp not in seen:
                seen.add(mp)
                gen = _gf2_poly_mul(gen, mp)
    deg = gen.bit_length() - 1
    if deg != 42:
        raise AssertionError(f"generator degree {deg} != 42")
    return BchCodeSpec(field=fs, n=n, k=n - deg, t=t, generator=gen)


def _bits_to_int(bits: np.ndarray) -> int:
    # bits[0] is the highest-degree coefficient (first transmitted)
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    return v


def _int_to_bits(v: int, width: int) -> np.ndarray:
    return np.array([(v >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def _bch_encode_algebraic(message: np.ndarray) -> np.ndarray:
    """bch_encode of one message by polynomial division."""
    spec = bch_spec()
    parity = _gf2_poly_mod(_bits_to_int(message) << spec.r, spec.generator)
    frame = np.zeros(spec.n + 1, dtype=np.uint8)
    frame[:spec.k] = message
    frame[spec.k:spec.n] = _int_to_bits(parity, spec.r)
    return frame


@functools.cache
def _generator() -> np.ndarray:
    """The (k, n + 1) generator matrix G of the 128-bit frame."""
    return _binary_matrix(_bch_encode_algebraic, bch_spec().k)


@functools.cache
def _parity_check() -> np.ndarray:
    """The (n, 2t m) parity-check matrix H of the 127-bit word: row i holds
    the bits of S_1..S_2t of the i-th unit word."""
    spec = bch_spec()
    return _binary_matrix(lambda w: _symbols_to_bits(
        _syndromes(spec.field, w, 2 * spec.t), spec.field.m), spec.n)


def bch_encode(message: np.ndarray) -> np.ndarray:
    """85 message bits -> 128-bit frame (127 codeword bits + 1 zero pad);
    a (..., 85) stack gives (..., 128) frames."""
    bits = _checked_message(message, bch_spec().k, 2, "message bit")
    return _gf2(bits, _generator())


@functools.cache
def _syndrome_tables() -> tuple[list[int], ...]:
    """rs._byte_tables of S_1..S_2t over the 128-bit frame, from H; the pad
    bit's image is zero."""
    return _byte_tables(_pack_symbols(_parity_check(), bch_spec().field.m))


def bch_decode(frame: np.ndarray) -> tuple[np.ndarray, int]:
    """128-bit frame -> (85 message bits, corrected bit count).

    Corrects any pattern of <= t bit errors in the 127 codeword bits; the pad
    bit is ignored.  Raises DecodeFailure when the syndromes are inconsistent.
    """
    spec = bch_spec()
    fs = spec.field
    frame = np.asarray(frame, dtype=np.uint8)
    if frame.size != spec.n + 1:
        raise LengthMismatch(f"frame length {frame.size} != {spec.n + 1}")
    tables = _syndrome_tables()
    value = _lookup(tables, frame)
    message = frame[:spec.k].copy()
    if not value:
        return message, 0

    lam = _error_locator(fs, _unpack(value, 2 * spec.t),
                         binary=True)  # degree bound t
    flips = _roots(_evaluate(_evaluation_tables(fs, spec.n, spec.t), lam,
                             spec.n))
    if len(flips) != gf2m.poly_deg(lam):
        raise DecodeFailure("locator degree does not match root count")
    # the flipped word's syndromes: those of the frame plus those of the
    # flipped bits alone
    for i in flips:
        value ^= tables[i >> 3][0x80 >> (i & 7)]
    if value:
        raise DecodeFailure("residual syndromes after correction")
    message[[i for i in flips if i < spec.k]] ^= 1
    return message, len(flips)
