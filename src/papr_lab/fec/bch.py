"""Binary BCH(127,85) codec over GF(2^7).

Narrow-sense construction: the generator is the product of (x + alpha^j)
over the cyclotomic cosets of alpha^1..alpha^(2t), the same roots-to-
polynomial step as the RS generators, with t grown until its degree reaches
n - k = 42 (which happens at t = 6).  Encoding is systematic; the 127
codeword bits are suffixed with one zero pad bit to fill a 128-bit frame.
The encoder's byte XOR tables (_encoder_tables) come from the RS codec's
parity table, with the generator's 0/1 coefficients taken as elements of
GF(128).  The decoder's record (_decoder) holds the code's syndrome map,
and rs._frame_rows decodes BCH frames as binary words of one-bit message
symbols: Berlekamp-Massey skips every second step, and the Chien search
reads the degree-t power table.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import gf2m
from ..gf2m import FieldSpec
from .rs import (_checked_frame, _checked_message, _checked_row, _Decoder,
                 _encoded, _frame_tables, _parity_table, _syndrome_rows)


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
    # a product over whole cosets has binary coefficients
    poly = gf2m.poly_from_roots(fs, [gf2m.pow_alpha(fs, j) for j in roots])
    return BchCodeSpec(field=fs, n=n, k=n - len(roots), t=t,
                       generator=sum(c << d for d, c in enumerate(poly)))


@functools.cache
def _encoder_tables() -> np.ndarray:
    """The rs._frame_tables of the message bits' packed parity: the
    _parity_table rows in codeword order.  The generator's coefficients
    are 0 and 1 in GF(128), so the rows' are too."""
    spec = bch_spec()
    generator = tuple((spec.generator >> d) & 1 for d in range(spec.r + 1))
    rows = _parity_table(spec.field, generator, spec.n)
    return _frame_tables(np.packbits(rows[:, ::-1], axis=1))


def bch_encode(message: np.ndarray) -> np.ndarray:
    """85 message bits -> 128-bit frame (127 codeword bits + 1 zero pad);
    a (..., 85) stack gives (..., 128) frames."""
    bits = _checked_message(message, bch_spec().k, 2, "message bit")
    return _encoded(_encoder_tables(), bits, bch_spec().n + 1)


@functools.cache
def _decoder() -> _Decoder:
    """The code's rs._Decoder, built at its first decode.  Its tables are
    the rs._frame_tables of S_1..S_2t over the 128-bit frame: the syndromes
    of bit i are row i of _syndrome_rows; the pad bit's image is zero.  No
    position is erased, so Gamma is 1.  Its word is binary and unshortened:
    a message symbol is one bit, and every position is sent."""
    spec = bch_spec()
    r = 2 * spec.t
    tables = _frame_tables(_syndrome_rows(spec.field, spec.n, r))
    return _Decoder(spec.field, spec.n, r, spec.n + 1, spec.k, tables, (1,),
                    True, 0, spec.k, 1, spec.n)


def bch_decode(frame: np.ndarray, *,
               row: tuple | str | None = None) -> tuple[np.ndarray, int]:
    """128-bit frame -> (85 message bits, corrected bit count).

    Corrects any pattern of <= t bit errors in the 127 codeword bits; the pad
    bit is ignored.  Raises DecodeFailure when the syndromes are
    inconsistent, and ConstraintViolation naming the first frame entry that
    is not a bit.  row: as rs.frame_decode's.
    """
    frame = _checked_frame(frame, _decoder().frame_bits)
    return _checked_row(frame, row, _decoder)[:2]
