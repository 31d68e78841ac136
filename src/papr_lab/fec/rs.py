"""Systematic Reed-Solomon codec over GF(2^m) with errors-and-erasures decoding.

Codewords are sequences of field elements in transmitted order
[message | parity]; position i corresponds to polynomial degree n-1-i, so the
locator of position i is alpha^(n-1-i).  Generator roots are alpha^1..alpha^r.

The RS(25,16) variant shortens RS(31,19) by three leading zero message
symbols and punctures the last three parity symbols; punctured positions are
decoded as erasures.  Its 125 payload bits are padded with three zero bits to
fill one 128-bit multicarrier frame.

Every frame codec here (RS(25,16), BCH, constrained RS) is GF(2)-linear on
its bits, so the frame encoders go through the binary image: the algebraic
encoder maps each unit message to one row of a binary generator matrix G,
built on first use, and a frame is (message bits @ G) & 1.  Decoders take
syndromes and run the Chien search with one vectorized polynomial
evaluation each (gf2m.poly_eval_many); Berlekamp-Massey and Forney, which
handle at most r values, stay scalar.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .. import gf2m
from ..gf2m import FieldSpec, mul, inv, poly_eval, poly_mul, poly_divmod


class LengthMismatch(ValueError):
    pass


class DecodeFailure(Exception):
    """Syndromes inconsistent with any pattern inside the decoding bound."""


class ConstraintViolation(ValueError):
    """An encoder input outside its alphabet."""


@dataclass(frozen=True)
class RsCodeSpec:
    field: FieldSpec
    n: int
    k: int
    generator: tuple  # lowest degree first, degree r

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def t(self) -> int:
        return self.r // 2


_SPEC_CACHE: dict[tuple[int, int], RsCodeSpec] = {}


def rs_spec(m: int, k: int) -> RsCodeSpec:
    """RS(2^m - 1, k) over the canonical GF(2^m), roots alpha^1..alpha^r."""
    key = (m, k)
    if key in _SPEC_CACHE:
        return _SPEC_CACHE[key]
    fs = gf2m.cached_field(m)
    n = fs.order
    if not 0 < k < n:
        raise LengthMismatch(f"k = {k} outside (0, {n})")
    g = [1]
    for j in range(1, n - k + 1):
        g = poly_mul(fs, g, [gf2m.pow_alpha(fs, j), 1])
    spec = RsCodeSpec(field=fs, n=n, k=k, generator=tuple(g))
    _SPEC_CACHE[key] = spec
    return spec


def rs_encode(spec: RsCodeSpec, message: Sequence[int]) -> list[int]:
    """Systematic encode: codeword = [message | parity]."""
    if len(message) != spec.k:
        raise LengthMismatch(f"message length {len(message)} != k = {spec.k}")
    fs = spec.field
    r = spec.r
    # message poly * x^r, lowest degree first; message[0] is degree n-1
    shifted = [0] * r + [int(s) for s in reversed(message)]
    _, rem = poly_divmod(fs, shifted, list(spec.generator))
    parity = list(rem) + [0] * (r - len(rem))  # degrees 0..r-1
    return [int(s) for s in message] + parity[::-1]


def _syndromes(fs: FieldSpec, received: Sequence[int],
               count: int) -> list[int]:
    """S_j = received(alpha^j), j = 1..count; position i has degree n-1-i."""
    return gf2m.poly_eval_many(fs, np.asarray(received)[::-1],
                               fs.exp_table[1:count + 1]).tolist()


def _chien(fs: FieldSpec, n: int, locator: list[int]) -> list[int]:
    """Positions pos whose inverse locator alpha^-(n-1-pos) is a root."""
    xinv = fs.exp_table[(np.arange(n) + 1 - n) % fs.order]
    return np.flatnonzero(gf2m.poly_eval_many(fs, locator, xinv) == 0).tolist()


def _berlekamp_massey(fs: FieldSpec, syndromes: list[int]) -> list[int]:
    """Error locator from a (possibly erasure-modified) syndrome sequence."""
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b = 1
    for i, s in enumerate(syndromes):
        d = s
        for j in range(1, L + 1):
            if j < len(C):
                d ^= mul(fs, C[j], syndromes[i - j])
        if d == 0:
            shift += 1
            continue
        coef = mul(fs, d, inv(fs, b))
        T = list(C)
        adj = [0] * shift + [mul(fs, coef, c) for c in B]
        C = gf2m.poly_add(C, adj)
        if 2 * L <= i:
            L = i + 1 - L
            B = T
            b = d
            shift = 1
        else:
            shift += 1
    return C


def rs_decode(spec: RsCodeSpec, received: Sequence[int],
              erasures: Iterable[int] = ()) -> tuple[list[int], int]:
    """Correct e errors and f erasures whenever 2e + f <= r.

    Returns (message, corrected symbol count); raises DecodeFailure when the
    syndromes are inconsistent with the bound.
    """
    word, positions = decode_word(spec, received, erasures)
    return word[:spec.k], len(positions)


def decode_word(spec: RsCodeSpec, received: Sequence[int],
                erasures: Iterable[int] = ()) -> tuple[list[int], list[int]]:
    """Full-codeword decode returning (corrected word, corrected positions)."""
    if len(received) != spec.n:
        raise LengthMismatch(f"received length {len(received)} != n = {spec.n}")
    fs = spec.field
    n, r = spec.n, spec.r
    erasures = sorted(set(int(e) for e in erasures))
    if erasures and not 0 <= erasures[0] <= erasures[-1] < n:
        raise LengthMismatch("erasure position out of range")
    if len(erasures) > r:
        raise DecodeFailure("more erasures than parity symbols")

    word = [int(c) for c in received]
    synd = _syndromes(fs, word, r)
    if not any(synd) and not erasures:
        return word, []

    # erasure locator Gamma(x) = prod (1 - X_i x), X_i = alpha^(n-1-pos)
    gamma = [1]
    for pos in erasures:
        gamma = poly_mul(fs, gamma, [1, gf2m.pow_alpha(fs, n - 1 - pos)])
    # Modified syndromes: coefficients f..r-1 of S(x)*Gamma(x) form a pure
    # exponential sum over the error locators (erasure terms cancel), so BM
    # on this length r-f sequence recovers the error locator alone.
    f = len(erasures)
    product = poly_mul(fs, synd, gamma)
    product += [0] * (r - len(product))
    modified = product[f:r]

    lam = _berlekamp_massey(fs, modified)
    if gf2m.poly_deg(lam) > (r - f) // 2:
        raise DecodeFailure("error locator exceeds capability")
    psi = poly_mul(fs, lam, gamma)  # combined locator
    if not psi:
        raise DecodeFailure("degenerate locator")

    roots_pos = _chien(fs, n, psi)
    if len(roots_pos) != gf2m.poly_deg(psi):
        raise DecodeFailure("locator degree does not match root count")

    # Forney: Omega = S * psi mod x^r; e_j = Omega(X_j^-1) / psi'(X_j^-1)
    omega = poly_mul(fs, synd, psi)[:r]
    psi_prime = [c if i % 2 == 0 else 0
                 for i, c in enumerate(psi[1:])]  # formal derivative
    touched = []
    for pos in roots_pos:
        xi = gf2m.pow_alpha(fs, pos + 1 - n)
        denom = poly_eval(fs, psi_prime, xi)
        if denom == 0:
            raise DecodeFailure("Forney denominator vanished")
        mag = gf2m.div(fs, poly_eval(fs, omega, xi), denom)
        if mag:
            word[pos] ^= mag
            touched.append(pos)

    if any(_syndromes(fs, word, r)):
        raise DecodeFailure("residual syndromes after correction")
    return word, touched


# --- bit frames: packing, encoder input checks, binary-image encoding --------

def _symbols_to_bits(symbols: Sequence[int], q: int) -> np.ndarray:
    """Low q bits of each symbol, most significant first."""
    s = np.asarray(symbols, dtype=np.int64).reshape(-1, 1)
    return ((s >> np.arange(q - 1, -1, -1)) & 1).astype(np.uint8).ravel()


def _bits_to_symbols(bits: np.ndarray, q: int) -> list[int]:
    """Whole q-bit fields of bits, most significant first; a short tail is
    dropped."""
    n = len(bits) // q
    fields = np.asarray(bits[:n * q], dtype=np.int64).reshape(n, q)
    return (fields @ (1 << np.arange(q - 1, -1, -1))).tolist()


def _checked_message(values, count: int, size: int,
                     what: str) -> np.ndarray:
    """An encoder's message as uint8.  LengthMismatch unless it has count
    entries; ConstraintViolation names the first entry that is not an
    integer in [0, size)."""
    a = np.asarray(values)
    if a.size != count:
        raise LengthMismatch(f"message length {a.size} != {count}")
    v = a.astype(np.uint8)
    bad = np.flatnonzero((v != a) | (v >= size))
    if bad.size:
        i = bad[0]
        raise ConstraintViolation(
            f"{what} {a.flat[i]} at index {i} outside 0..{size - 1}")
    return v


_GENERATORS: dict[Hashable, np.ndarray] = {}


def _encode_bits(code: Hashable, encode: Callable[[np.ndarray], np.ndarray],
                 bits: np.ndarray) -> np.ndarray:
    """(bits @ G) & 1 for the binary generator matrix G of `encode`, a
    GF(2)-linear bit encoder: row i of G is the frame of the i-th unit
    message.  G is built on the first call for `code` and memoized."""
    G = _GENERATORS.get(code)
    if G is None:
        G = _GENERATORS[code] = np.stack(
            [encode(e) for e in np.eye(bits.size, dtype=np.uint8)])
    return (bits @ G) & 1  # uint8 sums wrap mod 256, which keeps parity


# --- punctured/shortened RS(25,16) frame codec -------------------------------

_RS2516_SHORTEN = 3       # leading zero message symbols, not transmitted
_RS2516_PUNCTURE = 3      # trailing parity symbols, not transmitted
_RS2516_PAD_BITS = 3      # 25 symbols * 5 bits = 125 -> 128-bit frame
RS2516_MESSAGE_SYMBOLS = 16
RS2516_FRAME_BITS = 128


def rs2516_encode(message: Sequence[int]) -> list[int]:
    """16 GF(32) symbols -> 25 transmitted symbols (16 message + 9 parity)."""
    if len(message) != RS2516_MESSAGE_SYMBOLS:
        raise LengthMismatch(
            f"message length {len(message)} != {RS2516_MESSAGE_SYMBOLS}")
    spec = rs_spec(5, 19)
    full = rs_encode(spec, [0] * _RS2516_SHORTEN + list(message))
    # drop the shortened zeros and the last punctured parity symbols
    return full[_RS2516_SHORTEN:spec.n - _RS2516_PUNCTURE]


def _rs2516_frame_algebraic(bits: np.ndarray) -> np.ndarray:
    """rs2516_frame on 80 message bits through rs2516_encode; builds G."""
    cw = _symbols_to_bits(rs2516_encode(_bits_to_symbols(bits, 5)), 5)
    return np.concatenate([cw, np.zeros(_RS2516_PAD_BITS, dtype=np.uint8)])


def rs2516_frame(message: Sequence[int]) -> np.ndarray:
    """Encode and pack to one 128-bit frame (125 payload bits + 3 zero pad)."""
    symbols = _checked_message(message, RS2516_MESSAGE_SYMBOLS, 32,
                               "message symbol")
    return _encode_bits("rs2516", _rs2516_frame_algebraic,
                        _symbols_to_bits(symbols, 5))


def rs2516_decode(frame: np.ndarray) -> tuple[list[int], int]:
    """Decode one 128-bit frame; punctured parity treated as erasures."""
    frame = np.asarray(frame, dtype=np.uint8)
    if frame.size != RS2516_FRAME_BITS:
        raise LengthMismatch(f"frame length {frame.size} != {RS2516_FRAME_BITS}")
    spec = rs_spec(5, 19)
    symbols = _bits_to_symbols(frame[:125], 5)
    word = [0] * _RS2516_SHORTEN + symbols + [0] * _RS2516_PUNCTURE
    erasures = range(spec.n - _RS2516_PUNCTURE, spec.n)
    decoded, positions = decode_word(spec, word, erasures)
    if any(decoded[:_RS2516_SHORTEN]):
        raise DecodeFailure("shortened prefix decoded nonzero")
    # erasure fills at the punctured tail are reconstruction, not correction
    corrected = sum(1 for p in positions if p < spec.n - _RS2516_PUNCTURE)
    return decoded[_RS2516_SHORTEN:spec.k], corrected
