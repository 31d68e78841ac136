"""Systematic Reed-Solomon codec over GF(2^m) with errors-and-erasures decoding.

Codewords are sequences of field elements in transmitted order
[message | parity]; position i corresponds to polynomial degree n-1-i, so the
locator of position i is alpha^(n-1-i).  Generator roots are alpha^1..alpha^r.

Every RS frame scheme is one RsFrameLayout: the binary image of an
RS(2^q - 1, k) codeword in a bit frame, with some leading message symbols
shortened, some trailing parity symbols punctured (decoded as erasures) and
message symbols restricted to p <= q bits.  RS(25,16) (RS2516) shortens and
punctures RS(31,19) by three symbols each; the constrained RS layouts of
fec.crs and the conventional RS(31,k) framing of the k-sweep are further
instances.  One encoder and one decoder serve them all.

Every frame codec here (RS frame layouts, BCH) is GF(2)-linear on its bits,
so each code encodes through a binary generator matrix G, a cached function
of the code (_frame_generator of a layout, bch._generator) built on first
use by _binary_matrix: row i of G is the algebraic encoding of the i-th unit
message.  A frame is (message bits @ G) mod 2, through _gf2.

Decoding is table-driven (syndrome table lookup, Lin & Costello, Error
Control Coding, ch. 6-7).  Vectors of field symbols travel packed in one
Python int, one byte per symbol (_pack), so adding two vectors is one XOR.
A frame code's decoder reads one record per frame, its _Decoder, cached
and built at the first decode.  Its per-byte XOR tables (_byte_tables) give
a frame's syndromes as np.packbits of the frame and one lookup per byte.  A
punctured layout's tables also give its modified syndromes, the syndromes
composed with the fixed erasure locator Gamma of the punctured positions,
so a frame whose modified syndromes are zero is clean and returns at once,
and every other frame goes straight to Berlekamp-Massey.  BM and poly_mul
run on the field's cached multiplication table and table of inverses.
Only a locator within BM's degree bound goes on: the Chien search and both
Forney polynomials are evaluated at every position at once, one XOR of a
packed table entry per coefficient (_evaluation_tables).  The residual
check is linear: the corrections' error word must have the frame's
syndromes, the XOR of one _residual_tables entry per correction.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .. import gf2m
from ..gf2m import FieldSpec, poly_mul, poly_divmod
from ..metrics import LengthMismatch  # noqa: F401  (re-exported)


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


@functools.cache
def rs_spec(m: int, k: int) -> RsCodeSpec:
    """RS(2^m - 1, k) over the canonical GF(2^m), roots alpha^1..alpha^r."""
    fs = gf2m.cached_field(m)
    n = fs.order
    if not 0 < k < n:
        raise LengthMismatch(f"k = {k} outside (0, {n})")
    g = gf2m.poly_from_roots(fs, [gf2m.pow_alpha(fs, j)
                                  for j in range(1, n - k + 1)])
    return RsCodeSpec(field=fs, n=n, k=k, generator=tuple(g))


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
    """S_j = received(alpha^j), j = 1..count, of a word of length
    n = fs.order; position i has degree n-1-i.  As alpha^n = 1, S_j is the
    reversed word evaluated at the inverse locator of position j - 1."""
    n = len(received)
    return list(_evaluate(_evaluation_tables(fs, n, n - 1), received[::-1],
                          n)[:count])


def _powers(fs: FieldSpec, logs: np.ndarray,
            exponents: np.ndarray) -> np.ndarray:
    """alpha^(log e) for every log (rows) and exponent e (columns)."""
    return fs.exp_table[np.multiply.outer(logs, exponents) % fs.order]


# --- packed symbols: one Python int holds a vector of field symbols ----------
# Symbol i is byte i (little-endian), which holds a symbol of every field
# here (m <= 8).  XOR of two packed ints adds their vectors.

def _pack(symbols: Iterable[int]) -> int:
    return int.from_bytes(bytes(symbols), "little")


def _unpack(value: int, count: int) -> bytes:
    """The count symbols of a packed value; indexing gives ints."""
    return value.to_bytes(count, "little")


@functools.cache
def _evaluation_tables(fs: FieldSpec, n: int,
                       degree: int) -> tuple[list[int], ...]:
    """table[d][c] packs c x^d at the inverse locator x = alpha^-(n-1-pos)
    of every position pos of a length-n word, symbol pos.  A polynomial of
    degree <= `degree` evaluated at every position is then the XOR of one
    entry per coefficient (_evaluate)."""
    rows = _powers(fs, np.arange(degree + 1), np.arange(n) + 1 - n)
    return tuple([_pack(p) for p in gf2m.mul_table(fs)[:, row].tolist()]
                 for row in rows)


@functools.cache
def _residual_tables(fs: FieldSpec, n: int, r: int) -> tuple[list[int], ...]:
    """table[pos][mag] packs the r syndromes mag alpha^((n-1-pos) j) of the
    length-n word whose one nonzero symbol is mag at pos."""
    powers = _powers(fs, np.arange(n)[::-1], np.arange(1, r + 1))
    products = gf2m.mul_table(fs)[:, powers].swapaxes(0, 1).tolist()
    return tuple([_pack(s) for s in by_mag] for by_mag in products)


def _evaluate(tables: tuple[list[int], ...], poly: Sequence[int],
              n: int) -> bytes:
    """poly at the inverse locator of every position of a length-n word,
    one symbol per position, through _evaluation_tables(fs, n, degree)."""
    if len(poly) > len(tables):
        raise ValueError(f"degree {len(poly) - 1} above the tables' "
                         f"{len(tables) - 1}")
    value = 0
    for table, c in zip(tables, poly):
        value ^= table[c]
    return _unpack(value, n)


def _roots(values: bytes) -> list[int]:
    """Positions of the zero symbols of an _evaluate result."""
    roots = []
    pos = values.find(0)
    while pos >= 0:
        roots.append(pos)
        pos = values.find(0, pos + 1)
    return roots


def _berlekamp_massey(fs: FieldSpec, syndromes: Sequence[int],
                      binary: bool = False) -> list[int]:
    """Error locator from a (possibly erasure-modified) syndrome sequence.
    binary: the syndromes are S_1..S_2t of a binary word, whose every
    second discrepancy (at S_2, S_4, ...) is zero, so those steps are
    skipped."""
    rows, inverse = gf2m.mul_rows(fs), gf2m.inverses(fs)
    # C += (d / b) x^shift B, in place but at a length change (the old C
    # becomes B); x^shift B keeps C at L + 1 or more coefficients
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b_inv = 1  # inverse of the discrepancy at the last length change
    for i in range(0, len(syndromes), 1 + binary):
        d = syndromes[i]
        for j in range(1, L + 1):
            d ^= rows[C[j]][syndromes[i - j]]
        if d:
            times_coef = rows[rows[d][b_inv]]
            if 2 * L <= i:
                T, C = C, C + [0] * (shift + len(B) - len(C))
                for j, c in enumerate(B, shift):
                    C[j] ^= times_coef[c]
                B = T
                L = i + 1 - L
                b_inv = inverse[d]
                shift = 0
            else:
                if len(C) < shift + len(B):
                    C += [0] * (shift + len(B) - len(C))
                for j, c in enumerate(B, shift):
                    C[j] ^= times_coef[c]
        shift += 1 + binary
    while C[-1] == 0:  # C[0] stays 1
        C.pop()
    return C


def _erasure_locator(fs: FieldSpec, n: int,
                     erasures: Iterable[int]) -> list[int]:
    """Gamma(x) = prod (1 - X_i x) over the erased positions,
    X_i = alpha^(n-1-pos): the coefficients of prod (x + X_i) reversed."""
    return gf2m.poly_from_roots(
        fs, [gf2m.pow_alpha(fs, n - 1 - pos) for pos in erasures])[::-1]


def _modified_syndromes(fs: FieldSpec, synd: list[int],
                        gamma: Sequence[int], r: int) -> list[int]:
    """Coefficients f..r-1 of S(x)*Gamma(x), f = deg Gamma.  They form a pure
    exponential sum over the error locators (erasure terms cancel), so BM on
    this length r-f sequence recovers the error locator alone; they are all
    zero exactly when the erasures alone explain the syndromes."""
    product = poly_mul(fs, synd, gamma, r)
    product += [0] * (r - len(product))
    return product[len(gamma) - 1:r]


def _error_locator(fs: FieldSpec, modified: list[int],
                   binary: bool = False) -> list[int]:
    """BM on the modified syndromes; DecodeFailure past the error bound."""
    lam = _berlekamp_massey(fs, modified, binary)
    if gf2m.poly_deg(lam) > len(modified) // 2:
        raise DecodeFailure("error locator exceeds capability")
    return lam


def _corrections(fs: FieldSpec, n: int, synd: Sequence[int], lam: list[int],
                 gamma: Sequence[int]) -> list[tuple[int, int]]:
    """Chien search and Forney on the combined locator Lambda * Gamma:
    (position, magnitude) of every nonzero correction of a length-n word
    with syndromes synd.  DecodeFailure unless the corrections cancel
    every syndrome, i.e. their error word has the word's syndromes."""
    r = len(synd)
    psi = poly_mul(fs, lam, gamma)  # combined locator, degree <= r
    tables = _evaluation_tables(fs, n, r)
    roots_pos = _roots(_evaluate(tables, psi, n))
    if len(roots_pos) != gf2m.poly_deg(psi):
        raise DecodeFailure("locator degree does not match root count")

    # Forney: Omega = S * psi mod x^r; e_j = Omega(X_j^-1) / psi'(X_j^-1),
    # psi' having coefficient psi_(2i+1) at degree 2i
    omega = _evaluate(tables, poly_mul(fs, synd, psi, r), n)
    psi_prime = _evaluate(tables[::2], psi[1::2], n)
    rows, inverse = gf2m.mul_rows(fs), gf2m.inverses(fs)
    residual = _residual_tables(fs, n, r)
    fixes, error_synd = [], 0
    for pos in roots_pos:
        if psi_prime[pos] == 0:
            raise DecodeFailure("Forney denominator vanished")
        mag = rows[omega[pos]][inverse[psi_prime[pos]]]
        error_synd ^= residual[pos][mag]
        if mag:
            fixes.append((pos, mag))
    if error_synd != _pack(synd):
        raise DecodeFailure("residual syndromes after correction")
    return fixes


def rs_decode(spec: RsCodeSpec, received: Sequence[int],
              erasures: Iterable[int] = ()) -> tuple[list[int], int]:
    """Correct e errors and f erasures whenever 2e + f <= r.

    Returns (message, corrected symbol count); raises DecodeFailure when the
    syndromes are inconsistent with the bound.
    """
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
        return word[:spec.k], 0
    gamma = _erasure_locator(fs, n, erasures)
    lam = _error_locator(fs, _modified_syndromes(fs, synd, gamma, r))
    fixes = _corrections(fs, n, synd, lam, gamma)
    for pos, mag in fixes:
        word[pos] ^= mag
    return word[:spec.k], len(fixes)


# --- bit frames: packing, encoder input checks, binary-image encoding --------

def _symbols_to_bits(symbols: Sequence[int], q: int) -> np.ndarray:
    """Low q bits of each symbol, most significant first; (..., n) symbols
    give (..., n q) bits."""
    s = np.asarray(symbols, dtype=np.int64)
    bits = (s[..., None] >> np.arange(q - 1, -1, -1)) & 1
    return bits.astype(np.uint8).reshape(*s.shape[:-1], -1)


def _pack_symbols(bits: np.ndarray, q: int) -> np.ndarray:
    """Whole q-bit fields of the last axis of bits, most significant first;
    a short tail is dropped."""
    bits = np.asarray(bits)
    n = bits.shape[-1] // q
    fields = bits[..., :n * q].astype(np.int64).reshape(*bits.shape[:-1], n, q)
    return fields @ (1 << np.arange(q - 1, -1, -1))


def _bits_to_symbols(bits: np.ndarray, q: int) -> list[int]:
    """_pack_symbols of one bit vector, as a list."""
    return _pack_symbols(bits, q).tolist()


def _checked_message(values, count: int, size: int,
                     what: str) -> np.ndarray:
    """An encoder's message, or a (..., count) stack of them, as uint8.
    LengthMismatch unless the last axis has count entries;
    ConstraintViolation names the first entry that is not an integer in
    [0, size) and its index in the message (and in the stack)."""
    a = np.asarray(values)
    if a.shape[-1:] != (count,):
        raise LengthMismatch(
            f"message length {a.shape[-1] if a.ndim else a.size} != {count}")
    v = a.astype(np.uint8)
    bad = np.argwhere((v != a) | (v >= size))
    if bad.size:
        i = tuple(bad[0])
        where = i[0] if len(i) == 1 else i
        raise ConstraintViolation(
            f"{what} {a[i]} at index {where} outside 0..{size - 1}")
    return v


def _binary_matrix(linear: Callable[[np.ndarray], np.ndarray],
                   n: int) -> np.ndarray:
    """The binary matrix A of a GF(2)-linear map on n bits, so that
    linear(bits) = _gf2(bits, A): row i is the image of the i-th unit
    vector.  A is read-only, since every caller of a cached A shares it,
    and float32, so the product runs through BLAS; its sums count at most
    one per row of A, and no G here has more than 150 rows (the message
    bits of a conventional RS(31,30) frame), so they are exact and fit a
    uint8."""
    A = np.stack([linear(e) for e in np.eye(n, dtype=np.uint8)]
                 ).astype(np.float32)
    A.setflags(write=False)
    return A


def _gf2(bits: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(bits @ A) mod 2 for one bit vector or a (..., n) stack of them.  A
    (bursts, frames, n) stack goes to BLAS as one product per burst; for
    10-frame bursts each is small enough that BLAS stays on the calling
    thread."""
    return (bits @ A).astype(np.uint8) & 1


def _byte_tables(symbols: list[list[int]]) -> tuple[list[int], ...]:
    """Per-byte XOR tables of a GF(2)-linear map from frame bits to field
    symbols, given as the symbol image of each unit frame, one row per
    frame bit; missing trailing rows are zero.  Table j maps packed byte j
    of a frame (np.packbits order) to the _pack of the XOR of the images of
    the bits it sets, so the frame's image is the XOR of one lookup per byte
    (_lookup), and the image of frame bit i alone is
    tables[i // 8][0x80 >> i % 8]."""
    rows = [_pack(row) for row in symbols]
    rows += [0] * (-len(rows) % 8)
    tables = []
    for j in range(0, len(rows), 8):
        table = [0]
        for row in rows[j:j + 8]:  # first bit of the byte is its MSB
            table = [v ^ w for v in table for w in (0, row)]
        tables.append(table)
    return tuple(tables)


def _lookup(tables: tuple[list[int], ...], frame: np.ndarray) -> int:
    """The packed image of a frame under _byte_tables."""
    value = 0
    for table, byte in zip(tables, np.packbits(frame).tobytes()):
        value ^= table[byte]
    return value


# --- RS bit frames: shortened, punctured, constrained -------------------------

@dataclass(frozen=True)
class RsFrameLayout:
    """The binary image of an RS(2^q - 1, k) codeword in one bit frame:
    [k' p-bit message fields | r - punctured q-bit parity symbols | zero pad].
    The k - k' leading message symbols are shortened (implicit zeros), the
    last `punctured` parity symbols are not sent and decode as erasures, and
    p < q restricts each message symbol to its low p bits."""
    q: int           # bits per field symbol; n = 2^q - 1
    k: int           # RS message symbols
    k_prime: int     # transmitted message symbols
    p: int           # bits per transmitted message symbol
    punctured: int   # trailing parity symbols not transmitted
    frame_bits: int

    @property
    def n(self) -> int:
        return (1 << self.q) - 1

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def spec(self) -> RsCodeSpec:
        return rs_spec(self.q, self.k)

    @property
    def message_bits(self) -> int:
        return self.k_prime * self.p

    @property
    def parity_bits(self) -> int:
        return (self.r - self.punctured) * self.q

    @property
    def pad_bits(self) -> int:
        return self.frame_bits - self.message_bits - self.parity_bits

    @property
    def p_lower(self) -> float:
        """Open lower bound of the feasible p: the bound at k' = k."""
        return (self.frame_bits - self.parity_bits) / self.k

    @property
    def p_upper(self) -> float:
        """Closed upper bound of the feasible p: k' fields beside the parity."""
        return (self.frame_bits - self.parity_bits) / self.k_prime


# RS(31,19) shortened by 3 message symbols and punctured by 3 parity symbols:
# 25 symbols, 125 bits plus 3 zero pad bits
RS2516 = RsFrameLayout(q=5, k=19, k_prime=16, p=5, punctured=3,
                       frame_bits=128)


def _frame_algebraic(layout: RsFrameLayout, bits: np.ndarray) -> np.ndarray:
    """frame_encode of one message bit vector through rs_encode."""
    codeword = rs_encode(layout.spec, [0] * (layout.k - layout.k_prime)
                         + _bits_to_symbols(bits, layout.p))
    parity = _symbols_to_bits(codeword[layout.k:layout.n - layout.punctured],
                              layout.q)
    frame = np.zeros(layout.frame_bits, dtype=np.uint8)
    frame[:bits.size] = bits
    frame[bits.size:bits.size + parity.size] = parity
    return frame


@functools.cache
def _frame_generator(layout: RsFrameLayout) -> np.ndarray:
    """The layout's (message bits, frame bits) generator matrix G."""
    return _binary_matrix(lambda b: _frame_algebraic(layout, b),
                          layout.message_bits)


def frame_encode(layout: RsFrameLayout,
                 message_bits: np.ndarray) -> np.ndarray:
    """k' p message bits -> one frame_bits-long frame; a (..., k' p) stack
    gives (..., frame_bits) frames."""
    bits = _checked_message(message_bits, layout.message_bits, 2,
                            "message bit")
    return _gf2(bits, _frame_generator(layout))


def _frame_word(layout: RsFrameLayout, frame: np.ndarray) -> list[int]:
    """The RS(n, k) word of a frame: shortened zeros, the k' p-bit message
    fields, the sent q-bit parity, zero fills at the punctured positions."""
    nm = layout.message_bits
    return ([0] * (layout.k - layout.k_prime)
            + _bits_to_symbols(frame[:nm], layout.p)
            + _bits_to_symbols(frame[nm:nm + layout.parity_bits], layout.q)
            + [0] * layout.punctured)


# What a frame decoder reads of its code per frame: the field, n word
# symbols, r syndromes, the frame and message bits, the _byte_tables of a
# frame's syndromes and Gamma, the erasure locator of the punctured positions
_Decoder = namedtuple("_Decoder",
                      "fs n r frame_bits message_bits tables gamma")


@functools.cache
def _decoder(layout: RsFrameLayout) -> _Decoder:
    """A layout's _Decoder.  Its tables are the _byte_tables of the r
    syndromes of each unit frame's word followed, when the layout
    punctures, by its r - f modified syndromes: these are GF(2)-linear in
    the syndromes, since the punctured locator Gamma never changes.  Pad
    bits are not in the word, so their images are zero."""
    fs, n, r = layout.spec.field, layout.n, layout.r
    gamma = tuple(_erasure_locator(fs, n, range(n - layout.punctured, n)))
    rows = []
    for unit in np.eye(layout.frame_bits, dtype=np.uint8):
        synd = _syndromes(fs, _frame_word(layout, unit), r)
        if layout.punctured:
            synd += _modified_syndromes(fs, synd, gamma, r)
        rows.append(synd)
    return _Decoder(fs, n, r, layout.frame_bits, layout.message_bits,
                    _byte_tables(rows), gamma)


def frame_decode(layout: RsFrameLayout,
                 frame: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Decode one frame -> (message bits, corrected symbols, constraint_ok).

    Punctured parity decodes as erasures, and filling it is not counted as
    a correction.  constraint_ok is False when a corrected message symbol
    has nonzero bits above its low p, i.e. the error pattern left the
    constrained alphabet; the low p bits are still returned.
    """
    frame = np.asarray(frame, dtype=np.uint8)
    fs, n, r, frame_bits, message_bits, tables, gamma = _decoder(layout)
    if frame.size != frame_bits:
        raise LengthMismatch(f"frame length {frame.size} != {frame_bits}")
    value, f = _lookup(tables, frame), layout.punctured
    modified = value >> 8 * r if f else value
    if not modified:
        # the erasures alone explain the syndromes: correction would only
        # fill the punctured parity, so the message arrived intact
        return frame[:message_bits].copy(), 0, True
    lam = _error_locator(fs, _unpack(modified, r - f))
    fixes = _corrections(fs, n, _unpack(value, 2 * r - f)[:r], lam, gamma)
    shortened, k, p = layout.k - layout.k_prime, layout.k, layout.p
    if any(pos < shortened for pos, _ in fixes):
        raise DecodeFailure("shortened prefix decoded nonzero")
    # message symbols arrive as p-bit fields: a correction flips the bits
    # of its low p, and it keeps the alphabet exactly when its magnitude
    # has no higher bits
    message = [(pos, mag) for pos, mag in fixes if pos < k]
    flips = [(pos - shortened) * p + b for pos, mag in message
             for b in range(p) if mag >> (p - 1 - b) & 1]
    bits = frame[:message_bits].copy()
    bits[flips] ^= 1
    constraint_ok = all(mag >> p == 0 for _, mag in message)
    corrected = sum(1 for pos, _ in fixes if pos < n - f)
    return bits, corrected, constraint_ok


def rs2516_frame(message: Sequence[int]) -> np.ndarray:
    """16 GF(32) message symbols -> one RS2516 frame; a (..., 16) stack of
    messages gives (..., 128) frames."""
    symbols = _checked_message(message, RS2516.k_prime, 32, "message symbol")
    return frame_encode(RS2516, _symbols_to_bits(symbols, 5))


def rs2516_decode(frame: np.ndarray) -> tuple[list[int], int]:
    """frame_decode of one RS2516 frame, its message as 16 symbols."""
    bits, corrected, _ = frame_decode(RS2516, frame)
    value = int.from_bytes(np.packbits(bits).tobytes(), "big")  # 80 bits
    return [value >> s & 31 for s in range(75, -1, -5)], corrected
