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

Each code is two cached linear maps (Lin & Costello, Error Control
Coding, ch. 6-7), and no polynomial is divided: _parity_table, the parity
of each message symbol, and _syndrome_rows, the syndromes of the unit
symbol at each word position, one uint8 row each.  A binary code (BCH)
reads the rows as they are; the RS paths, which read symbols of every
magnitude, read them times each field element, packed in
_syndrome_tables.  rs_encode XORs one parity row per message symbol.
Every frame codec here (RS layouts, BCH) is GF(2)-linear on its bits and
encodes through a binary generator matrix G, cached per code
(_frame_generator, bch._generator) and built by _systematic from the
binary image of the parity rows: a frame is (message bits @ G) mod 2,
through _gf2.

Decoding is table-driven.  Vectors of field symbols travel packed in one
Python int, one byte per symbol (_pack), so adding two vectors is one XOR.
Every cached table is immutable (read-only arrays, tuples), since every
later decode in the process shares it.  A frame code's decoder refuses a
frame entry that is not a bit (_checked_frame), and reads one record per
frame, its _Decoder, cached and built at the first decode.  Its per-byte
XOR tables (_byte_tables), built from the syndrome entry of each sent
frame bit, give a frame's syndromes as np.packbits of the frame and one
lookup per byte.  A
punctured layout's tables also give its modified syndromes, the syndromes
composed with the fixed erasure locator Gamma of the punctured positions,
so a frame whose modified syndromes are zero is clean and returns at once,
and every other frame goes straight to Berlekamp-Massey.  BM and poly_mul
run on the field's cached multiplication table and table of inverses.
Only a locator within BM's degree bound goes on: the Chien search and both
Forney polynomials are evaluated at every position at once, one XOR of a
packed table entry per coefficient (_evaluation_tables).  The residual
check is linear: the corrections' error word must have the frame's
syndromes, the XOR of one _syndrome_tables entry per correction.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .. import gf2m
from ..gf2m import FieldSpec, poly_mul
from ..metrics import LengthMismatch  # noqa: F401  (re-exported)


class DecodeFailure(Exception):
    """Syndromes inconsistent with any pattern inside the decoding bound."""


class ConstraintViolation(ValueError):
    """A codec input outside its alphabet."""


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
    """Systematic encode: codeword = [message | parity], the parity the XOR
    of each message symbol times its _parity_table row; a (..., k) stack
    gives nested lists of codewords.  ConstraintViolation names the first
    symbol outside the field."""
    fs = spec.field
    msg = _checked_message(message, spec.k, fs.size, "message symbol")
    products = gf2m.mul_table(fs)[msg[..., None],
                                  _parity_table(fs, spec.generator, spec.n)]
    parity = np.bitwise_xor.reduce(products, axis=-2)  # degrees 0..r-1
    return np.concatenate([msg, parity[..., ::-1]], axis=-1).tolist()


@functools.cache
def _parity_table(fs: FieldSpec, generator: tuple, n: int) -> np.ndarray:
    """(k, r) read-only table: row i, x^(n-1-i) mod g lowest degree first,
    is the parity of the unit message at position i.  The last row is g
    less its leading term, and each row above is the one below times x,
    its x^r term reduced by g."""
    r = len(generator) - 1
    mul, g = gf2m.mul_table(fs), np.array(generator[:r])
    rows = [g]
    for _ in range(n - r - 1):
        row = rows[-1]
        rows.append(np.concatenate([[0], row[:-1]]) ^ mul[row[-1], g])
    table = np.array(rows[::-1])
    table.setflags(write=False)
    return table


def _syndromes(fs: FieldSpec, received: Sequence[int],
               count: int) -> list[int]:
    """S_j = received(alpha^j), j = 1..count, position i of degree
    len(received)-1-i: the XOR of one _syndrome_tables entry per symbol."""
    table = _syndrome_tables(fs, len(received), count)
    return list(_evaluate(table, received, count))


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
                       degree: int) -> tuple[tuple[int, ...], ...]:
    """table[d][c] packs c x^d at the inverse locator x = alpha^-(n-1-pos)
    of every position pos of a length-n word, symbol pos.  A polynomial of
    degree <= `degree` evaluated at every position is then the XOR of one
    entry per coefficient (_evaluate)."""
    rows = _powers(fs, np.arange(degree + 1), np.arange(n) + 1 - n)
    return tuple(tuple(map(_pack, gf2m.mul_table(fs)[:, row].tolist()))
                 for row in rows)


@functools.cache
def _syndrome_rows(fs: FieldSpec, n: int, r: int) -> np.ndarray:
    """(n, r) read-only uint8 table, the code's one syndrome map: row pos
    holds the syndromes alpha^((n-1-pos) j), j = 1..r, of the length-n word
    whose one nonzero symbol is 1 at pos.  A binary code reads it as is."""
    rows = _powers(fs, np.arange(n)[::-1],
                   np.arange(1, r + 1)).astype(np.uint8)
    rows.setflags(write=False)
    return rows


@functools.cache
def _syndrome_tables(fs: FieldSpec, n: int,
                     r: int) -> tuple[tuple[int, ...], ...]:
    """table[pos][mag] packs the r syndromes of the length-n word whose one
    nonzero symbol is mag at pos: mag times _syndrome_rows row pos.  Built
    for the RS paths only, which read symbols of every magnitude."""
    products = gf2m.mul_table(fs)[:, _syndrome_rows(fs, n, r)]
    data = products.swapaxes(0, 1).tobytes()  # [pos][mag], r bytes each
    entries = [int.from_bytes(data[i:i + r], "little")
               for i in range(0, len(data), r)]
    return tuple(tuple(entries[i:i + fs.size])
                 for i in range(0, len(entries), fs.size))


def _evaluate(tables: tuple[tuple[int, ...], ...], poly: Sequence[int],
              n: int) -> bytes:
    """The n symbols of the XOR of tables[d][c] over the coefficients c of
    poly; through _evaluation_tables(fs, n, degree), poly at the inverse
    locator of every position of a length-n word."""
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
    residual = _syndrome_tables(fs, n, r)
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
    syndromes are inconsistent with the bound, and ConstraintViolation
    naming the first received symbol outside the field or the first
    erasure position that is not an integer in 0..n-1.
    """
    fs = spec.field
    n, r = spec.n, spec.r
    word = _checked_message(received, n, fs.size, "received symbol").tolist()
    positions = list(erasures)
    erasures = sorted(set(_checked_message(
        positions, len(positions), n, "erasure position").tolist()))
    if len(erasures) > r:
        raise DecodeFailure("more erasures than parity symbols")

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
    return bits.astype(np.uint8).reshape(*s.shape[:-1], s.shape[-1] * q)


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
    """A codec's input, or a (..., count) stack of them, as uint8.
    LengthMismatch unless the last axis has count entries;
    ConstraintViolation names the first entry that is not an integer in
    [0, size) and its index in the message (and in the stack).  Input that
    is not integer is never cast, where NaN, 2^70 or "a" would warn or
    raise: each entry, as given, is compared with range(size)."""
    a = np.asarray(values)
    if a.shape[-1:] != (count,):
        raise LengthMismatch(
            f"{what} count {a.shape[-1] if a.ndim else a.size} != {count}")
    if a.dtype.kind in "biu":
        v = a.astype(np.uint8)
    else:  # 1.0 is in range(2); NaN, "1" or 2^70 is not, and reads 0 != it
        alphabet, a = range(size), np.asarray(values, object)
        v = np.array([alphabet.index(x) if x in alphabet else 0
                      for x in a.flat], np.uint8).reshape(a.shape)
    bad = np.argwhere((v != a) | (v >= size))
    if bad.size:
        i = tuple(bad[0].tolist())
        where = i[0] if len(i) == 1 else i
        raise ConstraintViolation(
            f"{what} {a[i]} at index {where} outside 0..{size - 1}")
    return v


def _checked_frame(frame, frame_bits: int) -> np.ndarray:
    """A frame decoder's input as uint8 bits.  LengthMismatch unless it has
    frame_bits entries; ConstraintViolation names the first entry that is
    not 0 or 1, which np.packbits would read as 1.  A uint8 frame, the one
    the receive chain passes, is checked by one bytes.translate, and
    any other through _checked_message."""
    a = np.asarray(frame)
    if a.size != frame_bits:
        raise LengthMismatch(f"frame length {a.size} != {frame_bits}")
    if a.dtype.char == "B" and not a.tobytes().translate(None, b"\0\1"):
        return a
    if a.dtype.kind not in "biu":  # its entries as given, not as str
        a = np.asarray(frame, object)
    return _checked_message(a.reshape(frame_bits), frame_bits, 2, "frame bit")


def _systematic(parity_bits: np.ndarray, frame_bits: int) -> np.ndarray:
    """The generator matrix G = [I | parity_bits | zero pad] of a
    systematic code of frame_bits-bit frames, one row per message bit.  G
    is read-only, since every caller of a cached G shares it, and float32,
    so the product runs through BLAS; its sums count at most one per row of
    G, and no G here has more than 150 rows (the message bits of a
    conventional RS(31,30) frame), so they are exact and fit a uint8."""
    k = len(parity_bits)
    G = np.zeros((k, frame_bits), dtype=np.float32)
    G[:, :k] = np.eye(k)
    G[:, k:k + parity_bits.shape[1]] = parity_bits
    G.setflags(write=False)
    return G


def _gf2(bits: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(bits @ A) mod 2 for one bit vector or a (..., n) stack of them.  A
    (bursts, frames, n) stack goes to BLAS as one product per burst; for
    10-frame bursts each is small enough that BLAS stays on the calling
    thread."""
    return (bits @ A).astype(np.uint8) & 1


def _byte_tables(images: list[int]) -> tuple[tuple[int, ...], ...]:
    """Per-byte XOR tables of a GF(2)-linear map from frame bits to field
    symbols, given as the packed symbol image of each unit frame, one per
    frame bit; missing trailing images are zero.  Table j maps packed byte
    j of a frame (np.packbits order) to the XOR of the images of the bits
    it sets, so the frame's image is the XOR of one lookup per byte
    (_lookup), and the image of frame bit i alone is
    tables[i // 8][0x80 >> i % 8]."""
    rows = images + [0] * (-len(images) % 8)
    tables = []
    for j in range(0, len(rows), 8):
        table = [0]
        for row in rows[j:j + 8]:  # first bit of the byte is its MSB
            table = [v ^ w for v in table for w in (0, row)]
        tables.append(tuple(table))
    return tuple(tables)


def _lookup(tables: tuple[tuple[int, ...], ...], frame: np.ndarray) -> int:
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


@functools.cache
def _frame_generator(layout: RsFrameLayout) -> np.ndarray:
    """The layout's (message bits, frame bits) generator matrix G: bit b of
    a sent message symbol has the value 2^(p-1-b), so its parity is that
    times the symbol's _parity_table row, less the punctured symbols."""
    spec = layout.spec
    rows = _parity_table(spec.field, spec.generator, spec.n)
    values = 1 << np.arange(layout.p - 1, -1, -1)
    parity = gf2m.mul_table(spec.field)[  # (k', p, r), codeword order
        values[:, None], rows[layout.k - layout.k_prime:, None, ::-1]]
    sent = parity[..., :layout.r - layout.punctured]
    return _systematic(_symbols_to_bits(sent, layout.q).reshape(
        layout.message_bits, layout.parity_bits), layout.frame_bits)


def frame_encode(layout: RsFrameLayout,
                 message_bits: np.ndarray) -> np.ndarray:
    """k' p message bits -> one frame_bits-long frame; a (..., k' p) stack
    gives (..., frame_bits) frames."""
    bits = _checked_message(message_bits, layout.message_bits, 2,
                            "message bit")
    return _gf2(bits, _frame_generator(layout))


# What a frame decoder reads of its code per frame: the field, n word
# symbols, r syndromes, the frame and message bits, the _byte_tables of a
# frame's syndromes and Gamma, the erasure locator of the punctured positions
_Decoder = namedtuple("_Decoder",
                      "fs n r frame_bits message_bits tables gamma")


@functools.cache
def _decoder(layout: RsFrameLayout) -> _Decoder:
    """A layout's _Decoder.  Its tables are the _byte_tables of each sent
    frame bit's syndromes, the _syndrome_tables entry of its value 2^b at
    its word position, followed, when the layout punctures, by its r - f
    modified syndromes: these are GF(2)-linear in the syndromes, since the
    punctured locator Gamma never changes.  Pad bits are not in the word,
    so their images are zero."""
    fs, n, r = layout.spec.field, layout.n, layout.r
    gamma = tuple(_erasure_locator(fs, n, range(n - layout.punctured, n)))
    table = _syndrome_tables(fs, n, r)
    shortened, p, q = layout.k - layout.k_prime, layout.p, layout.q
    sent = ([table[shortened + i // p][1 << (p - 1 - i % p)]
             for i in range(layout.message_bits)]
            + [table[layout.k + i // q][1 << (q - 1 - i % q)]
               for i in range(layout.parity_bits)])
    if layout.punctured:  # the modified syndromes in bytes r..2r-f-1
        sent = [v ^ _pack(_modified_syndromes(fs, _unpack(v, r), gamma, r))
                << 8 * r for v in sent]
    return _Decoder(fs, n, r, layout.frame_bits, layout.message_bits,
                    _byte_tables(sent), gamma)


def frame_decode(layout: RsFrameLayout,
                 frame: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Decode one frame -> (message bits, corrected symbols, constraint_ok).

    Punctured parity decodes as erasures, and filling it is not counted as
    a correction.  constraint_ok is False when a corrected message symbol
    has nonzero bits above its low p, i.e. the error pattern left the
    constrained alphabet; the low p bits are still returned.
    ConstraintViolation names the first frame entry that is not a bit.
    """
    fs, n, r, frame_bits, message_bits, tables, gamma = _decoder(layout)
    frame = _checked_frame(frame, frame_bits)
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
