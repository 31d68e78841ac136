"""Systematic Reed-Solomon codec over GF(2^m) with errors-and-erasures decoding.

Codewords are sequences of field elements in transmitted order
[message | parity]; position i corresponds to polynomial degree n-1-i, so the
locator of position i is alpha^(n-1-i).  Generator roots are alpha^1..alpha^r.

Every RS frame scheme is one RsFrameLayout: the binary image of an
RS(2^q - 1, k) codeword in a bit frame, with some leading message symbols
shortened, some trailing parity symbols punctured (decoded as erasures) and
message symbols restricted to p <= q bits.  The code itself, rs_spec, is
the layout that sends the whole codeword as its n q bits; RS(25,16)
(RS2516) shortens and punctures RS(31,19) by three symbols each; the
constrained RS layouts of fec.crs and the conventional RS(31,k) framing of
the k-sweep are further instances.  One encoder and one decoder serve them
all; the symbol codec, rs_encode and rs_decode, runs on rs_spec's frame
codec through the codeword's bits.

Each code is two cached linear maps, and no polynomial is divided (Lin &
Costello, Error Control Coding, ch. 6-7): the parity of each message
symbol (_parity_table) and the syndromes of each word position
(_syndrome_rows).  Every frame codec here (RS layouts, BCH) is
GF(2)-linear on its bits, so it encodes and takes syndromes through one
form of map, byte XOR tables (_frame_tables; Sarwate, CACM 31(8), 1988).

Decoding is table-driven and stacked.  A frame code's decoder reads one
record, its _Decoder, cached and built at the first decode.  _frame_rows
decodes a whole stack of frames in numpy, through _outcomes, the one
correction routine of every decoder here, BCH's too; a frame decoder
given its frame's row of that pass only checks the frame.  Corrections
are accepted by Berlekamp-Massey's length test, never by their
syndromes.  Every cached table is immutable (read-only arrays, tuples),
since every later decode in the process shares it.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .. import gf2m
from ..gf2m import FieldSpec
from ..metrics import ConfigError, LengthMismatch  # noqa: F401  (re-exported)


class DecodeFailure(Exception):
    """Syndromes inconsistent with any pattern inside the decoding bound."""


class ConstraintViolation(ValueError):
    """A codec input outside its alphabet."""


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


def _powers(fs: FieldSpec, logs: np.ndarray,
            exponents: np.ndarray) -> np.ndarray:
    """alpha^(log e) for every log (rows) and exponent e (columns)."""
    return fs.exp_table[np.multiply.outer(logs, exponents) % fs.order]


@functools.cache
def _power_table(fs: FieldSpec, n: int, degree: int) -> np.ndarray:
    """(degree + 1, size, n) read-only uint8 table: [d, c, pos] is c x^d at
    the inverse locator x = alpha^-(n-1-pos) of each position pos of a
    length-n word.  A polynomial of degree <= `degree` at every position
    is then the XOR of one row per coefficient (_values)."""
    powers = _powers(fs, np.arange(degree + 1), np.arange(n) + 1 - n)
    table = gf2m.mul_table(fs)[powers[:, None], np.arange(fs.size)[:, None]]
    table.setflags(write=False)
    return table


def _values(table: np.ndarray, polys: np.ndarray, *at) -> np.ndarray:
    """Each row of a (rows, width) stack of polynomials at the inverse
    locator of every position, (rows, n), from its _power_table; given
    positions, (rows,), row i at positions[i] alone."""
    index = np.arange(polys.shape[1]), polys, *(pos[:, None] for pos in at)
    return np.bitwise_xor.reduce(table[index], axis=1)


def _product(fs: FieldSpec, p: np.ndarray, q: np.ndarray,
             size: int) -> np.ndarray:
    """Coefficients 0..size-1 of p q, as uint8, for each row of a (..., P)
    stack p and a (..., Q) stack q, broadcast: the XOR over b of q_b times
    p shifted by x^b, one flat gather of every product."""
    Q = q.shape[-1]
    padded = np.zeros((*p.shape[:-1], Q - 1 + size), np.intp)
    width = min(p.shape[-1], size)
    padded[..., Q - 1:Q - 1 + width] = p[..., :width]
    # shifted[..., b, j] is p_(j-b), zero outside p
    shifted = padded[..., np.arange(Q - 1, Q - 1 + size)
                     - np.arange(Q)[:, None]]
    shifted |= np.left_shift(q, fs.m, dtype=np.intp)[..., None]
    return np.bitwise_xor.reduce(gf2m.mul_table(fs).ravel().take(shifted),
                                 axis=-2)


@functools.cache
def _syndrome_rows(fs: FieldSpec, n: int, r: int) -> np.ndarray:
    """(n, r) read-only uint8 table, the code's one syndrome map: row pos
    holds the syndromes alpha^((n-1-pos) j), j = 1..r, of the length-n word
    whose one nonzero symbol is 1 at pos.  A binary code reads it as is."""
    rows = _powers(fs, np.arange(n)[::-1],
                   np.arange(1, r + 1)).astype(np.uint8)
    rows.setflags(write=False)
    return rows


def _locators(fs: FieldSpec, syndromes, binary: bool = False
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, degrees, L) of a (frames, m) stack of (possibly erasure-modified)
    syndrome sequences, by Berlekamp-Massey run on every row at once
    (Massey 1969): row i of the (frames, m + 1) uint8 C is the shortest
    LFSR that generates row i, of degree degrees[i] <= its length L[i].
    binary: the rows are S_1..S_2t of binary words, whose every second
    discrepancy (at S_2, S_4, ...) is zero, so those steps are skipped."""
    S = np.asarray(syndromes, dtype=np.uint8)
    frames, m = S.shape
    # products[a << m | b] is a * b, a flat gather; offsets[a] is a << m,
    # and inverse[a] the offset of 1 / a
    products, step = gf2m.mul_table(fs).ravel(), 1 + binary
    offsets = np.arange(fs.size) << fs.m
    inverse = offsets[gf2m.inverses(fs)]
    # C[0] is the locator and C[1] its product with S mod x^m, whose
    # coefficient i is the discrepancy at step i, frames last so that each
    # step's arrays are long and contiguous.  B is x^shift times the
    # locator before the last length change, and that times S: a nonzero
    # discrepancy adds a multiple of B to C.  B is a window of `past`, kept
    # as offsets' index type, that moves step entries left a step, which
    # multiplies it by x^step, since nothing left of it is ever written.
    # No degree of a locator ever read passes m (deg C <= L <= m)
    C = np.zeros((2, m + 1, frames), np.uint8)
    C[0, 0] = 1
    C[1, :m] = S.T
    start = -(-m // step) * step
    past = np.zeros((2, start + m + 1, frames), np.intp)
    past[:, start + 1:start + m + 1] = C[:, :m]  # B = x C
    # state's rows: the offset of 1 / the last change's d, and L; a length
    # change writes update over both at once
    state = np.zeros((2, frames), np.intp)
    state[0], update = inverse[1], np.empty_like(state)
    b_inv, L = state
    for i in range(0, m, step):
        B = past[:, start:start + m + 1]
        d = C[1, i]
        grow = np.logical_and(d, L <= i // 2)
        coef = offsets.take(products.take(b_inv | d))  # d = 0 adds nothing
        change = products.take(coef | B)
        np.copyto(B, C, where=grow)
        update[0] = inverse.take(d)
        np.subtract(i + 1, L, out=update[1])
        np.copyto(state, update, where=grow)
        C ^= change
        start -= step
    degrees = m - np.argmax(C[0, ::-1] != 0, axis=0)  # C_0 = 1
    return C[0].T, degrees, L


def _erasure_locator(fs: FieldSpec, n: int,
                     erasures: Iterable[int]) -> list[int]:
    """Gamma(x) = prod (1 - X_i x) over the erased positions,
    X_i = alpha^(n-1-pos): the coefficients of prod (x + X_i) reversed."""
    return gf2m.poly_from_roots(
        fs, [gf2m.pow_alpha(fs, n - 1 - pos) for pos in erasures])[::-1]


def _modified_syndromes(fs: FieldSpec, synd, gamma: Sequence[int],
                        r: int) -> np.ndarray:
    """Coefficients f..r-1 of S(x)*Gamma(x), f = deg Gamma, for a list of r
    syndromes or each (..., r) row of a stack, as uint8.  They form a pure
    exponential sum over the error locators (erasure terms cancel), so BM on
    this length r-f sequence recovers the error locator alone; they are all
    zero exactly when the erasures alone explain the syndromes."""
    synd = np.asarray(synd, dtype=np.uint8)
    return _product(fs, synd, np.asarray(gamma), r)[..., len(gamma) - 1:]


# why a decode fails, by the check that finds it: the first three in
# _outcomes, the last in _frame_rows
_FAILURES = (None, "error locator exceeds capability",
             "locator degree does not match root count",
             "residual syndromes after correction",
             "shortened prefix decoded nonzero")


def _outcomes(fs: FieldSpec, n: int, synd: np.ndarray, modified: np.ndarray,
              gamma: Sequence[int], binary: bool = False
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The outcome of each length-n word of a stack, given its r syndromes
    and its r - f modified syndromes, (words, r) and (words, r - f) uint8:
    (reason, words, positions, magnitudes).  reason[i] indexes _FAILURES,
    0 where word i decodes; the other three are flat, one entry per
    nonzero correction of a decoded word: its word, its position and its
    magnitude.  Berlekamp-Massey (_locators) gives each word its (Lambda,
    L); then, on the whole stack: BM's degree bound, psi = Lambda * Gamma,
    Gamma the erasure locator, the Chien search at every position, the
    root count, BM's own length test and, for a non-binary word, Forney.
    binary: the words are binary, their syndromes S_1..S_2t, and Gamma
    is 1."""
    r, f = synd.shape[1], len(gamma) - 1
    bound = (r - f) // 2
    lam, degrees, lengths = _locators(fs, modified, binary)
    reason = np.where(degrees > bound, 1, 0)
    live = np.flatnonzero(degrees <= bound)
    # combined locator, degree deg Lambda + f <= r
    psi = _product(fs, lam[live, :bound + 1], np.asarray(gamma),
                   bound + f + 1)
    table = _power_table(fs, n, r // 2 if binary else r)
    roots = _values(table, psi) == 0
    # The corrections cancel every syndrome exactly when deg Lambda = L
    # (Massey 1969).  If so, L being minimal and the erasure-only patterns
    # the kernel of the map to modified syndromes, the syndromes are those
    # of an error-and-erasure pattern on psi's roots, which Forney returns.
    # If deg Lambda < L, no pattern on deg Lambda positions (besides the
    # erasures) gives the modified syndromes, so no correction cancels.
    degrees, residual = degrees[live], (degrees != lengths)[live]
    reason[live] = np.where(np.count_nonzero(roots, axis=1) != degrees + f,
                            2, 3 * residual)
    passed = reason[live] == 0
    live, psi = live[passed], psi[passed]
    words, positions = np.nonzero(roots[passed])  # every root of the stack
    if binary:  # S_2j = S_j^2 makes every Forney value of a binary word 1
        return reason, live[words], positions, np.ones(len(words), np.uint8)
    # Forney at each root: Omega = S * psi mod x^r; e_j = Omega(X_j^-1) /
    # psi'(X_j^-1), psi' having coefficient psi_(2i+1) at degree 2i.  A
    # word here has as many distinct roots as psi has degree, so each root
    # is simple and psi' is nonzero there; a zero value is an erasure that
    # arrived intact
    omega = _product(fs, synd[live], psi, r)[words]
    slope = _values(table[::2], psi[words, 1::2], positions)
    magnitudes = gf2m.mul_table(fs)[_values(table, omega, positions),
                                    gf2m.inverses(fs)[slope]]
    fixed = magnitudes != 0
    return reason, live[words[fixed]], positions[fixed], magnitudes[fixed]


# --- bit frames: packing, encoder input checks, binary-image encoding --------

@functools.cache
def _symbol_bits(q: int) -> np.ndarray:
    """(2^q, q) read-only uint8 table: row s is the bits of s, MSB first."""
    shifts = np.arange(q, dtype=np.uint8)[::-1]
    table = np.arange(1 << q, dtype=np.uint8)[:, None] >> shifts & 1
    table.setflags(write=False)
    return table


def _symbols_to_bits(symbols: Sequence[int], q: int) -> np.ndarray:
    """The q bits of each symbol in 0..2^q - 1, most significant first, one
    gather of _symbol_bits; (..., n) symbols give (..., n q) bits."""
    s = np.asarray(symbols, dtype=np.intp)  # an empty list is float64
    return _symbol_bits(q).take(s, 0).reshape(*s.shape[:-1], s.shape[-1] * q)


def _pack_symbols(bits: np.ndarray, q: int) -> np.ndarray:
    """Whole q-bit fields of the last axis of bits, most significant first;
    a short tail is dropped."""
    bits = np.asarray(bits)
    n = bits.shape[-1] // q
    fields = bits[..., :n * q].astype(np.int64).reshape(*bits.shape[:-1], n, q)
    return fields @ (1 << np.arange(q - 1, -1, -1))


def _bits_to_symbols(bits: np.ndarray, q: int) -> list[int]:
    """_pack_symbols of a bit vector or a stack of them, as lists."""
    return _pack_symbols(bits, q).tolist()


def _checked_message(values, count: int, size: int,
                     what: str) -> np.ndarray:
    """A codec's input, or a (..., count) stack of them, as a new uint8
    array.  LengthMismatch unless the last axis has count entries;
    ConstraintViolation names the first entry that is not an integer in
    [0, size) and its index in the message (and in the stack).  Integer
    input in range, the harness's bits, is checked by one max reduction
    and cast once; any other input goes entry by entry, and input that is
    not integer is never cast, where NaN, 2^70 or "a" would warn or raise:
    each entry, as given, is compared with range(size)."""
    a = np.asarray(values)
    if a.shape[-1:] != (count,):
        raise LengthMismatch(
            f"{what} count {a.shape[-1] if a.ndim else a.size} != {count}")
    if a.dtype.kind in "biu":
        v = a.astype(np.uint8)
        # read as unsigned, a negative entry lies above any size
        unsigned = a.view(a.dtype.str.replace(a.dtype.kind, "u"))
        if not a.size or unsigned.max() < size:
            return v
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
    """A frame decoder's input, flattened, as uint8 bits.  LengthMismatch
    unless it has frame_bits entries; ConstraintViolation names the first
    entry that is not 0 or 1, which np.packbits would read as 1, by its
    index in the flattened frame.  A uint8 frame, the one the receive
    chain passes, is checked by one bytes.translate, and any other through
    _checked_message."""
    a = np.asarray(frame).ravel()
    if a.size != frame_bits:
        raise LengthMismatch(f"frame length {a.size} != {frame_bits}")
    if a.dtype.char == "B" and not a.tobytes().translate(None, b"\0\1"):
        return a
    if a.dtype.kind not in "biu":  # its entries as given, not as str
        a = np.asarray(frame, object).ravel()
    return _checked_message(a, frame_bits, 2, "frame bit")


def _frame_tables(images: np.ndarray) -> np.ndarray:
    """(bytes, 256, width) read-only uint8 XOR tables of a GF(2)-linear map
    from frame bits to bytes (field symbols, or packed parity bits), given
    the (bits, width) image of each unit frame; images past the given bits
    are zero.  Table j maps byte j of a frame (np.packbits order) to the
    XOR of the images of the bits it sets, so the frame's image is the XOR
    of one entry per byte (_frame_images), and the image of frame bit i
    alone is tables[i // 8, 0x80 >> i % 8]."""
    bits, width = images.shape
    rows = np.zeros((-(-bits // 8) * 8, width), np.uint8)
    rows[:bits] = images
    # sets[v, b]: byte value v sets its bit b, the first bit its MSB
    sets = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    tables = np.bitwise_xor.reduce(
        np.where(sets[:, :, None] == 1, rows.reshape(-1, 1, 8, width), 0),
        axis=2)
    tables.setflags(write=False)
    return tables


def _frame_images(tables: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """(..., width) uint8 images of a (..., bits) stack of bits under a
    map's _frame_tables; bits past the tables' bytes are not read."""
    count, size, width = tables.shape
    packed = np.packbits(bits, axis=-1)[..., :count]
    # one (count, rows, width) gather, XORed over its first axis
    index = packed.reshape(-1, count).T + size * np.arange(count)[:, None]
    entries = tables.reshape(-1, width).take(index, axis=0)
    return np.bitwise_xor.reduce(entries, axis=0).reshape(
        *packed.shape[:-1], width)


def _encoded(tables: np.ndarray, bits: np.ndarray,
             frame_bits: int) -> np.ndarray:
    """The frame_bits-bit frames of a (..., message bits) stack of uint8
    bits under an encoder's tables: [bits | their parity | zero pad]."""
    parity = np.unpackbits(_frame_images(tables, bits), axis=-1,
                           count=frame_bits - bits.shape[-1])
    return np.concatenate([bits, parity], axis=-1)


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
    def field(self) -> FieldSpec:
        return gf2m.cached_field(self.q)

    @property
    def generator(self) -> tuple:
        return _generator_poly(self.q, self.k)

    @property
    def message_bits(self) -> int:
        return self.k_prime * self.p

    @property
    def parity_bits(self) -> int:
        return (self.r - self.punctured) * self.q

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
def rs_spec(m: int, k: int) -> RsFrameLayout:
    """RS(2^m - 1, k) over the canonical GF(2^m), roots alpha^1..alpha^r:
    the layout that sends the whole codeword as its n m bits."""
    n = gf2m.cached_field(m).order
    if not 0 < k < n:
        raise ConfigError(f"k = {k} outside (0, {n})")
    return RsFrameLayout(q=m, k=k, k_prime=k, p=m, punctured=0,
                         frame_bits=n * m)


@functools.cache
def _generator_poly(q: int, k: int) -> tuple:
    """The generator of RS(2^q - 1, k), lowest degree first: the monic
    prod (x + alpha^j), j = 1..r."""
    fs = gf2m.cached_field(q)
    return tuple(gf2m.poly_from_roots(
        fs, [gf2m.pow_alpha(fs, j) for j in range(1, fs.order - k + 1)]))


@functools.cache
def _encoder_tables(layout: RsFrameLayout) -> np.ndarray:
    """The _frame_tables of the layout's encoder, from its message bits to
    the packed bits of its sent parity: bit b of a sent message symbol has
    the value 2^(p-1-b), so its parity is that times the symbol's
    _parity_table row, less the punctured symbols."""
    rows = _parity_table(layout.field, layout.generator, layout.n)
    values = 1 << np.arange(layout.p - 1, -1, -1)
    parity = gf2m.mul_table(layout.field)[  # (k', p, r), codeword order
        values[:, None], rows[layout.k - layout.k_prime:, None, ::-1]]
    sent = parity[..., :layout.r - layout.punctured]
    return _frame_tables(np.packbits(_symbols_to_bits(sent, layout.q).reshape(
        layout.message_bits, layout.parity_bits), axis=1))


def frame_encode(layout: RsFrameLayout,
                 message_bits: np.ndarray) -> np.ndarray:
    """k' p message bits -> one frame_bits-long frame; a (..., k' p) stack
    gives (..., frame_bits) frames."""
    bits = _checked_message(message_bits, layout.message_bits, 2,
                            "message bit")
    return _encoded(_encoder_tables(layout), bits, layout.frame_bits)


# What a frame decoder reads of its code: the field, n word symbols, r
# syndromes, the frame and message bits, the _frame_tables of a frame's
# syndromes, Gamma, the erasure locator of the punctured positions, and
# whether the code is binary (BCH); and where its word sits in the frame:
# the shortened symbols before the first sent one, the message symbols of
# p bits each up to position k, and the sent positions, those before the
# first punctured one
_Decoder = namedtuple("_Decoder", "fs n r frame_bits message_bits tables "
                                  "gamma binary shortened k p sent")


@functools.cache
def _decoder(layout: RsFrameLayout) -> _Decoder:
    """A layout's _Decoder.  Its tables are the _frame_tables of each sent
    frame bit's syndromes, its value 2^b times the _syndrome_rows row of
    its word position, followed, when the layout punctures, by its r - f
    modified syndromes: these are GF(2)-linear in the syndromes, since the
    punctured locator Gamma never changes.  Pad bits are not in the word,
    so the tables stop at the last parity bit's byte."""
    fs, n, r = layout.field, layout.n, layout.r
    gamma = tuple(_erasure_locator(fs, n, range(n - layout.punctured, n)))
    shortened, p, q = layout.k - layout.k_prime, layout.p, layout.q
    i, j = np.arange(layout.message_bits), np.arange(layout.parity_bits)
    positions = np.concatenate([shortened + i // p, layout.k + j // q])
    values = np.concatenate([1 << (p - 1 - i % p), 1 << (q - 1 - j % q)])
    images = gf2m.mul_table(fs)[values[:, None],
                                _syndrome_rows(fs, n, r)[positions]]
    if layout.punctured:  # the modified syndromes in columns r..2r-f-1
        images = np.concatenate(
            [images, _modified_syndromes(fs, images, gamma, r)], axis=1)
    return _Decoder(fs, n, r, layout.frame_bits, layout.message_bits,
                    _frame_tables(images), gamma, False, shortened, layout.k,
                    p, n - layout.punctured)


def _frame_rows(decoder: _Decoder, frames: np.ndarray
                ) -> tuple[np.ndarray, list]:
    """The stacked decode of a (frames, frame_bits) stack of bits,
    (messages, rows): messages holds each frame's corrected message bits,
    or its systematic bits where it fails, and a frame's row is its
    failure reason or (its messages row, corrected symbols, constraint_ok).
    A clean frame, whose modified syndromes (its syndromes when nothing is
    punctured) are all zero, keeps its systematic bits: correction would
    at most fill the punctured parity.  The others go through _outcomes at
    once and are finished on the whole stack: a correction in the
    shortened prefix fails a frame, one at a sent position counts, and one
    of a message symbol of a decoded frame flips the bits of its low p and
    leaves the constrained alphabet when its magnitude has higher bits."""
    if frames.shape[-1] != decoder.frame_bits:
        raise LengthMismatch(f"frame length {frames.shape[-1]} != "
                             f"{decoder.frame_bits}")
    values, r = _frame_images(decoder.tables, frames), decoder.r
    modified = values[:, r:] if len(decoder.gamma) > 1 else values
    dirty = np.flatnonzero(modified.any(axis=1))
    count, s, p = len(frames), decoder.shortened, decoder.p
    reason = np.zeros(count, np.intp)  # an index into _FAILURES
    messages = frames[:, :decoder.message_bits].copy()
    corrected, constraint_ok = np.zeros(count, np.intp), np.ones(count, bool)
    if dirty.size:
        reason[dirty], words, positions, magnitudes = _outcomes(
            decoder.fs, decoder.n, values[dirty, :r], modified[dirty],
            decoder.gamma, decoder.binary)
        words = dirty[words]
        reason[words[positions < s]] = 4
        corrected = np.bincount(words[positions < decoder.sent],
                                minlength=count)
        message = (positions >= s) & (positions < decoder.k)
        message &= reason[words] == 0
        words, positions = words[message], positions[message] - s
        magnitudes = magnitudes[message]
        constraint_ok[words[magnitudes >> p != 0]] = False
        # bit b of each message correction's low p, MSB first
        fix, bit = np.nonzero(magnitudes[:, None]
                              >> np.arange(p - 1, -1, -1) & 1)
        messages[words[fix], positions[fix] * p + bit] ^= 1
    rows = [_FAILURES[i] for i in reason.tolist()]
    corrected, constraint_ok = corrected.tolist(), constraint_ok.tolist()
    for i in np.flatnonzero(reason == 0).tolist():
        rows[i] = messages[i], corrected[i], constraint_ok[i]
    return messages, rows


def _checked_row(frame: np.ndarray, row, decoder, *args):
    """A frame decoder's row of a checked frame: the given one or, without
    one, the frame's row of a one-row pass over decoder(*args); a failure
    reason raises its DecodeFailure."""
    if row is None:
        row = _frame_rows(decoder(*args), frame[None])[1][0]
    if isinstance(row, str):
        raise DecodeFailure(row)
    return row


def frame_decode(layout: RsFrameLayout, frame: np.ndarray, *,
                 row: tuple | str | None = None
                 ) -> tuple[np.ndarray, int, bool]:
    """Decode one frame -> (message bits, corrected symbols, constraint_ok).

    Punctured parity decodes as erasures, and filling it is not counted as
    a correction.  constraint_ok is False when a corrected message symbol
    has nonzero bits above its low p, i.e. the error pattern left the
    constrained alphabet; the low p bits are still returned.
    ConstraintViolation names the first frame entry that is not a bit.
    row: the frame's row of _frame_rows, when a stack of frames has been
    through it; without one, the frame goes through it alone.
    """
    frame = _checked_frame(frame, layout.frame_bits)
    return _checked_row(frame, row, _decoder, layout)


def rs2516_frame(message: Sequence[int]) -> np.ndarray:
    """16 GF(32) message symbols -> one RS2516 frame; a (..., 16) stack of
    messages gives (..., 128) frames.  The symbols are checked once, and
    their bits, one gather, go to the encoder's tables as they are."""
    symbols = _checked_message(message, RS2516.k_prime, 32, "message symbol")
    return _encoded(_encoder_tables(RS2516),
                    _symbols_to_bits(symbols, RS2516.q), RS2516.frame_bits)


# the values of a 5-bit symbol's bits, MSB first: message bits to symbols
_RS2516_VALUES = 1 << np.arange(RS2516.q, dtype=np.uint8)[::-1]


def rs2516_decode(frame: np.ndarray, *,
                  row: tuple | str | None = None) -> tuple[list[int], int]:
    """frame_decode of one RS2516 frame, row as there, its message as 16
    symbols."""
    frame = _checked_frame(frame, RS2516.frame_bits)
    bits, corrected, _ = _checked_row(frame, row, _decoder, RS2516)
    symbols = bits.reshape(RS2516.k_prime, RS2516.q) @ _RS2516_VALUES
    return symbols.tolist(), corrected


# --- the RS(2^q - 1, k) symbol codec ------------------------------------------

def _symbol_code(spec: RsFrameLayout) -> RsFrameLayout:
    """spec if it is rs_spec(q, k), which sends the whole codeword."""
    if spec != rs_spec(spec.q, spec.k):
        raise ConfigError(f"{spec}: the symbol codec takes rs_spec(q, k)")
    return spec


def rs_encode(spec: RsFrameLayout, message: Sequence[int]) -> list[int]:
    """Systematic encode: codeword = [message | parity], the frame_encode
    of rs_spec(q, k) read back as symbols; a (..., k) stack gives nested
    lists of codewords.  ConstraintViolation names the first symbol
    outside the field, and ConfigError any other layout."""
    code = _symbol_code(spec)
    msg = _checked_message(message, code.k, code.field.size,
                           "message symbol")
    return _bits_to_symbols(
        frame_encode(code, _symbols_to_bits(msg, code.q)), code.q)


def rs_decode(spec: RsFrameLayout, received: Sequence[int],
              erasures: Iterable[int] = ()) -> tuple[list[int], int]:
    """Correct e errors and f erasures whenever 2e + f <= r.

    Returns (message, corrected symbol count); raises DecodeFailure when the
    syndromes are inconsistent with the bound, and ConstraintViolation
    naming the first received symbol outside the field or the first
    erasure position that is not an integer in 0..n-1.  The syndromes are
    those of the word's bits under rs_spec(q, k)'s frame tables.
    """
    code = _symbol_code(spec)
    fs, n, r = code.field, code.n, code.r
    word = _checked_message(received, n, fs.size, "received symbol")
    positions = list(erasures)
    erasures = sorted(set(_checked_message(
        positions, len(positions), n, "erasure position").tolist()))
    if len(erasures) > r:
        raise DecodeFailure("more erasures than parity symbols")

    synd = _frame_images(_decoder(code).tables,
                         _symbols_to_bits(word, code.q)[None])
    if not synd.any() and not erasures:
        return word[:code.k].tolist(), 0
    gamma = _erasure_locator(fs, n, erasures)
    (reason,), _, positions, magnitudes = _outcomes(
        fs, n, synd, _modified_syndromes(fs, synd, gamma, r), gamma)
    if reason:
        raise DecodeFailure(_FAILURES[reason])
    word[positions] ^= magnitudes
    return word[:code.k].tolist(), len(positions)
