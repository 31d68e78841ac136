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

Each code is two cached linear maps (Lin & Costello, Error Control
Coding, ch. 6-7), and no polynomial is divided: _parity_table, the parity
of each message symbol, and _syndrome_rows, the syndromes of the unit
symbol at each word position, one uint8 row each.  A binary code (BCH)
reads the rows as they are; the RS paths, which read symbols of every
magnitude, read them times the symbol through the field's multiplication
table.
Every frame codec here (RS layouts, BCH) is GF(2)-linear on its bits and
encodes through a binary generator matrix G, cached per code
(_frame_generator, bch._generator) and built by _systematic from the
binary image of the parity rows: a frame is (message bits @ G) mod 2,
through _gf2.

Decoding is table-driven and stacked.  A frame code's decoder refuses a
frame entry that is not a bit (_checked_frame) and reads one record, its
_Decoder, cached and built at the first decode.  Its read-only uint8 XOR
tables (_frame_tables), one (256, width) table per frame byte built from
the syndromes of each sent frame bit, give a stack of frames its
syndromes, and a punctured layout's its modified syndromes too (composed
with the fixed erasure locator Gamma), in one gather (_frame_syndromes).
The stacked pass (_frame_rows) gives every frame its row, its outcome: a
frame whose modified syndromes are zero is clean, and all the others are
decoded at once by _outcomes, the one correction routine of every decoder
here, BCH's too.  On the whole stack, in numpy: Berlekamp-Massey
(_locators), BM's degree bound, psi = Lambda * Gamma (_product), the Chien
search at every position, the root count, BM's own length test and, for
a non-binary word, Forney at each root.  A polynomial at every position
is one gather of a row per coefficient from a cached power table
(_power_table, _values), and the products are flat gathers on the
field's multiplication table.  A row is a failure reason or the
{position: magnitude} fixes; a frame decoder given its row only applies
it, and without one runs the pass on a one-row stack, as rs_decode runs
_outcomes on its one word.  Corrections are accepted by the length test,
never by their syndromes.  Every cached table is immutable (read-only
arrays, tuples), since every later decode in the process shares it.
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
    L = np.zeros(frames, np.intp)
    b_inv = np.full(frames, offsets[1])  # of 1 / the last change's d
    for i in range(0, m, step):
        B = past[:, start:start + m + 1]
        d = C[1, i]
        grow = (d != 0) & (L <= i // 2)
        coef = offsets.take(products.take(b_inv | d))  # d = 0 adds nothing
        change = products.take(coef | B)
        np.copyto(B, C, where=grow)
        np.copyto(b_inv, inverse.take(d), where=grow)
        np.copyto(L, i + 1 - L, where=grow)
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


# why a decode fails, by the check of _outcomes that finds it
_FAILURES = (None, "error locator exceeds capability",
             "locator degree does not match root count",
             "residual syndromes after correction")


def _outcomes(fs: FieldSpec, n: int, synd: np.ndarray, modified: np.ndarray,
              gamma: Sequence[int], binary: bool = False) -> list:
    """The outcome of each length-n word of a stack, given its r syndromes
    and its r - f modified syndromes, (words, r) and (words, r - f) uint8:
    its failure reason, or the {position: magnitude} of every nonzero
    correction.  Berlekamp-Massey (_locators) gives each word its (Lambda,
    L); then, on the whole stack: BM's degree bound, psi = Lambda * Gamma,
    Gamma the erasure locator, the Chien search at every position, the
    root count, BM's own length test and, for a non-binary word, Forney.
    binary: the words are binary, their syndromes S_1..S_2t, and Gamma
    is 1."""
    r, f = synd.shape[1], len(gamma) - 1
    bound = (r - f) // 2
    lam, degrees, lengths = _locators(fs, modified, binary)
    reason = np.where(degrees > bound, 1, 0)  # an index into _FAILURES
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
        magnitudes = np.ones(len(words), np.uint8)
    else:
        # Forney at each root: Omega = S * psi mod x^r; e_j =
        # Omega(X_j^-1) / psi'(X_j^-1), psi' having coefficient psi_(2i+1)
        # at degree 2i.  A word here has as many distinct roots as psi has
        # degree, so each root is simple and psi' is nonzero there
        omega = _product(fs, synd[live], psi, r)[words]
        slope = _values(table[::2], psi[words, 1::2], positions)
        magnitudes = gf2m.mul_table(fs)[_values(table, omega, positions),
                                        gf2m.inverses(fs)[slope]]
    out = [_FAILURES[i] or {} for i in reason.tolist()]
    words, fixed = live[words], magnitudes != 0
    for i, pos, mag in zip(words[fixed].tolist(), positions[fixed].tolist(),
                           magnitudes[fixed].tolist()):
        out[i][pos] = mag
    return out


def _checked_row(row) -> dict[int, int]:
    """The fixes of a decode's outcome (_outcomes), or its DecodeFailure."""
    if isinstance(row, str):
        raise DecodeFailure(row)
    return row


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
    """_pack_symbols of a bit vector or a stack of them, as lists."""
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


def _systematic(parity_bits: np.ndarray, frame_bits: int) -> np.ndarray:
    """The generator matrix G = [I | parity_bits | zero pad] of a
    systematic code of frame_bits-bit frames, one row per message bit.  G
    is read-only, since every caller of a cached G shares it, and float32,
    so the product runs through BLAS; its sums count at most one per row of
    G, so they are exact."""
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
    thread.  The sums fit a uint8 unless A has over 255 rows, as only the
    G of rs_spec(7, k), k >= 37, does (882 rows at k = 126)."""
    if len(A) > 255:
        return ((bits @ A).astype(np.uint16) & 1).astype(np.uint8)
    return (bits @ A).astype(np.uint8) & 1


def _frame_tables(images: np.ndarray) -> np.ndarray:
    """(bytes, 256, width) read-only uint8 XOR tables of a GF(2)-linear map
    from frame bits to field symbols, given the (bits, width) symbol image
    of each unit frame; images past the given bits are zero.  Table j maps
    byte j of a frame (np.packbits order) to the XOR of the images of the
    bits it sets, so the frame's image is the XOR of one entry per byte
    (_frame_syndromes), and the image of frame bit i alone is
    tables[i // 8, 0x80 >> i % 8]."""
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
        raise LengthMismatch(f"k = {k} outside (0, {n})")
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
def _frame_generator(layout: RsFrameLayout) -> np.ndarray:
    """The layout's (message bits, frame bits) generator matrix G: bit b of
    a sent message symbol has the value 2^(p-1-b), so its parity is that
    times the symbol's _parity_table row, less the punctured symbols."""
    rows = _parity_table(layout.field, layout.generator, layout.n)
    values = 1 << np.arange(layout.p - 1, -1, -1)
    parity = gf2m.mul_table(layout.field)[  # (k', p, r), codeword order
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


# What a frame decoder reads of its code: the field, n word symbols, r
# syndromes, the frame and message bits, the _frame_tables of a frame's
# syndromes, Gamma, the erasure locator of the punctured positions, and
# whether the code is binary (BCH)
_Decoder = namedtuple("_Decoder",
                      "fs n r frame_bits message_bits tables gamma binary")


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
                    _frame_tables(images), gamma, False)


def _frame_syndromes(decoder: _Decoder, frames: np.ndarray) -> np.ndarray:
    """(frames, width) uint8 images of a (frames, frame_bits) stack of bits
    under the decoder's tables: each frame's r syndromes, then, for a
    punctured layout, its r - f modified syndromes."""
    count, size, width = decoder.tables.shape
    packed = np.packbits(frames, axis=-1)[:, :count]
    # one (count, frames, width) gather, XORed over its first axis
    entries = decoder.tables.reshape(-1, width).take(
        packed.T + size * np.arange(count)[:, None], axis=0)
    return np.bitwise_xor.reduce(entries, axis=0)


def _frame_rows(decoder: _Decoder, frames: np.ndarray) -> list:
    """The stacked decode of a frame decoder: the row of each frame of a
    (frames, frame_bits) stack of bits, its outcome.  A clean frame, whose
    modified syndromes (its syndromes when nothing is punctured) are all
    zero, has no fixes, {}: correction would at most fill the punctured
    parity, so the message arrived intact.  Every other frame's row is
    its _outcomes, all of them found at once: a failure reason, or the
    {position: magnitude} of its corrections.  A frame decoder given its
    frame's row only applies it."""
    if frames.shape[-1] != decoder.frame_bits:
        raise LengthMismatch(f"frame length {frames.shape[-1]} != "
                             f"{decoder.frame_bits}")
    values, r = _frame_syndromes(decoder, frames), decoder.r
    modified = values[:, r:] if len(decoder.gamma) > 1 else values
    dirty = np.flatnonzero(modified.any(axis=1))
    rows = [{} for _ in range(len(values))]
    if dirty.size:
        outcomes = _outcomes(decoder.fs, decoder.n, values[dirty, :r],
                             modified[dirty], decoder.gamma, decoder.binary)
        for i, row in zip(dirty.tolist(), outcomes):
            rows[i] = row
    return rows


def frame_decode(layout: RsFrameLayout, frame: np.ndarray, *,
                 row: dict | str | None = None
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
    fixes = _checked_row(row if row is not None
                         else _frame_rows(_decoder(layout), frame[None])[0])
    shortened, k, p = layout.k - layout.k_prime, layout.k, layout.p
    if any(pos < shortened for pos in fixes):
        raise DecodeFailure("shortened prefix decoded nonzero")
    # message symbols arrive as p-bit fields: a correction flips the bits
    # of its low p, and it keeps the alphabet exactly when its magnitude
    # has no higher bits
    message = [(pos, mag) for pos, mag in fixes.items() if pos < k]
    flips = [(pos - shortened) * p + b for pos, mag in message
             for b in range(p) if mag >> (p - 1 - b) & 1]
    bits = frame[:layout.message_bits].copy()
    for i in flips:  # a few: a scalar XOR each beats a fancy index
        bits[i] ^= 1
    constraint_ok = all(mag >> p == 0 for _, mag in message)
    corrected = sum(1 for pos in fixes if pos < layout.n - layout.punctured)
    return bits, corrected, constraint_ok


def rs2516_frame(message: Sequence[int]) -> np.ndarray:
    """16 GF(32) message symbols -> one RS2516 frame; a (..., 16) stack of
    messages gives (..., 128) frames."""
    symbols = _checked_message(message, RS2516.k_prime, 32, "message symbol")
    return frame_encode(RS2516, _symbols_to_bits(symbols, 5))


def rs2516_decode(frame: np.ndarray, *,
                  row: dict | str | None = None) -> tuple[list[int], int]:
    """frame_decode of one RS2516 frame, its message as 16 symbols."""
    bits, corrected, _ = frame_decode(RS2516, frame, row=row)
    value = int.from_bytes(np.packbits(bits).tobytes(), "big")  # 80 bits
    return [value >> s & 31 for s in range(75, -1, -5)], corrected


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

    synd = _frame_syndromes(_decoder(code),
                            _symbols_to_bits(word, code.q)[None])
    word = word.tolist()
    if not synd.any() and not erasures:
        return word[:code.k], 0
    gamma = _erasure_locator(fs, n, erasures)
    (fixes,) = _outcomes(fs, n, synd,
                         _modified_syndromes(fs, synd, gamma, r), gamma)
    for pos, mag in _checked_row(fixes).items():
        word[pos] ^= mag
    return word[:code.k], len(fixes)
