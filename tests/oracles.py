"""Scalar references for code that the package no longer runs.

Field arithmetic one element at a time through the log/antilog tables
(mul, inv, div), the degree of a polynomial, its product and its long
division (poly_deg, poly_mul, poly_divmod), and the algebraic encoders
built on it: rs_encode divides the shifted message by the generator,
frame_encode and bch_encode frame its parity bits as the package's RS
layouts and BCH frame do, and generator_matrix stacks an encoder's images
of the unit messages.  frame_word rebuilds the RS(n, k) word a layout's
frame carries.  The package builds the same maps from one parity table and
one syndrome table per code (rs._parity_table, rs._syndrome_rows); the
tests compare the two.  corrections is the per-word decoding tail the
package ran before it decoded a whole stack at once (rs._outcomes): BM's
degree bound, the Chien search, the length test and Forney, on symbols
packed one byte each in a Python int.
"""
import functools

import numpy as np

from papr_lab import gf2m
from papr_lab.fec.rs import DecodeFailure


def mul(fs, a, b):
    if a == 0 or b == 0:
        return 0
    return fs.exp_table.item((fs.log_table.item(a) + fs.log_table.item(b))
                             % fs.order)


def inv(fs, a):
    if a == 0:
        raise ZeroDivisionError("inverse of 0")
    return fs.exp_table.item(fs.order - fs.log_table.item(a))


def div(fs, a, b):
    if b == 0:
        raise ZeroDivisionError("division by 0")
    if a == 0:
        return 0
    return fs.exp_table.item((fs.log_table.item(a) - fs.log_table.item(b))
                             % fs.order)


def loop_symbols_to_bits(symbols, q):
    bits = np.zeros(len(symbols) * q, dtype=np.uint8)
    for i, s in enumerate(symbols):
        for j in range(q):
            bits[i * q + j] = (s >> (q - 1 - j)) & 1
    return bits


def loop_bits_to_symbols(bits, q):
    out = []
    for i in range(len(bits) // q):
        v = 0
        for j in range(q):
            v = (v << 1) | int(bits[i * q + j])
        out.append(v)
    return out


def poly_trim(p):
    """p without its zero leading coefficients; the zero polynomial is []."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_deg(p):
    """The degree of a trimmed polynomial, -1 for the zero polynomial."""
    return len(p) - 1


def poly_mul(fs, p, q, limit=None):
    """p q, or with a limit only its coefficients below degree limit, one
    scalar mul per term."""
    if not p or not q:
        return []
    size = len(p) + len(q) - 1
    if limit is not None:
        size = min(size, limit)
    out = [0] * size
    for i, a in enumerate(p[:size]):
        for j, b in enumerate(q[:size - i], i):
            out[j] ^= mul(fs, a, b)
    return poly_trim(out)


def poly_divmod(fs, p, q):
    """(quotient, remainder) of p / q with deg(remainder) < deg(q),
    polynomials lowest degree first, one scalar mul per term."""
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    rem = poly_trim(list(p))
    dq = poly_deg(q)
    quot = [0] * max(len(rem) - dq, 0)
    while poly_deg(rem) >= dq:
        shift = poly_deg(rem) - dq
        coef = div(fs, rem[-1], q[-1])
        quot[shift] = coef
        for i, c in enumerate(q):
            rem[shift + i] ^= mul(fs, coef, c)
        rem = poly_trim(rem)
    return poly_trim(quot), rem


def rs_encode(spec, message):
    """Systematic RS codeword [message | parity]: the parity is the
    remainder of message(x) x^r by the generator, and message[0] has
    degree n - 1."""
    r = spec.r
    shifted = [0] * r + [int(s) for s in reversed(message)]
    _, rem = poly_divmod(spec.field, shifted, list(spec.generator))
    parity = rem + [0] * (r - len(rem))  # degrees 0..r-1
    return [int(s) for s in message] + parity[::-1]


def frame_encode(layout, bits):
    """One RS layout frame of a message bit vector: the message fields, the
    rs_encode parity of the shortened word less its punctured symbols as
    q-bit fields, then zero pad."""
    bits = np.asarray(bits, dtype=np.uint8)
    codeword = rs_encode(layout, [0] * (layout.k - layout.k_prime)
                         + loop_bits_to_symbols(bits, layout.p))
    parity = loop_symbols_to_bits(
        codeword[layout.k:layout.n - layout.punctured], layout.q)
    frame = np.zeros(layout.frame_bits, dtype=np.uint8)
    frame[:bits.size] = bits
    frame[bits.size:bits.size + parity.size] = parity
    return frame


def bch_encode(spec, message):
    """One BCH frame of a message bit vector by poly_divmod, the generator's
    0/1 coefficients taken as field elements: the message, the parity, one
    zero pad bit.  message[0] has degree n - 1."""
    message = np.asarray(message, dtype=np.uint8)
    generator = [(spec.generator >> d) & 1 for d in range(spec.r + 1)]
    shifted = [0] * spec.r + message[::-1].tolist()
    _, rem = poly_divmod(spec.field, shifted, generator)
    frame = np.zeros(spec.n + 1, dtype=np.uint8)
    frame[:spec.k] = message
    frame[spec.k:spec.n] = (rem + [0] * (spec.r - len(rem)))[::-1]
    return frame


def generator_matrix(encode, k):
    """The binary generator matrix of a GF(2)-linear encoder of k bits: row
    i is the encoding of the i-th unit message."""
    return np.stack([encode(e) for e in np.eye(k, dtype=np.uint8)])


def frame_word(layout, frame):
    """The RS(n, k) word of a layout's frame: shortened zeros, the k' p-bit
    message fields, the sent q-bit parity, zero fills at the punctured
    positions."""
    nm = layout.message_bits
    return ([0] * (layout.k - layout.k_prime)
            + loop_bits_to_symbols(frame[:nm], layout.p)
            + loop_bits_to_symbols(frame[nm:nm + layout.parity_bits],
                                   layout.q)
            + [0] * layout.punctured)


# --- the per-word decoding tail, on packed symbols ---------------------------
# Symbol i of a packed int is its byte i (little-endian), which holds a
# symbol of every field here (m <= 8); the XOR of two packed ints adds
# their vectors.

def pack(symbols):
    return int.from_bytes(bytes(symbols), "little")


def unpack(value, count):
    """The count symbols of a packed value; indexing gives ints."""
    return value.to_bytes(count, "little")


@functools.cache
def evaluation_tables(fs, n, degree):
    """table[d][c] packs c x^d at the inverse locator x = alpha^-(n-1-pos)
    of every position pos of a length-n word, symbol pos."""
    products = gf2m.mul_table(fs)
    return tuple(
        tuple(map(pack, products[:, [gf2m.pow_alpha(fs, d * (pos + 1 - n))
                                     for pos in range(n)]].tolist()))
        for d in range(degree + 1))


def evaluate(tables, poly, n):
    """The n symbols of the XOR of tables[d][c] over the coefficients c of
    poly: through evaluation_tables, poly at every position."""
    if len(poly) > len(tables):
        raise ValueError(f"degree {len(poly) - 1} above the tables' "
                         f"{len(tables) - 1}")
    value = 0
    for table, c in zip(tables, poly):
        value ^= table[c]
    return unpack(value, n)


def roots(values):
    """Positions of the zero symbols of an evaluate result."""
    found = []
    pos = values.find(0)
    while pos >= 0:
        found.append(pos)
        pos = values.find(0, pos + 1)
    return found


def corrections(fs, n, synd, lam, length, gamma, binary=False):
    """{position: magnitude} of every nonzero correction of a length-n word
    with the r syndromes synd, from BM's trimmed locator lam and LFSR
    length on its modified syndromes: the Chien search and Forney on
    psi = Lambda * Gamma, Gamma its erasure locator.  DecodeFailure past
    the error bound, and unless psi has as many roots as its degree and
    deg Lambda = L.  binary: the word is binary, its syndromes S_1..S_2t,
    and Gamma is 1."""
    r, degree = len(synd), len(lam) - 1
    if degree > (r - len(gamma) + 1) // 2:
        raise DecodeFailure("error locator exceeds capability")
    psi = poly_mul(fs, lam, gamma)
    tables = evaluation_tables(fs, n, r // 2 if binary else r)
    roots_pos = roots(evaluate(tables, psi, n))
    if len(roots_pos) != len(psi) - 1:
        raise DecodeFailure("locator degree does not match root count")
    if degree != length:
        raise DecodeFailure("residual syndromes after correction")
    if binary:
        return dict.fromkeys(roots_pos, 1)
    # Forney: Omega = S * psi mod x^r; e_j = Omega(X_j^-1) / psi'(X_j^-1),
    # psi' having coefficient psi_(2i+1) at degree 2i
    omega = evaluate(tables, poly_mul(fs, synd, psi, r), n)
    psi_prime = evaluate(tables[::2], psi[1::2], n)
    fixes = {}
    for pos in roots_pos:
        if psi_prime[pos] == 0:
            raise DecodeFailure("Forney denominator vanished")
        mag = div(fs, omega[pos], psi_prime[pos])
        if mag:
            fixes[pos] = mag
    return fixes
