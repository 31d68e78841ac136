"""GF(2^m) arithmetic backed by log/antilog tables.

Field elements are plain ints in [0, 2^m), interpreted as GF(2) coefficient
vectors.  Polynomials over the field are lists of ints, lowest degree first;
the zero polynomial is the empty list (degree -1).

The scalar operations (mul, inv, div, pow_alpha) go through the log/antilog
tables one element at a time.  The polynomial routines the decoders run per
frame use the field's full multiplication table, cached and built on first
use (mul_table, and mul_rows as Python ints), and a cached table of
inverses; building a code's generator (poly_from_roots) needs neither.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class GfError(ValueError):
    pass


class NonPrimitivePolynomial(GfError):
    """The supplied modulus does not generate the full multiplicative group."""


class DegreeMismatch(GfError):
    pass


class DivisionByZero(GfError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    """A field is identified by (m, primitive_poly): equality and hash ignore
    the tables derived from them, so specs built on a field can be keys."""
    m: int
    primitive_poly: int
    # exp_table[i] = alpha^i, length 2^m (wraps at order)
    exp_table: np.ndarray = field(compare=False, repr=False)
    # log_table[alpha^i] = i, log_table[0] = -1
    log_table: np.ndarray = field(compare=False, repr=False)
    # Python-int copies for the scalar operations, which index one element at
    # a time; exp_ints runs over two periods so a sum of two logs needs no mod
    exp_ints: tuple = field(init=False, repr=False, compare=False)
    log_ints: tuple = field(init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def order(self) -> int:
        """Multiplicative group order, 2^m - 1."""
        return (1 << self.m) - 1

    def __post_init__(self):
        self.exp_table.setflags(write=False)
        self.log_table.setflags(write=False)
        exp = self.exp_table[:self.order].tolist()
        object.__setattr__(self, "exp_ints", tuple(exp + exp))
        object.__setattr__(self, "log_ints", tuple(self.log_table.tolist()))


def field_new(m: int, primitive_poly: int) -> FieldSpec:
    """Build a GF(2^m) field from a degree-m primitive polynomial.

    Raises NonPrimitivePolynomial if x does not have multiplicative order
    2^m - 1 modulo the polynomial, DegreeMismatch if the polynomial degree
    is not m.
    """
    if not 2 <= m <= 16:
        raise GfError(f"extension degree {m} outside supported range 2..16")
    if primitive_poly.bit_length() - 1 != m:
        raise DegreeMismatch(
            f"modulus degree {primitive_poly.bit_length() - 1} != m = {m}")
    size = 1 << m
    order = size - 1
    exp = np.zeros(size, dtype=np.int64)
    log = np.full(size, -1, dtype=np.int64)
    cur = 1
    for i in range(order):
        if log[cur] != -1:
            # revisited an element before exhausting the group
            raise NonPrimitivePolynomial(
                f"x has order {i} < {order} modulo {primitive_poly:#x}")
        exp[i] = cur
        log[cur] = i
        cur <<= 1
        if cur & size:
            cur ^= primitive_poly
    if cur != 1:
        raise NonPrimitivePolynomial(
            f"x^{order} != 1 modulo {primitive_poly:#x}")
    exp[order] = 1  # wrap entry so exp[log a + log b] works without mod
    return FieldSpec(m=m, primitive_poly=primitive_poly, exp_table=exp,
                     log_table=log)


def mul(fs: FieldSpec, a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return fs.exp_ints[fs.log_ints[a] + fs.log_ints[b]]


def inv(fs: FieldSpec, a: int) -> int:
    if a == 0:
        raise DivisionByZero("inverse of 0")
    return fs.exp_ints[fs.order - fs.log_ints[a]]


def div(fs: FieldSpec, a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("division by 0")
    if a == 0:
        return 0
    return fs.exp_ints[fs.log_ints[a] - fs.log_ints[b] + fs.order]


def pow_alpha(fs: FieldSpec, e: int) -> int:
    """alpha^e for any integer exponent."""
    return fs.exp_ints[e % fs.order]


def arr_mul(fs: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of two arrays of field elements."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    nz = (a != 0) & (b != 0)
    la = fs.log_table[np.broadcast_to(a, out.shape)[nz]]
    lb = fs.log_table[np.broadcast_to(b, out.shape)[nz]]
    out[nz] = fs.exp_table[(la + lb) % fs.order]
    return out


# --- polynomials, lowest degree first ---------------------------------------

def poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_deg(p: list[int]) -> int:
    return len(p) - 1


@functools.cache
def mul_table(fs: FieldSpec) -> np.ndarray:
    """(size, size) read-only table of every product: mul_table(fs)[a, b] is
    a * b, so an array of products is one gather."""
    e = np.arange(fs.size)
    table = arr_mul(fs, e[:, None], e)
    table.setflags(write=False)
    return table


@functools.cache
def mul_rows(fs: FieldSpec) -> tuple:
    """mul_table as Python ints, one list per row: mul_rows(fs)[a] is the
    map b -> a * b, for loops that multiply by one element many times."""
    return tuple(mul_table(fs).tolist())


@functools.cache
def inverses(fs: FieldSpec) -> tuple:
    """inverses(fs)[a] is 1 / a as a Python int; entry 0 is 0."""
    return (0,) + tuple(inv(fs, a) for a in range(1, fs.size))


def poly_mul(fs: FieldSpec, p: Sequence[int], q: Sequence[int],
             limit: int | None = None) -> list[int]:
    """p q, or with a limit only its coefficients below degree limit."""
    if not p or not q:
        return []
    size = len(p) + len(q) - 1
    if limit is not None:
        size = min(size, limit)
    rows = mul_rows(fs)
    out = [0] * size
    for i, a in enumerate(p[:size]):
        if a:
            row = rows[a]
            for j, b in enumerate(q[:size - i], i):
                out[j] ^= row[b]
    return poly_trim(out)


def poly_from_roots(fs: FieldSpec, roots: Sequence[int]) -> list[int]:
    """prod (x + a) over the roots a, through the scalar operations, so
    that building a code's generator builds no table."""
    p = [1]
    for a in roots:
        p = [mul(fs, a, c) ^ prev for c, prev in zip(p + [0], [0] + p)]
    return p


def poly_divmod(fs: FieldSpec, p: list[int],
                q: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) with deg(remainder) < deg(divisor)."""
    q = poly_trim(list(q))
    if not q:
        raise DivisionByZero("polynomial division by zero polynomial")
    rem = list(poly_trim(list(p)))
    dq = poly_deg(q)
    lead_inv = inv(fs, q[-1])
    quot = [0] * max(len(rem) - dq, 0)
    while poly_deg(rem) >= dq:
        shift = poly_deg(rem) - dq
        coef = mul(fs, rem[-1], lead_inv)
        quot[shift] = coef
        for i, c in enumerate(q):
            rem[shift + i] ^= mul(fs, c, coef)
        rem = poly_trim(rem)
    return poly_trim(quot), rem


# canonical moduli used by the codecs: GF(32) <- x^5+x^2+1,
# GF(128) <- x^7+x^3+1
PRIM_POLY_GF32 = 0b100101
PRIM_POLY_GF128 = 0b10001001


@functools.cache
def cached_field(m: int) -> FieldSpec:
    """Shared immutable field instances for the standard moduli."""
    return field_new(m, {5: PRIM_POLY_GF32, 7: PRIM_POLY_GF128}[m])
