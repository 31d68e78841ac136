"""GF(2^m) arithmetic backed by log/antilog tables.

Field elements are plain ints in [0, 2^m), interpreted as GF(2) coefficient
vectors.  Polynomials over the field are lists of ints, lowest degree first.

The parity and syndrome tables every encoder and decoder is built from,
and the decoders' stacked arithmetic, read the field's full
multiplication table, cached and built on first use: mul_table holds each
product in the narrowest unsigned type that holds an element (uint8 for
the codecs' GF(32) and GF(128)), and inverses each element's inverse in
the same type.  Every cached table is read-only.  No polynomial is
divided.  Building a code's generator (poly_from_roots) takes its products
in the log domain and builds no table.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .metrics import ConfigError


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


def field_new(m: int, primitive_poly: int) -> FieldSpec:
    """Build a GF(2^m) field from a degree-m primitive polynomial.

    Raises ConfigError if m is outside 2..16, if the polynomial degree is
    not m, or if x does not have multiplicative order 2^m - 1 modulo it.
    """
    if not 2 <= m <= 16:
        raise ConfigError(f"extension degree {m} outside supported range "
                          f"2..16")
    if primitive_poly.bit_length() - 1 != m:
        raise ConfigError(
            f"modulus degree {primitive_poly.bit_length() - 1} != m = {m}")
    size = 1 << m
    order = size - 1
    exp = np.zeros(size, dtype=np.int64)
    log = np.full(size, -1, dtype=np.int64)
    cur = 1
    for i in range(order):
        if log[cur] != -1:
            # revisited an element before exhausting the group
            raise ConfigError(
                f"x has order {i} < {order} modulo {primitive_poly:#x}")
        exp[i] = cur
        log[cur] = i
        cur <<= 1
        if cur & size:
            cur ^= primitive_poly
    if cur != 1:
        raise ConfigError(f"x^{order} != 1 modulo {primitive_poly:#x}")
    exp[order] = 1  # wrap entry so exp[log a + log b] works without mod
    return FieldSpec(m=m, primitive_poly=primitive_poly, exp_table=exp,
                     log_table=log)


def pow_alpha(fs: FieldSpec, e: int) -> int:
    """alpha^e for any integer exponent."""
    return int(fs.exp_table[e % fs.order])


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


@functools.cache
def mul_table(fs: FieldSpec) -> np.ndarray:
    """(size, size) read-only table of every product: mul_table(fs)[a, b] is
    a * b, so an array of products is one gather.  Its entries are the
    narrowest unsigned integers that hold an element (uint8 for m <= 8)."""
    e = np.arange(fs.size)
    table = arr_mul(fs, e[:, None], e).astype(np.min_scalar_type(fs.order))
    table.setflags(write=False)
    return table


@functools.cache
def inverses(fs: FieldSpec) -> np.ndarray:
    """(size,) read-only table of inverses, in mul_table's type:
    inverses(fs)[a] is 1 / a, and entry 0 is 0."""
    table = np.zeros(fs.size, np.min_scalar_type(fs.order))
    table[1:] = fs.exp_table[fs.order - fs.log_table[1:]]
    table.setflags(write=False)
    return table


def poly_from_roots(fs: FieldSpec, roots: Sequence[int]) -> list[int]:
    """prod (x + a) over the roots a, its products arr_mul's, taken in the
    log domain from the field's tables, so that building a code's generator
    builds no table."""
    p = np.array([1] + [0] * len(roots))
    for a in roots:  # p <- (x + a) p
        times_a = arr_mul(fs, p, a)
        times_a[1:] ^= p[:-1]
        p = times_a
    return p.tolist()


# canonical moduli used by the codecs: GF(32) <- x^5+x^2+1,
# GF(128) <- x^7+x^3+1
PRIM_POLY_GF32 = 0b100101
PRIM_POLY_GF128 = 0b10001001
_CANONICAL = {5: PRIM_POLY_GF32, 7: PRIM_POLY_GF128}


@functools.cache
def cached_field(m: int) -> FieldSpec:
    """Shared immutable field instances for the standard moduli.
    ConfigError for any other m, naming the fields there are."""
    if m not in _CANONICAL:
        raise ConfigError(f"no canonical field GF(2^{m}): the codecs run "
                          f"over GF(2^5) and GF(2^7)")
    return field_new(m, _CANONICAL[m])
