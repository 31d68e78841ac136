from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import div, inv, mul, poly_deg, poly_divmod, poly_mul, poly_trim
from papr_lab import gf2m

GF32 = gf2m.cached_field(5)
GF128 = gf2m.cached_field(7)
FIELDS = [GF32, GF128]


def elems(fs):
    return st.integers(min_value=0, max_value=fs.order)


def poly_add(p, q):
    """Trimmed coefficient-wise sum of two polynomials."""
    return poly_trim([a ^ b for a, b in zip_longest(p, q, fillvalue=0)])


@pytest.mark.parametrize("fs", FIELDS, ids=["gf32", "gf128"])
def test_table_shapes(fs):
    assert fs.exp_table.size == fs.size
    assert fs.log_table.size == fs.size
    assert fs.log_table[0] == -1
    assert fs.exp_table[fs.order] == 1  # wrap entry
    # tables are mutually inverse bijections on the nonzero elements
    nz = fs.exp_table[:fs.order]
    assert sorted(nz) == list(range(1, fs.size))
    assert all(fs.log_table[fs.exp_table[i]] == i for i in range(fs.order))


@pytest.mark.parametrize("fs", FIELDS, ids=["gf32", "gf128"])
def test_alpha_order(fs):
    assert gf2m.pow_alpha(fs, fs.order) == 1
    # alpha generates the whole multiplicative group
    assert all(gf2m.pow_alpha(fs, e) != 1 for e in range(1, fs.order))


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=300, deadline=None)
def test_field_axioms(fs, data):
    a = data.draw(elems(fs))
    b = data.draw(elems(fs))
    c = data.draw(elems(fs))
    # multiplicative structure
    assert mul(fs, a, b) == mul(fs, b, a)
    assert mul(fs, mul(fs, a, b), c) == \
        mul(fs, a, mul(fs, b, c))
    assert mul(fs, a, 1) == a
    # distributivity
    assert mul(fs, a, b ^ c) == mul(fs, a, b) ^ mul(fs, a, c)
    if a:
        assert mul(fs, a, inv(fs, a)) == 1
        assert div(fs, mul(fs, a, b), a) == b


@pytest.mark.parametrize("fs", FIELDS, ids=["gf32", "gf128"])
def test_division_by_zero(fs):
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        inv(fs, 0)
    with pytest.raises(ZeroDivisionError, match="division by 0"):
        div(fs, 3, 0)


def test_non_primitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1: order 5, not primitive
    with pytest.raises(gf2m.ConfigError, match="x has order 5 < 15"):
        gf2m.field_new(4, 0b11111)


def test_degree_mismatch_rejected():
    with pytest.raises(gf2m.ConfigError, match="modulus degree 3 != m = 5"):
        gf2m.field_new(5, 0b1011)


@pytest.mark.parametrize("fs", FIELDS, ids=["gf32", "gf128"])
def test_cached_tables_match_scalar(fs):
    """mul_table and inverses, the tables the codecs divide and multiply
    through, against the scalar oracles on every pair of elements."""
    rows, inverse = gf2m.mul_table(fs).tolist(), gf2m.inverses(fs).tolist()
    assert all(rows[a][b] == mul(fs, a, b)
               for a in range(fs.size) for b in range(fs.size))
    assert inverse[0] == 0
    assert all(inverse[a] == inv(fs, a) for a in range(1, fs.size))


def test_arr_mul_matches_scalar():
    rng = np.random.default_rng(0)
    for fs in FIELDS:
        a = rng.integers(0, fs.size, 200)
        b = rng.integers(0, fs.size, 200)
        out = gf2m.arr_mul(fs, a, b)
        assert all(out[i] == mul(fs, int(a[i]), int(b[i]))
                   for i in range(a.size))


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=100, deadline=None)
def test_poly_divmod_roundtrip(fs, data):
    """The oracle division, which the package no longer runs, is undone by
    the oracle product."""
    p = data.draw(st.lists(elems(fs), max_size=12))
    q = data.draw(st.lists(elems(fs), min_size=1, max_size=6))
    if not poly_trim(list(q)):
        q = [1]
    quot, rem = poly_divmod(fs, p, q)
    back = poly_add(poly_mul(fs, quot, q), rem)
    assert back == poly_trim(list(p))
    assert poly_deg(rem) < poly_deg(poly_trim(list(q)))


def test_canonical_moduli():
    assert GF32.primitive_poly == 0b100101
    assert GF128.primitive_poly == 0b10001001
    assert gf2m.cached_field(5) is GF32  # shared instance


def test_fields_compare_and_hash_by_modulus():
    a = gf2m.field_new(5, 37)
    b = gf2m.field_new(5, 37)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a == GF32 and a != GF128
    assert a != gf2m.field_new(5, 0b111101)  # another primitive modulus
    assert len({a, b, GF32}) == 1
