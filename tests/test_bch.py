import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import gf2m, harness
from papr_lab.fec import bch, rs
from test_fec_core import scalar_poly_eval

SPEC = bch.bch_spec()


# GF(2) polynomials as Python ints (bit d = coefficient of x^d): the
# reference the encoder's parity table in GF(128) is checked against

def gf2_poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def bits_to_int(bits: np.ndarray) -> int:
    # bits[0] is the highest-degree coefficient (first transmitted)
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    return v


def test_code_parameters():
    assert (SPEC.n, SPEC.k, SPEC.t) == (127, 85, 6)
    assert SPEC.generator.bit_length() - 1 == 42
    assert SPEC.generator == 0x58e24f9a4bb


def test_generator_has_designed_roots():
    # g(alpha^j) = 0 for j = 1..2t (narrow-sense designed distance)
    fs = SPEC.field
    gen_bits = [(SPEC.generator >> d) & 1 for d in range(43)]
    for j in range(1, 2 * SPEC.t + 1):
        assert scalar_poly_eval(fs, gen_bits, gf2m.pow_alpha(fs, j)) == 0


def test_generator_divides_x_n_minus_1():
    # x^127 + 1 mod g = 0
    x_n_1 = (1 << SPEC.n) | 1
    assert gf2_poly_mod(x_n_1, SPEC.generator) == 0


def test_encode_systematic_and_divisible():
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 2, SPEC.k).astype(np.uint8)
    frame = bch.bch_encode(msg)
    assert frame.size == 128
    assert np.array_equal(frame[:SPEC.k], msg)
    assert frame[SPEC.n] == 0  # pad bit
    # codeword polynomial divisible by the generator
    cw_int = bits_to_int(frame[:SPEC.n])
    assert gf2_poly_mod(cw_int, SPEC.generator) == 0


def test_linearity():
    rng = np.random.default_rng(1)
    m1 = rng.integers(0, 2, SPEC.k).astype(np.uint8)
    m2 = rng.integers(0, 2, SPEC.k).astype(np.uint8)
    f12 = bch.bch_encode(m1 ^ m2)
    assert np.array_equal(f12, bch.bch_encode(m1) ^ bch.bch_encode(m2))


def test_clean_decode():
    rng = np.random.default_rng(2)
    msg = rng.integers(0, 2, SPEC.k).astype(np.uint8)
    decoded, corrected = bch.bch_decode(bch.bch_encode(msg))
    assert np.array_equal(decoded, msg)
    assert corrected == 0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_corrects_up_to_t_bit_errors(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    e = data.draw(st.integers(0, SPEC.t))
    msg = rng.integers(0, 2, SPEC.k).astype(np.uint8)
    frame = bch.bch_encode(msg)
    pos = rng.choice(SPEC.n, size=e, replace=False)
    frame[pos] ^= 1
    decoded, corrected = bch.bch_decode(frame)
    assert np.array_equal(decoded, msg)
    assert corrected == e


def test_all_ones_message_gives_all_ones_codeword():
    # the repetition word is a codeword of every narrow-sense BCH code
    frame = bch.bch_encode(np.ones(SPEC.k, dtype=np.uint8))
    assert frame[:SPEC.n].all()


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_encode_rejects_non_binary_bits(bad):
    msg = [0] * SPEC.k
    msg[7] = bad
    with pytest.raises(rs.ConstraintViolation,
                       match=f"message bit {bad} at index 7"):
        bch.bch_encode(msg)


def test_length_checks():
    with pytest.raises(rs.LengthMismatch):
        bch.bch_encode(np.zeros(84, dtype=np.uint8))
    with pytest.raises(rs.LengthMismatch):
        bch.bch_decode(np.zeros(127, dtype=np.uint8))
    # the stacked decode pass checks a stack's frame length
    with pytest.raises(rs.LengthMismatch, match="frame length 127 != 128"):
        harness.get_scheme("bch").decode(np.zeros((2, 127), np.uint8))


def test_equal_specs_compare_and_hash_equal():
    a = bch.bch_spec()
    b = bch.BchCodeSpec(field=gf2m.field_new(7, 0b10001001), n=a.n, k=a.k,
                        t=a.t, generator=a.generator)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
