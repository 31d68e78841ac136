import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import gf2m
from papr_lab.fec import crs, rs
from papr_lab.metrics import ConfigError
from test_fec_core import scalar_poly_eval

SPEC = rs.rs_spec(5, 19)


def test_spec_parameters():
    assert (SPEC.n, SPEC.k, SPEC.r, SPEC.r // 2) == (31, 19, 12, 6)
    assert len(SPEC.generator) == SPEC.r + 1
    assert SPEC.generator[-1] == 1  # monic


def test_generator_roots():
    # g(alpha^j) = 0 for j = 1..r and nowhere else among alpha^0..alpha^(n-1)
    fs = SPEC.field
    g = list(SPEC.generator)
    roots = [j for j in range(SPEC.n)
             if scalar_poly_eval(fs, g, gf2m.pow_alpha(fs, j)) == 0]
    assert roots == list(range(1, SPEC.r + 1))


def test_encode_is_systematic_and_valid():
    rng = np.random.default_rng(1)
    fs = SPEC.field
    for _ in range(20):
        msg = [int(v) for v in rng.integers(0, 32, SPEC.k)]
        cw = rs.rs_encode(SPEC, msg)
        assert len(cw) == SPEC.n
        assert cw[:SPEC.k] == msg
        # codeword polynomial vanishes at every generator root
        cw_poly = list(reversed(cw))
        for j in range(1, SPEC.r + 1):
            assert scalar_poly_eval(fs, cw_poly, gf2m.pow_alpha(fs, j)) == 0


@pytest.mark.parametrize("shape", [(4,), (2, 3), (0,)])
def test_encode_stack_equals_row_by_row(shape):
    """A (..., k) stack of messages (2-D, 3-D or empty) encodes to the
    nested lists of each message's codeword."""
    messages = np.random.default_rng(8).integers(0, 32, (*shape, SPEC.k))
    want = [rs.rs_encode(SPEC, m) for m in messages.reshape(-1, SPEC.k)]
    assert rs.rs_encode(SPEC, messages) == np.reshape(
        np.array(want, dtype=int), (*shape, SPEC.n)).tolist()


def test_linearity():
    rng = np.random.default_rng(2)
    m1 = [int(v) for v in rng.integers(0, 32, SPEC.k)]
    m2 = [int(v) for v in rng.integers(0, 32, SPEC.k)]
    c1 = rs.rs_encode(SPEC, m1)
    c2 = rs.rs_encode(SPEC, m2)
    csum = rs.rs_encode(SPEC, [a ^ b for a, b in zip(m1, m2)])
    assert csum == [a ^ b for a, b in zip(c1, c2)]


def test_clean_decode():
    rng = np.random.default_rng(3)
    msg = [int(v) for v in rng.integers(0, 32, SPEC.k)]
    decoded, corrected = rs.rs_decode(SPEC, rs.rs_encode(SPEC, msg))
    assert decoded == msg
    assert corrected == 0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_errors_and_erasures_bound(data):
    """Any pattern with 2e + f <= r decodes exactly."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = data.draw(st.integers(0, SPEC.r))
    e = data.draw(st.integers(0, (SPEC.r - f) // 2))
    msg = [int(v) for v in rng.integers(0, 32, SPEC.k)]
    cw = rs.rs_encode(SPEC, msg)
    positions = rng.choice(SPEC.n, size=e + f, replace=False)
    err_pos, era_pos = positions[:e], positions[e:]
    corrupted = list(cw)
    for pos in err_pos:
        corrupted[pos] ^= int(rng.integers(1, 32))
    for pos in era_pos:
        corrupted[pos] = int(rng.integers(0, 32))  # may happen to be correct
    decoded, corrected = rs.rs_decode(SPEC, corrupted, erasures=era_pos)
    assert decoded == msg
    assert corrected <= e + f


def test_beyond_bound_detected_or_flagged():
    # 7 random errors exceed t = 6; decoder must not silently return the
    # original message as if nothing happened
    rng = np.random.default_rng(4)
    misdecodes = 0
    for _ in range(50):
        msg = [int(v) for v in rng.integers(0, 32, SPEC.k)]
        cw = rs.rs_encode(SPEC, msg)
        pos = rng.choice(SPEC.n, size=7, replace=False)
        for p in pos:
            cw[p] ^= int(rng.integers(1, 32))
        try:
            decoded, _ = rs.rs_decode(SPEC, cw)
            if decoded != msg:
                misdecodes += 1  # decoded to a *different* valid codeword
        except rs.DecodeFailure:
            pass
    assert misdecodes < 50  # most patterns beyond the bound raise


def test_too_many_erasures():
    cw = rs.rs_encode(SPEC, [0] * SPEC.k)
    with pytest.raises(rs.DecodeFailure):
        rs.rs_decode(SPEC, cw, erasures=range(SPEC.r + 1))


# an entry that is not a GF(32) element: out of range, or not an integer
NON_SYMBOLS = st.one_of(
    st.integers(-2**63, -1), st.integers(32, 2**63 - 1),
    st.floats(-1e6, 1e6).filter(lambda x: x != int(x)))


@given(k=st.integers(1, 30), data=st.data())
@settings(max_examples=100, deadline=None)
def test_codec_rejects_entries_outside_the_field(k, data):
    """rs_encode and rs_decode refuse an entry outside GF(32) with a
    ConstraintViolation that names its index, instead of looping, indexing
    out of range or truncating it."""
    spec = rs.rs_spec(5, k)
    bad = data.draw(NON_SYMBOLS)
    at = data.draw(st.integers(0, k - 1))
    message = [0] * k
    message[at] = bad
    with pytest.raises(rs.ConstraintViolation,
                       match=f"message symbol .* at index {at} outside"):
        rs.rs_encode(spec, message)
    at = data.draw(st.integers(0, spec.n - 1))
    word = rs.rs_encode(spec, [0] * k)
    word[at] = bad
    with pytest.raises(rs.ConstraintViolation,
                       match=f"received symbol .* at index {at} outside"):
        rs.rs_decode(spec, word)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_decode_rejects_erasures_that_are_not_positions(data):
    """rs_decode refuses an erasure position that is not an integer in
    0..n-1 with a ConstraintViolation that names its index in the list,
    instead of truncating it to a position."""
    positions = data.draw(st.lists(st.integers(0, SPEC.n - 1), max_size=6))
    at = data.draw(st.integers(0, len(positions)))
    positions.insert(at, data.draw(st.one_of(NON_SYMBOLS, st.just(SPEC.n))))
    with pytest.raises(rs.ConstraintViolation,
                       match=f"erasure position .* at index {at} outside "
                             f"0..{SPEC.n - 1}"):
        rs.rs_decode(SPEC, rs.rs_encode(SPEC, [0] * SPEC.k), positions)


def test_length_checks():
    with pytest.raises(rs.LengthMismatch):
        rs.rs_encode(SPEC, [0] * (SPEC.k - 1))
    with pytest.raises(rs.LengthMismatch):
        rs.rs_decode(SPEC, [0] * (SPEC.n + 1))


@pytest.mark.parametrize("m", [1, 2, 6, 8, 16])
def test_code_over_a_field_without_a_canonical_modulus(m):
    """Only GF(2^5) and GF(2^7) have the codecs' canonical moduli: a code
    over any other field is refused with a ConfigError that names them,
    not a bare KeyError."""
    with pytest.raises(ConfigError, match=rf"^no canonical field GF\(2\^{m}\)"
                                          r": the codecs run over GF\(2\^5\) "
                                          r"and GF\(2\^7\)$"):
        rs.rs_spec(m, 10)


@pytest.mark.parametrize("m,k", [(5, 0), (5, 31), (7, 0), (7, 127)])
def test_k_outside_the_code_is_a_config_error(m, k):
    """k = 0 and k = n are parameters outside the code, refused with the
    ConfigError crs.crs_layout raises for the same check."""
    n = (1 << m) - 1
    with pytest.raises(ConfigError, match=rf"^k = {k} outside \(0, {n}\)$"):
        rs.rs_spec(m, k)


# --- punctured/shortened RS(25,16) -------------------------------------------

def test_rs2516_shape():
    msg = list(range(16))
    frame = rs.rs2516_frame(msg)
    assert frame.size == 128
    # 16 message symbols, then RS(31,19) parity 0..8 of the shortened word
    parity = rs.rs_encode(rs.rs_spec(5, 19), [0] * 3 + msg)[19:28]
    assert rs._bits_to_symbols(frame[:125], 5) == msg + parity
    assert not frame[125:].any()  # zero pad


def test_rs2516_clean_roundtrip_reports_zero_corrections():
    rng = np.random.default_rng(5)
    msg = [int(v) for v in rng.integers(0, 32, 16)]
    decoded, corrected = rs.rs2516_decode(rs.rs2516_frame(msg))
    assert decoded == msg
    assert corrected == 0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rs2516_corrects_up_to_four_symbol_errors(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    e = data.draw(st.integers(0, 4))
    msg = [int(v) for v in rng.integers(0, 32, 16)]
    frame = rs.rs2516_frame(msg)
    pos = rng.choice(25, size=e, replace=False)
    for p in pos:
        sym = rs._bits_to_symbols(frame[p * 5:(p + 1) * 5], 5)[0]
        sym ^= int(rng.integers(1, 32))
        frame[p * 5:(p + 1) * 5] = rs._symbols_to_bits([sym], 5)
    decoded, corrected = rs.rs2516_decode(frame)
    assert decoded == msg
    assert corrected == e or corrected <= e  # erasure fills not counted


@pytest.mark.parametrize("bad", [32, -1])
def test_rs2516_frame_rejects_symbols_outside_gf32(bad):
    with pytest.raises(rs.ConstraintViolation,
                       match=f"message symbol {bad} at index 15"):
        rs.rs2516_frame([0] * 15 + [bad])


def test_bit_symbol_packing_roundtrip():
    rng = np.random.default_rng(6)
    syms = [int(v) for v in rng.integers(0, 32, 40)]
    assert rs._bits_to_symbols(rs._symbols_to_bits(syms, 5), 5) == syms
    # MSB-first convention
    assert list(rs._symbols_to_bits([0b10011], 5)) == [1, 0, 0, 1, 1]


def test_equal_specs_compare_and_hash_equal():
    a = rs.rs_spec(5, 19)
    b = rs.RsFrameLayout(q=5, k=19, k_prime=19, p=5, punctured=0,
                         frame_bits=155)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != rs.rs_spec(5, 21)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("layout", [
    rs.RS2516, crs.crs_layout(6, 31, 19),
    dataclasses.replace(SPEC, frame_bits=256)], ids=["rs2516", "crs", "pad"])
def test_symbol_codec_refuses_a_frame_layout(layout):
    """rs_encode and rs_decode take only rs_spec(q, k); a shortened,
    punctured, constrained or padded layout of the same code is refused,
    not decoded as the whole code."""
    with pytest.raises(ConfigError, match="the symbol codec takes rs_spec"):
        rs.rs_encode(layout, [0] * layout.k)
    with pytest.raises(ConfigError, match="the symbol codec takes rs_spec"):
        rs.rs_decode(layout, [0] * layout.n)
