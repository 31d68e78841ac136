"""The GF(2)-linear codec core against the scalar algorithms it replaced.

The encoders multiply message bits by a binary generator matrix; the
decoders take syndromes and run the Chien search with one vectorized
polynomial evaluation.  The references below are the original per-point
loops: Horner evaluation, syndromes one power of alpha at a time, the Chien
search one position at a time, and the per-bit symbol packing.  Decoders are
compared on whole outcomes (message, corrected count, constraint flag, or
the DecodeFailure raised), past the correction radius on purpose, since the
failure path is most of what a faded RS(25,16) link decodes.
"""
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import gf2m, harness
from papr_lab.fec import bch, crs, rs


# --- scalar references -------------------------------------------------------

def scalar_syndromes(spec, received):
    fs = spec.field
    rec_poly = [int(c) for c in reversed(received)]
    return [gf2m.poly_eval(fs, rec_poly, gf2m.pow_alpha(fs, j))
            for j in range(1, spec.r + 1)]


def scalar_decode_word(spec, received, erasures=()):
    """rs.decode_word with Horner syndromes and a per-position Chien search
    (the input checks left out)."""
    fs = spec.field
    n, r = spec.n, spec.r
    erasures = sorted(set(int(e) for e in erasures))
    if len(erasures) > r:
        raise rs.DecodeFailure("more erasures than parity symbols")
    word = [int(c) for c in received]
    synd = scalar_syndromes(spec, word)
    if not any(synd) and not erasures:
        return word, []
    gamma = [1]
    for pos in erasures:
        gamma = gf2m.poly_mul(fs, gamma, [1, gf2m.pow_alpha(fs, n - 1 - pos)])
    f = len(erasures)
    product = gf2m.poly_mul(fs, synd, gamma)
    product += [0] * (r - len(product))
    lam = rs._berlekamp_massey(fs, product[f:r])
    if gf2m.poly_deg(lam) > (r - f) // 2:
        raise rs.DecodeFailure("error locator exceeds capability")
    psi = gf2m.poly_mul(fs, lam, gamma)
    if not psi:
        raise rs.DecodeFailure("degenerate locator")
    roots_pos, roots_x = [], []
    for pos in range(n):
        x = gf2m.pow_alpha(fs, n - 1 - pos)
        if gf2m.poly_eval(fs, psi, gf2m.inv(fs, x)) == 0:
            roots_pos.append(pos)
            roots_x.append(x)
    if len(roots_pos) != gf2m.poly_deg(psi):
        raise rs.DecodeFailure("locator degree does not match root count")
    omega = gf2m.poly_mul(fs, synd, psi)[:r]
    psi_prime = [c if i % 2 == 0 else 0 for i, c in enumerate(psi[1:])]
    touched = []
    for pos, x in zip(roots_pos, roots_x):
        xi = gf2m.inv(fs, x)
        denom = gf2m.poly_eval(fs, psi_prime, xi)
        if denom == 0:
            raise rs.DecodeFailure("Forney denominator vanished")
        mag = gf2m.div(fs, gf2m.poly_eval(fs, omega, xi), denom)
        if mag:
            word[pos] ^= mag
            touched.append(pos)
    if any(scalar_syndromes(spec, word)):
        raise rs.DecodeFailure("residual syndromes after correction")
    return word, touched


def scalar_bch_decode(frame):
    """bch.bch_decode with written-out syndrome sums and Chien search."""
    spec = bch.bch_spec()
    fs = spec.field
    word = np.asarray(frame, dtype=np.uint8)[:spec.n].copy()

    def syndromes():
        degs = [spec.n - 1 - i for i in np.flatnonzero(word)]
        out = []
        for j in range(1, 2 * spec.t + 1):
            s = 0
            for d in degs:
                s ^= gf2m.pow_alpha(fs, j * d)
            out.append(s)
        return out

    synd = syndromes()
    if not any(synd):
        return word[:spec.k], 0
    lam = rs._berlekamp_massey(fs, synd)
    nerr = gf2m.poly_deg(lam)
    if nerr > spec.t:
        raise rs.DecodeFailure("locator degree exceeds capability")
    flips = [pos for pos in range(spec.n)
             if gf2m.poly_eval(fs, lam, gf2m.inv(
                 fs, gf2m.pow_alpha(fs, spec.n - 1 - pos))) == 0]
    if len(flips) != nerr:
        raise rs.DecodeFailure("locator degree does not match root count")
    for pos in flips:
        word[pos] ^= 1
    if any(syndromes()):
        raise rs.DecodeFailure("residual syndromes after correction")
    return word[:spec.k], len(flips)


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


def outcome(decode, *args):
    """A decode's result with arrays as lists, or the failure it raised."""
    try:
        out = decode(*args)
    except rs.DecodeFailure as ex:
        return ("DecodeFailure", str(ex))
    return tuple(np.asarray(v).tolist() for v in out)


# --- evaluator and packing ---------------------------------------------------

@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_poly_eval_many_matches_poly_eval(m, data):
    fs = gf2m.cached_field(m)
    p = data.draw(st.lists(st.integers(0, fs.order), max_size=20))
    points = np.arange(fs.size)
    got = gf2m.poly_eval_many(fs, p, points)
    assert got.tolist() == [gf2m.poly_eval(fs, p, int(x)) for x in points]


@given(q=st.integers(1, 8), data=st.data())
@settings(max_examples=100, deadline=None)
def test_symbol_packing_matches_loops(q, data):
    syms = data.draw(st.lists(st.integers(0, 2**q - 1), max_size=40))
    assert np.array_equal(rs._symbols_to_bits(syms, q),
                          loop_symbols_to_bits(syms, q))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), max_size=100)),
                    dtype=np.uint8)
    assert rs._bits_to_symbols(bits, q) == loop_bits_to_symbols(bits, q)


# --- matrix encode == algebraic encode ---------------------------------------

def _encoders(code):
    """(public matrix encoder on bits, algebraic builder on bits, k bits)."""
    if code == "bch":
        return bch.bch_encode, bch._bch_encode_algebraic, bch.bch_spec().k
    if code == "rs2516":
        return (lambda b: rs.rs2516_frame(rs._bits_to_symbols(b, 5)),
                rs._rs2516_frame_algebraic, 80)
    layout = crs.crs_layout(6, 31, int(code.split("_")[1]))
    return (lambda b: crs.crs_encode(layout, b),
            lambda b: crs._crs_encode_algebraic(layout, b),
            layout.message_bits)


@pytest.mark.parametrize(
    "code", ["bch", "rs2516"] + [f"crs31_{k}" for k in harness.DEFAULT_KSWEEP])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matrix_encode_equals_algebraic(code, seed):
    matrix, algebraic, k_bits = _encoders(code)
    bits = np.random.default_rng(seed).integers(0, 2, k_bits, dtype=np.uint8)
    assert np.array_equal(matrix(bits), algebraic(bits))


def test_racing_first_encodes_agree():
    """Burst threads may build the same generator matrix at once; every
    frame must still equal the algebraic encoding."""
    layout = crs.crs_layout(6, 31, 21)
    msgs = np.random.default_rng(3).integers(
        0, 2, (64, layout.message_bits), dtype=np.uint8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.dict(rs._GENERATORS, clear=True), \
                ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda m: crs.crs_encode(layout, m), msgs,
                              timeout=60))
    finally:
        sys.setswitchinterval(old)
    for frame, m in zip(got, msgs):
        assert np.array_equal(frame, crs._crs_encode_algebraic(layout, m))


# --- vectorized decode == scalar decode --------------------------------------

@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_decode_word_matches_scalar(seed, data):
    spec = rs.rs_spec(5, data.draw(st.sampled_from(harness.DEFAULT_KSWEEP)))
    f = data.draw(st.integers(0, spec.r))
    e = data.draw(st.integers(0, (spec.r - f) // 2 + 3))
    rng = np.random.default_rng(seed)
    word = rs.rs_encode(spec, [int(v) for v in rng.integers(0, 32, spec.k)])
    pos = rng.choice(spec.n, size=e + f, replace=False)
    for p in pos[:e]:
        word[p] ^= int(rng.integers(1, 32))
    for p in pos[e:]:
        word[p] = int(rng.integers(0, 32))
    erasures = pos[e:].tolist()
    assert (outcome(rs.decode_word, spec, word, erasures)
            == outcome(scalar_decode_word, spec, word, erasures))


def _symbol_errors(rng, frame, widths, e):
    """Flip a nonzero pattern inside each of e distinct fields."""
    starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
    for i in rng.choice(len(widths), size=e, replace=False):
        pattern = loop_symbols_to_bits(
            [int(rng.integers(1, 2 ** widths[i]))], widths[i])
        frame[starts[i]:starts[i] + widths[i]] ^= pattern
    return frame


@given(seed=st.integers(0, 2**32 - 1), e=st.integers(0, 4 + 3))
@settings(max_examples=150, deadline=None)
def test_rs2516_decode_matches_scalar(seed, e):
    rng = np.random.default_rng(seed)
    frame = rs.rs2516_frame([int(v) for v in rng.integers(0, 32, 16)])
    frame = _symbol_errors(rng, frame, [5] * 25, e)
    with mock.patch.object(rs, "decode_word", scalar_decode_word):
        want = outcome(rs.rs2516_decode, frame)
    assert outcome(rs.rs2516_decode, frame) == want


@given(seed=st.integers(0, 2**32 - 1), e=st.integers(0, 6 + 3))
@settings(max_examples=150, deadline=None)
def test_crs_decode_matches_scalar(seed, e):
    layout = crs.crs_layout(6, 31, 19)
    rng = np.random.default_rng(seed)
    frame = crs.crs_encode(
        layout, rng.integers(0, 2, layout.message_bits, dtype=np.uint8))
    widths = [layout.p] * layout.k_prime + [layout.q] * layout.r
    frame = _symbol_errors(rng, frame, widths, e)
    with mock.patch.object(crs, "decode_word", scalar_decode_word):
        want = outcome(crs.crs_decode, layout, frame)
    assert outcome(crs.crs_decode, layout, frame) == want


@given(seed=st.integers(0, 2**32 - 1), e=st.integers(0, 6 + 3))
@settings(max_examples=150, deadline=None)
def test_bch_decode_matches_scalar(seed, e):
    rng = np.random.default_rng(seed)
    frame = bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8))
    frame[rng.choice(127, size=e, replace=False)] ^= 1
    assert outcome(bch.bch_decode, frame) == outcome(scalar_bch_decode, frame)
