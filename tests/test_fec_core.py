"""The GF(2)-linear codec core against the scalar algorithms it replaced.

Each code's encoder and decoder tables are built from two tables: the
parity of each message symbol (rs._parity_table) and the syndromes of the
unit symbol at each word position (rs._syndrome_rows, uint8), which BCH
reads as they are and the RS paths times the symbol through the field's
multiplication table.  The encoders multiply message bits by
a binary generator matrix G, cached per code, read-only and in float32
through BLAS, and checked here, whole and per frame, against the
long-division encoders of tests/oracles.py; rs_encode is checked against
the oracle's rs_encode.  The frame decoders' stacked pass takes a stack of
frames' syndromes (and, for a punctured RS layout, the modified syndromes
of its fixed erasure locator) as one gather of XOR table entries per frame
byte, built from the syndromes of each sent frame bit, skips the frames
the erasures alone explain, and decodes all the others at once
(rs._outcomes): Berlekamp-Massey, the degree bound, the stacked product
psi = Lambda Gamma, the Chien search from a power table, the root count,
BM's length test and Forney.  Each piece is checked here, per frame and on
stacks of 0, 1 and many frames, against Horner, scalar products, the
scalar BM and oracles.corrections, the per-word tail the package ran
before (packed-int Chien search and Forney); every stacked row must equal
the frame's one-row pass.  Every decoder accepts its corrections by BM's
length test (the error locator's degree is the LFSR length L), where the
scalar decoders below recompute the syndromes of the corrected word, and
a seeded heavy-error sweep holds the two to the same outcomes.  The
references below are the original per-point loops: Horner evaluation,
syndromes one power of alpha at a time, products and BM one scalar mul
per term (oracles.mul, oracles.poly_mul), the log-domain evaluator
poly_eval_many, the Chien search one position at a time, the frame
decoders that built the whole word and ran the full erasure path, and the
conventional RS(31,k) framing of the k-sweep through the oracle's
rs_encode.  scalar_poly_eval (Horner, one scalar mul per step) is also the
polynomial evaluator of test_rs and test_bch.
Decoders are compared on whole outcomes (message, corrected count,
constraint flag, or the DecodeFailure raised), past the correction radius
on purpose, since the failure path is most of what a faded RS(25,16) link
decodes.  The frame decoders must refuse a frame entry that is not a bit,
decode a frame of any shape as its flattened entries, and keep what a
cold decode builds within a memory bound (tracemalloc), which a packed
(position, magnitude) syndrome table would break.
"""
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (div, inv, loop_bits_to_symbols, loop_symbols_to_bits, mul,
                     poly_mul, poly_trim)
from papr_lab import gf2m, harness
from papr_lab.fec import bch, crs, rs


CODES = ["bch", "rs2516"] + [f"crs31_{k}" for k in harness.DEFAULT_KSWEEP]

# every cache the FEC core defines; gf2m.cached_field stays warm, because
# tests hold its field instances by identity
FEC_CACHES = tuple(
    cached for module in (gf2m, rs, bch, crs)
    for cached in vars(module).values()
    if hasattr(cached, "cache_clear") and cached.__module__ == module.__name__
    and cached is not gf2m.cached_field)


def clear_fec_caches():
    """Empty every FEC cache, so the next call of each builds afresh."""
    for cached in FEC_CACHES:
        cached.cache_clear()


@pytest.fixture
def cold_fec_caches():
    clear_fec_caches()


# the k-sweep's conventional RS(31,k) framing, one codeword in two frames
CONVENTIONAL = [f"rs31_{k}_256" for k in harness.DEFAULT_KSWEEP]


def _layout(code):
    if code == "rs2516":
        return rs.RS2516
    k = int(code.split("_")[1])
    if code in CONVENTIONAL:
        return rs.RsFrameLayout(q=5, k=k, k_prime=k, p=5, punctured=0,
                                frame_bits=256)
    return crs.crs_layout(6, 31, k)


def _generator(code):
    """The cached generator matrix G of a code."""
    return (bch._generator() if code == "bch"
            else rs._frame_generator(_layout(code)))


# --- scalar references -------------------------------------------------------

def poly_eval_many(fs, p, xs):
    """p(x) for every x in xs at once: each term c_d x^d is one antilog
    lookup of log c_d + d log x, and the terms are XOR-reduced."""
    c = np.asarray(p, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    degs = np.flatnonzero(c)
    logs = fs.log_table[c[degs]] + np.multiply.outer(fs.log_table[xs], degs)
    out = np.bitwise_xor.reduce(fs.exp_table[logs % fs.order], axis=-1)
    # at x = 0 only the constant term survives (log 0 is a placeholder)
    return np.where(xs == 0, c[0] if c.size else 0, out)


def scalar_poly_eval(fs, p, x):
    """Horner evaluation with one scalar mul per step."""
    acc = 0
    for c in reversed(p):
        acc = mul(fs, acc, x) ^ c
    return acc


def poly_add(p, q):
    """Trimmed coefficient-wise sum of two polynomials."""
    return poly_trim([a ^ b for a, b in zip_longest(p, q, fillvalue=0)])


def horner_syndromes(fs, received, count):
    rec_poly = [int(c) for c in reversed(received)]
    return [scalar_poly_eval(fs, rec_poly, gf2m.pow_alpha(fs, j))
            for j in range(1, count + 1)]


def bch_syndromes(word):
    """S_1..S_2t of a 127-bit word by Horner."""
    return horner_syndromes(bch.bch_spec().field, word, 12)


def frame_syndromes(layout, frame):
    """The r syndromes of an RS layout's frame by Horner on its word."""
    return horner_syndromes(layout.field,
                            oracles.frame_word(layout, frame), layout.r)


def scalar_syndromes(spec, received):
    return horner_syndromes(spec.field, received, spec.r)


def table_syndromes(k, word):
    """The r syndromes of an RS(31,k) word from the frame tables of
    rs_spec(5, k), the ones rs_decode reads."""
    frame = rs._symbols_to_bits(word, 5)[None]
    return rs._frame_syndromes(rs._decoder(rs.rs_spec(5, k)),
                               frame)[0].tolist()


def scalar_berlekamp_massey(fs, syndromes):
    """rs._berlekamp_massey with one scalar mul call per term and a trimmed
    poly_add per update: (locator, LFSR length L)."""
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b = 1
    for i, s in enumerate(syndromes):
        d = s
        for j in range(1, L + 1):
            if j < len(C):
                d ^= mul(fs, C[j], syndromes[i - j])
        if d == 0:
            shift += 1
            continue
        coef = mul(fs, d, inv(fs, b))
        T = list(C)
        adj = [0] * shift + [mul(fs, coef, c) for c in B]
        C = poly_add(C, adj)
        if 2 * L <= i:
            L = i + 1 - L
            B = T
            b = d
            shift = 1
        else:
            shift += 1
    return C, L


def locator_rows(C, degrees, lengths):
    """rs._locators' arrays as one [trimmed locator, L] per row."""
    return [[c[:d + 1], length] for c, d, length
            in zip(C.tolist(), degrees.tolist(), lengths.tolist())]


def oracle_row(fs, n, synd, modified, gamma, binary=False):
    """What rs._outcomes makes of one word, by the scalar BM and
    oracles.corrections: its failure reason or its fixes."""
    lam, length = scalar_berlekamp_massey(fs, [int(v) for v in modified])
    try:
        return oracles.corrections(fs, n, [int(v) for v in synd], lam,
                                   length, list(gamma), binary)
    except rs.DecodeFailure as ex:
        return str(ex)


def stacked_product(fs, p, q, size):
    """rs._product of two polynomials as one-row stacks, trimmed."""
    got = rs._product(fs, np.array([p or [0]], np.uint8),
                      np.array([q or [0]], np.uint8), size)
    return poly_trim(got[0].tolist())


def scalar_correct_word(spec, received, erasures=()):
    """rs.rs_decode's correction of the whole word with Horner syndromes,
    scalar BM and products, the erasure locator rebuilt per call and a
    per-position Chien search (the input checks left out): (corrected
    word, corrected positions)."""
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
        gamma = poly_mul(fs, gamma, [1, gf2m.pow_alpha(fs, n - 1 - pos)])
    f = len(erasures)
    product = poly_mul(fs, synd, gamma)
    product += [0] * (r - len(product))
    lam, _ = scalar_berlekamp_massey(fs, product[f:r])
    if oracles.poly_deg(lam) > (r - f) // 2:
        raise rs.DecodeFailure("error locator exceeds capability")
    psi = poly_mul(fs, lam, gamma)
    if not psi:
        raise rs.DecodeFailure("degenerate locator")
    roots_pos, roots_x = [], []
    for pos in range(n):
        x = gf2m.pow_alpha(fs, n - 1 - pos)
        if scalar_poly_eval(fs, psi, inv(fs, x)) == 0:
            roots_pos.append(pos)
            roots_x.append(x)
    if len(roots_pos) != oracles.poly_deg(psi):
        raise rs.DecodeFailure("locator degree does not match root count")
    omega = poly_mul(fs, synd, psi)[:r]
    psi_prime = [c if i % 2 == 0 else 0 for i, c in enumerate(psi[1:])]
    touched = []
    for pos, x in zip(roots_pos, roots_x):
        xi = inv(fs, x)
        denom = scalar_poly_eval(fs, psi_prime, xi)
        if denom == 0:
            raise rs.DecodeFailure("Forney denominator vanished")
        mag = div(fs, scalar_poly_eval(fs, omega, xi), denom)
        if mag:
            word[pos] ^= mag
            touched.append(pos)
    if any(scalar_syndromes(spec, word)):
        raise rs.DecodeFailure("residual syndromes after correction")
    return word, touched


def scalar_rs_decode(spec, received, erasures=()):
    """rs.rs_decode through scalar_correct_word."""
    word, touched = scalar_correct_word(spec, received, erasures)
    return word[:spec.k], len(touched)


def scalar_rs2516_decode(frame):
    """rs.rs2516_decode through the whole word and the full erasure path."""
    frame = np.asarray(frame, dtype=np.uint8)
    spec = rs.rs_spec(5, 19)
    decoded, positions = scalar_correct_word(
        spec, oracles.frame_word(rs.RS2516, frame), range(28, 31))
    if any(decoded[:3]):
        raise rs.DecodeFailure("shortened prefix decoded nonzero")
    return decoded[3:19], sum(1 for p in positions if p < 28)


def scalar_crs_decode(layout, frame):
    """crs.crs_decode through the whole word and scalar_correct_word."""
    frame = np.asarray(frame, dtype=np.uint8)
    spec = rs.rs_spec(layout.q, layout.k)
    decoded, positions = scalar_correct_word(
        spec, oracles.frame_word(layout, frame))
    if any(decoded[:layout.k - layout.k_prime]):
        raise rs.DecodeFailure("shortened prefix decoded nonzero")
    out_syms = decoded[layout.k - layout.k_prime:layout.k]
    constraint_ok = all(s < (1 << layout.p) for s in out_syms)
    low = [s & ((1 << layout.p) - 1) for s in out_syms]
    return loop_symbols_to_bits(low, layout.p), len(positions), constraint_ok


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
    lam, _ = scalar_berlekamp_massey(fs, synd)
    nerr = oracles.poly_deg(lam)
    if nerr > spec.t:
        raise rs.DecodeFailure("error locator exceeds capability")
    flips = [pos for pos in range(spec.n)
             if scalar_poly_eval(fs, lam, inv(
                 fs, gf2m.pow_alpha(fs, spec.n - 1 - pos))) == 0]
    if len(flips) != nerr:
        raise rs.DecodeFailure("locator degree does not match root count")
    for pos in flips:
        word[pos] ^= 1
    if any(syndromes()):
        raise rs.DecodeFailure("residual syndromes after correction")
    return word[:spec.k], len(flips)


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
    got = poly_eval_many(fs, p, points)
    assert got.tolist() == [scalar_poly_eval(fs, p, int(x)) for x in points]


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
    """(public matrix encoder on bits, oracle encoder on bits, k bits)."""
    if code == "bch":
        spec = bch.bch_spec()
        return (bch.bch_encode, lambda b: oracles.bch_encode(spec, b),
                spec.k)
    layout = _layout(code)
    if code == "rs2516":
        return (lambda b: rs.rs2516_frame(rs._bits_to_symbols(b, 5)),
                lambda b: oracles.frame_encode(rs.RS2516, b), 80)
    return (lambda b: rs.frame_encode(layout, b),
            lambda b: oracles.frame_encode(layout, b),
            layout.message_bits)


@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matrix_encode_equals_algebraic(code, seed):
    matrix, algebraic, k_bits = _encoders(code)
    bits = np.random.default_rng(seed).integers(0, 2, k_bits, dtype=np.uint8)
    assert np.array_equal(matrix(bits), algebraic(bits))


@pytest.mark.parametrize("code", CODES + CONVENTIONAL)
def test_generator_equals_oracle_generator(code):
    """Each code's G, built from its parity table, is the matrix of the
    oracle's long-division encoder, row for row."""
    _, algebraic, k_bits = _encoders(code)
    assert np.array_equal(_generator(code),
                          oracles.generator_matrix(algebraic, k_bits))


@given(code=st.one_of(st.tuples(st.just(5), st.integers(1, 30)),
                      st.just((7, 126))),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_rs_encode_equals_oracle(code, data):
    """rs_encode, the frame encoder of rs_spec(m, k), gives the oracle's
    long-division codeword for every RS(31,k) and for RS(127,126), whose
    G has 882 rows, past a uint8's range of sums.  No other code builds an
    RS(127,k) table: its G is 882 x 889 float32, about 3.1 MB."""
    spec = rs.rs_spec(*code)
    message = data.draw(st.lists(st.integers(0, spec.n), min_size=spec.k,
                                 max_size=spec.k))
    assert rs.rs_encode(spec, message) == oracles.rs_encode(spec, message)


def scalar_conventional_frames(message, fpb):
    """fpb 128-bit frames of the conventional RS(31,k) framing: the
    oracle's codeword of k message symbols, packed to bits, zero padded to
    256 bits and tiled."""
    spec = rs.rs_spec(5, len(message))
    bits = loop_symbols_to_bits(oracles.rs_encode(spec, message), 5)
    block = np.zeros(256, dtype=np.uint8)
    block[:bits.size] = bits
    reps = -(-fpb // 2)
    return np.tile(block, reps)[:fpb * 128].reshape(fpb, 128)


@pytest.mark.parametrize("k", harness.DEFAULT_KSWEEP)
@given(seed=st.integers(0, 2**32 - 1), fpb=st.integers(3, 12))
@settings(max_examples=30, deadline=None)
def test_conventional_layout_equals_rs_encode(k, seed, fpb):
    layout = rs.RsFrameLayout(q=5, k=k, k_prime=k, p=5, punctured=0,
                              frame_bits=256)
    msg = [int(v) for v in np.random.default_rng(seed).integers(0, 32, k)]
    got = rs.frame_encode(layout, rs._symbols_to_bits(msg, 5))
    assert np.array_equal(got.reshape(2, 128),
                          scalar_conventional_frames(msg, 2))
    # the k-sweep's full load: all-ones message symbols
    assert np.array_equal(harness._rs_fullload_frames(k, fpb),
                          scalar_conventional_frames([31] * k, fpb))


def test_racing_first_encodes_agree(cold_fec_caches):
    """Burst threads may build the same generator matrix at once; every
    frame must still equal the oracle's encoding."""
    layout = crs.crs_layout(6, 31, 21)
    msgs = np.random.default_rng(3).integers(
        0, 2, (64, layout.message_bits), dtype=np.uint8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda m: crs.crs_encode(layout, m), msgs,
                              timeout=60))
    finally:
        sys.setswitchinterval(old)
    for frame, m in zip(got, msgs):
        assert np.array_equal(frame, oracles.frame_encode(layout, m))


# --- vectorized decode == scalar decode --------------------------------------

def _frame_codec(code, rng):
    """(the frame of a random message, the code's frame decoder, its
    scalar oracle)."""
    if code == "bch":
        return (bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8)),
                bch.bch_decode, scalar_bch_decode)
    if code == "rs2516":
        return (rs.rs2516_frame(rng.integers(0, 32, 16)), rs.rs2516_decode,
                scalar_rs2516_decode)
    layout = _layout(code)
    frame = crs.crs_encode(layout, rng.integers(
        0, 2, layout.message_bits, dtype=np.uint8))
    return (frame, partial(crs.crs_decode, layout),
            partial(scalar_crs_decode, layout))


def _rs_word(seed, k, f, e):
    """(spec, sent message, received word, erasures) of a random RS(31,k)
    codeword with e symbol errors and f erased symbols refilled at random."""
    spec = rs.rs_spec(5, k)
    rng = np.random.default_rng(seed)
    message = [int(v) for v in rng.integers(0, 32, spec.k)]
    word = rs.rs_encode(spec, message)
    pos = rng.choice(spec.n, size=e + f, replace=False)
    for p in pos[:e]:
        word[p] ^= int(rng.integers(1, 32))
    for p in pos[e:]:
        word[p] = int(rng.integers(0, 32))
    return spec, message, word, pos[e:].tolist()


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_rs_decode_matches_scalar(seed, data):
    """f erasures and up to r - f + 2 symbol errors, far past the bound
    2e + f <= r."""
    k = data.draw(st.integers(19, 29))
    f = data.draw(st.integers(0, 31 - k))
    e = data.draw(st.integers(0, 31 - k - f + 2))
    spec, _, word, erasures = _rs_word(seed, k, f, e)
    assert (outcome(rs.rs_decode, spec, word, erasures)
            == outcome(scalar_rs_decode, spec, word, erasures))


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
    assert outcome(rs.rs2516_decode, frame) == outcome(scalar_rs2516_decode,
                                                       frame)


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_crs_decode_matches_scalar(seed, data):
    layout = crs.crs_layout(
        6, 31, data.draw(st.sampled_from(harness.DEFAULT_KSWEEP)))
    e = data.draw(st.integers(0, layout.r // 2 + 3))
    rng = np.random.default_rng(seed)
    frame = crs.crs_encode(
        layout, rng.integers(0, 2, layout.message_bits, dtype=np.uint8))
    widths = [layout.p] * layout.k_prime + [layout.q] * layout.r
    frame = _symbol_errors(rng, frame, widths, e)
    assert (outcome(crs.crs_decode, layout, frame)
            == outcome(scalar_crs_decode, layout, frame))


@given(seed=st.integers(0, 2**32 - 1), e=st.integers(0, 6 + 3))
@settings(max_examples=150, deadline=None)
def test_bch_decode_matches_scalar(seed, e):
    rng = np.random.default_rng(seed)
    frame = bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8))
    frame[rng.choice(127, size=e, replace=False)] ^= 1
    assert outcome(bch.bch_decode, frame) == outcome(scalar_bch_decode, frame)


# --- word syndromes, table-local BM, the clean-frame shortcut ----------------

def _frames(rng, code, errors):
    """(word, field, syndrome count, syndromes of the word) of a random
    frame of `code` with `errors` corrupted bits (BCH) or symbol fields
    (RS); an RS word is built by oracles.frame_word and its syndromes
    come from table_syndromes, a BCH word's are the XOR of the
    rs._syndrome_rows rows of its set bits."""
    if code == "bch":
        spec = bch.bch_spec()
        frame = bch.bch_encode(rng.integers(0, 2, spec.k, dtype=np.uint8))
        frame[rng.choice(spec.n, size=errors, replace=False)] ^= 1
        word, r = frame[:spec.n], 2 * spec.t
        rows = rs._syndrome_rows(spec.field, spec.n, r)[word == 1]
        return (word, spec.field, r,
                np.bitwise_xor.reduce(rows, axis=0, initial=0).tolist())
    if code == "rs2516":
        layout = rs.RS2516
        frame = rs.rs2516_frame([int(v) for v in rng.integers(0, 32, 16)])
        frame = _symbol_errors(rng, frame, [5] * 25, min(errors, 25))
        frame[125:] = rng.integers(0, 2, 3)  # the pad is not part of the word
    else:
        layout = _layout(code)
        frame = crs.crs_encode(
            layout, rng.integers(0, 2, layout.message_bits, dtype=np.uint8))
        widths = [layout.p] * layout.k_prime + [layout.q] * layout.r
        frame = _symbol_errors(rng, frame, widths, min(errors, len(widths)))
    word = oracles.frame_word(layout, frame)
    return word, layout.field, layout.r, table_syndromes(layout.k, word)


@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_parity_check_syndromes_equal_horner(code, seed, errors):
    """The syndrome map, one row times its symbol XORed per word symbol,
    gives Horner's syndromes of the word the loops build."""
    word, fs, count, got = _frames(np.random.default_rng(seed), code, errors)
    assert got == horner_syndromes(fs, word, count)


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_berlekamp_massey_equals_scalar(m, data):
    """The stacked BM gives each row of a stack of 0 to 6 syndrome
    sequences the same locator and LFSR length L as the scalar BM."""
    fs = gf2m.cached_field(m)
    length = data.draw(st.integers(0, 16))
    stack = data.draw(st.lists(st.lists(st.integers(0, fs.order),
                                         min_size=length, max_size=length),
                               max_size=6))
    got = rs._locators(fs, np.array(stack, np.uint8).reshape(len(stack),
                                                              length))
    assert (locator_rows(*got)
            == [list(scalar_berlekamp_massey(fs, synd)) for synd in stack])


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_poly_mul_equals_scalar(m, data):
    """rs._product, one gather of every product, gives the scalar product
    (the zero polynomial [] as the one coefficient 0)."""
    fs = gf2m.cached_field(m)
    p, q = (data.draw(st.lists(st.integers(0, fs.order), max_size=14))
            for _ in range(2))
    got = stacked_product(fs, p, q, max(len(p) + len(q) - 1, 1))
    assert got == poly_mul(fs, p, q)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_rs2516_clean_shortcut_equals_erasure_path(seed):
    """A punctured codeword has zero modified syndromes, so rs2516_decode
    returns before BM; the full erasure path must give the same result."""
    rng = np.random.default_rng(seed)
    frame = rs.rs2516_frame([int(v) for v in rng.integers(0, 32, 16)])
    frame[125:] = rng.integers(0, 2, 3)
    spec = rs.rs_spec(5, 19)
    modified = rs._modified_syndromes(
        spec.field, frame_syndromes(rs.RS2516, frame),
        rs._decoder(rs.RS2516).gamma, spec.r)
    assert not any(modified)
    assert outcome(rs.rs2516_decode, frame) == outcome(scalar_rs2516_decode,
                                                       frame)


def gf2_solve(A, y):
    """Some x with (x @ A) mod 2 == y, by Gauss-Jordan elimination on the
    transposed system; A must have full column rank."""
    M = np.concatenate([A.T, y[:, None]], axis=1).astype(np.uint8)
    pivots = []
    for col in range(A.shape[0]):
        rows = np.flatnonzero(M[len(pivots):, col])
        if rows.size == 0:
            continue
        r = len(pivots) + rows[0]
        M[[len(pivots), r]] = M[[r, len(pivots)]]
        hit = np.flatnonzero(M[:, col])
        hit = hit[hit != len(pivots)]
        M[hit] ^= M[len(pivots)]
        pivots.append(col)
        if len(pivots) == M.shape[0]:
            break
    x = np.zeros(A.shape[0], dtype=np.uint8)
    x[pivots] = M[:len(pivots), -1]
    return x


def rs2516_modified(frame):
    """Coefficients 3..11 of S(x) Gamma(x) for the punctured positions."""
    fs = rs.rs_spec(5, 19).field
    gamma = [1]
    for pos in range(28, 31):
        gamma = poly_mul(fs, gamma, [1, gf2m.pow_alpha(fs, 30 - pos)])
    product = poly_mul(
        fs, horner_syndromes(fs, oracles.frame_word(rs.RS2516, frame), 12),
        gamma)
    return (product + [0] * 12)[3:12]


@given(seed=st.integers(0, 2**32 - 1), at=st.integers(0, 8),
       value=st.integers(1, 31))
@settings(max_examples=60, deadline=None)
def test_rs2516_one_modified_syndrome_takes_the_full_path(seed, at, value):
    """A frame whose modified syndromes are zero but for one symbol must not
    take the clean-frame shortcut."""
    rows = [loop_symbols_to_bits(rs2516_modified(e), 5)
            for e in np.eye(128, dtype=np.uint8)]
    target = [0] * 9
    target[at] = value
    offset = gf2_solve(np.array(rows), loop_symbols_to_bits(target, 5))
    rng = np.random.default_rng(seed)
    frame = rs.rs2516_frame([int(v) for v in rng.integers(0, 32, 16)])
    frame ^= offset
    assert rs2516_modified(frame) == target
    assert outcome(rs.rs2516_decode, frame) == outcome(scalar_rs2516_decode,
                                                       frame)


@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_float32_generator_product_equals_uint8(code, seed):
    matrix, _, k_bits = _encoders(code)
    bits = np.random.default_rng(seed).integers(0, 2, k_bits, dtype=np.uint8)
    frame = matrix(bits)
    G = _generator(code)
    assert G.dtype == np.float32
    assert np.array_equal(frame, (bits @ G.astype(np.uint8)) & 1)


@pytest.mark.parametrize("code", CODES)
def test_cached_matrices_are_read_only(code):
    """Every caller of a code shares its one cached G, so none may write
    to it."""
    G = _generator(code)
    assert G is _generator(code) and not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 1


DECODE_TABLES = (gf2m.mul_table, gf2m.inverses, rs._decoder, rs._power_table,
                 rs._syndrome_rows, rs._parity_table, rs._generator_poly,
                 bch._decoder)


def test_schemes_build_no_decode_table(cold_fec_caches):
    """The decoders' tables, and the parity tables the encoders are built
    from, are built on first use, not when a run builds its scheme; the
    first stacked pass of a scheme's decode builds its decoder's."""
    schemes = [harness.get_scheme(name) for name in ["none"] + CODES]
    assert all(t.cache_info().currsize == 0 for t in DECODE_TABLES)
    for scheme in schemes[:3]:  # none, bch, rs2516
        scheme.decode(np.zeros((1, 128), dtype=np.uint8))
    assert bch._decoder.cache_info().currsize == 1
    assert rs._decoder.cache_info().currsize == 1


# what the three decoders' first decode of a frame may keep, its cached
# tables: BCH 201, rs2516 240 and crs31_19 196 KiB measured (tracemalloc,
# Python 3.11, numpy 2.4); BCH kept 1,085 KiB with the GF(128) table
COLD_BUILD_KIB = 320
# the same for a frame with three bit errors, whose decode also builds the
# Chien and Forney tables: rs2516 267 and crs31_19 234 KiB measured, and
# 311 and 278 KiB with the packed (position, magnitude) syndrome table;
# BCH, which also builds GF(128)'s product rows and inverses, 500 KiB
# measured, and 768 KiB with the Chien tables of degree 12, not t = 6.
# With the numpy power tables of the stacked Chien search, measured as
# the test does: bch 180, rs2516 100 and crs31_19 64 KiB (218, 124 and 89
# with the packed evaluation tables)
COLD_CORRECTION_KIB = {"bch": 560, "rs2516": 272, "crs31_19": 272}
FRAME_DECODERS = {
    "bch": bch.bch_decode,
    "rs2516": rs.rs2516_decode,
    "crs31_19": lambda f: crs.crs_decode(crs.crs_layout(6, 31, 19), f),
}


def _cold_decode_bytes(code, frame):
    """What the first decode of frame keeps, all FEC caches cleared."""
    clear_fec_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        FRAME_DECODERS[code](frame)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("code", FRAME_DECODERS)
def test_cold_decoder_build_retains_bounded_memory(code):
    """The first decode builds the decoder's tables at the size it reads
    them: BCH packs only its unit syndrome rows, not the (position,
    magnitude) table of GF(128)."""
    frame = np.zeros(128, dtype=np.uint8)
    assert _cold_decode_bytes(code, frame) <= COLD_BUILD_KIB * 1024


@pytest.mark.parametrize("code", FRAME_DECODERS)
def test_cold_correction_retains_bounded_memory(code):
    """A first decode that corrects builds no syndrome table beside the
    unit rows: the decoder accepts its corrections by BM's length test,
    and BCH's Chien search reads tables of degree t."""
    frame = np.zeros(128, dtype=np.uint8)
    frame[[3, 50, 90]] = 1
    assert _cold_decode_bytes(code, frame) <= COLD_CORRECTION_KIB[code] * 1024


# a frame entry that is not a bit, by dtype: a uint8 frame is checked by
# bytes.translate, any other (bool is always bits) through _checked_message
NON_BITS = {
    "uint8": st.integers(2, 255),
    "int64": st.one_of(st.integers(-2**63, -1), st.integers(2, 2**63 - 1)),
    "float64": st.floats(-1e6, 1e6).filter(lambda x: x not in (0.0, 1.0)),
}


@pytest.mark.parametrize("code", FRAME_DECODERS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_frame_decoders_reject_entries_that_are_not_bits(code, data):
    """np.packbits reads any nonzero entry as 1 and the message is copied
    from the frame as is, so a frame entry outside {0, 1} would decode to
    output outside the alphabet; every frame decoder refuses it with a
    ConstraintViolation that names its index."""
    dtype = data.draw(st.sampled_from(sorted(NON_BITS)))
    frame = np.zeros(128, dtype=dtype)
    at = data.draw(st.integers(0, 127))
    frame[at] = data.draw(NON_BITS[dtype])
    with pytest.raises(rs.ConstraintViolation,
                       match=f"frame bit .* at index {at} outside 0..1"):
        FRAME_DECODERS[code](frame)


FRAME_SHAPES = [(1, 128), (128, 1), (2, 64), (8, 16), (4, 4, 8),
                (2, 2, 2, 16)]


@pytest.mark.parametrize("code", FRAME_DECODERS)
@given(seed=st.integers(0, 2**32 - 1), flips=st.integers(0, 6),
       shape=st.sampled_from(FRAME_SHAPES),
       dtype=st.sampled_from([np.uint8, np.int64, bool]),
       fortran=st.booleans())
@settings(max_examples=60, deadline=None)
def test_frame_decoders_decode_the_flattened_frame(code, seed, flips, shape,
                                                   dtype, fortran):
    """A frame of any shape with 128 entries, of any dtype and memory
    order, decodes as its flattened entries."""
    rng = np.random.default_rng(seed)
    frame, _, _ = _frame_codec(code, rng)
    frame[rng.choice(128, size=flips, replace=False)] ^= 1
    shaped = frame.astype(dtype).reshape(shape)
    if fortran:
        shaped = np.asfortranarray(shaped)
    assert (outcome(FRAME_DECODERS[code], shaped)
            == outcome(FRAME_DECODERS[code], shaped.ravel()))


@pytest.mark.parametrize("code", FRAME_DECODERS)
def test_frame_decoders_take_bits_of_any_dtype(code):
    """A frame of bits decodes the same as bool, uint8, int64 or float64."""
    frame = np.zeros(128, dtype=np.uint8)
    frame[[3, 50]] = 1  # two bit errors in the zero codeword
    want = outcome(FRAME_DECODERS[code], frame)
    for dtype in (bool, np.int64, np.float64):
        assert outcome(FRAME_DECODERS[code], frame.astype(dtype)) == want


def test_racing_first_decodes_agree(cold_fec_caches):
    """Burst threads may build the same syndrome tables at once; every
    decode must still equal the scalar one."""
    layout = crs.crs_layout(6, 31, 21)
    rng = np.random.default_rng(5)
    widths = [layout.p] * layout.k_prime + [layout.q] * layout.r
    frames = [_symbol_errors(rng, crs.crs_encode(layout, m), widths,
                             int(rng.integers(0, 8)))
              for m in rng.integers(0, 2, (64, layout.message_bits),
                                    dtype=np.uint8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda f: outcome(crs.crs_decode, layout, f),
                              frames, timeout=60))
    finally:
        sys.setswitchinterval(old)
    for out, frame in zip(got, frames):
        assert out == outcome(scalar_crs_decode, layout, frame)


@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12))
@settings(max_examples=10, deadline=None)
def test_stacked_products_on_cold_cache_equal_per_row(code, seed, rows):
    """A (rows, n) stack as the first product of a code, through a G built
    from the code rather than from the stack's shape, gives each row's own
    result."""
    matrix, algebraic, k_bits = _encoders(code)
    bits = np.random.default_rng(seed).integers(0, 2, (rows, k_bits),
                                                dtype=np.uint8)
    clear_fec_caches()
    frames = matrix(bits)
    assert np.array_equal(frames, np.stack([algebraic(b) for b in bits]))


# --- byte-table syndromes, packed evaluation, acceptance test ---------------

@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_byte_table_syndromes_equal_parity_check(code, seed, errors):
    """One table entry per frame byte gives the syndromes of the frame's
    word and, for a punctured layout, the modified syndromes of its erasure
    locator, as written out by Horner and scalar products."""
    rng = np.random.default_rng(seed)
    if code == "bch":
        frame = bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8))
        frame ^= (rng.random(128) < errors / 128).astype(np.uint8)
        got = rs._frame_syndromes(bch._decoder(), frame[None])
        assert got.tolist() == [bch_syndromes(frame[:127])]
        return
    layout = _layout(code)
    frame = rs.frame_encode(layout, rng.integers(
        0, 2, layout.message_bits, dtype=np.uint8))
    frame ^= (rng.random(frame.size) < errors / 128).astype(np.uint8)
    want = frame_syndromes(layout, frame)
    if layout.punctured:
        want += rs2516_modified(frame)
    got = rs._frame_syndromes(rs._decoder(layout), frame[None])
    assert got.tolist() == [want]


# stacks of no frame, one frame and many
STACK_SIZES = st.one_of(st.just(0), st.just(1), st.integers(2, 12))


@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1), size=STACK_SIZES)
@settings(max_examples=15, deadline=None)
def test_stacked_pass_equals_scalar_oracles(code, seed, size):
    """rs._frame_rows over a stack of frames with 0-40 random bit flips
    each gives every frame the syndromes and modified syndromes that Horner
    and scalar products give it alone, and the row, its fixes or failure
    reason, that the scalar BM and oracles.corrections give it; the row
    equals the frame's one-row pass, and its frame decoder given that row
    gives its scalar oracle's message, corrected count, constraint flag or
    failure reason."""
    rng = np.random.default_rng(seed)
    codecs = [_frame_codec(code, rng) for _ in range(size)]
    frames = np.zeros((size, 128), np.uint8)
    for frame, (sent, _, _) in zip(frames, codecs):
        frame[:] = sent
        frame[rng.choice(128, int(rng.integers(0, 41)), replace=False)] ^= 1
    if code == "bch":
        decoder, fs = bch._decoder(), bch.bch_spec().field
        synd = [bch_syndromes(frame[:127]) for frame in frames]
    else:
        layout = _layout(code)
        decoder, fs = rs._decoder(layout), layout.field
        synd = [frame_syndromes(layout, frame) for frame in frames]
    values = synd
    modified = synd
    if code == "rs2516":  # the one punctured layout
        modified = [rs2516_modified(frame) for frame in frames]
        values = [s + m for s, m in zip(synd, modified)]
    assert rs._frame_syndromes(decoder, frames).tolist() == values
    rows = rs._frame_rows(decoder, frames)
    assert rows == [oracle_row(fs, decoder.n, s, m, decoder.gamma,
                               decoder.binary) if any(m) else {}
                    for s, m in zip(synd, modified)]
    for frame, row, (_, decode, oracle) in zip(frames, rows, codecs):
        assert rs._frame_rows(decoder, frame[None]) == [row]
        assert (outcome(partial(decode, row=row), frame)
                == outcome(decode, frame) == outcome(oracle, frame))


@given(seed=st.integers(0, 2**32 - 1), size=STACK_SIZES,
       k=st.integers(19, 29), data=st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_pass_of_erased_words_equals_scalar(seed, size, k, data):
    """rs_decode's pass, the modified syndromes of one erasure locator and
    the stacked BM, on a stack of RS(31,k) words with 0-31 symbol errors
    and f erasures: each word's modified syndromes, locator and L are the
    scalar products' and the scalar BM's."""
    f = data.draw(st.integers(0, 31 - k))
    spec, fs = rs.rs_spec(5, k), gf2m.cached_field(5)
    rng = np.random.default_rng(seed)
    erasures = rng.choice(31, f, replace=False).tolist()
    words = []
    for _ in range(size):
        word = rs.rs_encode(spec, rng.integers(0, 32, k).tolist())
        for pos in rng.choice(31, int(rng.integers(0, 32)), replace=False):
            word[pos] ^= int(rng.integers(1, 32))
        words.append(word)
    gamma = rs._erasure_locator(fs, 31, erasures)
    synd = [scalar_syndromes(spec, word) for word in words]
    want = []
    for s in synd:
        product = poly_mul(fs, s, gamma) + [0] * spec.r
        want.append(product[f:spec.r])
    modified = rs._modified_syndromes(
        fs, np.array(synd, np.uint8).reshape(size, spec.r), gamma, spec.r)
    assert modified.tolist() == want
    assert (locator_rows(*rs._locators(fs, modified))
            == [list(scalar_berlekamp_massey(fs, m)) for m in want])
    synd = np.array(synd, np.uint8).reshape(size, spec.r)
    assert (rs._outcomes(fs, 31, synd, modified, gamma)
            == [oracle_row(fs, 31, s, m, gamma) for s, m in zip(synd, want)])


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_poly_mul_equals_scalar_prefix(m, data):
    fs = gf2m.cached_field(m)
    p, q = (data.draw(st.lists(st.integers(0, fs.order), max_size=14))
            for _ in range(2))
    limit = data.draw(st.integers(0, 30))
    want = poly_trim(poly_mul(fs, p, q)[:limit])
    assert stacked_product(fs, p, q, limit) == want


@given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_binary_berlekamp_massey_equals_scalar(seed, errors):
    """On the syndromes of a binary word, skipping every second step (whose
    discrepancy is zero) gives the full scalar BM's locator and L."""
    word = np.zeros(127, dtype=np.uint8)
    word[np.random.default_rng(seed).choice(127, errors, replace=False)] = 1
    synd = bch_syndromes(word)
    fs = bch.bch_spec().field
    assert (locator_rows(*rs._locators(fs, [synd], binary=True))
            == [list(scalar_berlekamp_massey(fs, synd))])


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_packed_chien_equals_poly_eval_many(m, data):
    """The oracle's packed evaluate gives the polynomial at every
    position's inverse locator, and roots its zeros, as the log-domain
    evaluator finds them."""
    fs = gf2m.cached_field(m)
    n = fs.order
    degree = data.draw(st.integers(0, 12))
    p = data.draw(st.lists(st.integers(0, fs.order), max_size=degree + 1))
    xinv = fs.exp_table[(np.arange(n) + 1 - n) % fs.order]
    want = poly_eval_many(fs, p, xinv)
    got = oracles.evaluate(oracles.evaluation_tables(fs, n, degree), p, n)
    assert list(got) == want.tolist()
    assert oracles.roots(got) == np.flatnonzero(want == 0).tolist()


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_stacked_chien_equals_poly_eval_many(m, data):
    """_values gives each polynomial of a stack at every position's inverse
    locator, through the _power_table, as the log-domain evaluator finds
    it."""
    fs = gf2m.cached_field(m)
    n = fs.order
    degree = data.draw(st.integers(0, 12))
    width = data.draw(st.integers(0, degree + 1))
    polys = data.draw(st.lists(st.lists(st.integers(0, fs.order),
                                        min_size=width, max_size=width),
                               max_size=4))
    xinv = fs.exp_table[(np.arange(n) + 1 - n) % fs.order]
    got = rs._values(rs._power_table(fs, n, degree),
                     np.array(polys, np.uint8).reshape(len(polys), width))
    assert got.tolist() == [poly_eval_many(fs, p, xinv).tolist()
                            for p in polys]


@given(seed=st.integers(0, 2**32 - 1), fixes=st.integers(0, 12),
       k=st.sampled_from(harness.DEFAULT_KSWEEP))
@settings(max_examples=100, deadline=None)
def test_correction_residual_equals_word_syndromes(seed, fixes, k):
    """The frame tables of rs_spec(5, k) give a word Horner's syndromes
    and are linear: a word's syndromes plus those of an error word are the
    syndromes of the corrected word."""
    spec = rs.rs_spec(5, k)
    fs, n, r = spec.field, spec.n, spec.r
    rng = np.random.default_rng(seed)
    word = [int(v) for v in rng.integers(0, 32, n)]
    error = [0] * n
    for pos in rng.choice(n, size=fixes, replace=False):
        error[pos] = int(rng.integers(1, 32))
    corrected = [w ^ v for w, v in zip(word, error)]
    synd = table_syndromes(k, word)
    assert synd == horner_syndromes(fs, word, r)
    assert ([a ^ b for a, b in zip(synd, table_syndromes(k, error))]
            == horner_syndromes(fs, corrected, r))


@pytest.mark.parametrize("code", ["bch", "rs2516"])
def test_syndrome_rows_equal_unit_word_syndromes(code):
    """Row pos of rs._syndrome_rows, the one syndrome map, holds Horner's
    syndromes of the word whose one nonzero symbol is 1 at pos; it is
    read-only uint8, one byte per syndrome."""
    spec = bch.bch_spec() if code == "bch" else rs.RS2516
    fs, n, r = spec.field, spec.n, 12  # BCH's 2t, RS(31,19)'s r
    rows = rs._syndrome_rows(fs, n, r)
    assert rows.shape == (n, r) and rows.dtype == np.uint8
    assert not rows.flags.writeable
    for pos in range(n):
        word = [0] * n
        word[pos] = 1
        assert rows[pos].tolist() == horner_syndromes(fs, word, r)


FRAME_CODES = ["bch", "rs2516"] + [f"crs31_{k}" for k in range(19, 30)]


@pytest.mark.parametrize("code", FRAME_CODES)
@given(seed=st.integers(0, 2**32 - 1), flips=st.integers(0, 24))
@settings(max_examples=40, deadline=None)
def test_frame_decoders_equal_scalar_past_the_radius(code, seed, flips):
    """Random bit flips anywhere in the frame, up to far past each code's
    radius: every frame decoder gives its scalar oracle's message,
    corrected count (and constraint flag) or failure reason."""
    rng = np.random.default_rng(seed)
    frame, decode, oracle = _frame_codec(code, rng)
    frame[rng.choice(frame.size, size=flips, replace=False)] ^= 1
    assert outcome(decode, frame) == outcome(oracle, frame)


RESIDUAL = ("DecodeFailure", "residual syndromes after correction")
# (frames, most bit flips) of each code; rs_decode's RS(31,k) words carry
# f >= 1 erasures and up to r - f + 3 errors
HEAVY_FRAMES = {"bch": (300, 29), "rs2516": (300, 39),
                "crs31_27": (800, 39), "crs31_29": (800, 39)}
HEAVY_WORDS = 2400
# the fewest residual failures among them (21, 17 and 15 on this seed)
HEAVY_RESIDUAL = {"crs31_27": 15, "crs31_29": 12, "rs_decode": 10}


def test_heavy_error_sweep_equals_scalar():
    """The decoders accept corrections by BM's length test, the scalar
    oracles by the syndromes of the corrected word: on inputs far past
    the radius both give the same outcome, residual failures included."""
    rng = np.random.default_rng(2029)
    residual = Counter()
    for code, (count, most) in HEAVY_FRAMES.items():
        for _ in range(count):
            frame, decode, oracle = _frame_codec(code, rng)
            flips = int(rng.integers(2, most + 1))
            frame[rng.choice(frame.size, size=flips, replace=False)] ^= 1
            got = outcome(decode, frame)
            assert got == outcome(oracle, frame)
            residual[code] += got == RESIDUAL
    for _ in range(HEAVY_WORDS):
        k = int(rng.integers(19, 30))
        f = int(rng.integers(1, 32 - k))
        e = int(rng.integers(0, 31 - k - f + 4))
        spec, _, word, erasures = _rs_word(int(rng.integers(2**32)), k, f, e)
        got = outcome(rs.rs_decode, spec, word, erasures)
        assert got == outcome(scalar_rs_decode, spec, word, erasures)
        residual["rs_decode"] += got == RESIDUAL
    assert all(residual[name] >= least
               for name, least in HEAVY_RESIDUAL.items()), residual


def test_bch_byte_table_bit_images_equal_parity_check_rows():
    """The byte tables' image of each frame bit alone is the syndromes of
    the unit word, a row of the code's parity-check matrix."""
    tables = bch._decoder().tables
    assert tables.shape == (16, 256, 12) and tables.dtype == np.uint8
    for i, unit in enumerate(np.eye(127, dtype=np.uint8)):
        got = tables[i >> 3, 0x80 >> (i & 7)]
        assert got.tolist() == bch_syndromes(unit)


# frames of the hypothesis tests' constructions, (seed, errors), found by a
# seeded search; each fails (or miscorrects) where random draws seldom go
BCH_RARE = {
    "error locator exceeds capability": [(33, 7), (245, 7), (127, 8),
                                         (153, 8)],
    "locator degree does not match root count": [(0, 7), (1, 7)],
    None: [(546, 7), (1701, 8), (185, 9)],  # decoded to another codeword
}
RS2516_RARE = {
    "locator degree does not match root count": [(1, 5), (18, 5), (20, 6),
                                                 (48, 6)],
    "residual syndromes after correction": [(408, 5), (793, 6)],
    "shortened prefix decoded nonzero": [(2059, 7)],
    None: [(712, 6), (2647, 7)],
}


# RS(31,k) words of test_rs_decode_matches_scalar's construction,
# (seed, k, f, e), one reason of rs_decode each.  "more erasures than
# parity symbols" is out of the construction's reach (f <= r)
RS_DECODE_RARE = {
    "error locator exceeds capability": [(4, 19, 0, 7), (32, 21, 0, 6),
                                         (0, 19, 1, 6)],
    "locator degree does not match root count": [(0, 19, 0, 7),
                                                 (0, 25, 0, 4),
                                                 (38, 23, 1, 4)],
    "residual syndromes after correction": [(105, 19, 5, 4), (32, 21, 4, 4),
                                            (57, 23, 0, 7), (22, 29, 0, 2)],
    None: [(10, 19, 2, 6), (6, 21, 2, 5), (2, 23, 0, 5), (0, 29, 0, 2)],
}


@pytest.mark.parametrize("message,seed,k,f,e", [
    (msg, *case) for msg, cases in RS_DECODE_RARE.items() for case in cases])
def test_rs_decode_rare_outcomes_match_scalar(message, seed, k, f, e):
    spec, sent, word, erasures = _rs_word(seed, k, f, e)
    got = outcome(rs.rs_decode, spec, word, erasures)
    assert got == outcome(scalar_rs_decode, spec, word, erasures)
    if message:
        assert got == ("DecodeFailure", message)
    else:  # decoded to another codeword
        assert got[0] != "DecodeFailure" and got[0] != sent


@pytest.mark.parametrize("message,seed,e", [
    (msg, seed, e) for msg, cases in BCH_RARE.items() for seed, e in cases])
def test_bch_rare_outcomes_match_scalar(message, seed, e):
    rng = np.random.default_rng(seed)
    frame = bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8))
    frame[rng.choice(127, size=e, replace=False)] ^= 1
    got = outcome(bch.bch_decode, frame)
    assert got == outcome(scalar_bch_decode, frame)
    if message:
        assert got == ("DecodeFailure", message)
    else:
        assert got[0] != "DecodeFailure"


@pytest.mark.parametrize("message,seed,e", [
    (msg, seed, e) for msg, cases in RS2516_RARE.items()
    for seed, e in cases])
def test_rs2516_rare_outcomes_match_scalar(message, seed, e):
    rng = np.random.default_rng(seed)
    frame = rs.rs2516_frame([int(v) for v in rng.integers(0, 32, 16)])
    frame = _symbol_errors(rng, frame, [5] * 25, e)
    got = outcome(rs.rs2516_decode, frame)
    assert got == outcome(scalar_rs2516_decode, frame)
    if message:
        assert got == ("DecodeFailure", message)
    else:
        assert got[0] != "DecodeFailure"
