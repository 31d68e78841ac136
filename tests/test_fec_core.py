"""The GF(2)-linear codec core against the scalar algorithms it replaced.

The encoders multiply message bits by a binary generator matrix G, cached
per code, read-only and in float32 through BLAS.  The frame decoders take
their syndromes (and, for a punctured RS layout, the modified syndromes of
its fixed erasure locator) as one lookup per frame byte in XOR tables built
from the syndromes of each unit frame, and skip BM when the erasures alone
explain the syndromes.  Berlekamp-Massey and poly_mul use the field's
multiplication table; the Chien search and Forney evaluate each
polynomial at every position at once from packed per-coefficient tables;
the RS residual check compares the syndromes of the error word the
corrections make with those of the frame.  The references below are the
original per-point loops: Horner evaluation, syndromes one power of alpha
at a time, products and BM one gf2m.mul per term, the log-domain evaluator
poly_eval_many, the Chien search one position at a time, the per-bit
symbol packing, the modified syndromes through poly_mul, the frame
decoders that built the whole word and ran the full erasure path, and the
conventional RS(31,k) framing of the k-sweep through rs_encode.
scalar_poly_eval (Horner, one gf2m.mul per step) is also the polynomial
evaluator of test_rs and test_bch.
Decoders are compared on whole outcomes (message, corrected count,
constraint flag, or the DecodeFailure raised), past the correction radius
on purpose, since the failure path is most of what a faded RS(25,16) link
decodes.
"""
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _layout(code):
    return (rs.RS2516 if code == "rs2516"
            else crs.crs_layout(6, 31, int(code.split("_")[1])))


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
    """Horner evaluation with one gf2m.mul per step."""
    acc = 0
    for c in reversed(p):
        acc = gf2m.mul(fs, acc, x) ^ c
    return acc


def poly_add(p, q):
    """Trimmed coefficient-wise sum of two polynomials."""
    return gf2m.poly_trim([a ^ b for a, b in zip_longest(p, q, fillvalue=0)])


def horner_syndromes(fs, received, count):
    rec_poly = [int(c) for c in reversed(received)]
    return [scalar_poly_eval(fs, rec_poly, gf2m.pow_alpha(fs, j))
            for j in range(1, count + 1)]


def bch_syndromes(word):
    """S_1..S_2t of a 127-bit word by Horner."""
    return horner_syndromes(bch.bch_spec().field, word, 12)


def frame_syndromes(layout, frame):
    """The r syndromes of an RS layout's frame by Horner on its word."""
    word = (rs2516_word(frame) if layout == rs.RS2516
            else crs_word(layout, frame))
    return horner_syndromes(layout.spec.field, word, layout.r)


def scalar_syndromes(spec, received):
    return horner_syndromes(spec.field, received, spec.r)


def scalar_poly_mul(fs, p, q):
    """gf2m.poly_mul with one gf2m.mul call per term."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] ^= gf2m.mul(fs, a, b)
    return gf2m.poly_trim(out)


def scalar_berlekamp_massey(fs, syndromes):
    """rs._berlekamp_massey with one gf2m.mul call per term and a trimmed
    poly_add per update."""
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b = 1
    for i, s in enumerate(syndromes):
        d = s
        for j in range(1, L + 1):
            if j < len(C):
                d ^= gf2m.mul(fs, C[j], syndromes[i - j])
        if d == 0:
            shift += 1
            continue
        coef = gf2m.mul(fs, d, gf2m.inv(fs, b))
        T = list(C)
        adj = [0] * shift + [gf2m.mul(fs, coef, c) for c in B]
        C = poly_add(C, adj)
        if 2 * L <= i:
            L = i + 1 - L
            B = T
            b = d
            shift = 1
        else:
            shift += 1
    return C


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
        gamma = scalar_poly_mul(fs, gamma,
                                [1, gf2m.pow_alpha(fs, n - 1 - pos)])
    f = len(erasures)
    product = scalar_poly_mul(fs, synd, gamma)
    product += [0] * (r - len(product))
    lam = scalar_berlekamp_massey(fs, product[f:r])
    if gf2m.poly_deg(lam) > (r - f) // 2:
        raise rs.DecodeFailure("error locator exceeds capability")
    psi = scalar_poly_mul(fs, lam, gamma)
    if not psi:
        raise rs.DecodeFailure("degenerate locator")
    roots_pos, roots_x = [], []
    for pos in range(n):
        x = gf2m.pow_alpha(fs, n - 1 - pos)
        if scalar_poly_eval(fs, psi, gf2m.inv(fs, x)) == 0:
            roots_pos.append(pos)
            roots_x.append(x)
    if len(roots_pos) != gf2m.poly_deg(psi):
        raise rs.DecodeFailure("locator degree does not match root count")
    omega = scalar_poly_mul(fs, synd, psi)[:r]
    psi_prime = [c if i % 2 == 0 else 0 for i, c in enumerate(psi[1:])]
    touched = []
    for pos, x in zip(roots_pos, roots_x):
        xi = gf2m.inv(fs, x)
        denom = scalar_poly_eval(fs, psi_prime, xi)
        if denom == 0:
            raise rs.DecodeFailure("Forney denominator vanished")
        mag = gf2m.div(fs, scalar_poly_eval(fs, omega, xi), denom)
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


def rs2516_word(frame):
    return [0] * 3 + loop_bits_to_symbols(frame[:125], 5) + [0] * 3


def scalar_rs2516_decode(frame):
    """rs.rs2516_decode through the whole word and the full erasure path."""
    frame = np.asarray(frame, dtype=np.uint8)
    spec = rs.rs_spec(5, 19)
    decoded, positions = scalar_correct_word(spec, rs2516_word(frame),
                                             range(28, 31))
    if any(decoded[:3]):
        raise rs.DecodeFailure("shortened prefix decoded nonzero")
    return decoded[3:19], sum(1 for p in positions if p < 28)


def crs_word(layout, frame):
    nm = layout.message_bits
    return ([0] * (layout.k - layout.k_prime)
            + loop_bits_to_symbols(frame[:nm], layout.p)
            + loop_bits_to_symbols(frame[nm:nm + layout.r * layout.q],
                                   layout.q))


def scalar_crs_decode(layout, frame):
    """crs.crs_decode through the whole word and scalar_correct_word."""
    frame = np.asarray(frame, dtype=np.uint8)
    spec = rs.rs_spec(layout.q, layout.k)
    decoded, positions = scalar_correct_word(spec, crs_word(layout, frame))
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
    lam = scalar_berlekamp_massey(fs, synd)
    nerr = gf2m.poly_deg(lam)
    if nerr > spec.t:
        raise rs.DecodeFailure("error locator exceeds capability")
    flips = [pos for pos in range(spec.n)
             if scalar_poly_eval(fs, lam, gf2m.inv(
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
    """(public matrix encoder on bits, algebraic builder on bits, k bits)."""
    if code == "bch":
        return bch.bch_encode, bch._bch_encode_algebraic, bch.bch_spec().k
    if code == "rs2516":
        return (lambda b: rs.rs2516_frame(rs._bits_to_symbols(b, 5)),
                lambda b: rs._frame_algebraic(rs.RS2516, b), 80)
    layout = _layout(code)
    return (lambda b: crs.crs_encode(layout, b),
            lambda b: rs._frame_algebraic(layout, b),
            layout.message_bits)


@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matrix_encode_equals_algebraic(code, seed):
    matrix, algebraic, k_bits = _encoders(code)
    bits = np.random.default_rng(seed).integers(0, 2, k_bits, dtype=np.uint8)
    assert np.array_equal(matrix(bits), algebraic(bits))


def scalar_conventional_frames(message, fpb):
    """fpb 128-bit frames of the conventional RS(31,k) framing: the
    rs_encode codeword of k message symbols, packed to bits, zero padded
    to 256 bits and tiled."""
    spec = rs.rs_spec(5, len(message))
    bits = rs._symbols_to_bits(rs.rs_encode(spec, message), 5)
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
    frame must still equal the algebraic encoding."""
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
        assert np.array_equal(frame, rs._frame_algebraic(layout, m))


# --- vectorized decode == scalar decode --------------------------------------

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
    """(word, field, syndrome count, rs._syndromes of rs._frame_word) of a
    random frame of `code` with `errors` corrupted bits (BCH) or symbol
    fields (RS); the word is built by the loops above."""
    if code == "bch":
        spec = bch.bch_spec()
        frame = bch.bch_encode(rng.integers(0, 2, spec.k, dtype=np.uint8))
        frame[rng.choice(spec.n, size=errors, replace=False)] ^= 1
        word = frame[:spec.n]
        return (word, spec.field, 2 * spec.t,
                rs._syndromes(spec.field, word, 2 * spec.t))
    if code == "rs2516":
        layout = rs.RS2516
        frame = rs.rs2516_frame([int(v) for v in rng.integers(0, 32, 16)])
        frame = _symbol_errors(rng, frame, [5] * 25, min(errors, 25))
        frame[125:] = rng.integers(0, 2, 3)  # the pad is not part of the word
        word = rs2516_word(frame)
    else:
        layout = _layout(code)
        frame = crs.crs_encode(
            layout, rng.integers(0, 2, layout.message_bits, dtype=np.uint8))
        widths = [layout.p] * layout.k_prime + [layout.q] * layout.r
        frame = _symbol_errors(rng, frame, widths, min(errors, len(widths)))
        word = crs_word(layout, frame)
    fs = layout.spec.field
    return (word, fs, layout.r,
            rs._syndromes(fs, rs._frame_word(layout, frame), layout.r))


@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_parity_check_syndromes_equal_horner(code, seed, errors):
    """rs._syndromes of rs._frame_word, from which the byte tables are
    built, equal Horner's syndromes of the word the loops build."""
    word, fs, count, got = _frames(np.random.default_rng(seed), code, errors)
    assert got == horner_syndromes(fs, word, count)


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_berlekamp_massey_equals_scalar(m, data):
    fs = gf2m.cached_field(m)
    synd = data.draw(st.lists(st.integers(0, fs.order), max_size=16))
    assert rs._berlekamp_massey(fs, synd) == scalar_berlekamp_massey(fs, synd)


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_poly_mul_equals_scalar(m, data):
    fs = gf2m.cached_field(m)
    p, q = (data.draw(st.lists(st.integers(0, fs.order), max_size=14))
            for _ in range(2))
    assert gf2m.poly_mul(fs, p, q) == scalar_poly_mul(fs, p, q)


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
        gamma = scalar_poly_mul(fs, gamma, [1, gf2m.pow_alpha(fs, 30 - pos)])
    product = scalar_poly_mul(
        fs, horner_syndromes(fs, rs2516_word(frame), 12), gamma)
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


DECODE_TABLES = (gf2m.mul_table, gf2m.mul_rows, gf2m.inverses, rs._decoder,
                 rs._evaluation_tables, rs._residual_tables, bch._decoder)


def test_schemes_build_no_decode_table(cold_fec_caches):
    """The decoders' tables are built on the first decode, not when a run
    builds its scheme."""
    for name in ["none"] + CODES:
        harness.get_scheme(name)
    assert all(t.cache_info().currsize == 0 for t in DECODE_TABLES)
    bch.bch_decode(np.zeros(128, dtype=np.uint8))
    rs.rs2516_decode(np.zeros(128, dtype=np.uint8))
    assert bch._decoder.cache_info().currsize == 1
    assert rs._decoder.cache_info().currsize == 1


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


# --- byte-table syndromes, packed evaluation, correction residuals -----------

@pytest.mark.parametrize("code", CODES)
@given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_byte_table_syndromes_equal_parity_check(code, seed, errors):
    """One lookup per frame byte gives the syndromes of the frame's word
    and, for a punctured layout, the modified syndromes of its erasure
    locator."""
    rng = np.random.default_rng(seed)
    if code == "bch":
        frame = bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8))
        frame ^= (rng.random(128) < errors / 128).astype(np.uint8)
        got = rs._lookup(bch._decoder().tables, frame)
        assert rs._unpack(got, 12) == bytes(bch_syndromes(frame[:127]))
        return
    layout = _layout(code)
    frame = rs.frame_encode(layout, rng.integers(
        0, 2, layout.message_bits, dtype=np.uint8))
    frame ^= (rng.random(frame.size) < errors / 128).astype(np.uint8)
    synd = frame_syndromes(layout, frame)
    want = synd
    if layout.punctured:
        want = synd + rs._modified_syndromes(
            layout.spec.field, synd, rs._decoder(layout).gamma, layout.r)
    got = rs._lookup(rs._decoder(layout).tables, frame)
    assert rs._unpack(got, len(want)) == bytes(want)


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_poly_mul_equals_scalar_prefix(m, data):
    fs = gf2m.cached_field(m)
    p, q = (data.draw(st.lists(st.integers(0, fs.order), max_size=14))
            for _ in range(2))
    limit = data.draw(st.integers(0, 30))
    want = gf2m.poly_trim(scalar_poly_mul(fs, p, q)[:limit])
    assert gf2m.poly_mul(fs, p, q, limit) == want


@given(seed=st.integers(0, 2**32 - 1), errors=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_binary_berlekamp_massey_equals_scalar(seed, errors):
    """On the syndromes of a binary word, skipping every second step (whose
    discrepancy is zero) gives the full scalar BM's locator."""
    word = np.zeros(127, dtype=np.uint8)
    word[np.random.default_rng(seed).choice(127, errors, replace=False)] = 1
    synd = bch_syndromes(word)
    fs = bch.bch_spec().field
    assert (rs._berlekamp_massey(fs, synd, binary=True)
            == scalar_berlekamp_massey(fs, synd))


@pytest.mark.parametrize("m", [5, 7])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_packed_chien_equals_poly_eval_many(m, data):
    """_evaluate gives the polynomial at every position's inverse locator,
    and _roots its zeros, as the log-domain evaluator finds them."""
    fs = gf2m.cached_field(m)
    n = fs.order
    degree = data.draw(st.integers(0, 12))
    p = data.draw(st.lists(st.integers(0, fs.order), max_size=degree + 1))
    xinv = fs.exp_table[(np.arange(n) + 1 - n) % fs.order]
    want = poly_eval_many(fs, p, xinv)
    got = rs._evaluate(rs._evaluation_tables(fs, n, degree), p, n)
    assert list(got) == want.tolist()
    assert rs._roots(got) == np.flatnonzero(want == 0).tolist()


@given(seed=st.integers(0, 2**32 - 1), fixes=st.integers(0, 12),
       k=st.sampled_from(harness.DEFAULT_KSWEEP))
@settings(max_examples=100, deadline=None)
def test_correction_residual_equals_word_syndromes(seed, fixes, k):
    """A word's syndromes plus those of an error word are the syndromes of
    the corrected word, so the corrections leave no residual exactly when
    their error word has the word's syndromes."""
    spec = rs.rs_spec(5, k)
    fs, n, r = spec.field, spec.n, spec.r
    rng = np.random.default_rng(seed)
    word = [int(v) for v in rng.integers(0, 32, n)]
    error = [0] * n
    for pos in rng.choice(n, size=fixes, replace=False):
        error[pos] = int(rng.integers(1, 32))
    corrected = [w ^ v for w, v in zip(word, error)]
    synd = rs._syndromes(fs, word, r)
    assert synd == horner_syndromes(fs, word, r)
    assert ([a ^ b for a, b in zip(synd, rs._syndromes(fs, error, r))]
            == horner_syndromes(fs, corrected, r))


@pytest.mark.parametrize("k", sorted({rs.RS2516.k, *harness.DEFAULT_KSWEEP}))
def test_residual_table_rows_equal_unit_word_syndromes(k):
    """Entry [pos][mag] of the residual table packs the syndromes of the
    word whose one nonzero symbol is mag at pos, for every pos and mag."""
    spec = rs.rs_spec(5, k)
    fs, n, r = spec.field, spec.n, spec.r
    table = rs._residual_tables(fs, n, r)
    assert len(table) == n and all(len(row) == fs.size for row in table)
    for pos in range(n):
        for mag in range(fs.size):
            word = [0] * n
            word[pos] = mag
            assert (rs._unpack(table[pos][mag], r)
                    == bytes(rs._syndromes(fs, word, r)))


FRAME_CODES = ["bch", "rs2516"] + [f"crs31_{k}" for k in range(19, 30)]


@pytest.mark.parametrize("code", FRAME_CODES)
@given(seed=st.integers(0, 2**32 - 1), flips=st.integers(0, 24))
@settings(max_examples=40, deadline=None)
def test_frame_decoders_equal_scalar_past_the_radius(code, seed, flips):
    """Random bit flips anywhere in the frame, up to far past each code's
    radius: every frame decoder gives its scalar oracle's message,
    corrected count (and constraint flag) or failure reason."""
    rng = np.random.default_rng(seed)
    if code == "bch":
        frame = bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8))
        decode, oracle = bch.bch_decode, scalar_bch_decode
    elif code == "rs2516":
        frame = rs.rs2516_frame(rng.integers(0, 32, 16))
        decode, oracle = rs.rs2516_decode, scalar_rs2516_decode
    else:
        layout = _layout(code)
        frame = crs.crs_encode(layout, rng.integers(
            0, 2, layout.message_bits, dtype=np.uint8))
        decode = lambda f: crs.crs_decode(layout, f)  # noqa: E731
        oracle = lambda f: scalar_crs_decode(layout, f)  # noqa: E731
    frame[rng.choice(frame.size, size=flips, replace=False)] ^= 1
    assert outcome(decode, frame) == outcome(oracle, frame)


def test_bch_byte_table_bit_images_equal_parity_check_rows():
    """bch_decode's residual adds the image of each flipped bit alone: the
    syndromes of the unit word, a row of the code's parity-check matrix."""
    tables = bch._decoder().tables
    for i, unit in enumerate(np.eye(127, dtype=np.uint8)):
        got = tables[i >> 3][0x80 >> (i & 7)]
        assert rs._unpack(got, 12) == bytes(bch_syndromes(unit))


# frames of the hypothesis tests' constructions, (seed, errors), found by a
# seeded search; each fails (or miscorrects) where random draws seldom go
BCH_RARE = {
    "error locator exceeds capability": [(33, 7), (245, 7), (127, 8),
                                         (153, 8)],
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
# parity symbols" is out of the construction's reach (f <= r), and so is
# "Forney denominator vanished" (a locator with as many distinct roots as
# its degree has a nonzero derivative at each)
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
