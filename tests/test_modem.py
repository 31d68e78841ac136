import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import fftconvolve

from papr_lab import modem


def dtft(h, w):
    n = np.arange(h.size)
    return np.sum(h * np.exp(-1j * w * n))


# --- direct-form transmultiplexer: the reference for the polyphase banks ----

def subchannel_filters(cfg):
    """(M, Lp) complex array of synthesis filters; row 0 is the prototype."""
    m = np.arange(cfg.Lp)
    k = np.arange(cfg.M)[:, None]
    phase = np.exp(2j * np.pi * k / cfg.M * (m - (cfg.Lp - 1) / 2))
    return cfg.prototype * phase


def direct_synthesis(grid, cfg):
    """Each sub-channel sequence upsampled by M/2, filtered by its modulated
    prototype; branches summed."""
    M, n_half = grid.shape
    hop = M // 2
    up = np.zeros((M, (n_half - 1) * hop + 1), dtype=complex)
    up[:, ::hop] = grid
    return fftconvolve(up, subchannel_filters(cfg), axes=1).sum(axis=0)


def direct_analysis(signal, cfg, n_half):
    """Filter by the (linear-phase, hence identical) analysis filters and
    sample every M/2 from the cascade delay Lp - 1, gain normalized."""
    y = fftconvolve(signal[None, :], subchannel_filters(cfg), axes=1)
    idx = cfg.Lp - 1 + cfg.M // 2 * np.arange(n_half)
    return y[:, idx] / np.sum(cfg.prototype ** 2)


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def demodulate_burst(signal, cfg, n_frames):
    """Baseband burst -> recovered bit frames (L, 2M): the receive chain
    back to back, without channel or equalizer."""
    grid = modem.analysis(signal, cfg, 2 * n_frames)
    return modem.grid_to_frames(modem.oqam_postprocess(grid))


class TestPrototype:
    def test_length_and_symmetry(self):
        for M, K in [(64, 4), (64, 3), (64, 2), (16, 4)]:
            p = modem.design_prototype(M, K)
            assert p.size == K * M - 1
            assert np.allclose(p, p[::-1])  # linear phase
            assert p[(p.size - 1) // 2] == 1.0  # unit center tap

    def test_stopband_attenuation(self):
        # beyond twice the sub-channel spacing the response is < -35 dB
        M, K = 64, 4
        p = modem.design_prototype(M, K)
        peak = abs(dtft(p, 0.0))
        for w in np.linspace(2.5 * 2 * np.pi / M, np.pi, 50):
            assert 20 * np.log10(abs(dtft(p, w)) / peak) < -35.0

    def test_frequency_sampling_values(self):
        # the design hits its K frequency samples: |P(2 pi i / (KM))| = A_i
        M, K = 64, 4
        p = modem.design_prototype(M, K)
        peak = abs(dtft(p, 0.0))
        targets = [1.0, 0.971960, np.sqrt(2) / 2, 0.235147]
        for i, a in enumerate(targets):
            got = abs(dtft(p, 2 * np.pi * i / (K * M))) / peak
            assert got == pytest.approx(a, abs=1e-4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(modem.ConfigError,
                           match="no coefficient table for K = 5"):
            modem.design_prototype(64, 5)
        with pytest.raises(modem.ConfigError,
                           match="M = 48 is not a power of two"):
            modem.design_prototype(48, 4)


class TestQam:
    def test_mapping_table(self):
        syms = modem.qam_map(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        s = 1 / np.sqrt(2)
        assert np.allclose(syms, [s + 1j * s, s - 1j * s,
                                  -s + 1j * s, -s - 1j * s])
        assert np.allclose(np.abs(syms), 1.0)  # unit energy

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 2048).astype(np.uint8)
        assert np.array_equal(modem.qam_demap(modem.qam_map(bits)), bits)

    def test_odd_length_rejected(self):
        with pytest.raises(modem.LengthMismatch):
            modem.qam_map(np.zeros(3, dtype=np.uint8))


class TestOqam:
    def test_theta_values(self):
        th = theta(4, 4)
        assert th[0, 0] == 1
        assert th[1, 0] == 1j
        assert th[0, 1] == 1j
        assert th[2, 2] == 1
        assert np.allclose(np.abs(th), 1.0)

    def test_pre_post_inverse(self):
        rng = np.random.default_rng(1)
        grid = modem.qam_map(rng.integers(0, 2, 2 * 64 * 6).astype(np.uint8))
        grid = grid.reshape(64, 6)
        staggered = modem.oqam_preprocess(grid)
        assert staggered.shape == (64, 12)
        back = modem.oqam_postprocess(staggered)
        assert np.allclose(back, grid)

    def test_row_layout(self):
        # the synthesis IFFT and the demapper read contiguous rows
        grid = np.ones((2, 64, 3), dtype=complex)
        staggered = modem.oqam_preprocess(grid)
        assert staggered.shape == (2, 64, 6)
        assert np.swapaxes(staggered, -1, -2).flags.c_contiguous
        back = modem.oqam_postprocess(staggered)
        assert np.swapaxes(back, -1, -2).flags.c_contiguous

    def test_odd_column_count_rejected(self):
        with pytest.raises(modem.LengthMismatch, match="odd .* 5"):
            modem.oqam_postprocess(np.zeros((64, 5), dtype=complex))

    def test_stagger_order(self):
        # even sub-channels send the real part in the first half-slot,
        # odd sub-channels the imaginary part
        grid = np.array([[0.25 + 0.5j], [0.25 + 0.5j]])
        d = modem.oqam_preprocess(grid)
        assert d[0, 0] == pytest.approx(0.25)       # theta = 1
        assert d[1, 0] == pytest.approx(0.5j)       # imag first, theta = j


class TestFilterBank:
    def test_subchannel_zero_is_prototype(self):
        cfg = modem.ModemConfig()
        g = subchannel_filters(cfg)
        assert np.allclose(g[0], cfg.prototype)

    def test_modulation_relation(self):
        cfg = modem.ModemConfig(M=16, K=4)
        g = subchannel_filters(cfg)
        m = np.arange(cfg.Lp)
        for k in (1, 7, 15):
            ref = cfg.prototype * np.exp(
                2j * np.pi * k / cfg.M * (m - (cfg.Lp - 1) / 2))
            assert np.allclose(g[k], ref)

    def test_synthesis_impulse_response(self):
        # a single unit pulse on sub-channel k yields g_k itself
        cfg = modem.ModemConfig(M=16, K=4)
        for k in (0, 3):
            grid = np.zeros((16, 8), dtype=complex)
            grid[k, 0] = 1.0
            sig = modem.synthesis(grid, cfg)
            g = subchannel_filters(cfg)[k]
            assert np.allclose(sig[:cfg.Lp], g)

    def test_near_perfect_reconstruction(self):
        rng = np.random.default_rng(2)
        cfg = modem.ModemConfig(M=64, K=4)
        frames = rng.integers(0, 2, (12, 128)).astype(np.uint8)
        sig = modem.modulate_frames(frames, cfg)
        rx = demodulate_burst(sig, cfg, 12)
        assert np.array_equal(rx, frames)  # zero-BER back to back

    def test_symbol_mse(self):
        rng = np.random.default_rng(3)
        cfg = modem.ModemConfig(M=64, K=4)
        frames = rng.integers(0, 2, (20, 128)).astype(np.uint8)
        grid = modem.frames_to_grid(frames, 64)
        sig = modem.synthesis(modem.oqam_preprocess(grid), cfg)
        est = modem.oqam_postprocess(modem.analysis(sig, cfg, 40))
        mse = np.mean(np.abs(est - grid) ** 2)
        assert mse < 1e-3

    def test_signal_too_short(self):
        cfg = modem.ModemConfig()
        with pytest.raises(modem.LengthMismatch):
            modem.analysis(np.zeros(10, dtype=complex), cfg, 4)

    def test_equal_configs_compare_and_hash_equal(self):
        a, b = modem.ModemConfig(), modem.ModemConfig(M=64, K=4)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != modem.ModemConfig(M=16) and len({a, b}) == 1

    def test_grid_size_mismatch(self):
        cfg = modem.ModemConfig(M=64)
        with pytest.raises(modem.LengthMismatch):
            modem.synthesis(np.zeros((32, 4), dtype=complex), cfg)


@st.composite
def bank_cases(draw):
    """(cfg, complex staggered grid) over M in {4, 8, 16, 64}, K in {2, 3, 4}
    and 1 to 64 half-symbol columns."""
    cfg = modem.ModemConfig(M=draw(st.sampled_from((4, 8, 16, 64))),
                            K=draw(st.sampled_from((2, 3, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (cfg.M, draw(st.integers(1, 64)))
    return cfg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPolyphaseMatchesDirectForm:
    @given(bank_cases())
    @settings(max_examples=150, deadline=None)
    def test_synthesis(self, case):
        cfg, grid = case
        got = modem.synthesis(grid, cfg)
        ref = direct_synthesis(grid, cfg)
        assert got.shape == ref.shape
        assert relative_error(got, ref) < 1e-9

    @given(bank_cases(), st.integers(0, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_analysis(self, case, extra, seed):
        # a channel tail leaves more samples than the windows need
        cfg, grid = case
        n_half = grid.shape[1]
        rng = np.random.default_rng(seed)
        tail = rng.standard_normal(extra) + 1j * rng.standard_normal(extra)
        signal = np.concatenate([direct_synthesis(grid, cfg), tail])
        got = modem.analysis(signal, cfg, n_half)
        ref = direct_analysis(signal, cfg, n_half)
        assert got.shape == ref.shape == (cfg.M, n_half)
        assert relative_error(got, ref) < 1e-9

    def test_memory_bounded_on_long_burst(self):
        # the direct form peaked at 315 MiB on a 1000-frame burst
        rng = np.random.default_rng(5)
        cfg = modem.ModemConfig()
        frames = rng.integers(0, 2, (1000, 128)).astype(np.uint8)
        grid = modem.oqam_preprocess(modem.frames_to_grid(frames, 64))
        tracemalloc.start()
        try:
            modem.analysis(modem.synthesis(grid, cfg), cfg, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@given(st.integers(1, 40), st.sampled_from((4, 16, 64)),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_map_demap_match_per_frame_loops(n_frames, M, seed):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 2, (n_frames, 2 * M)).astype(np.uint8)
    grid = modem.frames_to_grid(frames, M)
    assert np.array_equal(
        grid, np.stack([modem.qam_map(f) for f in frames], axis=1))
    noisy = grid + 0.3 * (rng.standard_normal(grid.shape)
                          + 1j * rng.standard_normal(grid.shape))
    assert np.array_equal(
        modem.grid_to_frames(noisy),
        np.stack([modem.qam_demap(noisy[:, l]) for l in range(n_frames)]))


def test_frames_grid_roundtrip():
    rng = np.random.default_rng(4)
    frames = rng.integers(0, 2, (5, 128)).astype(np.uint8)
    grid = modem.frames_to_grid(frames, 64)
    assert grid.shape == (64, 5)
    assert np.array_equal(modem.grid_to_frames(grid), frames)


@given(st.integers(1, 7), st.integers(1, 12), st.sampled_from((4, 16, 64)),
       st.sampled_from((2, 3, 4)), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_chain_equals_per_burst_calls(bursts, n_frames, M, K, seed):
    """Each stage on a (bursts, ...) stack gives, bit for bit, what it gives
    on each burst alone."""
    cfg = modem.ModemConfig(M=M, K=K)
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 2, (bursts, n_frames, 2 * M)).astype(np.uint8)
    grid = modem.frames_to_grid(frames, M)
    staggered = modem.oqam_preprocess(grid)
    sig = modem.synthesis(staggered, cfg)
    noisy = sig + 0.05 * (rng.standard_normal(sig.shape)
                          + 1j * rng.standard_normal(sig.shape))
    rx = modem.analysis(noisy, cfg, 2 * n_frames)
    qam = modem.oqam_postprocess(rx)
    for stacked, fn, inputs in (
            (grid, lambda f: modem.frames_to_grid(f, M), frames),
            (staggered, modem.oqam_preprocess, grid),
            (sig, lambda g: modem.synthesis(g, cfg), staggered),
            (sig, lambda f: modem.modulate_frames(f, cfg), frames),
            (rx, lambda s: modem.analysis(s, cfg, 2 * n_frames), noisy),
            (qam, modem.oqam_postprocess, rx),
            (modem.grid_to_frames(qam), modem.grid_to_frames, qam)):
        assert np.array_equal(stacked, np.stack([fn(x) for x in inputs]))


# --- the phase-multiply polyphase banks the phase-free ones replaced --------

def phase_twiddles(cfg):
    """exp(-j pi k (Lp - 1) / M), reduced exactly mod 2 pi."""
    turns = np.arange(cfg.M) * (cfg.Lp - 1) % (2 * cfg.M)
    return np.exp(-1j * np.pi * turns / cfg.M)


def phase_synthesis(grid, cfg):
    M, n_half = grid.shape
    hop = M // 2
    blocks = np.append(cfg.prototype, 0.0).reshape(2 * cfg.K, hop)
    x = np.fft.ifft(grid * phase_twiddles(cfg)[:, None], axis=0,
                    norm="forward")
    out = np.zeros((n_half + 2 * cfg.K - 1, hop), dtype=complex)
    for b, weights in enumerate(blocks):
        out[b:b + n_half] += x[(b % 2) * hop:(b % 2 + 1) * hop].T * weights
    return out.ravel()[:(n_half - 1) * hop + cfg.Lp]


def phase_analysis(signal, cfg, n_half):
    hop = cfg.M // 2
    need = (n_half - 1) * hop + cfg.Lp
    blocks = np.append(cfg.prototype, 0.0).reshape(2 * cfg.K, hop)
    padded = np.append(signal[:need], 0.0).reshape(-1, hop)
    folded = np.zeros((n_half, 2, hop), dtype=complex)
    for b, weights in enumerate(blocks):
        folded[:, b % 2] += padded[b:b + n_half] * weights
    y = np.fft.fft(folded.reshape(n_half, cfg.M), axis=-1).T
    return y * (phase_twiddles(cfg).conj() / np.sum(cfg.prototype ** 2))[:, None]


@given(bank_cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_phase_free_banks_match_phase_multiply(case, seed):
    """The one-sample delay of [0, p] (and the half swap of odd K) equals
    the old IFFT-column phase multiply to rounding."""
    cfg, grid = case
    n_half = grid.shape[1]
    got = modem.synthesis(grid, cfg)
    ref = phase_synthesis(grid, cfg)
    assert got.shape == ref.shape
    assert relative_error(got, ref) < 1e-13
    rng = np.random.default_rng(seed)
    noisy = ref + 0.1 * (rng.standard_normal(ref.size)
                         + 1j * rng.standard_normal(ref.size))
    got = modem.analysis(noisy, cfg, n_half)
    assert relative_error(got, phase_analysis(noisy, cfg, n_half)) < 1e-13


def test_empty_grid_rejected():
    cfg = modem.ModemConfig()
    with pytest.raises(modem.DegenerateSignal):
        modem.synthesis(np.zeros((64, 0), dtype=complex), cfg)
    with pytest.raises(modem.DegenerateSignal):
        modem.synthesis(np.zeros((3, 64, 0), dtype=complex), cfg)
    for n_half in (0, -1):
        with pytest.raises(modem.DegenerateSignal):
            modem.analysis(np.zeros(1000, dtype=complex), cfg, n_half)


@given(st.integers(1, 5), st.integers(1, 24), st.sampled_from((4, 16, 64)),
       st.sampled_from((2, 3, 4)), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_banks_keep_inputs_and_take_strided_stacks(bursts, n_half, M, K,
                                                   seed):
    """Both banks leave their input unmodified, and a non-contiguous stack
    (a transposed grid, a [..., 1:] signal view) gives, bit for bit, what
    each burst gives alone."""
    cfg = modem.ModemConfig(M=M, K=K)
    rng = np.random.default_rng(seed)
    shape = (bursts, n_half, M)
    grid = np.swapaxes(rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape), -1, -2)
    before = grid.copy()
    sig = modem.synthesis(grid, cfg)
    assert np.array_equal(grid, before)
    assert np.array_equal(sig, np.stack([modem.synthesis(g, cfg)
                                         for g in grid]))
    wide = np.concatenate([np.ones((bursts, 1)), sig], axis=-1)[..., 1:]
    before = wide.copy()
    rx = modem.analysis(wide, cfg, n_half)
    assert np.array_equal(wide, before)
    assert np.array_equal(rx, np.stack([modem.analysis(s, cfg, n_half)
                                        for s in wide]))


# --- the complex-arithmetic QAM and OQAM stages the row layout replaced -----

_J_POWERS = np.array([1, 1j, -1, -1j])


def theta(M, n_half):
    """(M, n_half) phase grid j^(k+n) = j^k j^n, looked up mod 4."""
    return np.outer(_J_POWERS[np.arange(M) % 4],
                    _J_POWERS[np.arange(n_half) % 4])


def qam_map_ref(bits):
    re = 1.0 - 2.0 * bits[..., 0::2]
    im = 1.0 - 2.0 * bits[..., 1::2]
    return (re + 1j * im) / np.sqrt(2)


def qam_demap_ref(symbols):
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],),
                    dtype=np.uint8)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits


def oqam_preprocess_ref(grid):
    *lead, M, L = grid.shape
    d = np.empty((*lead, M, 2 * L))
    d[..., 0::2, 0::2] = grid[..., 0::2, :].real
    d[..., 0::2, 1::2] = grid[..., 0::2, :].imag
    d[..., 1::2, 0::2] = grid[..., 1::2, :].imag
    d[..., 1::2, 1::2] = grid[..., 1::2, :].real
    return d * theta(M, 2 * L)


def oqam_postprocess_ref(grid):
    *lead, M, n_half = grid.shape
    d = (grid * np.conj(theta(M, n_half))).real
    out = np.empty((*lead, M, n_half // 2), dtype=complex)
    out[..., 0::2, :] = d[..., 0::2, 0::2] + 1j * d[..., 0::2, 1::2]
    out[..., 1::2, :] = d[..., 1::2, 1::2] + 1j * d[..., 1::2, 0::2]
    return out


def _laid_out(a, layout):
    """a as a C-contiguous stack, as the swapped view of its transpose's
    copy, or as a [..., 1:] view of a wider array."""
    if layout == "transposed":
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(a, -1, -2)),
                           -1, -2)
    if layout == "offset":
        wide = np.concatenate([np.ones_like(a[..., :1]), a], axis=-1)
        return wide[..., 1:]
    return a


@given(st.integers(1, 3), st.integers(1, 12), st.sampled_from((4, 16, 64)),
       st.sampled_from(("stacked", "transposed", "offset")),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_row_layout_stages_equal_complex_formulas(bursts, n_frames, M,
                                                  layout, seed):
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = (
        (modem.qam_map, qam_map_ref, rng.integers(
            0, 2, (bursts, n_frames, 2 * M)).astype(np.uint8)),
        (modem.qam_demap, qam_demap_ref, normal(bursts, n_frames, M)),
        (modem.oqam_preprocess, oqam_preprocess_ref,
         normal(bursts, M, n_frames)),
        (modem.oqam_postprocess, oqam_postprocess_ref,
         normal(bursts, M, 2 * n_frames)),
    )
    for fn, ref, x in cases:
        x = _laid_out(x, layout)
        before = x.copy()
        got = fn(x)
        assert np.array_equal(x, before)
        want = ref(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


@given(st.integers(1, 6), st.integers(3, 12), st.sampled_from((4, 16, 64)),
       st.sampled_from((2, 3, 4)), st.integers(0, 2 * 64),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_measured_columns_equal_full_analysis(bursts, n_frames, M, K, tail,
                                              seed):
    """A BER burst's receiver analyses only the measured frames 1..L - 2:
    their 2(L - 2) half-symbol columns from frame 1's first sample, M
    samples in.  Those columns equal the full analysis's columns 2..2L - 3
    bit for bit.  Counted from frame 1, every column's phase j^(k+n) lacks
    a factor j^2 = -1, so negated, their symbols and frames are the full
    path's of frames 1..L - 2."""
    cfg = modem.ModemConfig(M=M, K=K)
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 2, (bursts, n_frames, 2 * M)).astype(np.uint8)
    sig = modem.modulate_frames(frames, cfg)
    sig = np.concatenate([sig, np.zeros((bursts, tail))], axis=-1)
    rx = sig + 0.3 * (rng.standard_normal(sig.shape)
                      + 1j * rng.standard_normal(sig.shape))
    full = modem.analysis(rx, cfg, 2 * n_frames)
    measured = modem.analysis(rx[..., M:], cfg, 2 * (n_frames - 2))
    assert np.array_equal(measured, full[..., 2:-2])
    qam = -modem.oqam_postprocess(measured)
    assert np.array_equal(qam, modem.oqam_postprocess(full)[..., 1:-1])
    assert np.array_equal(modem.grid_to_frames(qam),
                          modem.grid_to_frames(
                              modem.oqam_postprocess(full))[..., 1:-1, :])



# Repeated bank calls in a fresh interpreter, after a few warm-up calls
# build the bank's one-time state.  numpy 2.4's __array_interface__, which
# as_strided and sliding_window_view call, makes one allocation of about
# 0.92 MiB (0.5 MiB resident) at about its 10,235th call in a process, so a
# window view built through it would show here.
_BANK_GROWTH = """
import tracemalloc
import numpy as np
from papr_lab import modem
cfg = modem.ModemConfig()
bank = lambda: {call}
for _ in range(100):
    bank()
tracemalloc.start()
for _ in range(12_000):
    bank()
print(tracemalloc.get_traced_memory()[0])
"""


def _bank_growth(call):
    """What 12,000 calls of a bank leave behind, in bytes."""
    src = str(Path(modem.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _BANK_GROWTH.format(
                              call=call)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    return int(out.stdout)


def test_repeated_synthesis_keeps_no_memory():
    """12,000 synthesis calls leave less than 16 KiB behind."""
    assert _bank_growth("modem.synthesis(np.ones((64, 2), complex), cfg)") \
        < 16 * 1024


def test_repeated_analysis_keeps_no_memory():
    """12,000 analysis calls leave less than 16 KiB behind."""
    assert _bank_growth("modem.analysis(np.ones(cfg.Lp + 32), cfg, 2)") \
        < 16 * 1024
