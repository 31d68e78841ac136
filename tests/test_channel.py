import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import channel as chan


def realize_one(profile, rng):
    """One burst's (span,) taps: realize over a stack of one."""
    return chan.realize(profile, [rng]).reshape(-1)


def test_profile_tables():
    pb = chan.make_profile("pedestrian_b")
    assert pb.tap_delays_ns == (0.0, 200.0, 800.0, 1200.0, 2300.0, 3700.0)
    assert pb.tap_powers_db == (0.0, -0.9, -4.9, -8.0, -7.8, -23.9)
    va = chan.make_profile("vehicular_a")
    assert va.tap_delays_ns == (0.0, 310.0, 710.0, 1090.0, 1730.0, 2510.0)
    assert va.tap_powers_db == (0.0, -1.0, -9.0, -10.0, -15.0, -20.0)
    assert chan.make_profile("awgn").fading == "none"
    with pytest.raises(chan.ConfigError,
                       match="unknown channel profile 'rayleigh_flat'"):
        chan.make_profile("rayleigh_flat")


def test_awgn_realization_is_identity_tap():
    taps = chan.realize(chan.make_profile("awgn"))
    assert taps.size == 1
    assert taps[0] == 1.0


def test_delay_quantization():
    # at 10 MHz (100 ns ticks) PedB spans 0..37 samples
    rng = np.random.default_rng(0)
    taps = chan.realize(chan.make_profile("pedestrian_b"), [rng])[0]
    assert taps.size == 38
    nz = np.flatnonzero(taps)
    assert set(nz) <= {0, 2, 8, 12, 23, 37}


@pytest.mark.parametrize("name", ["awgn", "pedestrian_b", "vehicular_a"])
def test_delays_land_on_distinct_samples(name):
    """At SAMPLE_RATE no two taps of a profile share a sample, so realize
    never merges taps by power addition."""
    profile = chan.make_profile(name)
    taps = chan.realize(profile, [np.random.default_rng(0)])
    assert np.count_nonzero(taps) == len(profile.tap_delays_ns)


@pytest.mark.parametrize("name", ["awgn", "pedestrian_b", "vehicular_a"])
def test_realization_is_read_only(name):
    taps = chan.realize(chan.make_profile(name), [np.random.default_rng(0)])
    assert not taps.flags.writeable
    with pytest.raises(ValueError):
        taps[0] = 0.0


def test_fading_determinism():
    prof = chan.make_profile("vehicular_a")
    a = chan.realize(prof, [np.random.default_rng(42)])
    b = chan.realize(prof, [np.random.default_rng(42)])
    assert np.array_equal(a, b)


def test_unit_average_channel_power():
    prof = chan.make_profile("pedestrian_b")
    rng = np.random.default_rng(1)
    powers = [np.sum(np.abs(chan.realize(prof, [rng])[0]) ** 2)
              for _ in range(4000)]
    assert np.mean(powers) == pytest.approx(1.0, rel=0.02)


def test_fading_requires_rng():
    with pytest.raises(ValueError):
        chan.realize(chan.make_profile("pedestrian_b"))


def test_snr_calibration():
    # empirical SNR of the noisy output matches the request within 0.1 dB
    rng = np.random.default_rng(2)
    sig = (rng.standard_normal(2_000_000)
           + 1j * rng.standard_normal(2_000_000)) * 0.3
    taps = chan.realize(chan.make_profile("awgn"))
    for snr_db in (0.0, 10.0):
        rx = chan.apply(sig, taps, snr_db, [np.random.default_rng(3)])
        noise = rx[:sig.size] - sig
        got = 10 * np.log10(np.mean(np.abs(sig) ** 2)
                            / np.mean(np.abs(noise) ** 2))
        assert got == pytest.approx(snr_db, abs=0.1)


def test_infinite_snr_skips_noise():
    sig = np.ones(100, dtype=complex)
    taps = chan.realize(chan.make_profile("awgn"))
    assert np.array_equal(chan.apply(sig, taps, np.inf), sig)
    with pytest.raises(ValueError):
        chan.apply(sig, taps, 10.0)  # finite snr needs an rng


def test_convolution_length():
    rng = np.random.default_rng(4)
    taps = chan.realize(chan.make_profile("pedestrian_b"), [rng])[0]
    out = chan.apply(np.ones(500, dtype=complex), taps, np.inf)
    assert out.size == 500 + taps.size - 1


def test_frequency_response_flat_for_identity():
    H = chan.frequency_response(chan.realize(chan.make_profile("awgn")), 64)
    assert np.allclose(H, 1.0)


def test_equalizer_undoes_scalar_gain():
    gain = 0.5 - 0.25j
    grid = np.arange(64 * 3, dtype=complex).reshape(64, 3) * gain
    eq, singular = chan.equalize(grid, np.array([gain]))
    assert not singular.any()
    assert np.allclose(eq, grid / gain)


def test_equalizer_flags_singular_subchannel():
    # degenerate all-zero channel: every sub-channel response is 0
    grid = np.ones((64, 2), dtype=complex)
    eq, singular = chan.equalize(grid, np.array([0.0 + 0j]))
    assert singular.all()
    assert np.allclose(eq, grid)  # passes through unequalized


# --- memoized constants against the expressions they replaced ---------------

def direct_realize(profile, rng=None):
    """channel.realize with the tap powers recomputed on every call."""
    powers_lin = 10.0 ** (np.asarray(profile.tap_powers_db) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()
    idx = np.rint(np.asarray(profile.tap_delays_ns) * 1e-9 * chan.SAMPLE_RATE)
    idx = idx.astype(int)
    span = int(idx.max()) + 1
    tap_power = np.zeros(span)
    for i, p in zip(idx, powers_lin):
        tap_power[i] += p
    if profile.fading == "none":
        taps = np.sqrt(tap_power).astype(complex)
    else:
        g = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        taps = np.sqrt(tap_power / 2.0) * g
    if not np.any(taps):
        taps[0] = 1.0
    return taps


def direct_frequency_response(taps, M):
    """The M-point DFT of one burst's taps as the direct sum over taps."""
    t = np.arange(taps.size)
    k = np.arange(M)[:, None]
    return (taps * np.exp(-2j * np.pi * k * t / M)).sum(axis=1)


def assert_matches_direct_sum(taps, M):
    """frequency_response of (span,) or (bursts, span) taps is within 1e-12
    of each burst's max |H| of the direct sum."""
    got = chan.frequency_response(taps, M)
    assert got.shape == taps.shape[:-1] + (M,)
    for row, burst_taps in zip(got.reshape(-1, M),
                               taps.reshape(-1, taps.shape[-1])):
        want = direct_frequency_response(burst_taps, M)
        np.testing.assert_allclose(row, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("name", ["awgn", "pedestrian_b", "vehicular_a"])
@pytest.mark.parametrize("M", [4, 8, 16, 64])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_memoized_constants_are_bit_identical(name, M, seed):
    profile = chan.make_profile(name)
    taps = realize_one(profile, np.random.default_rng(seed))
    direct = direct_realize(profile, np.random.default_rng(seed))
    assert np.array_equal(taps, direct)
    assert_matches_direct_sum(taps, M)


@given(st.sampled_from(("pedestrian_b", "vehicular_a")), st.integers(1, 8),
       st.sampled_from([2 ** e for e in range(1, 8)]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_frequency_response_matches_direct_sum(name, bursts, M, seed):
    """Stacked taps, for M below the spans (26 and 38 taps, which then
    alias) and above them."""
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(bursts)]
    assert_matches_direct_sum(chan.realize(chan.make_profile(name), rngs), M)


def test_equalize_peak_memory_is_about_one_grid():
    """equalize holds the output grid and per-sub-channel arrays, never a
    (bursts, M, span) temporary: 1.33 grids' bytes on 40 Pedestrian B
    bursts of 64 x 16 columns."""
    taps = chan.realize(chan.make_profile("pedestrian_b"),
                        [np.random.default_rng(s) for s in range(40)])
    grid = np.ones((40, 64, 16), dtype=complex)
    chan.equalize(grid, taps)  # first call outside the measurement
    tracemalloc.start()
    try:
        chan.equalize(grid, taps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid.nbytes


@given(st.sampled_from(("pedestrian_b", "vehicular_a")), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_realize_equals_per_burst(name, bursts, seed):
    """realize over one Generator per burst equals realize over a stack
    of one, and direct_realize, called per burst with generators seeded
    alike."""
    profile = chan.make_profile(name)
    seeds = np.random.SeedSequence(seed).spawn(bursts)
    got = chan.realize(profile, [np.random.default_rng(s) for s in seeds])
    alone = [chan.realize(profile, [np.random.default_rng(s)])[0]
             for s in seeds]
    direct = [direct_realize(profile, np.random.default_rng(s))
              for s in seeds]
    span = alone[0].size
    assert alone[0].shape == (span,)
    assert got.shape == (bursts, span)
    assert not got.flags.writeable
    assert got.tobytes() == np.stack(alone).tobytes()
    assert got.tobytes() == np.stack(direct).tobytes()


class ZeroGenerator(np.random.Generator):
    """A Generator whose normal draws are all zero."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        out[...] = 0.0
        return out


@pytest.mark.parametrize("name", ["pedestrian_b", "vehicular_a"])
def test_all_zero_draw_falls_back_per_burst(name):
    """An all-zero draw becomes the identity tap in its own row only."""
    profile = chan.make_profile(name)
    zero = ZeroGenerator(np.random.PCG64(0))
    taps = chan.realize(profile, [zero])[0]
    assert taps[0] == 1.0 and not np.any(taps[1:])
    rows = chan.realize(profile, [np.random.default_rng(1), zero,
                                  np.random.default_rng(2)])
    assert np.array_equal(rows[1], taps)
    for row, seed in ((rows[0], 1), (rows[2], 2)):
        assert np.array_equal(
            row, chan.realize(profile, [np.random.default_rng(seed)])[0])
        assert np.count_nonzero(row) == len(profile.tap_delays_ns)


@pytest.mark.parametrize("snr_db", [float("nan"), -np.inf])
def test_apply_rejects_nan_and_minus_inf_snr(snr_db):
    """Only +inf is the noiseless point; NaN and -inf used to run
    noiseless as well."""
    taps = chan.realize(chan.make_profile("awgn"))
    with pytest.raises(ValueError, match="snr"):
        chan.apply(np.ones(8, dtype=complex), taps, snr_db,
                   [np.random.default_rng(0)])


@given(st.sampled_from(("awgn", "pedestrian_b", "vehicular_a")),
       st.integers(1, 7), st.sampled_from((4, 16, 64)),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_equalize_stacked_taps_equals_per_burst(name, bursts, M, seed):
    rng = np.random.default_rng(seed)
    profile = chan.make_profile(name)
    chans = [realize_one(profile, rng) for _ in range(bursts)]
    grid = (rng.standard_normal((bursts, M, 6))
            + 1j * rng.standard_normal((bursts, M, 6)))
    eq, singular = chan.equalize(grid, np.stack(chans))
    alone = [chan.equalize(g, c) for g, c in zip(grid, chans)]
    assert np.array_equal(eq, np.stack([e for e, _ in alone]))
    assert np.array_equal(singular, np.stack([s for _, s in alone]))


def convolve_apply(signal, taps, snr_db, rng):
    """One burst through np.convolve and the noise draws the stacked apply
    makes: the real parts, then the imaginary parts, from the burst's rng."""
    faded = np.convolve(signal, taps)
    if snr_db == np.inf:
        return faded
    noise_power = np.mean(np.abs(faded) ** 2) / 10.0 ** (snr_db / 10.0)
    noise = (rng.standard_normal(faded.size)
             + 1j * rng.standard_normal(faded.size))
    return faded + np.sqrt(noise_power / 2.0) * noise


@given(st.sampled_from(("awgn", "pedestrian_b", "vehicular_a")),
       st.integers(1, 6), st.integers(1, 300),
       st.sampled_from((-5.0, 0.0, 16.0, np.inf)), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_apply_equals_per_burst_convolve(name, bursts, samples,
                                                 snr_db, seed):
    rng = np.random.default_rng(seed)
    profile = chan.make_profile(name)
    taps = np.stack([realize_one(profile, rng) for _ in range(bursts)])
    sig = (rng.standard_normal((bursts, samples))
           + 1j * rng.standard_normal((bursts, samples)))
    seeds = rng.integers(0, 2**32, bursts)
    got = chan.apply(sig, taps, snr_db,
                     [np.random.default_rng(s) for s in seeds])
    want = np.stack([convolve_apply(s, t, snr_db, np.random.default_rng(k))
                     for s, t, k in zip(sig, taps, seeds)])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def unread():
    """Streams that fail the test when the channel reads them."""
    raise AssertionError("streams read where nothing is drawn")
    yield


def test_streams_are_read_only_to_draw():
    """realize reads its streams only for a fading profile and apply only
    at a finite SNR; with no streams to draw from, or the wrong number of
    them, each refuses."""
    awgn, pedb = chan.make_profile("awgn"), chan.make_profile("pedestrian_b")
    taps = chan.realize(awgn, unread())
    assert np.array_equal(taps, [1.0])
    sig = np.ones((3, 8), dtype=complex)
    assert np.array_equal(chan.apply(sig, taps, np.inf, unread()), sig)
    with pytest.raises(ValueError, match="rngs"):
        chan.realize(pedb, [])
    taps = chan.realize(pedb, map(np.random.default_rng, range(3)))
    assert taps.shape == (3, 38)
    for count in (0, 1, 4):
        with pytest.raises(ValueError, match="rngs"):
            chan.apply(sig, taps, 10.0, map(np.random.default_rng,
                                            range(count)))


def test_stacked_apply_needs_one_rng_per_burst():
    taps = np.ones((3, 1), dtype=complex)
    sig = np.ones((3, 8), dtype=complex)
    with pytest.raises(ValueError, match="rngs"):
        chan.apply(sig, taps, 10.0, [np.random.default_rng(0)] * 2)
    with pytest.raises(ValueError, match="rngs"):
        chan.apply(sig, taps, 10.0, [np.random.default_rng(0)] * 4)
    with pytest.raises(ValueError, match="rngs"):
        chan.apply(sig, taps, 10.0)
