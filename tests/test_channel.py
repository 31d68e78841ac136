import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import channel as chan


def test_profile_tables():
    pb = chan.make_profile("pedestrian_b")
    assert pb.tap_delays_ns == (0.0, 200.0, 800.0, 1200.0, 2300.0, 3700.0)
    assert pb.tap_powers_db == (0.0, -0.9, -4.9, -8.0, -7.8, -23.9)
    va = chan.make_profile("vehicular_a")
    assert va.tap_delays_ns == (0.0, 310.0, 710.0, 1090.0, 1730.0, 2510.0)
    assert va.tap_powers_db == (0.0, -1.0, -9.0, -10.0, -15.0, -20.0)
    assert chan.make_profile("awgn").fading == "none"
    with pytest.raises(chan.UnknownProfile):
        chan.make_profile("rayleigh_flat")


def test_awgn_realization_is_identity_tap():
    ch = chan.realize(chan.make_profile("awgn"), 10e6)
    assert ch.fir_taps.size == 1
    assert ch.fir_taps[0] == 1.0


def test_delay_quantization():
    # at 10 MHz (100 ns ticks) PedB spans 0..37 samples
    rng = np.random.default_rng(0)
    ch = chan.realize(chan.make_profile("pedestrian_b"), 10e6, rng)
    assert ch.fir_taps.size == 38
    nz = np.flatnonzero(ch.fir_taps)
    assert set(nz) <= {0, 2, 8, 12, 23, 37}
    assert not ch.merged_taps


def test_fading_determinism():
    prof = chan.make_profile("vehicular_a")
    a = chan.realize(prof, 10e6, np.random.default_rng(42))
    b = chan.realize(prof, 10e6, np.random.default_rng(42))
    assert np.array_equal(a.fir_taps, b.fir_taps)


def test_unit_average_channel_power():
    prof = chan.make_profile("pedestrian_b")
    rng = np.random.default_rng(1)
    powers = [np.sum(np.abs(chan.realize(prof, 10e6, rng).fir_taps) ** 2)
              for _ in range(4000)]
    assert np.mean(powers) == pytest.approx(1.0, rel=0.02)


def test_fading_requires_rng():
    with pytest.raises(ValueError):
        chan.realize(chan.make_profile("pedestrian_b"), 10e6)


def test_snr_calibration():
    # empirical SNR of the noisy output matches the request within 0.1 dB
    rng = np.random.default_rng(2)
    sig = (rng.standard_normal(2_000_000)
           + 1j * rng.standard_normal(2_000_000)) * 0.3
    ch = chan.realize(chan.make_profile("awgn"), 10e6)
    for snr_db in (0.0, 10.0):
        rx = chan.apply(sig, ch, snr_db, np.random.default_rng(3))
        noise = rx[:sig.size] - sig
        got = 10 * np.log10(np.mean(np.abs(sig) ** 2)
                            / np.mean(np.abs(noise) ** 2))
        assert got == pytest.approx(snr_db, abs=0.1)


def test_infinite_snr_skips_noise():
    sig = np.ones(100, dtype=complex)
    ch = chan.realize(chan.make_profile("awgn"), 10e6)
    assert np.array_equal(chan.apply(sig, ch, np.inf), sig)
    assert np.array_equal(chan.apply(sig, ch, None), sig)
    with pytest.raises(ValueError):
        chan.apply(sig, ch, 10.0)  # finite snr needs an rng


def test_convolution_length():
    rng = np.random.default_rng(4)
    ch = chan.realize(chan.make_profile("pedestrian_b"), 10e6, rng)
    out = chan.apply(np.ones(500, dtype=complex), ch, np.inf)
    assert out.size == 500 + ch.fir_taps.size - 1


def test_frequency_response_flat_for_identity():
    ch = chan.realize(chan.make_profile("awgn"), 10e6)
    H = chan.frequency_response(ch, 64)
    assert np.allclose(H, 1.0)


def test_equalizer_undoes_scalar_gain():
    gain = 0.5 - 0.25j
    ch = chan.ChannelRealization(fir_taps=np.array([gain]))
    grid = np.arange(64 * 3, dtype=complex).reshape(64, 3) * gain
    eq, singular = chan.equalize(grid, ch, 64)
    assert not singular.any()
    assert np.allclose(eq, grid / gain)


def test_equalizer_flags_singular_subchannel():
    ch = chan.ChannelRealization(fir_taps=np.array([0.0 + 0j]))
    # degenerate all-zero channel: every sub-channel response is 0
    grid = np.ones((64, 2), dtype=complex)
    eq, singular = chan.equalize(grid, ch, 64)
    assert singular.all()
    assert np.allclose(eq, grid)  # passes through unequalized


def test_equalizer_shape_check():
    ch = chan.realize(chan.make_profile("awgn"), 10e6)
    with pytest.raises(ValueError):
        chan.equalize(np.ones((32, 2), dtype=complex), ch, 64)


# --- memoized constants against the expressions they replaced ---------------

def direct_realize(profile, sample_rate, rng=None):
    """channel.realize with the tap powers recomputed on every call."""
    powers_lin = 10.0 ** (np.asarray(profile.tap_powers_db) / 10.0)
    powers_lin = powers_lin / powers_lin.sum()
    idx = np.rint(np.asarray(profile.tap_delays_ns) * 1e-9 * sample_rate)
    idx = idx.astype(int)
    span = int(idx.max()) + 1
    merged = len(np.unique(idx)) != len(idx)
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
    return taps, merged


def direct_frequency_response(taps, M):
    """channel.frequency_response with the DFT kernel rebuilt per call."""
    t = np.arange(taps.size)
    k = np.arange(M)[:, None]
    return (taps * np.exp(-2j * np.pi * k * t / M)).sum(axis=1)


@pytest.mark.parametrize("name", ["awgn", "pedestrian_b", "vehicular_a"])
@pytest.mark.parametrize("M", [4, 8, 16, 64])
@given(seed=st.integers(0, 2**32 - 1),
       sample_rate=st.sampled_from([chan.DEFAULT_SAMPLE_RATE, 1e6, 30.72e6]))
@settings(max_examples=15, deadline=None)
def test_memoized_constants_are_bit_identical(name, M, seed, sample_rate):
    profile = chan.make_profile(name)
    ch = chan.realize(profile, sample_rate, np.random.default_rng(seed))
    taps, merged = direct_realize(profile, sample_rate,
                                  np.random.default_rng(seed))
    assert np.array_equal(ch.fir_taps, taps)
    assert ch.merged_taps == merged
    assert np.array_equal(chan.frequency_response(ch, M),
                          direct_frequency_response(taps, M))


@pytest.mark.parametrize("snr_db", [float("nan"), -np.inf])
def test_apply_rejects_nan_and_minus_inf_snr(snr_db):
    """Only +inf (or None) is the noiseless point; NaN and -inf used to run
    noiseless as well."""
    ch = chan.realize(chan.make_profile("awgn"), chan.DEFAULT_SAMPLE_RATE)
    with pytest.raises(ValueError, match="snr"):
        chan.apply(np.ones(8, dtype=complex), ch, snr_db,
                   np.random.default_rng(0))


@given(st.sampled_from(("awgn", "pedestrian_b", "vehicular_a")),
       st.integers(1, 7), st.sampled_from((4, 16, 64)),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_equalize_stacked_taps_equals_per_burst(name, bursts, M, seed):
    rng = np.random.default_rng(seed)
    profile = chan.make_profile(name)
    chans = [chan.realize(profile, chan.DEFAULT_SAMPLE_RATE, rng)
             for _ in range(bursts)]
    grid = (rng.standard_normal((bursts, M, 6))
            + 1j * rng.standard_normal((bursts, M, 6)))
    stacked = chan.ChannelRealization(np.stack([c.fir_taps for c in chans]))
    eq, singular = chan.equalize(grid, stacked, M)
    alone = [chan.equalize(g, c, M) for g, c in zip(grid, chans)]
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
    taps = np.stack([chan.realize(profile, chan.DEFAULT_SAMPLE_RATE,
                                  rng).fir_taps for _ in range(bursts)])
    sig = (rng.standard_normal((bursts, samples))
           + 1j * rng.standard_normal((bursts, samples)))
    seeds = rng.integers(0, 2**32, bursts)
    got = chan.apply(sig, chan.ChannelRealization(taps), snr_db,
                     [np.random.default_rng(s) for s in seeds])
    want = np.stack([convolve_apply(s, t, snr_db, np.random.default_rng(k))
                     for s, t, k in zip(sig, taps, seeds)])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_stacked_apply_needs_one_rng_per_burst():
    ch = chan.ChannelRealization(np.ones((3, 1), dtype=complex))
    sig = np.ones((3, 8), dtype=complex)
    with pytest.raises(ValueError, match="rngs"):
        chan.apply(sig, ch, 10.0, [np.random.default_rng(0)] * 2)
    with pytest.raises(ValueError, match="rngs"):
        chan.apply(sig, ch, 10.0, np.random.default_rng(0))
