import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import metrics


class TestPapr:
    def test_constant_envelope_is_zero_db(self):
        sig = np.exp(1j * np.linspace(0, 20, 256))
        assert metrics.papr_db(sig) == pytest.approx(0.0, abs=1e-12)

    def test_impulse_window(self):
        # [1,0,0,0]: peak 1, mean 1/4 -> 6.0206 dB
        assert metrics.papr_db(np.array([1.0, 0, 0, 0])) == \
            pytest.approx(6.0206, abs=1e-3)

    def test_all_zero_window_rejected(self):
        with pytest.raises(metrics.DegenerateSignal):
            metrics.papr_db(np.zeros(8))

    def test_frame_windows_cover_steady_state(self):
        # burst of identical frames -> identical interior PAPR values
        from papr_lab import modem
        rng = np.random.default_rng(0)
        cfg = modem.ModemConfig()
        frame = rng.integers(0, 2, 128).astype(np.uint8)
        sig = modem.modulate_frames(np.tile(frame, (8, 1)), cfg)
        vals = metrics.frame_paprs(sig, 64, cfg.Lp, 8)
        assert vals.size == 8
        # the K = 4 overlap reaches two frames past each burst edge, so only
        # the deep-interior frames are exactly periodic
        interior = vals[2:-2]
        assert np.ptp(interior) < 1e-9

    @given(st.integers(1, 30), st.sampled_from((4, 16, 64)),
           st.sampled_from((2, 3, 4)), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_frame_paprs_match_per_window_loop(self, n_frames, M, K, seed):
        rng = np.random.default_rng(seed)
        Lp = K * M - 1
        n = (2 * n_frames - 1) * M // 2 + Lp
        sig = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = []
        for l in range(n_frames):
            start = max((Lp - 1) // 2 + l * M - M // 2, 0)
            power = np.abs(sig[start:start + M]) ** 2
            ref.append(10.0 * np.log10(power.max() / power.mean()))
        assert np.array_equal(metrics.frame_paprs(sig, M, Lp, n_frames), ref)

    def test_frame_paprs_reject_zero_window(self):
        sig = np.ones(64 * 6)
        sig[223:287] = 0.0  # the window of frame 2
        with pytest.raises(metrics.DegenerateSignal):
            metrics.frame_paprs(sig, 64, 255, 4)

    def test_frame_paprs_reject_short_signal(self):
        # the window of frame 3 spans samples [287, 351)
        with pytest.raises(metrics.LengthMismatch):
            metrics.frame_paprs(np.ones(350), 64, 255, 4)
        assert metrics.frame_paprs(np.ones(351), 64, 255, 4).shape == (4,)


class TestCcdf:
    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(1)
        curve = metrics.ccdf(6 + 2 * rng.standard_normal(5000))
        assert (np.diff(curve.probabilities) <= 0).all()

    def test_grid_step(self):
        rng = np.random.default_rng(2)
        curve = metrics.ccdf(rng.uniform(4, 9, 1000))
        steps = np.diff(curve.thresholds_db)
        assert np.allclose(steps, 0.1, atol=1e-9)

    def test_endpoints(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(4, 9, 1000)
        curve = metrics.ccdf(samples)
        assert curve.probabilities[0] == 1.0  # floor of the minimum
        assert curve.probabilities[-1] == 0.0  # ceil of the maximum

    def test_too_few_samples(self):
        with pytest.raises(metrics.TooFewSamples):
            metrics.ccdf(np.ones(99))

    def test_papr_at_probability(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(0, 10, 10_000)
        curve = metrics.ccdf(samples)
        th = metrics.papr_at_probability(curve, 1e-1)
        assert (samples > th).mean() <= 1e-1
        # threshold one grid step lower exceeds the probability
        assert (samples > th - 0.1).mean() > 1e-1


def loop_ccdf(samples_db):
    """metrics.ccdf with one (samples > g).mean() per grid point."""
    samples_db = np.asarray(samples_db, dtype=float)
    step = metrics.CCDF_GRID_STEP_DB
    lo = np.floor(samples_db.min() / step) * step
    hi = np.ceil(samples_db.max() / step) * step
    grid = np.arange(lo, hi + step / 2, step)
    probs = np.array([(samples_db > g).mean() for g in grid])
    return metrics.CcdfCurve(thresholds_db=grid, probabilities=probs)


@given(st.integers(100, 5000), st.sampled_from((None, 1, 2)),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sorted_ccdf_equals_loop(size, decimals, seed):
    """One sort and a binary search per grid point give the loop's
    probabilities bit for bit, ties and samples on grid points included."""
    samples = np.random.default_rng(seed).uniform(3.0, 12.0, size)
    if decimals is not None:
        samples = np.round(samples, decimals)
    got, want = metrics.ccdf(samples), loop_ccdf(samples)
    assert np.array_equal(got.thresholds_db, want.thresholds_db)
    assert np.array_equal(got.probabilities, want.probabilities)


class TestBer:
    def test_counts(self):
        tx = np.array([0, 1, 1, 0, 1])
        rx = np.array([0, 0, 1, 1, 1])
        assert metrics.ber(tx, rx) == (2, 5)
        assert metrics.ber(tx, tx) == (0, 5)

    def test_length_mismatch(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.ber(np.zeros(4), np.zeros(5))

    def test_record_ratio(self):
        r = metrics.BerRecord(snr_db=10.0, scheme="none", channel="awgn",
                              companding=False, bits_total=1000, bits_error=25)
        assert r.ber == 0.025


class TestInformation:
    def test_values(self):
        assert metrics.information(1.0) == 0.0
        assert metrics.information(0.5) == 1.0
        assert metrics.information(2.0 ** -64) == pytest.approx(64.0)

    def test_domain(self):
        with pytest.raises(metrics.DomainError):
            metrics.information(0.0)
        with pytest.raises(metrics.DomainError):
            metrics.information(1.5)


def test_each_error_kind_is_one_class():
    from papr_lab import compander, modem
    from papr_lab.fec import rs
    assert modem.LengthMismatch is metrics.LengthMismatch
    assert rs.LengthMismatch is metrics.LengthMismatch
    assert compander.DegenerateSignal is metrics.DegenerateSignal
