import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import compander
from papr_lab.compander import CompanderConfig, mu_compress, mu_expand

CFG = CompanderConfig(mu=25.0)


def forward_scalar(y, mu=25.0):
    return math.copysign(math.log(1 + mu * abs(y)) / math.log(1 + mu), y)


def test_fixed_points():
    sig = np.array([0.0, 1.0, -1.0, 1j, -1j])
    out, scale = mu_compress(sig, CFG)
    assert scale == 1.0
    assert np.allclose(out, sig, atol=1e-15)  # 0 and +-1 are fixed points


def test_frozen_half_point():
    # F(0.5; mu=25) = ln(1 + 12.5)/ln(26), frozen from direct evaluation
    out, _ = mu_compress(np.array([1.0, 0.5]), CFG)
    assert out[1].real == pytest.approx(0.7988374976221233, abs=1e-12)


def test_roundtrip_precision():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
    comp, scale = mu_compress(sig, CFG)
    back, saturated = mu_expand(comp, scale, CFG)
    assert saturated == 0
    assert np.max(np.abs(back - sig)) <= 1e-12


@given(st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=200)
def test_monotone_and_odd(a, b):
    fa, fb = forward_scalar(a), forward_scalar(b)
    if a < b:
        assert fa <= fb  # monotone (ties only at denormal underflow)
        if b - a > 1e-12:
            assert fa < fb
    assert forward_scalar(-a) == pytest.approx(-fa, abs=1e-15)  # odd


def test_componentwise_application():
    # real and imaginary parts are companded independently
    sig = np.array([0.5 + 0.25j])
    out, scale = mu_compress(sig, CFG)
    assert scale == 0.5
    assert out[0].real == pytest.approx(forward_scalar(1.0))
    assert out[0].imag == pytest.approx(forward_scalar(0.5))


def test_peak_scale_restored():
    rng = np.random.default_rng(1)
    sig = 7.3 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    comp, scale = mu_compress(sig, CFG)
    assert np.max(np.abs(np.concatenate([comp.real, comp.imag]))) <= 1.0
    back, _ = mu_expand(comp, scale, CFG)
    assert np.allclose(back, sig)


def test_papr_reduction_property():
    # companding compresses the dynamic range, so PAPR never increases
    from papr_lab import metrics
    rng = np.random.default_rng(2)
    sig = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    comp, _ = mu_compress(sig, CFG)
    assert metrics.papr_db(comp) <= metrics.papr_db(sig)


def test_saturation_counted_and_clamped():
    comp = np.array([1.5 + 0.0j, 0.5 - 2.0j, 0.2 + 0.2j])
    back, saturated = mu_expand(comp, 1.0, CFG)
    assert saturated == 2
    assert np.max(np.abs(back.real)) <= 1.0 + 1e-9


def test_degenerate_inputs():
    with pytest.raises(compander.DegenerateSignal):
        mu_compress(np.array([]), CFG)
    out, scale = mu_compress(np.zeros(4, dtype=complex), CFG)
    assert scale == 1.0
    assert not out.any()
    for mu in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CompanderConfig(mu=mu)


@given(st.integers(1, 7), st.integers(1, 50), st.integers(0, 2**32 - 1),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacked_rows_equal_per_row_calls(rows, n, seed, zero_row):
    """A (rows, n) stack companded and expanded in one call equals each row
    alone: its own scale, the same samples, the clamp counts summed."""
    rng = np.random.default_rng(seed)
    sig = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    if zero_row:
        sig[rng.integers(rows)] = 0.0
    comp, scale = mu_compress(sig, CFG)
    singles = [mu_compress(s, CFG) for s in sig]
    assert scale.shape == (rows,)
    assert np.array_equal(scale, [s for _, s in singles])
    assert np.array_equal(comp, np.stack([c for c, _ in singles]))
    noisy = comp * 1.1  # pushes some components past the clamp
    back, clamped = mu_expand(noisy, scale, CFG)
    alone = [mu_expand(x, s, CFG) for x, s in zip(noisy, scale)]
    assert np.array_equal(back, np.stack([b for b, _ in alone]))
    assert isinstance(clamped, int)
    assert clamped == sum(c for _, c in alone)


# --- the per-component formula the in-place passes replaced: the oracle -----

def _forward(y, mu):
    return np.sign(y) * np.log1p(mu * np.abs(y)) / np.log1p(mu)


def _inverse(r, mu):
    return np.sign(r) * (np.expm1(np.abs(r) * np.log1p(mu))) / mu


def reference_compress(signal, mu):
    signal = np.asarray(signal, dtype=complex)
    scale = np.maximum(np.abs(signal.real).max(axis=-1),
                       np.abs(signal.imag).max(axis=-1))
    scale = np.where(scale == 0.0, 1.0, scale)[()]
    rows = np.asarray(scale)[..., None]
    return (_forward(signal.real / rows, mu)
            + 1j * _forward(signal.imag / rows, mu)), scale


def reference_expand(signal, scale, mu):
    signal = np.asarray(signal, dtype=complex)
    re, im = signal.real, signal.imag
    saturated = int(np.sum(np.abs(re) > 1 + compander.CLAMP_TOLERANCE)
                    + np.sum(np.abs(im) > 1 + compander.CLAMP_TOLERANCE))
    out = ((_inverse(np.clip(re, -1.0, 1.0), mu)
            + 1j * _inverse(np.clip(im, -1.0, 1.0), mu))
           * np.asarray(scale)[..., None])
    return out, saturated


@given(st.integers(0, 3), st.integers(1, 5), st.integers(2, 40),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
       st.sampled_from((0.5, 25.0, 255.0)))
@settings(max_examples=150, deadline=None)
def test_in_place_passes_match_per_component_formula(
        ndim, rows, n, seed, zero_row, sliced, mu):
    """Compress and expand on the interleaved floats equal the old
    per-component formula to rounding, on 1-D signals and stacks with zero
    rows and [..., 1:] views, with the same scales and clamp counts, and
    leave their inputs untouched."""
    cfg = CompanderConfig(mu=mu)
    rng = np.random.default_rng(seed)
    shape = (rows,) * ndim + (n,)
    sig = 3.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if zero_row and ndim:
        sig[(0,) * ndim] = 0.0
    if sliced:
        sig = sig[..., 1:]
    before = sig.copy()
    comp, scale = mu_compress(sig, cfg)
    ref, ref_scale = reference_compress(sig, mu)
    assert np.array_equal(sig, before)
    assert np.shape(scale) == sig.shape[:-1]
    assert np.array_equal(scale, ref_scale)
    assert np.allclose(comp, ref, rtol=0, atol=1e-15)
    noisy = comp * 1.1  # pushes some components past the clamp
    before = noisy.copy()
    back, clamped = mu_expand(noisy, scale, cfg)
    ref_back, ref_clamped = reference_expand(noisy, scale, mu)
    assert np.array_equal(noisy, before)
    assert clamped == ref_clamped
    assert np.allclose(back, ref_back, rtol=1e-14,
                       atol=1e-14 * np.max(np.abs(sig)))


def test_non_finite_peak_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        sig = np.ones((3, 8), dtype=complex)
        sig[1, 4] = complex(1.0, bad)
        with pytest.raises(compander.DegenerateSignal):
            mu_compress(sig, CFG)
        with pytest.raises(compander.DegenerateSignal):
            mu_compress(sig[1], CFG)


def test_expand_rejects_scale_of_another_shape():
    comp, _ = mu_compress(np.ones(8, dtype=complex), CFG)
    with pytest.raises(compander.LengthMismatch, match=r"\(3,\).*\(\)"):
        mu_expand(comp, np.ones(3), CFG)
    rows, scale = mu_compress(np.ones((3, 8), dtype=complex), CFG)
    with pytest.raises(compander.LengthMismatch, match=r"\(3, 1\).*\(3,\)"):
        mu_expand(rows, scale[:, None], CFG)
    with pytest.raises(compander.LengthMismatch):
        mu_expand(rows, 1.0, CFG)
