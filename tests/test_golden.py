"""Golden outputs of the simulator at fixed seeds.

The values were captured from the scalar codecs before the GF(2)-linear core
replaced them; the k-sweep pins were captured before the RS(25,16),
constrained RS and conventional RS(31,k) framings became one RsFrameLayout.  A change meant to keep the simulator's numbers must keep
these exactly: BER error counts and bit totals, the bytes of the PAPR
samples, and the bits of encoded frames.  A change that only reorders
floating-point work in the modem may move PAPR samples in the last digits
(the roadmap allows 1e-9 dB); it then re-captures the PAPR pins it moves
(PAPR_SHA256, KSWEEP_SHA256, LONG_BURST_SHA256, KSWEEP_150_SHA256) with the
difference measured and stated.
"""
import hashlib

import numpy as np
import pytest

from papr_lab import harness
from papr_lab.fec import bch, crs, rs

# (scheme, channel, SNR dB, companding, payload bits) -> per seed 1..3
# (bits_total, bits_error)
GOLDEN_BER = {
    ("rs2516", "pedestrian_b", 16.0, True, 12800):
        [(12800, 1083), (12800, 1203), (12800, 1228)],
    ("bch", "awgn", 4.0, False, 10880):
        [(10880, 73), (10880, 73), (10880, 86)],
    # captured before the table-driven decoders and the stacked sparse-tap
    # channel: CRS decoding, Vehicular A taps, and BCH on a fading channel
    ("crs31_19", "vehicular_a", 16.0, True, 12800):
        [(12800, 790), (12800, 626), (12800, 722)],
    ("bch", "pedestrian_b", 16.0, False, 10880):
        [(10880, 54), (10880, 111), (10880, 90)],
}
# crs31_19 + mu-law, random load, 400 frames, master seed 1; re-captured
# when the banks folded their phase into a delayed prototype and the
# compander went to one in-place pass (max |delta| 4.0e-15 dB), and again
# when synthesis reduced each half's K taps apart (max |delta| 4.4e-15 dB)
PAPR_SHA256 = "93325b1f4fb7597961bd8d6add271a1f5a174cb68e4df128c10cdc4a55c31abb"
# 50 rounds of bch, rs2516 and crs31_k (k-sweep) frames of random messages
FRAMES_SHA256 = \
    "a0e440f4bd97cc8011ecda7b476d67fef8b7ad2e0109c27b6d4f793a2a190124"
# rows (k, crs_db, rs_db) of the default k-sweep, as a float64 array;
# re-captured with PAPR_SHA256 both times (max |delta| 1.8e-15 dB each)
KSWEEP_SHA256 = \
    "f742455eb6970a867b5032390436addd0ea0762fabffb0dce25a3d288fe8e2ba"
# PAPR samples of bursts longer than CHUNK_FRAMES, master seed 1, captured
# before such bursts were measured in blocks; the first three re-captured
# with PAPR_SHA256 the second time (max |delta| 3.6e-15, 5.3e-15 and
# 4.0e-15 dB), the rs2516 point did not move:
# (scheme, companding, load, frames_per_burst, frames) -> sha256
LONG_BURST_SHA256 = {
    ("none", False, "random", 1000, 2500):
        "1ff8864e68b7a2945f6cb4ea7fea3f410e43a14cbdfb685f14816e867c0a8e57",
    ("crs31_19", False, "random", 250, 600):
        "a490c3f36b4d2fbbd8c96626a344a9e4c3b923814bf6518e3c6e7b0849f2a443",
    ("crs31_19", True, "random", 250, 600):
        "a1ccd9a6c91cd9da5e21c1c86fc9759afbe465ba975a23b049f5966a9e05c7e2",
    ("rs2516", False, "full", 250, 600):
        "caf73b47b98ccb4ec3b3558e5cddaa65601b1dc7f91d43740e9f1df4ee5b94ab",
}
# the k-sweep rows at 150-frame bursts, captured with LONG_BURST_SHA256 and
# re-captured with it (max |delta| 1.8e-15 dB); full load repeats one frame
# (CRS) or frame pair (RS), so they equal the rows of 10-frame bursts
KSWEEP_150_SHA256 = \
    "f742455eb6970a867b5032390436addd0ea0762fabffb0dce25a3d288fe8e2ba"
# the 10 conventional RS(31,k) full-load frames of each k-sweep point; an
# all-ones message encodes to the all-ones word at every k
RS_FULLLOAD_SHA256 = dict.fromkeys(
    harness.DEFAULT_KSWEEP,
    "164a096459dc69300f216f0a8e2282f7da358ad948148b59f8b38305938eade8")


@pytest.mark.parametrize("point", list(GOLDEN_BER))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ber_counts(point, seed):
    scheme, channel, snr_db, companding, bits = point
    cfg = harness.SimConfig(scheme=scheme, companding=companding, mu=25.0,
                            channel=channel, snr_list_db=(snr_db,),
                            bits=bits, master_seed=seed)
    rec = harness.run_ber_sweep(cfg)[0]
    assert (rec.bits_total, rec.bits_error) == GOLDEN_BER[point][seed - 1]


def test_papr_samples():
    cfg = harness.SimConfig(scheme="crs31_19", companding=True, mu=25.0,
                            frames=400, master_seed=1)
    samples = harness.run_papr_experiment(cfg).samples_db
    assert hashlib.sha256(samples.tobytes()).hexdigest() == PAPR_SHA256


def test_encoded_frames():
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for _ in range(50):
        h.update(bch.bch_encode(
            rng.integers(0, 2, 85).astype(np.uint8)).tobytes())
        h.update(rs.rs2516_frame(
            [int(v) for v in rng.integers(0, 32, 16)]).tobytes())
        for k in harness.DEFAULT_KSWEEP:
            lay = crs.crs_layout(6, 31, k)
            h.update(crs.crs_encode(lay, rng.integers(
                0, 2, lay.message_bits).astype(np.uint8)).tobytes())
    assert h.hexdigest() == FRAMES_SHA256


def test_ksweep_rows():
    rows = np.array(harness.run_crs_k_sweep())
    assert hashlib.sha256(rows.tobytes()).hexdigest() == KSWEEP_SHA256


@pytest.mark.parametrize("k", harness.DEFAULT_KSWEEP)
def test_rs_fullload_frames(k):
    frames = harness._rs_fullload_frames(k, 10)
    assert hashlib.sha256(frames.tobytes()).hexdigest() == \
        RS_FULLLOAD_SHA256[k]


@pytest.mark.parametrize("point", list(LONG_BURST_SHA256))
def test_long_burst_papr_samples(point):
    scheme, companding, load, fpb, frames = point
    cfg = harness.SimConfig(scheme=scheme, companding=companding, mu=25.0,
                            load=load, frames_per_burst=fpb, frames=frames,
                            master_seed=1)
    samples = harness.run_papr_experiment(cfg).samples_db
    assert hashlib.sha256(samples.tobytes()).hexdigest() == \
        LONG_BURST_SHA256[point]


def test_ksweep_rows_long_bursts():
    cfg = harness.SimConfig(load="full", frames_per_burst=150)
    rows = np.array(harness.run_crs_k_sweep(cfg=cfg))
    assert hashlib.sha256(rows.tobytes()).hexdigest() == KSWEEP_150_SHA256
