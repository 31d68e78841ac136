"""Checks of the benchmark's checks: each one passes the program's real
output and rejects a corrupted copy of it.

Run from the repository root: python3 -m pytest perfbench -q
"""
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from papr_lab import compander, harness, metrics, modem  # noqa: E402
from papr_lab.fec import bch, crs, rs  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_uncoded_ber_scaled_by_1_5_is_rejected():
    cfg = replace(workloads.operations("ber_awgn_bch_sweep", 3)[0],
                  bits=8 * 8 * 128, workers=1)
    (rec,) = harness.run_ber_sweep(cfg)
    assert checks.uncoded_ber_check(rec, cfg) == []
    assert checks.ber_bookkeeping(rec, cfg, 128, errors_expected=True) == []
    scaled = replace(rec, bits_error=round(rec.bits_error * 1.5))
    assert checks.uncoded_ber_check(scaled, cfg)


def test_bch_failure_count_off_the_binomial_is_rejected():
    cfg = workloads.operations("ber_awgn_bch_sweep", 3)[4]
    p = checks.bch_failure_probability(checks.uncoded_ber(2.0, 64, 4, 10))
    expected = round(1000 * p)
    assert checks.bch_failure_check(expected, 1000, 2.0, cfg) == []
    assert checks.bch_failure_check(round(expected * 1.5), 1000, 2.0, cfg)


def test_bookkeeping_rejects_a_wrong_bit_total():
    cfg = workloads.operations("ber_pedb_rs2516_mu", 3)[0]
    rec = metrics.BerRecord(16.0, "rs2516", "pedestrian_b", True,
                            bits_total=cfg.bits, bits_error=10)
    assert checks.ber_bookkeeping(rec, cfg, 80, errors_expected=True) == []
    assert checks.ber_bookkeeping(replace(rec, bits_total=cfg.bits - 80),
                                  cfg, 80, errors_expected=True)
    assert checks.ber_bookkeeping(replace(rec, bits_error=0), cfg, 80,
                                  errors_expected=True)


@pytest.mark.parametrize("name", ["papr_crs19_mu", "papr_none_longburst"])
def test_papr_sample_shifted_by_0_1_db_is_rejected(name):
    cfg = replace(workloads.operations(name, 3)[0], frames_per_burst=12)
    scheme = harness.get_scheme(cfg.scheme, cfg.M)
    rng = np.random.default_rng(3)
    frames = np.stack([scheme.encode(p) for p in rng.integers(
        0, 2, (cfg.frames_per_burst, scheme.payload_bits), dtype=np.uint8)])
    mcfg = cfg.modem_config()
    sig = modem.modulate_frames(frames, mcfg)
    mu = None
    if cfg.companding:
        mu = cfg.mu
        sig, _ = compander.mu_compress(sig, compander.CompanderConfig(mu=mu))
    db = metrics.frame_paprs(sig, cfg.M, mcfg.Lp, cfg.frames_per_burst)
    assert checks.reference_synthesis_check(db, frames, cfg.M, cfg.K, mu) == []
    db[5] += 0.1
    assert checks.reference_synthesis_check(db, frames, cfg.M, cfg.K, mu)


def test_papr_outputs_reject_a_shifted_or_out_of_range_sample():
    cfg = replace(workloads.operations("papr_crs19_mu", 3)[0], frames=200)
    res = harness.run_papr_experiment(cfg)
    assert checks.papr_outputs(res, 200, 64) == []
    high = res.samples_db.copy()
    high[0] = 10 * np.log10(64) + 0.1
    assert checks.papr_outputs(replace(res, samples_db=high), 200, 64)
    assert checks.papr_outputs(replace(res, samples_db=res.samples_db[1:]),
                               200, 64)


def _noisy(frame: np.ndarray, positions) -> np.ndarray:
    frame = frame.copy()
    frame[list(positions)] ^= 1
    return frame


def _outside(msg) -> np.ndarray | list:
    """The decoded message with its first symbol changed: its codeword lies
    at least the minimum distance away from the sent one."""
    if isinstance(msg, list):
        return [msg[0] ^ 1] + msg[1:]
    return _noisy(msg, [0])


def test_decode_moved_outside_the_radius_is_rejected():
    check = checks.make_decode_check(spans.ORIGINAL)
    rng = np.random.default_rng(5)
    layout = crs.crs_layout(6, 31, 19)
    cases = [
        ("bch_decode", bch.bch_encode(rng.integers(0, 2, 85, dtype=np.uint8)),
         lambda f: (f,), bch.bch_decode),
        ("rs2516_decode", rs.rs2516_frame(list(rng.integers(0, 32, 16))),
         lambda f: (f,), rs.rs2516_decode),
        ("crs_decode", crs.crs_encode(layout, rng.integers(
            0, 2, 64, dtype=np.uint8)),
         lambda f: (layout, f), lambda *a: crs.crs_decode(*a)),
    ]
    for name, frame, args, decode in cases:
        received = _noisy(frame, [3, 40, 77])
        out = decode(*args(received))
        assert out[1] > 0
        assert check(name, args(received), out), name
        moved = (_outside(out[0]),) + tuple(out[1:])
        assert not check(name, args(received), moved), name


def test_tracer_counts_outcomes_and_restores_the_package():
    frame = bch.bch_encode(np.zeros(85, dtype=np.uint8))
    tracer = spans.Tracer()
    with tracer.installed():
        scheme = harness.get_scheme("bch")
        scheme.decode(frame)                                  # clean
        scheme.decode(_noisy(frame, [1, 2]))                  # corrected
        scheme.decode(_noisy(frame, range(0, 120, 6)))        # fails
    assert bch.bch_decode is spans.ORIGINAL["bch_decode"]
    counts = tracer.summary()["counts"]
    assert counts["fec.decode.attempts"] == 3
    assert counts["fec.decode.clean"] == 1
    assert counts["fec.decode.corrected"] == 1
    assert counts["fec.decode.failed"] == 1
    assert counts["fec.decode.corrected_units"] == 2
