"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

The expensive BER criterion runs last; the full module takes on the order of
ten minutes single-threaded.
"""
import math

import numpy as np
import pytest

from papr_lab import compander, gf2m, harness, metrics, modem
from papr_lab.fec import bch, crs, rs
from papr_lab.harness import SimConfig


def _report(capsys, num: int, label: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\n[{verdict}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


# --- criterion 1: field/codec correctness ------------------------------------

def _field_axioms_hold(fs, n_triples, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, fs.size, n_triples)
    b = rng.integers(0, fs.size, n_triples)
    c = rng.integers(0, fs.size, n_triples)
    ok = np.array_equal(a ^ b, b ^ a)
    ok &= not np.any(a ^ a)
    ab = gf2m.arr_mul(fs, a, b)
    ok &= np.array_equal(ab, gf2m.arr_mul(fs, b, a))
    ok &= np.array_equal(gf2m.arr_mul(fs, ab, c),
                         gf2m.arr_mul(fs, a, gf2m.arr_mul(fs, b, c)))
    ok &= np.array_equal(gf2m.arr_mul(fs, a, b ^ c),
                         ab ^ gf2m.arr_mul(fs, a, c))
    nz = a > 0
    inv_a = fs.exp_table[(fs.order - fs.log_table[a[nz]]) % fs.order]
    ok &= np.all(gf2m.arr_mul(fs, a[nz], inv_a) == 1)
    return bool(ok)


def _rs_trials(n_trials, seed):
    spec = rs.rs_spec(5, 19)
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        f = int(rng.integers(0, spec.r + 1))
        e = int(rng.integers(0, (spec.r - f) // 2 + 1))
        msg = [int(v) for v in rng.integers(0, 32, spec.k)]
        cw = rs.rs_encode(spec, msg)
        pos = rng.choice(spec.n, size=e + f, replace=False)
        for p in pos[:e]:
            cw[p] ^= int(rng.integers(1, 32))
        for p in pos[e:]:
            cw[p] = int(rng.integers(0, 32))
        decoded, _ = rs.rs_decode(spec, cw, erasures=pos[e:])
        if decoded != msg:
            return False
    return True


def _rs2516_trials(n_trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        e = int(rng.integers(0, 5))
        msg = [int(v) for v in rng.integers(0, 32, 16)]
        frame = rs.rs2516_frame(msg)
        for p in rng.choice(25, size=e, replace=False):
            sym = rs._bits_to_symbols(frame[p * 5:(p + 1) * 5], 5)[0]
            sym ^= int(rng.integers(1, 32))
            frame[p * 5:(p + 1) * 5] = rs._symbols_to_bits([sym], 5)
        decoded, _ = rs.rs2516_decode(frame)
        if decoded != msg:
            return False
    return True


def _bch_trials(n_trials, seed):
    spec = bch.bch_spec()
    if spec.generator.bit_length() - 1 != 42 or spec.t != 6:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        e = int(rng.integers(0, spec.t + 1))
        msg = rng.integers(0, 2, spec.k).astype(np.uint8)
        frame = bch.bch_encode(msg)
        frame[rng.choice(spec.n, size=e, replace=False)] ^= 1
        decoded, _ = bch.bch_decode(frame)
        if not np.array_equal(decoded, msg):
            return False
    return True


def test_criterion_1_field_and_codecs(capsys):
    ok_fields = all(_field_axioms_hold(gf2m.cached_field(m), 100_000, 10 + m)
                    for m in (5, 7))
    ok_rs = _rs_trials(10_000, 21)
    ok_rs2516 = _rs2516_trials(10_000, 22)
    ok_bch = _bch_trials(10_000, 23)
    _report(capsys, 1, "GF axioms + RS/RS2516/BCH correction bounds",
            ok_fields and ok_rs and ok_rs2516 and ok_bch,
            f"fields={ok_fields} rs={ok_rs} rs2516={ok_rs2516} bch={ok_bch}")


# --- criterion 2: CRS layout math --------------------------------------------

def test_criterion_2_crs_layout(capsys):
    lay = crs.crs_layout(6, 31, 19)
    ok = (lay.p == 4
          and round(lay.p_lower, 2) == 3.58
          and round(lay.p_upper, 2) == 4.25)
    _report(capsys, 2, "crs_layout(6, 31, 19) -> p = 4, bounds (3.58, 4.25]",
            ok, f"p={lay.p} bounds=({lay.p_lower:.2f}, {lay.p_upper:.2f}]")


# --- criterion 3: codeword density -------------------------------------------

def test_criterion_3_codeword_density(capsys):
    d_bch = crs.codeword_density("bch")
    d_rs = crs.codeword_density("rs31_19_raw")
    d_crs = crs.codeword_density("crs31_19")
    ok = (d_bch, d_rs, d_crs) == (-43, -60, -64) and d_crs < d_rs < d_bch
    _report(capsys, 3, "densities -43/-60/-64 with CRS < RS < BCH",
            ok, f"bch={d_bch} rs={d_rs} crs={d_crs}")


# --- criterion 4: modem near-perfect reconstruction --------------------------

def test_criterion_4_modem_npr(capsys):
    rng = np.random.default_rng(40)
    cfg = modem.ModemConfig(M=64, K=4)
    mse_acc = err = total = n_sym = 0
    for _ in range(10):  # 10 bursts x 20 frames x 64 symbols = 12800 symbols
        frames = rng.integers(0, 2, (20, 128)).astype(np.uint8)
        grid = modem.frames_to_grid(frames, 64)
        sig = modem.synthesis(modem.oqam_preprocess(grid), cfg)
        est = modem.oqam_postprocess(modem.analysis(sig, cfg, 40))
        mse_acc += np.sum(np.abs(est - grid) ** 2)
        n_sym += grid.size
        e, t = metrics.ber(frames, modem.grid_to_frames(est))
        err += e
        total += t
    mse = mse_acc / n_sym
    ok = n_sym >= 10_000 and mse <= 1e-3 and err == 0
    _report(capsys, 4, "back-to-back MSE <= 1e-3 and BER = 0",
            ok, f"symbols={n_sym} mse={mse:.2e} bit_errors={err}")


# --- criterion 5: compander --------------------------------------------------

def test_criterion_5_compander(capsys):
    rng = np.random.default_rng(50)
    sig = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
    comp, scale = compander.mu_compress(sig)
    back, _ = compander.mu_expand(comp, scale)
    max_err = float(np.max(np.abs(back - sig)))
    # oracle: direct evaluation of the companding law at y = 0.5, mu = 25
    oracle = math.log(1 + 25 * 0.5) / math.log(1 + 25)
    got = compander.mu_compress(np.array([1.0, 0.5]))[0][1].real
    ok = max_err <= 1e-12 and abs(got - oracle) <= 1e-6
    _report(capsys, 5, "roundtrip <= 1e-12 and F(0.5; mu=25) matches oracle",
            ok, f"roundtrip={max_err:.1e} F(0.5)={got:.7f} oracle={oracle:.7f}")


# --- criterion 6: companding PAPR reduction ----------------------------------

def test_criterion_6_papr_reduction(capsys):
    base = SimConfig(scheme="none", load="random", frames=10_000,
                     master_seed=5)
    plain = harness.run_papr_experiment(base).max_papr_db
    companded = harness.run_papr_experiment(
        SimConfig(scheme="none", companding=True, load="random",
                  frames=10_000, master_seed=5)).max_papr_db
    drop = plain - companded
    ok = drop >= 5.0
    _report(capsys, 6, "mu-law reduces max PAPR by >= 5 dB (1e4 frames)",
            ok, f"{plain:.2f} -> {companded:.2f} dB, drop {drop:.2f}")


# --- criterion 7: range confinement ordering ---------------------------------

def test_criterion_7_range_confinement(capsys):
    gaps = {}
    for scheme in ("bch", "rs2516", "crs31_19"):
        vals = {}
        for load in ("full", "random"):
            cfg = SimConfig(scheme=scheme, companding=True, load=load,
                            frames=2000, master_seed=5)
            vals[load] = harness.run_papr_experiment(cfg).max_papr_db
        gaps[scheme] = abs(vals["full"] - vals["random"])
    ok = (gaps["crs31_19"] < gaps["rs2516"] < gaps["bch"]
          and gaps["crs31_19"] <= 1.5)
    _report(capsys, 7, "gap(CRS+mu) < gap(RS2516+mu) < gap(BCH+mu), "
            "CRS gap <= 1.5 dB", ok,
            ", ".join(f"{s}={g:.2f}" for s, g in gaps.items()))


# --- criterion 8: k-sweep trends ---------------------------------------------

def test_criterion_8_ksweep_trends(capsys):
    rows = harness.run_crs_k_sweep()
    crs_col = [r[1] for r in rows]
    rs_col = [r[2] for r in rows]
    crs_nonincreasing = all(b <= a + 1e-9
                            for a, b in zip(crs_col, crs_col[1:]))
    crs_strict = crs_col[-1] < crs_col[0]
    rs_constant = max(rs_col) - min(rs_col) <= 0.1
    ok = crs_nonincreasing and crs_strict and rs_constant
    _report(capsys, 8, "CRS full-load PAPR non-increasing in k, RS constant",
            ok, "crs=[" + ", ".join(f"{v:.2f}" for v in crs_col) + "] "
            f"rs_spread={max(rs_col) - min(rs_col):.3f}")


# --- criterion 10: determinism (cheap, runs before the BER criterion) --------

def test_criterion_10_determinism(capsys, tmp_path):
    from papr_lab import cli
    ok = True
    detail = []
    papr_args = ["papr", "--scheme", "crs31_19", "--compand",
                 "--frames", "500", "--seed", "42"]
    files = []
    for i, extra in enumerate(([], ["--workers", "4"])):
        out = tmp_path / f"papr{i}.csv"
        assert cli.main(papr_args + extra + ["--out", str(out)]) == 0
        files.append(out.read_bytes())
    ok &= files[0] == files[1]
    detail.append(f"papr_identical={files[0] == files[1]}")

    ber_args = ["ber", "--scheme", "rs2516", "--channel", "pedestrian_b",
                "--snr", "8,12", "--bits", "20000", "--seed", "7"]
    files = []
    for i, extra in enumerate(([], ["--workers", "3"])):
        out = tmp_path / f"ber{i}.csv"
        assert cli.main(ber_args + extra + ["--out", str(out)]) == 0
        files.append(out.read_bytes())
    ok &= files[0] == files[1]
    detail.append(f"ber_identical={files[0] == files[1]}")
    _report(capsys, 10, "byte-identical CSVs across reruns and worker counts",
            ok, " ".join(detail))


# --- criterion 9: BER sanity and ordering ------------------------------------

def _ber_point(scheme, channel, snr_db, companding=False, bits=1_000_000):
    cfg = SimConfig(scheme=scheme, companding=companding, channel=channel,
                    snr_list_db=(snr_db,), bits=bits, master_seed=5)
    return harness.run_ber_sweep(cfg)[0]


def test_criterion_9_ber(capsys):
    detail = []

    high = _ber_point("none", "awgn", 30.0, bits=200_000)
    ok_high = high.bits_error == 0
    detail.append(f"awgn30_errors={high.bits_error}")

    uncoded = _ber_point("none", "awgn", 7.0)
    in_range = 1e-3 <= uncoded.ber <= 1e-2
    detail.append(f"uncoded7={uncoded.ber:.2e}")
    ok_coded = in_range
    for scheme in ("bch", "rs2516", "crs31_19"):
        rec = _ber_point(scheme, "awgn", 7.0)
        ok_coded &= rec.ber <= uncoded.ber
        detail.append(f"{scheme}7={rec.ber:.2e}")

    ok_fading = True
    for channel in ("pedestrian_b", "vehicular_a"):
        rs_rec = _ber_point("rs2516", channel, 16.0, companding=True)
        crs_rec = _ber_point("crs31_19", channel, 16.0, companding=True)
        # one-sided 95% binomial comparison of the two error rates
        p_pool = ((rs_rec.bits_error + crs_rec.bits_error)
                  / (rs_rec.bits_total + crs_rec.bits_total))
        slack = 1.645 * math.sqrt(p_pool * (1 - p_pool)
                                  * (1 / rs_rec.bits_total
                                     + 1 / crs_rec.bits_total))
        ok_fading &= crs_rec.ber <= rs_rec.ber + slack
        detail.append(f"{channel}: crs={crs_rec.ber:.2e} rs={rs_rec.ber:.2e}")

    ok = ok_high and ok_coded and ok_fading
    _report(capsys, 9, "BER sanity (AWGN) and CRS <= RS2516 on fading",
            ok, "; ".join(detail))
