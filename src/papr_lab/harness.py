"""Scenario runner: PAPR/CCDF experiments, the CRS k-sweep, BER-vs-SNR
sweeps, and CSV emission.

Reproducibility: every burst gets its own RNG streams derived from
(master_seed, scenario key, burst index, role), role in {payload, fading,
noise}.  Paired comparisons across schemes therefore share payload and
channel randomness.  Bursts are independent work units; results are merged
in burst order so output is byte-identical at any worker count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import channel as chan
from . import compander, metrics, modem
from .fec import bch, crs, rs
from .metrics import BerRecord, CcdfCurve


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "none"          # none | bch | rs2516 | crs31_<k>
    companding: bool = False
    mu: float = 25.0
    channel: str = "awgn"
    snr_list_db: tuple = ()
    frames: int = 1000            # measured frames for PAPR runs
    bits: int = 1_000_000         # payload bits per SNR point for BER runs
    load: str = "random"          # random | full
    master_seed: int = 0
    M: int = 64
    K: int = 4
    frames_per_burst: int = 10
    sample_rate: float = chan.DEFAULT_SAMPLE_RATE
    workers: int = 1
    out: str = ""

    def modem_config(self) -> modem.ModemConfig:
        return modem.ModemConfig(M=self.M, K=self.K)

    def validate(self) -> None:
        for flag, value in (("--frames", self.frames), ("--bits", self.bits),
                            ("--workers", self.workers)):
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1, got {value}")
        # +inf is the noiseless point; channel.apply would take -inf for it
        for snr in self.snr_list_db:
            if np.isnan(snr) or snr == -np.inf:
                raise ConfigError(f"--snr {snr} is not a dB value or inf")
        if self.frames_per_burst < 3:
            raise ConfigError("frames_per_burst must be >= 3 "
                              "(first and last frame are warm-up)")
        if self.load not in ("random", "full"):
            raise ConfigError(f"unknown load {self.load!r}")
        get_scheme(self.scheme, self.M)  # raises on unknown/infeasible
        chan.make_profile(self.channel)


# --- scheme registry ---------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """One frame-level coding scheme: payload bits in, 2M-bit frame out."""
    name: str
    payload_bits: int
    encode: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    decode: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _none_scheme(frame_bits: int) -> Scheme:
    ident = lambda b: np.asarray(b, dtype=np.uint8)
    return Scheme("none", frame_bits, ident, ident)


def _bch_scheme() -> Scheme:
    spec = bch.bch_spec()

    def decode(frame):
        try:
            return bch.bch_decode(frame)[0]
        except rs.DecodeFailure:
            return np.asarray(frame[:spec.k], dtype=np.uint8)
    return Scheme("bch", spec.k, bch.bch_encode, decode)


def _rs2516_scheme() -> Scheme:
    def encode(payload):
        return rs.rs2516_frame(rs._bits_to_symbols(
            np.asarray(payload, dtype=np.uint8), 5))

    def decode(frame):
        try:
            syms, _ = rs.rs2516_decode(frame)
            return rs._symbols_to_bits(syms, 5)
        except rs.DecodeFailure:
            return np.asarray(frame[:80], dtype=np.uint8)
    return Scheme("rs2516", 80, encode, decode)


def _crs_scheme(k: int, M: int) -> Scheme:
    N = int(np.log2(M))
    layout = crs.crs_layout(N, 31, k)

    def decode(frame):
        try:
            return crs.crs_decode(layout, frame)[0]
        except rs.DecodeFailure:
            return np.asarray(frame[:layout.message_bits], dtype=np.uint8)
    return Scheme(f"crs31_{k}", layout.message_bits,
                  lambda b: crs.crs_encode(layout, b), decode)


def get_scheme(name: str, M: int = 64) -> Scheme:
    if name == "none":
        return _none_scheme(2 * M)
    if name == "bch":
        return _bch_scheme()
    if name == "rs2516":
        return _rs2516_scheme()
    if name.startswith("crs31_"):
        try:
            k = int(name.split("_", 1)[1])
        except ValueError:
            raise ConfigError(f"bad scheme name {name!r}") from None
        return _crs_scheme(k, M)
    raise ConfigError(f"unknown scheme {name!r}")


# --- seeding -----------------------------------------------------------------

_ROLE_PAYLOAD, _ROLE_FADING, _ROLE_NOISE = 0, 1, 2


def _rng(master_seed: int, scenario_key: int, burst: int,
         role: int) -> np.random.Generator:
    seq = np.random.SeedSequence([master_seed & 0xFFFFFFFFFFFFFFFF,
                                  scenario_key, burst, role])
    return np.random.default_rng(seq)


def _snr_key(snr_db: float) -> int:
    if snr_db is None or np.isinf(snr_db):
        return 2_000_000_000  # noiseless sentinel (inf SNR skips noise)
    return int(round(snr_db * 1000)) + 1_000_000


# --- PAPR experiments --------------------------------------------------------

@dataclass(frozen=True)
class PaprResult:
    scheme: str
    companding: bool
    load: str
    samples_db: np.ndarray
    curve: CcdfCurve | None

    @property
    def max_papr_db(self) -> float:
        return float(self.samples_db.max())

    def papr_at(self, prob: float) -> float:
        if self.curve is None:
            return self.max_papr_db
        return metrics.papr_at_probability(self.curve, prob)


def _payload_frames(scheme: Scheme, cfg: SimConfig,
                    rng: np.random.Generator | None) -> np.ndarray:
    fpb = cfg.frames_per_burst
    if cfg.load == "full":
        payloads = np.ones((fpb, scheme.payload_bits), dtype=np.uint8)
    else:
        payloads = rng.integers(0, 2, (fpb, scheme.payload_bits)).astype(np.uint8)
    return payloads


def _encode_burst(scheme: Scheme, payloads: np.ndarray) -> np.ndarray:
    return np.stack([scheme.encode(p) for p in payloads])


def _tx_burst(cfg: SimConfig, mcfg: modem.ModemConfig,
              frames: np.ndarray) -> tuple[np.ndarray, float]:
    sig = modem.modulate_frames(frames, mcfg)
    scale = 1.0
    if cfg.companding:
        sig, scale = compander.mu_compress(
            sig, compander.CompanderConfig(mu=cfg.mu))
    return sig, scale


def _papr_burst(cfg: SimConfig, scheme: Scheme, mcfg: modem.ModemConfig,
                burst: int) -> np.ndarray:
    rng = _rng(cfg.master_seed, 0, burst, _ROLE_PAYLOAD)
    payloads = _payload_frames(scheme, cfg, rng)
    frames = _encode_burst(scheme, payloads)
    sig, _ = _tx_burst(cfg, mcfg, frames)
    vals = metrics.frame_paprs(sig, cfg.M, mcfg.Lp, cfg.frames_per_burst)
    return vals[1:-1]  # warm-up frames excluded


def _run_bursts(n_bursts: int, worker: Callable[[int], object],
                workers: int) -> list:
    if workers <= 1:
        return [worker(b) for b in range(n_bursts)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, range(n_bursts)))


def run_papr_experiment(cfg: SimConfig) -> PaprResult:
    """Measure per-frame PAPR at the transmitter output (post-companding
    when enabled); the channel is not involved."""
    cfg.validate()
    scheme = get_scheme(cfg.scheme, cfg.M)
    mcfg = cfg.modem_config()
    per_burst = cfg.frames_per_burst - 2
    n_bursts = -(-cfg.frames // per_burst)
    if cfg.load == "full":
        # full load is deterministic: one burst, repeated
        vals = _papr_burst(cfg, scheme, mcfg, 0)
        samples = np.tile(vals, n_bursts)[:cfg.frames]
    else:
        chunks = _run_bursts(
            n_bursts, lambda b: _papr_burst(cfg, scheme, mcfg, b),
            cfg.workers)
        samples = np.concatenate(chunks)[:cfg.frames]
    curve = metrics.ccdf(samples) if samples.size >= 100 else None
    return PaprResult(scheme=cfg.scheme, companding=cfg.companding,
                      load=cfg.load, samples_db=samples, curve=curve)


# --- CRS k-sweep -------------------------------------------------------------

DEFAULT_KSWEEP = (19, 21, 23, 25, 27, 29)


def _rs_fullload_frames(k: int, fpb: int) -> np.ndarray:
    """Conventional RS(31,k) framing under full load: each codeword's 155
    bits span two 128-bit frames (zero padded)."""
    spec = rs.rs_spec(5, k)
    cw = rs.rs_encode(spec, [31] * k)  # all-ones message symbols
    bits = rs._symbols_to_bits(cw, 5)
    block = np.zeros(256, dtype=np.uint8)
    block[:bits.size] = bits
    reps = -(-fpb // 2)
    return np.tile(block, reps)[:fpb * 128].reshape(fpb, 128)


def run_crs_k_sweep(k_list: Sequence[int] = DEFAULT_KSWEEP,
                    cfg: SimConfig | None = None) -> list[tuple[int, float, float]]:
    """Full-load max PAPR at the modem output for CRS(31,k) and for
    conventional RS(31,k) framing.  Returns rows (k, crs_db, rs_db)."""
    cfg = cfg or SimConfig(load="full")
    mcfg = cfg.modem_config()
    rows = []
    for k in k_list:
        crs_cfg = replace(cfg, scheme=f"crs31_{k}", load="full")
        crs_db = run_papr_experiment(crs_cfg).max_papr_db
        rs_frames = _rs_fullload_frames(k, cfg.frames_per_burst)
        sig, _ = _tx_burst(cfg, mcfg, rs_frames)
        rs_db = float(metrics.frame_paprs(
            sig, cfg.M, mcfg.Lp, cfg.frames_per_burst)[1:-1].max())
        rows.append((k, crs_db, rs_db))
    return rows


# --- BER sweep ---------------------------------------------------------------

def _ber_burst(cfg: SimConfig, scheme: Scheme, mcfg: modem.ModemConfig,
               profile: chan.ChannelProfile, snr_db: float,
               burst: int) -> tuple[int, int]:
    key = _snr_key(snr_db)
    payload_rng = _rng(cfg.master_seed, key, burst, _ROLE_PAYLOAD)
    payloads = payload_rng.integers(
        0, 2, (cfg.frames_per_burst, scheme.payload_bits)).astype(np.uint8)
    frames = _encode_burst(scheme, payloads)
    sig, scale = _tx_burst(cfg, mcfg, frames)

    fading_rng = _rng(cfg.master_seed, key, burst, _ROLE_FADING)
    noise_rng = _rng(cfg.master_seed, key, burst, _ROLE_NOISE)
    ch = chan.realize(profile, cfg.sample_rate,
                      fading_rng if profile.fading != "none" else None)
    rx = chan.apply(sig, ch, snr_db, noise_rng)

    if cfg.companding:
        rx, _ = compander.mu_expand(rx, scale,
                                    compander.CompanderConfig(mu=cfg.mu))
    grid = modem.analysis(rx, mcfg, 2 * cfg.frames_per_burst)
    grid, _ = chan.equalize(grid, ch, cfg.M)
    rx_frames = modem.grid_to_frames(modem.oqam_postprocess(grid))

    errs = total = 0
    for l in range(1, cfg.frames_per_burst - 1):  # skip warm-up frames
        decoded = scheme.decode(rx_frames[l])
        e, t = metrics.ber(payloads[l], decoded)
        errs += e
        total += t
    return errs, total


def run_ber_sweep(cfg: SimConfig) -> list[BerRecord]:
    """BER per SNR point; bursts are generated until cfg.bits payload bits
    have been counted at each point."""
    cfg.validate()
    if not cfg.snr_list_db:
        raise ConfigError("snr_list_db is empty")
    scheme = get_scheme(cfg.scheme, cfg.M)
    mcfg = cfg.modem_config()
    profile = chan.make_profile(cfg.channel)
    per_burst = (cfg.frames_per_burst - 2) * scheme.payload_bits
    n_bursts = -(-cfg.bits // per_burst)
    records = []
    for snr_db in cfg.snr_list_db:
        results = _run_bursts(
            n_bursts,
            lambda b: _ber_burst(cfg, scheme, mcfg, profile, snr_db, b),
            cfg.workers)
        errs = sum(r[0] for r in results)
        total = sum(r[1] for r in results)
        records.append(BerRecord(snr_db=snr_db, scheme=cfg.scheme,
                                 channel=cfg.channel,
                                 companding=cfg.companding,
                                 bits_total=total, bits_error=errs))
    return sorted(records, key=lambda r: (r.snr_db, r.scheme))


# --- CSV emission ------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6f}"


def emit_ccdf_csv(curve: CcdfCurve, path: str) -> None:
    lines = ["papr_db,ccdf"]
    for t, p in zip(curve.thresholds_db, curve.probabilities):
        lines.append(f"{_fmt(t)},{_fmt(p)}")
    _write_lines(path, lines)


def emit_ber_csv(records: Sequence[BerRecord], path: str) -> None:
    lines = ["snr_db,scheme,channel,companding,bits,errors,ber"]
    for r in sorted(records, key=lambda r: (r.snr_db, r.scheme)):
        lines.append(f"{_fmt(r.snr_db)},{r.scheme},{r.channel},"
                     f"{int(r.companding)},{r.bits_total},{r.bits_error},"
                     f"{r.ber:.6e}")
    _write_lines(path, lines)


def emit_papr_summary_csv(results: Sequence[PaprResult], path: str) -> None:
    lines = ["scheme,companding,load,max_papr_db,papr_at_1e3_db"]
    for r in results:
        lines.append(f"{r.scheme},{int(r.companding)},{r.load},"
                     f"{_fmt(r.max_papr_db)},{_fmt(r.papr_at(1e-3))}")
    _write_lines(path, lines)


def emit_ksweep_csv(rows: Sequence[tuple[int, float, float]],
                    path: str) -> None:
    lines = ["k,crs_papr_db,rs_papr_db"]
    for k, crs_db, rs_db in rows:
        lines.append(f"{k},{_fmt(crs_db)},{_fmt(rs_db)}")
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as ex:
        raise IOError(f"cannot write {path}: {ex}") from ex
