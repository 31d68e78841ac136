"""Scenario runner: PAPR/CCDF experiments, the CRS k-sweep, BER-vs-SNR
sweeps, and CSV emission.

Reproducibility: every burst gets its own RNG streams, the PCG64 streams of
SeedSequence([master_seed, scenario key, burst index, role]), role in
{payload, fading, noise}.  Paired comparisons across schemes therefore share
payload and channel randomness.  A run derives the seed words of many
streams in one vectorized pass (_seed_words): a PAPR run those of all its
bursts before the first chunk, a BER run those of each chunk's bursts.
Bursts run in fixed chunks of consecutive bursts, each chunk stacked
through encoder, modem, compander and equalizer as one array, one chunk
after another on the calling thread, in burst order.  An uncompanded PAPR
burst longer than a chunk is measured in blocks of frames.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import channel as chan
from . import compander, metrics, modem
from .fec import bch, crs, rs
from .metrics import BerRecord, CcdfCurve


class ConfigError(ValueError):
    pass


# one filter bank per (M, K): designing its prototype takes about 60 us
_modem_config = functools.cache(modem.ModemConfig)


# A BER burst peaks at about 10 KiB per frame (tracemalloc: 10.6 KiB in
# 10-frame bursts, 9.2 KiB in one 1,000-frame burst, rs2516 + mu-law).
# Frames per chunk of bursts: a 10-frame burst costs about 100 us of numpy
# and Python call overhead alone, so bursts run stacked, in chunks that keep
# the working set near 1 MiB.  A burst longer than this is a chunk of one,
# and an uncompanded PAPR burst goes in blocks of this many measured frames.
CHUNK_FRAMES = 100
# A BER burst and a companded PAPR burst are one stack, so this bounds their
# working set at about 100 MiB; a whole other PAPR run peaks under 4 MiB.
MAX_FRAMES_PER_BURST = 10_000
# |SNR| in dB at a finite point: its stream key, _snr_key, stays in
# 0..2,000,000, below the noiseless sentinel and inside a uint32 word
MAX_SNR_DB = 1000


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
    frames_per_burst: int = 10
    workers: int = 1              # validated (>= 1) but has no effect
    # the chain's filter bank: sub-channels and overlap factor
    M: ClassVar[int] = 64
    K: ClassVar[int] = 4

    def modem_config(self) -> modem.ModemConfig:
        return _modem_config(self.M, self.K)

    def validate(self) -> None:
        if not 3 <= self.frames_per_burst <= MAX_FRAMES_PER_BURST:
            raise ConfigError(
                f"--frames-per-burst must be in 3..{MAX_FRAMES_PER_BURST} "
                f"(first and last frame are warm-up), "
                f"got {self.frames_per_burst}")
        for flag, value in (("--frames", self.frames), ("--bits", self.bits),
                            ("--workers", self.workers)):
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1, got {value}")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError(f"--mu must be finite and positive, "
                              f"got {self.mu}")
        # +inf is the noiseless point; channel.apply would take -inf for it,
        # and a finite point keys its streams by its value in milli-dB
        for snr in self.snr_list_db:
            if np.isnan(snr) or snr == -np.inf:
                raise ConfigError(f"--snr {snr} is not a dB value or inf")
            if np.isfinite(snr) and abs(snr) > MAX_SNR_DB:
                raise ConfigError(f"--snr {snr} is outside "
                                  f"-{MAX_SNR_DB}..{MAX_SNR_DB} dB")
        if self.load not in ("random", "full"):
            raise ConfigError(f"--load: unknown load {self.load!r}")
        try:
            get_scheme(self.scheme, self.M)
        except ValueError as ex:  # unknown name, k out of range, infeasible
            raise ConfigError(f"--scheme: {ex}") from None
        try:
            chan.make_profile(self.channel)
        except chan.UnknownProfile as ex:
            raise ConfigError(f"--channel: {ex}") from None


# --- scheme registry ---------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """One frame-level coding scheme: encode maps (..., payload bits) to
    (..., 2M-bit frames) in one call; decode maps (..., 2M) frames to
    (..., payload bits), calling the frame decoder once per frame."""
    name: str
    payload_bits: int
    encode: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    decode: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _none_scheme(frame_bits: int) -> Scheme:
    ident = lambda b: np.asarray(b, dtype=np.uint8)
    return Scheme("none", frame_bits, ident, ident)


def _decode_each(frames: np.ndarray, decode: Callable, k: int,
                 unpack: Callable = np.asarray) -> np.ndarray:
    """decode(frame) for each frame of (..., frame bits), the results
    stacked through unpack into k payload bits each; a frame whose decode
    fails keeps its k raw systematic bits."""
    frames = np.asarray(frames, dtype=np.uint8)
    out = frames[..., :k].copy()
    flat = out.reshape(-1, k)  # a view: rows written below land in out
    done, decoded = [], []
    for i, frame in enumerate(frames.reshape(-1, frames.shape[-1])):
        try:
            decoded.append(decode(frame))
        except rs.DecodeFailure:
            continue
        done.append(i)
    if done:
        flat[done] = unpack(decoded)
    return out


def _bch_scheme() -> Scheme:
    k = bch.bch_spec().k
    return Scheme("bch", k, bch.bch_encode, lambda frames: _decode_each(
        frames, lambda f: bch.bch_decode(f)[0], k))


def _rs2516_scheme() -> Scheme:
    # payload bits <-> message symbols once per chunk
    def encode(payload):
        return rs.rs2516_frame(rs._pack_symbols(payload, 5))

    def decode(frames):
        return _decode_each(frames, lambda f: rs.rs2516_decode(f)[0], 80,
                            lambda syms: rs._symbols_to_bits(syms, 5))
    return Scheme("rs2516", 80, encode, decode)


def _crs_scheme(k: int, M: int) -> Scheme:
    N = int(np.log2(M))
    layout = crs.crs_layout(N, 31, k)
    return Scheme(f"crs31_{k}", layout.message_bits,
                  lambda b: crs.crs_encode(layout, b),
                  lambda frames: _decode_each(
                      frames, lambda f: crs.crs_decode(layout, f)[0],
                      layout.message_bits))


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
            raise crs.UnknownScheme(f"bad scheme name {name!r}") from None
        return _crs_scheme(k, M)
    raise crs.UnknownScheme(f"unknown scheme {name!r}")


# --- seeding -----------------------------------------------------------------

# a burst's stream roles, in the order _seed_words returns them by default
_ROLE_PAYLOAD, _ROLE_FADING, _ROLE_NOISE = _ROLES = (0, 1, 2)


def _hash_consts(h: int, mult: int, n: int) -> np.ndarray:
    """(2, n) uint32: for n successive hashes from hash constant h, the
    constant each input is XORed with and, once multiplied by mult, the
    one it is then multiplied by."""
    pairs = []
    for _ in range(n):
        pairs.append((h, h := h * mult & 0xFFFFFFFF))
    return np.array(pairs, np.uint32).T


# SeedSequence's constants (numpy.random.bit_generator, pool size 4):
# mixing a 4- or 5-word entropy into the pool takes 16 or 20 hashes
_ENTROPY_HASHES = _hash_consts(0x43B0D7E5, 0x931E8875, 20)
# the hashes of pool word s mixed into the other three words, as
# per-column constants (column s is not mixed)
_CROSS_HASHES = [np.insert(_ENTROPY_HASHES[:, 4 + 3 * s:7 + 3 * s], s, 0,
                           axis=1) for s in range(4)]
# generate_state(4, uint64): eight output words, two passes over the pool
_STATE_HASHES = _hash_consts(0x8B51F9DD, 0x58F38DED, 8).reshape(2, 2, 4)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of words, at the hash constants consts."""
    h = words ^ consts[0]
    h *= consts[1]
    h ^= h >> 16
    return h


def _mix(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's mix: r ^ (r >> 16), r = L x - R h; h is clobbered."""
    r = x * _MIX_L
    h *= _MIX_R
    r -= h
    r ^= r >> 16
    return r


def _seed_words(master_seed: int, key: int, bursts: range,
                roles: Sequence[int] = _ROLES) -> np.ndarray:
    """(roles, bursts, 4) uint64: row [r, b] is
    SeedSequence([master_seed mod 2^64, key, bursts[b], roles[r]])
    .generate_state(4, np.uint64), the words PCG64 is seeded from, for every
    lane in one pass of uint32 arithmetic (wrapping mod 2^32) instead of one
    SeedSequence per stream.  The entropy is the uint32 words numpy makes of
    that list: the master seed's low word, its high word only when nonzero,
    then one word each.  Its first four words are hashed into the pool,
    each pool word's hashes are mixed into the other three in turn, and a
    fifth word's hashes into all four; the state is two passes of hashes
    over the pool, as little-endian word pairs."""
    master = master_seed & 0xFFFFFFFFFFFFFFFF
    head = ([master & 0xFFFFFFFF] + ([master >> 32] if master >> 32 else [])
            + [key])
    entropy = np.empty((len(roles), len(bursts), len(head) + 2), np.uint32)
    entropy[..., :len(head)] = head
    entropy[..., -2] = np.arange(bursts.start, bursts.stop, bursts.step,
                                 dtype=np.uint32)
    entropy[..., -1] = np.array(roles, np.uint32)[:, None]
    entropy = entropy.reshape(-1, len(head) + 2)
    pool = _hashmix(entropy[:, :4], _ENTROPY_HASHES[:, :4])
    for s, consts in enumerate(_CROSS_HASHES):
        mixed = _mix(pool, _hashmix(pool[:, s, None], consts))
        mixed[:, s] = pool[:, s]
        pool = mixed
    if len(head) == 3:
        pool = _mix(pool, _hashmix(entropy[:, 4, None],
                                   _ENTROPY_HASHES[:, 16:]))
    state = _hashmix(pool[:, None], _STATE_HASHES).astype("<u4", copy=False)
    return state.view("<u8").astype(np.uint64, copy=False).reshape(
        len(roles), len(bursts), 4)


@functools.cache
def _seeded() -> type:
    """The seed of a stream whose state is already generated: one row of
    _seed_words as an ISeedSequence.  Defined on first use, since its base
    class imports numpy.random (about 11 ms), which a run otherwise first
    imports at its first draw, after set-up."""

    class Seeded(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 reads the words through a raw pointer
            words = self.words
            if not (words.dtype == dtype and words.shape == (n_words,)
                    and words.flags.c_contiguous):
                raise ValueError(
                    f"seed words {words.dtype}{words.shape} are not "
                    f"{n_words} contiguous {np.dtype(dtype)}")
            return words
    return Seeded


def _stream(words: np.ndarray) -> np.random.PCG64:
    """The PCG64 SeedSequence seeds from its state words, without it."""
    return np.random.PCG64(_seeded()(words))


def _generator(words: np.ndarray) -> np.random.Generator:
    """default_rng(SeedSequence), from the SeedSequence's state words."""
    return np.random.Generator(_stream(words))


def _snr_key(snr_db: float) -> int:
    if np.isinf(snr_db):
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


def _payloads(scheme: Scheme, cfg: SimConfig,
              seeds: np.ndarray) -> np.ndarray:
    """(bursts, frames_per_burst, payload bits), each burst drawn from its
    own payload stream, seeded from its row of seeds (_seed_words): bit i
    of a burst is the top bit of 32-bit half i (low half first) of the
    stream's raw 64-bit words.  That is the value Generator.integers(0, 2)
    would draw, since a range of 2 never rejects (Lemire, ACM TOMACS 29(1),
    2019).  A burst is drawn in pieces of CHUNK_FRAMES frames' bits, rounded
    up to even so that each piece starts on a whole word."""
    out = np.empty((len(seeds), cfg.frames_per_burst, scheme.payload_bits),
                   np.uint8)
    step = CHUNK_FRAMES * scheme.payload_bits
    step += step % 2
    for burst, words in zip(out, seeds):
        burst = burst.reshape(-1)
        gen = _stream(words)
        for s in range(0, burst.size, step):
            piece = burst[s:s + step]
            raw = gen.random_raw(-(-piece.size // 2))
            halves = raw.astype("<u8", copy=False).view("<u4")
            np.right_shift(halves[:piece.size], 31, out=piece,
                           casting="unsafe")
    return out


def _tx_burst(cfg: SimConfig, mcfg: modem.ModemConfig,
              frames: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Frames (..., L, 2M) -> transmitted bursts (..., samples) and their
    compander scales (1 without companding)."""
    sig = modem.modulate_frames(frames, mcfg)
    scale = 1.0
    if cfg.companding:
        sig, scale = compander.mu_compress(
            sig, compander.CompanderConfig(mu=cfg.mu))
    return sig, scale


def _measured_paprs(cfg: SimConfig, mcfg: modem.ModemConfig,
                    payloads: np.ndarray,
                    encode: Callable = np.asarray) -> np.ndarray:
    """Payloads (..., L, bits) -> the PAPR of each transmitted frame of
    encode(payloads) but the first and last, which are warm-up, (..., L - 2).
    Uncompanded, a burst goes in blocks of at most CHUNK_FRAMES measured
    frames, each sent with the frames that reach into its windows; the
    mu-law scale is the peak of a whole burst, so a companded one is one
    block."""
    L = payloads.shape[-2]
    step = L if cfg.companding else CHUNK_FRAMES
    # frame j's samples span [j M, j M + M/2 + Lp), frame l's window
    # [c + l M - M/2, c + l M + M/2), c = (Lp - 1)/2: they meet only for
    # |l - j| <= ceil(c / M) (2 for K = 4)
    reach = -(-(mcfg.Lp - 1) // (2 * cfg.M))
    blocks = []
    for s in range(1, L - 1, step):
        e = min(s + step, L - 1)
        b0, b1 = max(s - reach, 0), min(e + reach, L)
        sig, _ = _tx_burst(cfg, mcfg, encode(payloads[..., b0:b1, :]))
        blocks.append(metrics.frame_paprs(sig, cfg.M, mcfg.Lp,
                                          e - b0)[..., s - b0:])
    return np.concatenate(blocks, axis=-1)


def _full_load_paprs(cfg: SimConfig, scheme: Scheme,
                     mcfg: modem.ModemConfig) -> np.ndarray:
    """_measured_paprs of one burst of all-ones payloads."""
    ones = np.ones((cfg.frames_per_burst, scheme.payload_bits), np.uint8)
    return _measured_paprs(cfg, mcfg, ones, scheme.encode)


def _run_bursts(n_bursts: int, cfg: SimConfig,
                worker: Callable[[range], object]) -> list:
    """worker(chunk) for each chunk of consecutive bursts, in burst order, on
    the calling thread; the layout depends on frames_per_burst alone."""
    size = max(1, CHUNK_FRAMES // cfg.frames_per_burst)
    return [worker(range(b, min(b + size, n_bursts)))
            for b in range(0, n_bursts, size)]


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
        samples = np.tile(_full_load_paprs(cfg, scheme, mcfg),
                          n_bursts)[:cfg.frames]
    else:
        (seeds,) = _seed_words(cfg.master_seed, 0, range(n_bursts),
                               (_ROLE_PAYLOAD,))
        chunks = _run_bursts(n_bursts, cfg, lambda c: _measured_paprs(
            cfg, mcfg, _payloads(scheme, cfg, seeds[c.start:c.stop]),
            scheme.encode).ravel())
        samples = np.concatenate(chunks)[:cfg.frames]
    curve = (metrics.ccdf(samples)
             if samples.size >= metrics.CCDF_MIN_SAMPLES else None)
    return PaprResult(scheme=cfg.scheme, companding=cfg.companding,
                      load=cfg.load, samples_db=samples, curve=curve)


# --- CRS k-sweep -------------------------------------------------------------

DEFAULT_KSWEEP = (19, 21, 23, 25, 27, 29)


def _rs_fullload_frames(k: int, fpb: int) -> np.ndarray:
    """Conventional RS(31,k) framing under full load: each codeword's 5 * 31
    bits, zero padded, span two 128-bit frames."""
    layout = rs.RsFrameLayout(q=5, k=k, k_prime=k, p=5, punctured=0,
                              frame_bits=256)
    block = rs.frame_encode(layout, np.ones(layout.message_bits, np.uint8))
    return np.tile(block, -(-fpb // 2))[:fpb * 128].reshape(fpb, 128)


def run_crs_k_sweep(k_list: Sequence[int] = DEFAULT_KSWEEP,
                    cfg: SimConfig | None = None) -> list[tuple[int, float, float]]:
    """Full-load max PAPR at the modem output for CRS(31,k) and for
    conventional RS(31,k) framing.  Returns rows (k, crs_db, rs_db)."""
    cfg = cfg or SimConfig(load="full")
    cfg.validate()
    mcfg = cfg.modem_config()
    rows = []
    for k in k_list:
        crs_paprs = _full_load_paprs(cfg, get_scheme(f"crs31_{k}", cfg.M),
                                     mcfg)
        rs_paprs = _measured_paprs(
            cfg, mcfg, _rs_fullload_frames(k, cfg.frames_per_burst))
        rows.append((k, float(crs_paprs.max()), float(rs_paprs.max())))
    return rows


# --- BER sweep ---------------------------------------------------------------

def _ber_chunk(cfg: SimConfig, scheme: Scheme, mcfg: modem.ModemConfig,
               profile: chan.ChannelProfile, snr_db: float,
               bursts: range) -> tuple[int, int]:
    payload, fading, noise = _seed_words(cfg.master_seed, _snr_key(snr_db),
                                         bursts)
    payloads = _payloads(scheme, cfg, payload)
    sig, scale = _tx_burst(cfg, mcfg, scheme.encode(payloads))

    # each burst has its own fading and noise streams; without fading, one
    # (span,) realization broadcasts over the chunk in apply and equalize
    if profile.fading == "none":
        taps = chan.realize(profile)
    else:
        taps = np.stack([chan.realize(profile, _generator(words))
                         for words in fading])
    rngs = None if np.isinf(snr_db) else [_generator(w) for w in noise]
    rx = chan.apply(sig, taps, snr_db, rngs)
    del sig  # each chunk-sized array is dropped once used

    if cfg.companding:
        rx, _ = compander.mu_expand(rx, scale,
                                    compander.CompanderConfig(mu=cfg.mu))
    grid = modem.analysis(rx, mcfg, 2 * cfg.frames_per_burst)
    del rx
    grid, _ = chan.equalize(grid, taps, cfg.M)
    rx_frames = modem.grid_to_frames(modem.oqam_postprocess(grid))
    # warm-up frames are neither decoded nor counted
    return metrics.ber(payloads[:, 1:-1], scheme.decode(rx_frames[:, 1:-1]))


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
            n_bursts, cfg,
            lambda c: _ber_chunk(cfg, scheme, mcfg, profile, snr_db, c))
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
