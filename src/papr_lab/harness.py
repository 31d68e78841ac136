"""Scenario runner: PAPR/CCDF experiments, the CRS k-sweep, BER-vs-SNR
sweeps, and CSV emission.

Reproducibility: every burst gets its own RNG streams, the PCG64 streams of
SeedSequence([master_seed, scenario key, burst index, role]), role in
{payload, fading, noise}.  Paired comparisons across schemes therefore share
payload and channel randomness.  The channel builds a BER chunk's fading and
noise Generators only where it draws.  PAPR and BER runs share one chunk
loop (_run_bursts): one vectorized pass (_seed_words) derives the seed
words of up to SEED_BURSTS bursts, which then run in burst order on the
calling thread as near-equal chunks of consecutive bursts, as few as fit a
budget of frames.  A chunk goes through encoder, modem, compander and
equalizer as one stacked array.  A BER chunk holds at most BER_CHUNK_FRAMES
= 400 frames, so that its fixed cost through the receive chain is paid less
often; a PAPR chunk at most CHUNK_FRAMES = 200, the fastest budget
measured.  An uncompanded PAPR burst longer than a chunk is measured in
blocks of frames.  PAPR and BER bursts share one send step (_tx_burst): a
PAPR block keeps only the samples its measured frames' windows read, and a
companded burst compands what it keeps at the whole burst's scale.  A BER
burst's warm-up frames, its first and last, are sent, but only the frames
between them are analysed, equalized and decoded.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import channel as chan
from . import compander, metrics, modem
from .fec import bch, crs, rs
from .metrics import BerRecord, CcdfCurve, ConfigError

# one filter bank per (M, K): designing its prototype takes about 60 us
_modem_config = functools.cache(modem.ModemConfig)


# The budgets and bounds below are measured in README, "Runs are made of
# bursts".
# Frames per chunk of PAPR bursts, per block of an uncompanded PAPR burst
# and per piece of a payload draw: the fastest PAPR budget measured
CHUNK_FRAMES = 200
# Bursts per _seed_words call: 128 KiB of seed words a role
SEED_BURSTS = 4096
# Frames per chunk of BER bursts, within the knee of the BER chunk costs
BER_CHUNK_FRAMES = 400
# A BER or companded PAPR burst is one stack: about 100 MiB at this bound
MAX_FRAMES_PER_BURST = 10_000
# Measured frames of a PAPR run, which keeps every sample: about 100 MiB
MAX_PAPR_FRAMES = 10_000_000
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
    # the types each annotation admits after __post_init__; a bool is no number
    _TYPES: ClassVar[dict] = {"int": int, "float": (int, float),
                              "bool": bool, "str": str, "tuple": tuple}
    _FLAGS: ClassVar[dict] = {  # the flags not named after their field
        "companding": "--compand", "snr_list_db": "--snr",
        "master_seed": "--seed", "frames_per_burst": "--frames-per-burst"}

    def __post_init__(self):
        # hold builtin numbers: numpy scalars wrap, overflow or warn in the
        # arithmetic below.  A value of another type is left for validate.
        def builtin(x):
            return (x if isinstance(x, bool) or not isinstance(x, Real)
                    else int(x) if isinstance(x, Integral) else float(x))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (tuple, list)):
                value = tuple(map(builtin, value))
            object.__setattr__(self, f.name, builtin(value))

    def modem_config(self) -> modem.ModemConfig:
        return _modem_config(self.M, self.K)

    def validate(self) -> None:
        for f in fields(self):  # types first: 10.0 frames pass the rest
            value, kind = getattr(self, f.name), self._TYPES[f.type]
            if not isinstance(value, kind) or (isinstance(value, bool)
                                               and kind is not bool):
                raise ConfigError(f"{self._FLAGS.get(f.name, '--' + f.name)} "
                                  f"must be of type {f.type}, got {value!r}")
        if not 3 <= self.frames_per_burst <= MAX_FRAMES_PER_BURST:
            raise ConfigError(
                f"--frames-per-burst must be in 3..{MAX_FRAMES_PER_BURST} "
                f"(first and last frame are warm-up), "
                f"got {self.frames_per_burst}")
        for flag, value in (("--frames", self.frames), ("--bits", self.bits),
                            ("--workers", self.workers)):
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1, got {value}")
        if self.frames > MAX_PAPR_FRAMES:
            raise ConfigError(f"--frames must be at most {MAX_PAPR_FRAMES:,}"
                              f", got {self.frames}")
        if not 0 <= self.master_seed < 2 ** 64:  # one uint64 seed word
            raise ConfigError(f"--seed must be in 0..2^64 - 1, "
                              f"got {self.master_seed}")
        try:
            compander.CompanderConfig(mu=self.mu)
        except ConfigError as ex:
            raise ConfigError(f"--mu: {ex}") from None
        # +inf is the noiseless point; channel.apply would take -inf for it,
        # and a finite point keys its streams by its value in milli-dB
        first = {}  # stream key -> index of the first point with it
        for i, snr in enumerate(self.snr_list_db):
            if type(snr) not in (int, float) or not snr > -np.inf:  # or nan
                raise ConfigError(f"--snr {snr!r} is not a dB value or inf")
            if np.isfinite(snr) and abs(snr) > MAX_SNR_DB:
                raise ConfigError(f"--snr {snr} is outside "
                                  f"-{MAX_SNR_DB}..{MAX_SNR_DB} dB")
            if (j := first.setdefault(_snr_key(snr), i)) != i:
                raise ConfigError(f"--snr {self.snr_list_db[j]} and {snr} "
                                  f"share one stream key")
        if self.load not in ("random", "full"):
            raise ConfigError(f"--load: unknown load {self.load!r}")
        try:
            scheme = get_scheme(self.scheme, self.M)
        except ConfigError as ex:  # unknown name, k out of range, infeasible
            raise ConfigError(f"--scheme: {ex}") from None
        # a burst's index is one uint32 seed word (_seed_words)
        per_burst = (self.frames_per_burst - 2) * scheme.payload_bits
        if -(-self.bits // per_burst) > 2 ** 32:
            raise ConfigError(f"--bits must be at most {2 ** 32 * per_burst} "
                              f"(2^32 bursts of {per_burst}), got {self.bits}")
        try:
            chan.make_profile(self.channel)
        except ConfigError as ex:
            raise ConfigError(f"--channel: {ex}") from None


# --- scheme registry ---------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """A frame-level coding scheme, its codec as data: encode maps (...,
    payload bits) to (..., 2M-bit frames) in one call; decode_frame calls
    the scheme's public frame decoder on one frame and its row, and
    decoder returns the decoder's cached rs._Decoder (both None: frames
    are the payload bits)."""
    name: str
    payload_bits: int
    encode: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    decode_frame: Callable | None = field(default=None, repr=False)
    decoder: Callable | None = field(default=None, repr=False)

    def decode(self, frames: np.ndarray) -> np.ndarray:
        """(..., 2M) frames -> (..., payload bits), the messages of one
        stacked pass (rs._frame_rows), where a failed frame keeps its
        systematic bits.  decode_frame is then called once per frame with
        its row: the public decoder checks the frame and returns or raises
        it."""
        frames = np.asarray(frames, dtype=np.uint8)
        if self.decode_frame is None:
            return frames
        stack = frames.reshape(-1, frames.shape[-1])
        messages, rows = rs._frame_rows(self.decoder(), stack)
        for frame, row in zip(stack, rows):
            try:
                self.decode_frame(frame, row)
            except rs.DecodeFailure:
                pass
        return messages.reshape(*frames.shape[:-1], self.payload_bits)


def get_scheme(name: str, M: int = 64) -> Scheme:
    # only bch_encode is bound here: the other encoders and the public
    # frame decoders, which perfbench wraps, are looked up per call; each
    # decoder's record is built at its first decode
    if name == "none":
        return Scheme("none", 2 * M, lambda b: np.asarray(b, dtype=np.uint8))
    if name == "bch":
        return Scheme("bch", bch.bch_spec().k, bch.bch_encode,
                      lambda f, row: bch.bch_decode(f, row=row),
                      bch._decoder)
    if name == "rs2516":
        # payload bits -> message symbols once per chunk
        p = rs.RS2516.p
        return Scheme("rs2516", rs.RS2516.message_bits,
                      lambda b: rs.rs2516_frame(rs._pack_symbols(b, p)),
                      lambda f, row: rs.rs2516_decode(f, row=row),
                      lambda: rs._decoder(rs.RS2516))
    if name.startswith("crs31_"):
        k = name[len("crs31_"):]
        if not (k.isdecimal() and k == str(int(k))):  # one name per scheme
            raise ConfigError(f"bad scheme name {name!r}")
        layout = crs.crs_layout(int(np.log2(M)), 31, int(k))
        return Scheme(name, layout.message_bits,
                      lambda b: crs.crs_encode(layout, b),
                      lambda f, row: crs.crs_decode(layout, f, row=row),
                      lambda: rs._decoder(layout))
    raise ConfigError(f"unknown scheme {name!r}")


# --- seeding -----------------------------------------------------------------

# a burst's stream roles, payload, fading and noise, in the order
# _seed_words returns them by default
_ROLES = (0, 1, 2)
_ROLE_PAYLOAD = _ROLES[0]


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
    del entropy  # freed before the state's hashes, the peak
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
    2019).  Bursts are drawn side by side in pieces of CHUNK_FRAMES frames'
    bits, rounded up to even so that each piece starts on a whole word:
    every stream fills its row of one buffer of raw words, and one shift
    writes the piece of every burst.  A burst of at most CHUNK_FRAMES
    frames is one piece."""
    out = np.empty((len(seeds), cfg.frames_per_burst, scheme.payload_bits),
                   np.uint8)
    flat = out.reshape(len(seeds), -1)  # a view: pieces land in out
    step = CHUNK_FRAMES * scheme.payload_bits
    step += step % 2
    gens = [_stream(words) for words in seeds]
    for s in range(0, flat.shape[1], step):
        piece = flat[:, s:s + step]
        raw = np.empty((len(gens), -(-piece.shape[1] // 2)), "<u8")
        for gen, row in zip(gens, raw):
            row[:] = gen.random_raw(row.size)
        np.right_shift(raw.view("<u4")[:, :piece.shape[1]], 31, out=piece,
                       casting="unsafe")
    return out


def _tx_burst(cfg: SimConfig, frames: np.ndarray, keep: slice = slice(None)
              ) -> tuple[np.ndarray, np.ndarray | float]:
    """Frames (..., L, 2M) -> the samples sig[..., keep] of each transmitted
    burst and their compander scales (1 without companding), every burst's
    one send step.  A companded burst's mu-law scale is the peak of the
    whole modulated burst (compander.peak_scale), so its kept samples are
    byte for byte those samples of the whole companded burst, and a
    non-finite sample anywhere in it raises."""
    sig = modem.modulate_frames(frames, cfg.modem_config())
    if not cfg.companding:
        return sig[..., keep], 1.0
    return compander.mu_compress(sig[..., keep],
                                 compander.CompanderConfig(mu=cfg.mu),
                                 compander.peak_scale(sig))


def _measured_paprs(cfg: SimConfig, payloads: np.ndarray,
                    encode: Callable = np.asarray) -> np.ndarray:
    """Payloads (..., L, bits) -> the PAPR of each transmitted frame of
    encode(payloads) but the first and last, which are warm-up, (..., L - 2).
    Uncompanded, a burst goes in blocks of at most CHUNK_FRAMES measured
    frames, each sent with the frames that reach into its windows; the
    mu-law scale is the peak of a whole burst, so a companded one is one
    block.  _tx_burst keeps of each block only the samples that its
    measured frames' windows read, which metrics.frame_paprs measures."""
    L, Lp = payloads.shape[-2], cfg.modem_config().Lp
    step = L if cfg.companding else CHUNK_FRAMES
    # frame j's samples span [j M, j M + M/2 + Lp), frame l's window
    # [c + l M - M/2, c + l M + M/2), c = (Lp - 1)/2: they meet only for
    # |l - j| <= ceil(c / M) (2 for K = 4)
    reach = -(-(Lp - 1) // (2 * cfg.M))
    # frame_paprs' windows start here, so a block keeps this lead before
    # the window of its first measured frame
    start = (Lp - 1) // 2 - cfg.M // 2
    blocks = []
    for s in range(1, L - 1, step):
        e = min(s + step, L - 1)
        b0, b1 = max(s - reach, 0), min(e + reach, L)
        keep = slice((s - b0) * cfg.M, start + (e - b0) * cfg.M)
        sig, _ = _tx_burst(cfg, encode(payloads[..., b0:b1, :]), keep)
        blocks.append(metrics.frame_paprs(sig, cfg.M, Lp, e - s))
    return np.concatenate(blocks, axis=-1)


def _full_load_paprs(cfg: SimConfig, scheme: Scheme) -> np.ndarray:
    """_measured_paprs of one burst of all-ones payloads."""
    ones = np.ones((cfg.frames_per_burst, scheme.payload_bits), np.uint8)
    return _measured_paprs(cfg, ones, scheme.encode)


def _run_bursts(n_bursts: int, cfg: SimConfig, chunk_frames: int, key: int,
                roles: Sequence[int],
                worker: Callable[[np.ndarray], object]) -> list:
    """worker(seeds) for each chunk of consecutive bursts, in burst order on
    the calling thread, seeds being the chunk's (roles, bursts, 4) rows of
    _seed_words(cfg.master_seed, key, ..., roles).  The words are derived
    in one pass per group of at most SEED_BURSTS bursts, and a group of n
    runs as ceil(n / size) contiguous chunks whose sizes differ by at most
    one, size = chunk_frames // frames_per_burst (at least one)."""
    size = max(1, chunk_frames // cfg.frames_per_burst)
    out = []
    for g in range(0, n_bursts, SEED_BURSTS):
        group = range(g, min(g + SEED_BURSTS, n_bursts))
        seeds = _seed_words(cfg.master_seed, key, group, roles)
        k = -(-len(group) // size)
        bounds = [-(-len(group) * i // k) for i in range(k + 1)]
        out += [worker(seeds[:, a:b]) for a, b in zip(bounds, bounds[1:])]
    return out


def _papr_chunk(cfg: SimConfig, scheme: Scheme,
                seeds: np.ndarray) -> np.ndarray:
    """Measured PAPRs of the bursts of payload seed rows seeds[0]."""
    return _measured_paprs(cfg, _payloads(scheme, cfg, seeds[0]),
                           scheme.encode)


def run_papr_experiment(cfg: SimConfig) -> PaprResult:
    """Measure per-frame PAPR at the transmitter output (post-companding
    when enabled); the channel is not involved."""
    cfg.validate()
    scheme = get_scheme(cfg.scheme, cfg.M)
    n_bursts = -(-cfg.frames // (cfg.frames_per_burst - 2))
    if cfg.load == "full":
        # full load is deterministic: one burst, repeated
        samples = np.tile(_full_load_paprs(cfg, scheme), n_bursts)
    else:
        samples = np.concatenate(_run_bursts(
            n_bursts, cfg, CHUNK_FRAMES, 0, (_ROLE_PAYLOAD,),
            lambda s: _papr_chunk(cfg, scheme, s)), axis=None)
    samples = samples[:cfg.frames]
    curve = (metrics.ccdf(samples)
             if samples.size >= metrics.CCDF_MIN_SAMPLES else None)
    return PaprResult(scheme=cfg.scheme, companding=cfg.companding,
                      load=cfg.load, samples_db=samples, curve=curve)


# --- CRS k-sweep -------------------------------------------------------------

DEFAULT_KSWEEP = (19, 21, 23, 25, 27, 29)


def _rs_fullload_frames(k: int, fpb: int) -> np.ndarray:
    """Conventional RS(31,k) framing under full load: each codeword's 5 * 31
    bits, zero padded, span two 128-bit frames.  The all-ones message
    encodes to the all-ones word at every k (every nonzero power of alpha
    is a root of 1 + x + ... + x^30), so the column is one frame pair."""
    layout = replace(rs.rs_spec(5, k), frame_bits=256)
    block = rs.frame_encode(layout, np.ones(layout.message_bits, np.uint8))
    return np.tile(block, -(-fpb // 2))[:fpb * 128].reshape(fpb, 128)


def run_crs_k_sweep(cfg: SimConfig | None = None) -> list[tuple[int, float, float]]:
    """Full-load max PAPR at the modem output for CRS(31,k) and conventional
    RS(31,k) framing, k in DEFAULT_KSWEEP.  Returns rows (k, crs_db, rs_db)."""
    cfg = cfg or SimConfig(load="full")
    cfg.validate()
    rows = []
    for k in DEFAULT_KSWEEP:
        crs_paprs = _full_load_paprs(cfg, get_scheme(f"crs31_{k}", cfg.M))
        rs_paprs = _measured_paprs(
            cfg, _rs_fullload_frames(k, cfg.frames_per_burst))
        rows.append((k, float(crs_paprs.max()), float(rs_paprs.max())))
    return rows


# --- BER sweep ---------------------------------------------------------------

def _ber_chunk(cfg: SimConfig, scheme: Scheme, profile: chan.ChannelProfile,
               snr_db: float, seeds: np.ndarray) -> tuple[int, int]:
    """(bit errors, bits) at snr_db of the bursts whose seed rows are seeds."""
    payload, fading, noise = seeds
    payloads = _payloads(scheme, cfg, payload)
    sig, scale = _tx_burst(cfg, scheme.encode(payloads))
    taps = chan.realize(profile, map(_generator, fading))
    rx = chan.apply(sig, taps, snr_db, map(_generator, noise))
    del sig  # each chunk-sized array is dropped once used

    if cfg.companding:
        rx, _ = compander.mu_expand(rx, scale,
                                    compander.CompanderConfig(mu=cfg.mu))
    # frames 1..L - 2 alone, from frame 1's first sample: their columns are
    # bit for bit those of the whole burst, but counted from frame 1 each
    # column's OQAM phase j^(k+n) lacks a factor j^2 = -1: negate the symbols
    grid = modem.analysis(rx[..., cfg.M:], cfg.modem_config(),
                          2 * (cfg.frames_per_burst - 2))
    del rx
    grid, _ = chan.equalize(grid, taps)
    rx_frames = modem.grid_to_frames(-modem.oqam_postprocess(grid))
    return metrics.ber(payloads[:, 1:-1], scheme.decode(rx_frames))


def run_ber_sweep(cfg: SimConfig) -> list[BerRecord]:
    """BER per SNR point; bursts are generated until cfg.bits payload bits
    have been counted at each point."""
    cfg.validate()
    if not cfg.snr_list_db:
        raise ConfigError("snr_list_db is empty")
    scheme = get_scheme(cfg.scheme, cfg.M)
    profile = chan.make_profile(cfg.channel)
    per_burst = (cfg.frames_per_burst - 2) * scheme.payload_bits
    n_bursts = -(-cfg.bits // per_burst)
    records = []
    for snr_db in cfg.snr_list_db:
        errs, total = map(sum, zip(*_run_bursts(
            n_bursts, cfg, BER_CHUNK_FRAMES, _snr_key(snr_db), _ROLES,
            lambda s: _ber_chunk(cfg, scheme, profile, snr_db, s))))
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
