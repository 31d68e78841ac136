"""Command-line front end.

Subcommands:
  papr    per-frame PAPR experiment, emits a CCDF CSV
  ber     BER-vs-SNR sweep, emits a BER CSV
  ksweep  Table-style CRS(31,k) vs conventional RS(31,k) full-load sweep
  fec     encode/decode files of raw 16-byte frames (debugging aid)

Every option can also come from a flat `key = value` config file passed via
--config; explicit command-line flags override file values.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys

import numpy as np

from . import harness, metrics
from .fec import rs

FRAME_BYTES = 16  # 128-bit frames on disk


def _parse_snr(text: str) -> tuple:
    """Accept either 'start:step:stop' (inclusive) or a comma list."""
    is_range = ":" in text
    try:
        values = [float(p) for p in text.split(":" if is_range else ",")]
    except ValueError as ex:
        raise ValueError(f"--snr {text!r}: {ex}") from None
    if not is_range:
        return tuple(values)
    if len(values) != 3:
        raise ValueError(f"--snr {text!r}: expected start:step:stop")
    start, step, stop = values
    # refused before any point is built: SimConfig.validate bounds each
    # point, and points closer than a milli-dB share one stream key
    bound = harness.MAX_SNR_DB
    if not (abs(start) <= bound and abs(stop) <= bound and step >= 0.001):
        raise ValueError(f"--snr {text!r}: start and stop must be within "
                         f"-{bound}..{bound} dB and step at least 0.001 dB")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    if n < 1:
        raise ValueError(f"--snr range {text!r} is empty")
    return tuple(start + i * step for i in range(n))


def _open(path: str, mode: str, flag: str):
    """open(path, mode); an OSError names the flag that gave the path."""
    try:
        return open(path, mode)
    except OSError as ex:
        raise OSError(f"{flag} {path}: {ex.strerror}") from None


def _read_config_file(path: str) -> dict:
    values = {}
    with _open(path, "rb", "--config") as fh:
        data = fh.read()
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as ex:
        raise ValueError(f"--config {path}: not UTF-8 text ({ex.reason} at "
                         f"byte {ex.start})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, val: str, template):
    if isinstance(template, bool):
        low = val.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"config key {key}: bad boolean {val!r}")
    if isinstance(template, (int, float)):
        kind = type(template)
        try:
            return kind(val)
        except ValueError:
            raise ValueError(f"config key {key}: bad {kind.__name__} "
                             f"{val!r}") from None
    return val


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- CLI flags; --out's directory must exist
    and be writable, and --out must not name a directory."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        for key, val in _read_config_file(args.config).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, val, defaults[key])
    for key in defaults:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    out_dir = os.path.dirname(merged["out"]) or "."
    if not os.path.isdir(out_dir):
        raise harness.ConfigError(f"--out: no directory {out_dir}")
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise harness.ConfigError(f"--out: directory {out_dir} is not "
                                  f"writable")
    if os.path.isdir(merged["out"]):
        raise harness.ConfigError(f"--out: {merged['out']} is a directory")
    return merged


def _add_common(p: argparse.ArgumentParser, draws: bool = True) -> None:
    p.add_argument("--config", help="flat key = value config file")
    if draws:  # only subcommands that draw random bursts
        p.add_argument("--seed", type=int, dest="master_seed",
                       help="master RNG seed, 0..2^64 - 1")
        p.add_argument("--workers", type=int, help="no effect (at least 1)")
    p.add_argument("--frames-per-burst", type=int, dest="frames_per_burst")
    p.add_argument("--out", help="output CSV path")


_SIM_DEFAULTS = dataclasses.asdict(harness.SimConfig())


def _defaults(*keys: str, **cli_only) -> dict:
    """SimConfig defaults of keys, plus keys the CLI alone reads."""
    return {**{key: _SIM_DEFAULTS[key] for key in keys}, **cli_only}


_PAPR_DEFAULTS = _defaults("scheme", "companding", "mu", "load", "frames",
                           "master_seed", "frames_per_burst", "workers",
                           out="papr_ccdf.csv")

_BER_DEFAULTS = _defaults("scheme", "companding", "mu", "channel", "bits",
                          "master_seed", "frames_per_burst", "workers",
                          snr="0:2:20", out="ber.csv")

_KSWEEP_DEFAULTS = _defaults("frames_per_burst", out="ksweep.csv")


def _sim_config(values: dict, **fields) -> harness.SimConfig:
    """The SimConfig of merged CLI values, with fields set on top."""
    return harness.SimConfig(**{key: val for key, val in values.items()
                                if key in _SIM_DEFAULTS}, **fields)


def _cmd_papr(args: argparse.Namespace) -> int:
    cfg_vals = _merge_config(args, _PAPR_DEFAULTS)
    out = cfg_vals["out"]
    if cfg_vals["frames"] < metrics.CCDF_MIN_SAMPLES:
        raise harness.ConfigError(f"too few frames for a CCDF; use "
                                  f"--frames >= {metrics.CCDF_MIN_SAMPLES}")
    result = harness.run_papr_experiment(_sim_config(cfg_vals))
    harness.emit_ccdf_csv(result.curve, out)
    print(f"{result.scheme} load={result.load} compand={int(result.companding)}"
          f" max_papr_db={result.max_papr_db:.2f} -> {out}")
    return 0


def _cmd_ber(args: argparse.Namespace) -> int:
    cfg_vals = _merge_config(args, _BER_DEFAULTS)
    cfg = _sim_config(cfg_vals, snr_list_db=_parse_snr(cfg_vals["snr"]))
    records = harness.run_ber_sweep(cfg)
    harness.emit_ber_csv(records, cfg_vals["out"])
    for r in records:
        print(f"snr={r.snr_db:g} dB ber={r.ber:.3e} "
              f"({r.bits_error}/{r.bits_total})")
    print(f"-> {cfg_vals['out']}")
    return 0


def _cmd_ksweep(args: argparse.Namespace) -> int:
    cfg_vals = _merge_config(args, _KSWEEP_DEFAULTS)
    rows = harness.run_crs_k_sweep(cfg=_sim_config(cfg_vals, load="full"))
    harness.emit_ksweep_csv(rows, cfg_vals["out"])
    for k, crs_db, rs_db in rows:
        print(f"k={k} crs={crs_db:.2f} dB rs={rs_db:.2f} dB")
    print(f"-> {cfg_vals['out']}")
    return 0


def _cmd_fec(args: argparse.Namespace) -> int:
    try:
        scheme = harness.get_scheme(args.scheme)
    except ValueError as ex:
        raise ValueError(f"--scheme: {ex}") from None
    with _open(args.infile, "rb", "--in") as fh:
        data = fh.read()
    if len(data) % FRAME_BYTES:
        raise ValueError(f"{args.infile}: size {len(data)} is not a multiple "
                         f"of the {FRAME_BYTES}-byte frame size")
    frames = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).reshape(
        -1, 8 * FRAME_BYTES)
    if args.mode == "encode":
        out_bits = scheme.encode(frames[:, :scheme.payload_bits])
    else:
        out_bits = scheme.decode(frames)
    padded = np.zeros_like(frames)
    padded[:, :out_bits.shape[1]] = out_bits
    with _open(args.outfile, "wb", "--out") as fh:
        fh.write(np.packbits(padded, axis=1).tobytes())
    print(f"{args.mode}d {len(frames)} frame(s) with {args.scheme} "
          f"-> {args.outfile}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="papr-lab",
        description="FBMC-OQAM PAPR/BER experiments with BCH, punctured RS "
                    "and constrained RS coding plus mu-law companding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("papr", help="PAPR experiment, emits CCDF CSV")
    p.add_argument("--scheme",
                   help="none | bch | rs2516 | crs31_<k>")
    p.add_argument("--compand", action="store_const", const=True,
                   dest="companding", default=None)
    p.add_argument("--mu", type=float)
    p.add_argument("--load", choices=("random", "full"))
    p.add_argument("--frames", type=int,
                   help="measured frames, at most 2^32 bursts' worth")
    _add_common(p)
    p.set_defaults(func=_cmd_papr)

    p = sub.add_parser("ber", help="BER-vs-SNR sweep, emits BER CSV")
    p.add_argument("--scheme")
    p.add_argument("--compand", action="store_const", const=True,
                   dest="companding", default=None)
    p.add_argument("--mu", type=float)
    p.add_argument("--channel",
                   choices=("awgn", "pedestrian_b", "vehicular_a"))
    p.add_argument("--snr", help="start:step:stop (inclusive) or comma list")
    p.add_argument("--bits", type=int,
                   help="payload bits per SNR point, at most 2^32 "
                   "bursts' worth")
    _add_common(p)
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("ksweep",
                       help="CRS(31,k) vs conventional RS(31,k) full-load PAPR")
    _add_common(p, draws=False)
    p.set_defaults(func=_cmd_ksweep)

    p = sub.add_parser("fec", help="encode/decode raw 16-byte frame files")
    p.add_argument("mode", choices=("encode", "decode"))
    p.add_argument("--scheme", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_fec)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, rs.DecodeFailure) as ex:
        print(f"papr-lab: error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
