#!/usr/bin/env python3
"""BER-vs-SNR curves for coded + companded transmission over the ITU
fading profiles (and an AWGN reference), one CSV per channel."""
import argparse
import sys

from papr_lab import cli, harness

SCHEMES = ("none", "rs2516", "crs31_19")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--channels", nargs="+",
                    default=["awgn", "pedestrian_b", "vehicular_a"])
    ap.add_argument("--snr", default="0:2:20",
                    help="start:step:stop (inclusive) or comma list")
    ap.add_argument("--bits", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0,
                    help="master RNG seed, 0..2^64 - 1")
    ap.add_argument("--prefix", default="ber")
    args = ap.parse_args()
    try:
        run(args)
    except (ValueError, OSError) as ex:
        print(f"{ap.prog}: error: {ex}", file=sys.stderr)
        return 1
    return 0


def run(args):
    snrs = cli._parse_snr(args.snr)

    for channel in args.channels:
        records = []
        for scheme in SCHEMES:
            compand = scheme != "none"
            cfg = harness.SimConfig(scheme=scheme, companding=compand,
                                    channel=channel, snr_list_db=snrs,
                                    bits=args.bits, master_seed=args.seed)
            recs = harness.run_ber_sweep(cfg)
            records.extend(recs)
            for r in recs:
                print(f"{channel} {scheme} snr={r.snr_db:g} ber={r.ber:.3e}")
        out = f"{args.prefix}_{channel}.csv"
        harness.emit_ber_csv(records, out)
        print(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(main())
