#!/usr/bin/env python3
"""Max-PAPR methodology matrix: {uncoded, bch, rs2516, crs31_19} x
{plain, mu-law}, each at full and random load."""
import argparse
import sys

from papr_lab import harness

ROWS = [("none", False), ("none", True),
        ("bch", False), ("bch", True),
        ("rs2516", False), ("rs2516", True),
        ("crs31_19", False), ("crs31_19", True)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0,
                    help="master RNG seed, 0..2^64 - 1")
    ap.add_argument("--out", default="table2.csv")
    args = ap.parse_args()
    try:
        run(args)
    except (ValueError, OSError) as ex:
        print(f"{ap.prog}: error: {ex}", file=sys.stderr)
        return 1
    return 0


def run(args):
    results = []
    print(f"{'scheme':>10} {'mu':>3} {'full_db':>8} {'random_db':>10} "
          f"{'gap_db':>7}")
    for scheme, compand in ROWS:
        per_load = {}
        for load in ("full", "random"):
            cfg = harness.SimConfig(scheme=scheme, companding=compand,
                                    load=load, frames=args.frames,
                                    master_seed=args.seed)
            res = harness.run_papr_experiment(cfg)
            per_load[load] = res
            results.append(res)
        gap = abs(per_load["full"].max_papr_db - per_load["random"].max_papr_db)
        print(f"{scheme:>10} {int(compand):>3} "
              f"{per_load['full'].max_papr_db:>8.2f} "
              f"{per_load['random'].max_papr_db:>10.2f} {gap:>7.2f}")
    harness.emit_papr_summary_csv(results, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(main())
