"""The four benchmark workloads, each one round of operations.

An operation is one public harness call: one SNR point of
`harness.run_ber_sweep` or one `harness.run_papr_experiment`.  Every round of
a run repeats the same operations with the same master seed, so every round
must give the same outputs; the run's seed is the master seed.

Why these four:
- ber_pedb_rs2516_mu runs the whole receive chain on the reference BER
  workload; most RS decodes there fail, so it times the failure path.
- ber_awgn_bch_sweep is the only threaded workload (workers=2) and the only
  one with closed-form references; BCH decodes go from mostly failing at
  2 dB to all clean at 8 dB.
- papr_crs19_mu is the reference PAPR workload, transmit side only.
- papr_none_longburst spends nearly all its time in synthesis, on 1000-frame
  bursts whose working set dominates the process's peak memory.
"""
from __future__ import annotations

from dataclasses import replace

from papr_lab.harness import SimConfig

BER_SNRS_DB = (2.0, 4.0, 6.0, 8.0)
# Bursts per SNR point; per-point bits are whole bursts of the 8 measured
# frames of a 10-frame burst.
PEDB_BURSTS = 20
AWGN_UNCODED_BURSTS = 32
AWGN_BCH_BURSTS = 16
CRS_FRAMES = 50 * 8
LONG_BURST = 1000
LONG_FRAMES = LONG_BURST - 2

PAYLOAD_BITS = {"none": 128, "bch": 85, "rs2516": 80, "crs31_19": 64}


def _ber_bits(scheme: str, bursts: int) -> int:
    return bursts * 8 * PAYLOAD_BITS[scheme]


_OPS = {
    "ber_pedb_rs2516_mu": (
        SimConfig(scheme="rs2516", companding=True, mu=25.0,
                  channel="pedestrian_b", snr_list_db=(16.0,),
                  bits=_ber_bits("rs2516", PEDB_BURSTS), workers=1),),
    "ber_awgn_bch_sweep": tuple(
        SimConfig(scheme=scheme, channel="awgn", snr_list_db=(snr,),
                  bits=_ber_bits(scheme, bursts), workers=2)
        for scheme, bursts in (("none", AWGN_UNCODED_BURSTS),
                               ("bch", AWGN_BCH_BURSTS))
        for snr in BER_SNRS_DB),
    "papr_crs19_mu": (
        SimConfig(scheme="crs31_19", companding=True, mu=25.0,
                  load="random", frames=CRS_FRAMES),),
    "papr_none_longburst": (
        SimConfig(scheme="none", load="random", frames_per_burst=LONG_BURST,
                  frames=LONG_FRAMES),),
}
NAMES = tuple(_OPS)


def operations(name: str, seed: int) -> tuple[SimConfig, ...]:
    """One round of the named workload with master seed `seed`."""
    return tuple(replace(cfg, master_seed=seed) for cfg in _OPS[name])


def is_ber(cfg: SimConfig) -> bool:
    return bool(cfg.snr_list_db)
