"""Set-up probe for setup_s.

run.py starts this file as a fresh interpreter and times it from launch to
the "ready" line: interpreter start, numpy/scipy/papr_lab import, and the
construction of every scheme, modem config and channel profile the workload
uses.  Usage: python3 perfbench/setup_probe.py WORKLOAD
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from papr_lab import channel, harness  # noqa: E402

import workloads  # noqa: E402

for cfg in workloads.operations(sys.argv[1], 0):
    harness.get_scheme(cfg.scheme, cfg.M)
    cfg.modem_config()
    channel.make_profile(cfg.channel)
print("ready", flush=True)
