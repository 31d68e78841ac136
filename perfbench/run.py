"""Benchmark of the papr_lab simulator through its public harness API.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run first times SETUP_PROBES fresh interpreters up to the point where the
first burst could run (setup_s, untraced runs only).  It then runs one check
round of the workload, with the wrappers of spans.py counting decode outcomes
and re-encoding every successful decode, and checks the outputs against
checks.py.  For S seconds it then repeats the round:
- --trace 0: untraced; frames_per_s is the median over rounds of measured
  frames per second, peak_rss_mib the process's ru_maxrss;
- --trace 1: untraced and traced rounds alternate; per-layer busy (CPU)
  time per measured frame comes from the traced rounds, trace.overhead_pct
  from the ratio of median times of traced and untraced rounds.
Wall times are scaled towards nominal machine speed by yardstick.py.
Every round must reproduce the check round's outputs and counts exactly.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any check failed and
2 when the package source is missing.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "papr_lab" / "__init__.py").is_file():
    print(f"papr_lab source not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from papr_lab import compander, harness, metrics, modem  # noqa: E402

SETUP_PROBES = 5


def setup_seconds(workload: str) -> float:
    """Median wall time of SETUP_PROBES launches of setup_probe.py, each
    timed from launch to its "ready" line, divided by the square root of
    the median yardstick slowness sampled twice before each probe and twice
    after the last.  Set-up followed the yardstick only in part: over 24
    paired samples its log-log slope against slowness was about 0.65."""
    times, slowness = [], []
    for _ in range(SETUP_PROBES):
        slowness += [yardstick.slowness(), yardstick.slowness()]
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                               workload], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {proc.returncode}")
    slowness += [yardstick.slowness(), yardstick.slowness()]
    return statistics.median(times) / statistics.median(slowness) ** 0.5


class Bench:
    """One run of one workload: the check round, then timed rounds."""

    def __init__(self, workload: str, seed: int):
        self.name, self.seed = workload, seed
        self.ops = workloads.operations(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.reference: list = []     # check-round output of each operation
        self.ref_counts: list = []    # check-round counts of each operation
        self.slowness = [yardstick.slowness()]  # one after each operation

    # --- one operation ---------------------------------------------------

    def _call(self, cfg):
        """Run one operation; returns (output, measured frames)."""
        if workloads.is_ber(cfg):
            (rec,) = harness.run_ber_sweep(cfg)
            return rec, rec.bits_total // workloads.PAYLOAD_BITS[cfg.scheme]
        res = harness.run_papr_experiment(cfg)
        return res, res.samples_db.size

    def _fail(self, i: int, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"CHECK FAILED: {self.name} op {i}: {p}", file=sys.stderr)

    def _same_as_reference(self, i: int, out) -> bool:
        ref = self.reference[i]
        if ref is None:
            return False
        if workloads.is_ber(self.ops[i]):
            return (out.bits_total, out.bits_error) == (ref.bits_total,
                                                        ref.bits_error)
        return bool(np.array_equal(out.samples_db, ref.samples_db))

    def run_op(self, i: int, tracer=None) -> int:
        """Run operation i of the round, compare it with the check round;
        returns its measured frames (0 when it failed)."""
        self.attempted += 1
        try:
            if tracer is None:
                out, frames = self._call(self.ops[i])
            else:
                with tracer.installed():
                    out, frames = self._call(self.ops[i])
        except Exception as ex:  # an operation that raises counts as failed
            self._fail(i, [f"raised {ex!r}"])
            return 0
        problems = []
        if not self._same_as_reference(i, out):
            problems.append("output differs from the check round")
        if tracer is not None and \
                tracer.summary()["counts"] != self.ref_counts[i]:
            problems.append("counts differ from the check round")
        if problems:
            self._fail(i, problems)
            return 0
        return frames

    # --- check round -----------------------------------------------------

    def check_round(self) -> None:
        for i, cfg in enumerate(self.ops):
            self.attempted += 1
            tracer = spans.Tracer(checks.make_decode_check(spans.ORIGINAL))
            try:
                with tracer.installed():
                    out, _ = self._call(cfg)
                summary = tracer.summary()
                problems = self._op_problems(cfg, out, summary)
                if i == 0 and not workloads.is_ber(cfg):
                    problems += self._reference_synthesis(cfg)
            except Exception as ex:
                out, summary, problems = None, None, [f"raised {ex!r}"]
            self.reference.append(out)
            self.ref_counts.append(summary and summary["counts"])
            if problems:
                self._fail(i, problems)

    def _op_problems(self, cfg, out, summary) -> list[str]:
        counts = summary["counts"]
        problems = []
        if summary["bad_decodes"]:
            problems.append(f"{summary['bad_decodes']} decodes re-encode "
                            "outside the correction radius")
        if not workloads.is_ber(cfg):
            return problems + checks.papr_outputs(out, cfg.frames, cfg.M)
        # BCH is clean at 6 and 8 dB, so zero errors is a correct outcome there.
        problems += checks.ber_bookkeeping(
            out, cfg, workloads.PAYLOAD_BITS[cfg.scheme],
            errors_expected=cfg.scheme != "bch")
        if cfg.channel == "awgn" and cfg.scheme == "none":
            problems += checks.uncoded_ber_check(out, cfg)
        if cfg.channel == "awgn" and cfg.scheme == "bch":
            problems += checks.bch_failure_check(
                counts["fec.decode.failed"], counts["fec.decode.attempts"],
                cfg.snr_list_db[0], cfg)
        return problems

    def _reference_synthesis(self, cfg) -> list[str]:
        """One burst drawn and encoded here, through modulate_frames ->
        mu_compress -> frame_paprs, against checks.reference_synthesis."""
        scheme = harness.get_scheme(cfg.scheme, cfg.M)
        rng = np.random.default_rng([self.seed, 1])
        payloads = rng.integers(0, 2, (cfg.frames_per_burst,
                                       scheme.payload_bits), dtype=np.uint8)
        frames = np.stack([scheme.encode(p) for p in payloads])
        mcfg = cfg.modem_config()
        sig = modem.modulate_frames(frames, mcfg)
        if cfg.companding:
            sig, _ = compander.mu_compress(
                sig, compander.CompanderConfig(mu=cfg.mu))
        db = metrics.frame_paprs(sig, cfg.M, mcfg.Lp, cfg.frames_per_burst)
        return checks.reference_synthesis_check(
            db, frames, cfg.M, cfg.K, cfg.mu if cfg.companding else None)

    # --- timed rounds ----------------------------------------------------

    def timed_round(self, traced: bool) -> tuple[int, float, int, list]:
        """(measured frames, seconds at nominal machine speed, process CPU
        ns, tracers) of one round.  Each operation's wall time is divided by
        the mean yardstick slowness taken just before and just after it."""
        tracers = [spans.Tracer() if traced else None for _ in self.ops]
        frames = cpu_ns = 0
        nominal_s = 0.0
        for i, tr in enumerate(tracers):
            t0, c0 = time.perf_counter(), time.process_time_ns()
            frames += self.run_op(i, tr)
            wall = time.perf_counter() - t0
            cpu_ns += time.process_time_ns() - c0
            self.slowness.append(yardstick.slowness())
            nominal_s += wall / ((self.slowness[-2] + self.slowness[-1]) / 2)
        return frames, nominal_s, cpu_ns, tracers

    def untraced(self, seconds: float) -> dict:
        rates = []
        end = time.perf_counter() + seconds
        while not rates or time.perf_counter() < end:
            frames, nominal_s, _, _ = self.timed_round(False)
            rates.append(frames / nominal_s)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{len(rates)} rounds, median slowness "
              f"{statistics.median(self.slowness):.4f}", file=sys.stderr)
        return {"frames_per_s": (statistics.median(rates), "frames/s"),
                "peak_rss_mib": (rss_mib, "MiB")}

    def traced(self, seconds: float) -> dict:
        plain_s, traced_s, tracers = [], [], []
        frames = cpu_ns = 0
        end = time.perf_counter() + seconds
        while not traced_s or time.perf_counter() < end:
            plain_s.append(self.timed_round(False)[1])
            f, s, cpu, trs = self.timed_round(True)
            frames, cpu_ns, tracers = frames + f, cpu_ns + cpu, tracers + trs
            traced_s.append(s)
        print(f"{len(traced_s)} traced rounds", file=sys.stderr)
        return self._layer_metrics(frames, cpu_ns, tracers) | {
            "trace.overhead_pct": (
                100.0 * (statistics.median(traced_s)
                         / statistics.median(plain_s) - 1.0), "%")}

    def _layer_metrics(self, frames: int, cpu_ns: int, tracers) -> dict:
        busy = dict.fromkeys(spans.LAYERS, 0)
        top = 0
        for t in tracers:
            s = t.summary()
            top += s["top_ns"]
            for layer, ns in s["busy_ns"].items():
                busy[layer] += ns
        per_frame = max(frames, 1) * 1e3
        out = {f"{layer}.us_per_frame": (ns / per_frame, "us/frame")
               for layer, ns in busy.items()}
        # Process CPU time outside every wrapped call: RNG draws, stacking,
        # the thread pool, and the benchmark's own bookkeeping.
        out["harness.self.us_per_frame"] = ((cpu_ns - top) / per_frame,
                                            "us/frame")
        counts = dict.fromkeys(spans.COUNTS, 0)
        for c in self.ref_counts:
            for k in counts:
                counts[k] += c[k] if c else 0
        out.update({k: (v, "count") for k, v in counts.items()})
        attempts = counts["fec.decode.attempts"]
        useful = counts["fec.decode.clean"] + counts["fec.decode.corrected"]
        out["fec.decode.success_ratio"] = (
            useful / attempts if attempts else 0.0, "ratio")
        for layer in spans.MEMORY_LAYERS:
            first = next((t for t in tracers if layer in t.first_args), None)
            out[f"{layer}.peak_mib"] = (
                first.replay_peak_mib(layer) if first else 0.0, "MiB")
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metrics = {} if args.trace else {
        "setup_s": (setup_seconds(args.workload), "s")}
    bench = Bench(args.workload, args.seed)
    bench.check_round()
    if args.trace:
        metrics.update(bench.traced(args.seconds))
    else:
        metrics.update(bench.untraced(args.seconds))
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
