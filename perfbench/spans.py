"""Spans and counts recorded around the public layer calls of papr_lab.

Nothing here edits the package: `Tracer.installed()` swaps module attributes
for timing wrappers and puts the originals back on exit.  The harness looks
every wrapped name up on its module at call time, except that `_bch_scheme`
binds `bch.bch_encode` when the scheme is built; the harness builds its scheme
inside each `run_*` call, so installing before that call is enough.

Spans live in memory, one list per thread (burst workers are pool threads),
and are reduced to per-layer sums by `Tracer.summary()` when the run ends.
A span's busy time is the calling thread's CPU time: with workers=2 the wall
spans of two threads overlap and include waits for the interpreter lock.
"""
from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable

import numpy as np

from papr_lab import channel, compander, metrics, modem
from papr_lab.fec import bch, crs, rs

# (module, public function, layer); layers are named after the modules.
WRAPPED = (
    (bch, "bch_encode", "fec.encode"),
    (rs, "rs2516_frame", "fec.encode"),
    (crs, "crs_encode", "fec.encode"),
    (bch, "bch_decode", "fec.decode"),
    (rs, "rs2516_decode", "fec.decode"),
    (crs, "crs_decode", "fec.decode"),
    (modem, "frames_to_grid", "modem.map"),
    (modem, "oqam_preprocess", "modem.map"),
    (modem, "synthesis", "modem.synthesis"),
    (compander, "mu_compress", "compander.compress"),
    (channel, "realize", "channel.apply"),
    (channel, "apply", "channel.apply"),
    (compander, "mu_expand", "compander.expand"),
    (modem, "analysis", "modem.analysis"),
    (channel, "equalize", "channel.equalize"),
    (modem, "oqam_postprocess", "modem.demap"),
    (modem, "grid_to_frames", "modem.demap"),
    (metrics, "frame_paprs", "metrics.papr"),
    (metrics, "ccdf", "metrics.papr"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))
# Captured at import, before any scheme is built, so re-encoding in a check
# and the memory replay never go through a wrapper.
ORIGINAL = {name: getattr(mod, name) for mod, name, _ in WRAPPED}
MEMORY_LAYERS = ("modem.synthesis", "modem.analysis")
COUNTS = ("fec.decode.attempts", "fec.decode.clean", "fec.decode.corrected",
          "fec.decode.failed", "fec.decode.corrected_units",
          "compander.expand.clamped", "channel.equalize.singular")

# decode_check(function name, call args, return value) -> bool, True when
# the decoded result is acceptable.
DecodeCheck = Callable[[str, tuple, tuple], bool]


class _ThreadLog:
    def __init__(self):
        # layer, wall start, wall end, thread CPU ns, nesting depth
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.depth = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.bad_decodes = 0


class Tracer:
    """Records one span per wrapped call and the outcome counts the harness
    discards: decode results, compander clamps and singular sub-channels."""

    def __init__(self, decode_check: DecodeCheck | None = None):
        self._decode_check = decode_check
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self.first_args: dict[str, tuple] = {}

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            log = self._log()
            if layer in MEMORY_LAYERS and layer not in self.first_args:
                with self._lock:
                    self.first_args.setdefault(layer, (fn, args, kwargs))
            depth = log.depth
            log.depth += 1
            t0 = time.perf_counter_ns()
            c0 = time.thread_time_ns()
            try:
                out = fn(*args, **kwargs)
            except rs.DecodeFailure:
                if layer == "fec.decode":
                    log.counts["fec.decode.attempts"] += 1
                    log.counts["fec.decode.failed"] += 1
                raise
            finally:
                log.spans.append((layer, t0, time.perf_counter_ns(),
                                  time.thread_time_ns() - c0, depth))
                log.depth = depth
            self._count(log, name, layer, args, out)
            return out
        return wrapper

    def _count(self, log: _ThreadLog, name: str, layer: str,
               args: tuple, out) -> None:
        c = log.counts
        if layer == "fec.decode":
            c["fec.decode.attempts"] += 1
            corrected = int(out[1])
            c["fec.decode.corrected" if corrected else "fec.decode.clean"] += 1
            c["fec.decode.corrected_units"] += corrected
            if self._decode_check and not self._decode_check(name, args, out):
                log.bad_decodes += 1
        elif name == "mu_expand":
            c["compander.expand.clamped"] += int(out[1])
        elif name == "equalize":
            c["channel.equalize.singular"] += int(np.count_nonzero(out[1]))

    @contextmanager
    def installed(self):
        try:
            for mod, name, layer in WRAPPED:
                setattr(mod, name, self._wrap(name, layer, ORIGINAL[name]))
            yield self
        finally:
            for mod, name, _ in WRAPPED:
                setattr(mod, name, ORIGINAL[name])

    def summary(self) -> dict:
        """Busy CPU ns per layer, busy ns of outermost spans ('top'),
        counts and rejected decodes, merged over threads."""
        busy = dict.fromkeys(LAYERS, 0)
        top = 0
        counts = dict.fromkeys(COUNTS, 0)
        bad = 0
        for log in self._logs:
            for layer, _, _, cpu, depth in log.spans:
                busy[layer] += cpu
                if depth == 0:
                    top += cpu
            for k, v in log.counts.items():
                counts[k] += v
            bad += log.bad_decodes
        return {"busy_ns": busy, "top_ns": top, "counts": counts,
                "bad_decodes": bad}

    def replay_peak_mib(self, layer: str) -> float:
        """tracemalloc peak of one call of a MEMORY_LAYERS function, replayed
        alone on the arguments of its first traced call."""
        fn, args, kwargs = self.first_args[layer]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
