"""The command line's boundary as a property: a drawn invocation with
nothing wrong runs (exit 0, canonical scheme names in what it wrote), and
one with one thing wrong is refused with exactly one error line that names
the flag at fault (exit 1, or 2 from argparse), never with a traceback.

Each subcommand draws its argv, and sometimes a config file, from a small
grammar: numbers at (accepted) and just past (refused) each bound, malformed
scheme names, bytes that are not UTF-8 and repeated keys.  Run sizes
(--frames, --bits) stay tiny; refusals of huge ones are rows of test_cli.py,
never started here."""
import csv
import io
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from papr_lab import cli, compander, harness

CANONICAL = re.compile(r"none|bch|rs2516|crs31_[1-9][0-9]*")
EXAMPLES = settings(max_examples=20, deadline=None)


def just_past(x: float, direction: float) -> str:
    return repr(float(np.nextafter(x, direction)))


# (good values, bad values) per flag; None leaves the flag out, True gives
# it bare
SCHEME = ((None, "none", "bch", "rs2516", "crs31_19", "crs31_30"),
          ("crs31_18", "crs31_31", "crs31_019", "crs31_+19", "crs31_ 19",
           "crs31_1_9", "crs31_x", "crs31_", "CRS31_19", "rs2516 ", "",
           "bch\x00"))
COMPAND = ((None, True), ())
MU = ((None, repr(compander.MU_MIN), repr(compander.MU_MAX), "25"),
      (just_past(compander.MU_MIN, 0), just_past(compander.MU_MAX, np.inf),
       "0", "5e-324", "3e-308", "nan", "inf"))
SEED = ((None, "0", str(2 ** 64 - 1)), ("-1", str(2 ** 64)))
BURST = harness.MAX_FRAMES_PER_BURST
FRAMES_PER_BURST = ((None, "3", str(BURST)), ("2", str(BURST + 1)))
BOUND = harness.MAX_SNR_DB
SNR = (("10", "inf", str(BOUND), str(-BOUND), "0:1:2",
        f"{BOUND - 1}:1:{BOUND}"),
       (f"{BOUND}.001", f"-{BOUND}.001", "nan", f"{BOUND}:1:{BOUND + 1}",
        "0:0.0005:1", "2:1:0", "10,10", "0,0.0004", "1,,2", ""))
# config-file lines that fail as they are read, whatever the subcommand
BAD_CONFIG_LINES = (b"bogus = 1", b"no equals sign", b"scheme = \xff",
                    b"companding = maybe", b"frames = 1e3", b"bits = 1e3",
                    b"frames-per-burst = 3.5")


def draw_case(data, tmp: Path, flags: dict,
              config_lines: tuple) -> tuple[list, str | None]:
    """argv of flags {flag: (good values, bad values)} and of a config file
    of good lines (keys may repeat).  At most one drawn flag, --config
    included, gets a bad value; a bad config file has one bad line or is
    missing.  Returns (argv, the bad flag or None)."""
    bad = data.draw(st.sampled_from((None, "--config") + tuple(
        flag for flag, (_, wrong) in flags.items() if wrong)), label="bad")
    argv = []
    for flag, (good, wrong) in flags.items():
        value = data.draw(st.sampled_from(wrong if flag == bad else good),
                          label=flag)
        if value is not None:
            argv += [flag] if value is True else [flag, value]
    lines = data.draw(st.lists(st.sampled_from(config_lines), max_size=4)
                      if config_lines else st.just([]), label="config")
    if bad == "--config":
        at = data.draw(st.integers(0, len(lines)), label="at")
        lines.insert(at, data.draw(st.sampled_from(BAD_CONFIG_LINES + (None,)),
                                   label="bad line"))
    if lines:
        path = tmp / "run.cfg"
        if None not in lines:  # None: the file is missing
            path.write_bytes(b"\n".join(lines) + b"\n")
        argv += ["--config", path]
    return argv, bad


def run_checked(argv: list, tmp: Path, names: tuple) -> str:
    """Run the CLI on argv in tmp and check how it ends: with names empty,
    exit 0 and canonical scheme names in every CSV written; else exit 1 or
    2, one error line naming one of names, no traceback and no CSV.
    RuntimeWarnings are errors: an overflow is not a clean run.  Returns
    stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as ex:  # argparse's refusals
            rc = ex.code
    errors = [line for line in err.getvalue().splitlines()
              if "error:" in line]
    written = sorted(tmp.glob("*.csv"))
    if not names:
        assert rc == 0 and not errors, err.getvalue()
        for path in written:
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    assert CANONICAL.fullmatch(row.get("scheme", "none"))
    else:
        assert rc in (1, 2), (rc, err.getvalue())
        assert len(errors) == 1 and "Traceback" not in err.getvalue(), \
            err.getvalue()
        assert any(name in errors[0] for name in names), errors[0]
        assert not written
    return out.getvalue()


@given(st.data())
@EXAMPLES
def test_papr_ends_in_a_run_or_one_error_naming_the_flag(data):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        argv, bad = draw_case(data, tmp, {
            "--frames": (("100", "150"), ("99", "0", "-5", "1e3")),
            "--scheme": SCHEME, "--compand": COMPAND, "--mu": MU,
            "--load": ((None, "random", "full"), ("half",)),
            "--seed": SEED, "--frames-per-burst": FRAMES_PER_BURST,
            "--workers": ((None, "1"), ("0",))},
            (b"scheme = crs31_19", b"frames = 150", b"companding = yes",
             b"mu = 25", b"load = full", b"frames-per-burst = 3",
             b"master_seed = 18446744073709551615", b"# a comment", b""))
        out = run_checked(["papr"] + argv + ["--out", tmp / "ccdf.csv"], tmp,
                          (bad,) if bad else ())
        if not bad:  # "<scheme> load=... -> path"
            assert CANONICAL.fullmatch(out.split()[0])
            assert (tmp / "ccdf.csv").exists()


@given(st.data())
@EXAMPLES
def test_ber_ends_in_a_run_or_one_error_naming_the_flag(data):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        argv, bad = draw_case(data, tmp, {
            "--bits": (("1", "100", "2000"), ("0", "-1", "1e3")),
            "--snr": SNR, "--scheme": SCHEME, "--compand": COMPAND,
            "--mu": MU, "--seed": SEED,
            "--channel": ((None, "awgn", "pedestrian_b", "vehicular_a"),
                          ("rayleigh",)),
            "--frames-per-burst": FRAMES_PER_BURST},
            (b"scheme = rs2516", b"bits = 100", b"companding = no",
             b"channel = vehicular_a", b"master_seed = 0",
             b"frames_per_burst = 10000", b"# a comment", b""))
        run_checked(["ber"] + argv + ["--out", tmp / "ber.csv"], tmp,
                    (bad,) if bad else ())
        if not bad:
            assert (tmp / "ber.csv").exists()


@given(st.data())
@EXAMPLES
def test_ksweep_ends_in_a_run_or_one_error_naming_the_flag(data):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        argv, bad = draw_case(data, tmp, {
            "--frames-per-burst": FRAMES_PER_BURST,
            # a full-load sweep takes neither
            "--seed": ((None,), ("0",)), "--workers": ((None,), ("1",))},
            (b"frames_per_burst = 3", b"frames-per-burst = 10000",
             b"# a comment", b""))
        run_checked(["ksweep"] + argv + ["--out", tmp / "ksweep.csv"], tmp,
                    (bad,) if bad else ())
        if not bad:
            assert (tmp / "ksweep.csv").exists()


@given(st.data(), st.sampled_from((0, 16, 48)))
@EXAMPLES
def test_fec_ends_in_a_run_or_one_error_naming_the_flag(data, size):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "in.bin").write_bytes(bytes(range(size)))
        odd = tmp / "odd.bin"  # not whole 16-byte frames
        odd.write_bytes(bytes(17))
        dst = tmp / "out.bin"
        argv, bad = draw_case(data, tmp, {
            "--scheme": (SCHEME[0][1:], (None,) + SCHEME[1]),
            "--in": ((tmp / "in.bin",), (None, tmp / "missing.bin", odd)),
            "--out": ((dst,), (None, tmp / "no_such_dir" / "out.bin"))}, ())
        mode = data.draw(st.sampled_from(("encode", "decode")), label="mode")
        # fec takes no --config; its size error names the file
        names = {None: (), "--in": ("--in", str(odd))}
        run_checked(["fec", mode] + argv, tmp, names.get(bad, (bad,)))
        if not bad:
            assert dst.stat().st_size == size
