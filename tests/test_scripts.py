"""Smoke runs of the experiment scripts in scripts/ at small sizes, and of
src_lines.py's pure functions on in-memory sources."""
import runpy
import sys
from pathlib import Path

import pytest

from papr_lab import harness

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    return runpy.run_path(str(SCRIPTS / name))["main"]()


def csv_lines(path):
    return path.read_text().strip().split("\n")


def test_run_table2(tmp_path, monkeypatch):
    out = tmp_path / "table2.csv"
    assert run_script(monkeypatch, "run_table2.py", "--frames", 100,
                      "--out", out) == 0
    lines = csv_lines(out)
    assert lines[0] == "scheme,companding,load,max_papr_db,papr_at_1e3_db"
    assert len(lines) == 1 + 8 * 2  # 8 rows of the matrix at two loads


def test_run_ber_curves(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "run_ber_curves.py", "--channels", "awgn",
                      "pedestrian_b", "--snr", 10, "--bits", 2000,
                      "--prefix", tmp_path / "ber") == 0
    for channel in ("awgn", "pedestrian_b"):
        lines = csv_lines(tmp_path / f"ber_{channel}.csv")
        assert lines[0] == "snr_db,scheme,channel,companding,bits,errors,ber"
        assert len(lines) == 1 + 3  # one SNR point for each of three schemes
        assert all(f",{channel}," in line for line in lines[1:])


@pytest.mark.parametrize("name,args,flag", [
    ("run_table2.py", ("--frames", 0), "--frames"),
    ("run_ber_curves.py", ("--snr", "0:0:1"), "--snr"),
    ("run_table2.py", ("--seed", -1), "--seed"),
    ("run_ber_curves.py", ("--seed", -1), "--seed"),
    # more than 2^32 bursts a point
    ("run_table2.py", ("--frames", 10 ** 20), "--frames"),
    ("run_ber_curves.py", ("--bits", 10 ** 20), "--bits"),
])
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, name,
                                     args, flag):
    """Refused input ends in one '<script>: error:' line naming the flag,
    as in papr-lab, not in a traceback."""
    monkeypatch.chdir(tmp_path)
    assert run_script(monkeypatch, name, *args) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert err[0].startswith(f"{name}: error:") and flag in err[0]
    assert not list(tmp_path.iterdir())  # no CSV written


@pytest.mark.parametrize("name,args,flag", [
    ("run_table2.py", ("--frames", 2 ** 32 * 8 + 1), "--frames"),
    ("run_ber_curves.py", ("--bits", 2 ** 32 * 8 * 128 + 1), "--bits"),
])
def test_too_many_bursts_refused_before_any_burst(tmp_path, monkeypatch,
                                                   capsys, name, args, flag):
    """One burst past 2^32 bursts a point (8 measured frames a burst, 128
    bits a frame uncoded) is refused before any stream is seeded or any
    burst is sent."""
    def no_burst(*args, **kwargs):
        raise AssertionError("a burst ran")
    monkeypatch.setattr(harness, "_seed_words", no_burst)
    monkeypatch.setattr(harness, "_tx_burst", no_burst)
    monkeypatch.chdir(tmp_path)
    assert run_script(monkeypatch, name, *args) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert err[0].startswith(f"{name}: error:") and flag in err[0]
    assert not list(tmp_path.iterdir())


SAMPLE = '''"""A module."""
import os  # a trailing comment is code

# a comment line


class A:
    """A class,
    on two lines."""
    X = 1

    def f(self):
        """A method."""
        return "# not a comment"
'''


def test_src_lines_splits_a_module():
    split = runpy.run_path(str(SCRIPTS / "src_lines.py"))["split_lines"]
    assert split(SAMPLE) == {"code": 5, "docstring": 4, "comment": 1,
                             "blank": 4}


@pytest.mark.parametrize("old,new,same", [
    ('"""A module."""', '"""Another module,\n\non three lines."""', True),
    ('"""A method."""', '"""A method."""\n        # a comment', True),
    ('"""A method."""', '', True),
    ("# a comment line", "", True),
    ("X = 1", "X = 2", False),
    ('"# not a comment"', '"# still not a comment"', False),
])
def test_src_lines_compares_code_without_docstrings(old, new, same):
    dump = runpy.run_path(str(SCRIPTS / "src_lines.py"))["code_dump"]
    assert SAMPLE.count(old) == 1
    assert (dump(SAMPLE) == dump(SAMPLE.replace(old, new))) == same
