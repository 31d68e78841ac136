import numpy as np
import pytest

from papr_lab import cli, harness


def run(argv):
    return cli.main([str(a) for a in argv])


def test_snr_parsing():
    assert cli._parse_snr("0:2:6") == (0.0, 2.0, 4.0, 6.0)
    assert cli._parse_snr("1,3.5") == (1.0, 3.5)
    with pytest.raises(ValueError):
        cli._parse_snr("0:2")
    with pytest.raises(ValueError):
        cli._parse_snr("0:-1:5")


def test_papr_subcommand(tmp_path, capsys):
    out = tmp_path / "ccdf.csv"
    rc = run(["papr", "--scheme", "none", "--frames", 150,
              "--seed", 1, "--out", out])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "papr_db,ccdf"
    assert len(lines) > 2
    assert "max_papr_db" in capsys.readouterr().out


def test_papr_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["papr", "--scheme", "rs2516", "--compand",
                    "--frames", 150, "--seed", 5, "--out", path]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ber_subcommand(tmp_path):
    out = tmp_path / "ber.csv"
    rc = run(["ber", "--scheme", "none", "--channel", "awgn",
              "--snr", "30,32", "--bits", 3000, "--seed", 2, "--out", out])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "snr_db,scheme,channel,companding,bits,errors,ber"
    assert len(lines) == 3


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = none\nframes = 150\nseed is not here\n"
                   .replace("seed is not here", "master_seed = 3"))
    out_file = tmp_path / "o.csv"
    rc = run(["papr", "--config", cfg, "--frames", 200, "--out", out_file])
    assert rc == 0
    # CLI --frames overrode the file: CCDF built from 200 samples
    assert out_file.exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 1\n")
    rc = run(["papr", "--config", cfg])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command,line,flag", [
    ("ber", "channel = foo", "--channel"),
    ("papr", "load = half", "--load"),
    ("papr", "frames = abc", "config key frames"),
    ("papr", "mu = x", "config key mu"),
])
def test_bad_config_value_names_the_flag(tmp_path, capsys, command, line,
                                         flag):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = run([command, "--config", cfg, "--out", tmp_path / "x.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "papr-lab: error:" in err and flag in err
    assert not (tmp_path / "x.csv").exists()


def test_bad_scheme_exit_code(capsys):
    rc = run(["papr", "--scheme", "nope", "--frames", 120])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_ksweep_subcommand(tmp_path):
    out = tmp_path / "t1.csv"
    rc = run(["ksweep", "--out", out])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,crs_papr_db,rs_papr_db"
    assert len(lines) == 7


@pytest.mark.parametrize("flag", ["--workers", "--seed"])
def test_ksweep_rejects_flags_it_would_ignore(tmp_path, flag):
    # a full-load sweep draws no random numbers and runs on one thread
    with pytest.raises(SystemExit) as ex:
        run(["ksweep", flag, 2, "--out", tmp_path / "t1.csv"])
    assert ex.value.code == 2
    assert not (tmp_path / "t1.csv").exists()


@pytest.mark.parametrize("scheme,payload_bytes", [("rs2516", 10),
                                                  ("crs31_19", 8)])
def test_fec_roundtrip(tmp_path, scheme, payload_bytes):
    rng = np.random.default_rng(0)
    raw = bytearray(48)
    for i in range(3):  # payload bits in front of each 16-byte frame
        raw[i * 16:i * 16 + payload_bytes] = rng.integers(
            0, 256, payload_bytes, dtype=np.uint8).tobytes()
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(raw))
    enc = tmp_path / "enc.bin"
    dec = tmp_path / "dec.bin"
    assert run(["fec", "encode", "--scheme", scheme,
                "--in", src, "--out", enc]) == 0
    assert run(["fec", "decode", "--scheme", scheme,
                "--in", enc, "--out", dec]) == 0
    got = dec.read_bytes()
    for i in range(3):
        assert got[i * 16:i * 16 + payload_bytes] == \
            bytes(raw[i * 16:i * 16 + payload_bytes])


def test_fec_bad_size(tmp_path, capsys):
    src = tmp_path / "odd.bin"
    src.write_bytes(b"\x00" * 17)
    rc = run(["fec", "encode", "--scheme", "bch",
              "--in", src, "--out", tmp_path / "x.bin"])
    assert rc == 1
    assert "frame size" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["papr", "--frames", 0], "--frames"),
    (["ber", "--bits", 0, "--snr", "10"], "--bits"),
    (["papr", "--workers", 0, "--frames", 150], "--workers"),
    (["ber", "--snr", "nan", "--bits", 1000], "--snr"),
    (["papr", "--frames-per-burst", 2, "--frames", 150], "--frames-per-burst"),
    (["papr", "--frames-per-burst", harness.MAX_FRAMES_PER_BURST + 1,
      "--frames", 150], "--frames-per-burst"),
    (["papr", "--compand", "--mu", "nan", "--frames", 150], "--mu"),
    (["papr", "--compand", "--mu", "inf", "--frames", 150], "--mu"),
    (["papr", "--compand", "--mu", 0, "--frames", 150], "--mu"),
    (["ber", "--snr", "0:1:-5", "--bits", 1000], "--snr"),
    (["ber", "--snr", "", "--bits", 1000], "--snr"),
    (["ber", "--snr", "1,,2", "--bits", 1000], "--snr"),
    (["ber", "--snr", "1:x:3", "--bits", 1000], "--snr"),
    (["ber", "--snr", "0:0:5", "--bits", 1000], "--snr"),
    (["ber", "--snr", "0:1:inf", "--bits", 1000], "--snr"),
    (["papr", "--scheme", "foo", "--frames", 150], "--scheme"),
    (["papr", "--scheme", "crs31_40", "--frames", 150], "--scheme"),
    (["ber", "--scheme", "crs31_x", "--bits", 1000, "--snr", "10"],
     "--scheme"),
    (["papr", "--scheme", "crs31_5", "--frames", 150], "--scheme"),
    (["fec", "encode", "--scheme", "foo", "--in", "unread.bin"], "--scheme"),
    (["papr", "--config", "no_such_dir/papr.cfg", "--frames", 150],
     "--config"),
    (["fec", "decode", "--scheme", "bch", "--in", "no_such_dir/in.bin"],
     "--in"),
    # finite points beyond +-1000 dB: their stream keys would leave a
    # uint32 word or reach the noiseless sentinel
    (["ber", "--snr", "-1500", "--bits", 1000], "--snr"),
    (["ber", "--snr", "5e6", "--bits", 1000], "--snr"),
    (["ber", "--snr", "1e300", "--bits", 1000], "--snr"),
    (["ber", "--snr", "1999000", "--bits", 1000], "--snr"),
])
def test_bad_run_size_names_the_flag(tmp_path, capsys, argv, flag):
    rc = run(argv + ["--out", tmp_path / "x.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "papr-lab: error:" in err and flag in err
    assert not (tmp_path / "x.csv").exists()


def test_too_few_papr_frames_rejected_before_running(tmp_path, capsys,
                                                      monkeypatch):
    def no_run(cfg):
        raise AssertionError("run_papr_experiment called")
    monkeypatch.setattr(harness, "run_papr_experiment", no_run)
    rc = run(["papr", "--frames", 99, "--frames-per-burst", 10_000,
              "--out", tmp_path / "x.csv"])
    assert rc == 1
    assert ("papr-lab: error: too few frames for a CCDF; use --frames >= 100"
            in capsys.readouterr().err)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv,runner", [
    (["papr", "--frames", 150], "run_papr_experiment"),
    (["ber", "--bits", 1000, "--snr", "10"], "run_ber_sweep"),
    (["ksweep"], "run_crs_k_sweep"),
])
def test_missing_out_directory_rejected_before_running(
        tmp_path, capsys, monkeypatch, argv, runner):
    def no_run(*args, **kwargs):
        raise AssertionError(f"{runner} called")
    monkeypatch.setattr(harness, runner, no_run)
    out = tmp_path / "missing" / "x.csv"
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert f"papr-lab: error: --out: no directory {out.parent}" in err
    # an existing directory is no output file either
    assert run(argv + ["--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert f"papr-lab: error: --out: {tmp_path} is a directory" in err
    # nor is a directory it may not write in; root may write anywhere, so
    # os.access, not chmod, makes tmp_path unwritable here
    access = cli.os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: (
        str(path) != str(tmp_path) and access(path, mode)))
    assert run(argv + ["--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert (f"papr-lab: error: --out: directory {tmp_path} is not writable"
            in err)
    assert not (tmp_path / "x.csv").exists()


def test_fec_unwritable_out_names_the_flag(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(16))
    out = tmp_path / "missing" / "x.bin"
    assert run(["fec", "encode", "--scheme", "bch",
                "--in", src, "--out", out]) == 1
    assert f"papr-lab: error: --out {out}:" in capsys.readouterr().err
