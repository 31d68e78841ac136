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
    # the smallest step keeps one stream key per point
    assert len(cli._parse_snr("0:0.001:1")) == 1001
    # a range past the SNR bound is refused before its points are built
    with pytest.raises(ValueError, match="--snr"):
        cli._parse_snr("0:1:1e9")


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
    # a line splits at its first "=": the rest, "=" and all, is the value
    ("ber", "channel = awgn=1", "bad.cfg:1: --channel: unknown channel "
                                "profile 'awgn=1'"),
    ("papr", "load = half", "--load"),
    ("papr", "frames = abc", "config key frames"),
    ("papr", "mu = x", "config key mu"),
    # each error of a line names --config, the file and the line
    ("papr", "bogus = 1", "bad.cfg:1: unknown config key 'bogus'"),
    ("papr", "frames = 1e3", "bad.cfg:1: config key frames: bad int '1e3'"),
    ("papr", "companding = maybe",
     "bad.cfg:1: config key companding: bad boolean 'maybe'"),
    ("ber", "scheme rs2516", "bad.cfg:1: expected 'key = value'"),
    # a value out of range is refused as its line is read
    ("papr", "mu = 0", "bad.cfg:1: --mu"),
    ("papr", "frames_per_burst = 2", "bad.cfg:1: --frames-per-burst"),
    ("papr", "master_seed = -1", "bad.cfg:1: --seed"),
    ("papr", "scheme = crs31_40", "bad.cfg:1: --scheme"),
    ("ber", "snr = nan", "bad.cfg:1: --snr"),
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


def test_config_file_not_utf8_names_the_flag_and_path(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"scheme = \xff\n")
    rc = run(["papr", "--config", cfg, "--out", tmp_path / "x.csv"])
    assert rc == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith("papr-lab: error: --config")
    assert str(cfg) in err[0] and "not UTF-8" in err[0]
    assert not (tmp_path / "x.csv").exists()


def test_seed_range_in_help(capsys):
    with pytest.raises(SystemExit):
        run(["ber", "--help"])
    assert "0..2^64 - 1" in capsys.readouterr().out


def test_scheme_names_and_burst_range_in_help(capsys):
    for command in ("papr", "ber"):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        out = capsys.readouterr().out
        assert "none | bch | rs2516 | crs31_<k>" in out
        assert f"3..{harness.MAX_FRAMES_PER_BURST}" in out


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


# per scheme, one noisy frame (a seeded payload's codeword with bits 5 and
# 90 flipped) and its decoded payload bits, packed, captured before the
# decoders ran a stacked syndrome and BM pass
ONE_FRAME = {
    "bch": ("bd9f531a0e2b70a92d0e54d98098679a", "b99f531a0e2b70a92d0e50"),
    "rs2516": ("bd9f531a0e2b70a92d0e3c60ea93d4d8", "b99f531a0e2b70a92d0e"),
    "crs31_19": ("bd9f531a0e2b70a9f5ba779625ee5700", "b99f531a0e2b70a9"),
}


@pytest.mark.parametrize("scheme", sorted(ONE_FRAME))
def test_fec_decode_of_empty_and_one_frame_files(tmp_path, scheme):
    """A stack of no frame and one of a single frame go through the stacked
    decode pass: a 0-frame file decodes to an empty file and a 1-frame
    file to its pinned payload, zero padded to the frame, and
    Scheme.decode gives the same."""
    frame_hex, payload_hex = ONE_FRAME[scheme]
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    padded = bytes.fromhex(payload_hex).ljust(16, b"\0")
    for raw, want in ((b"", b""), (bytes.fromhex(frame_hex), padded)):
        src.write_bytes(raw)
        assert run(["fec", "decode", "--scheme", scheme,
                    "--in", src, "--out", dst]) == 0
        assert dst.read_bytes() == want
    codec = harness.get_scheme(scheme)
    frame = np.unpackbits(np.frombuffer(bytes.fromhex(frame_hex), np.uint8))
    got = codec.decode(frame[None])
    assert np.packbits(got, axis=1).tobytes() == bytes.fromhex(payload_hex)
    empty = codec.decode(np.zeros((0, 128), np.uint8))
    assert empty.shape == (0, codec.payload_bits) and empty.dtype == np.uint8


def test_fec_bad_size(tmp_path, capsys):
    src = tmp_path / "odd.bin"
    src.write_bytes(b"\x00" * 17)
    rc = run(["fec", "encode", "--scheme", "bch",
              "--in", src, "--out", tmp_path / "x.bin"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--in {src}" in err and "frame size" in err


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
    # ranges refused before their points are built
    (["ber", "--snr", "0:1:1001", "--bits", 1000], "--snr"),
    (["ber", "--snr", "0:0.0005:1", "--bits", 1000], "--snr"),
    # points that share one milli-dB stream key
    (["ber", "--snr", "0,0.0004", "--bits", 1000], "--snr"),
    (["ber", "--snr", "10,10", "--bits", 1000], "--snr"),
    # spellings of k that int() takes but that are not crs31_<k>
    (["ber", "--scheme", "crs31_1_9", "--bits", 1000, "--snr", "10"],
     "--scheme"),
    (["ber", "--scheme", "crs31_+19", "--bits", 1000, "--snr", "10"],
     "--scheme"),
    (["ber", "--scheme", "crs31_019", "--bits", 1000, "--snr", "10"],
     "--scheme"),
    (["ber", "--scheme", "crs31_ 19", "--bits", 1000, "--snr", "10"],
     "--scheme"),
    # seeds outside one uint64 word, which would wrap onto other seeds
    (["ber", "--seed", -5, "--bits", 1000, "--snr", "10"], "--seed"),
    (["ber", "--seed", 2 ** 64, "--bits", 1000, "--snr", "10"], "--seed"),
    (["ber", "--seed", 10 ** 23, "--bits", 1000, "--snr", "10"], "--seed"),
    # more than 2^32 bursts a point: a burst's index is one uint32 seed word
    (["ber", "--bits", 10 ** 20, "--snr", "10"], "--bits"),
    (["papr", "--frames", 10 ** 20], "--frames"),
    # one burst past the bound: 2^32 bursts of 8 measured 128-bit frames
    (["ber", "--bits", 2 ** 32 * 8 * 128 + 1, "--snr", "10"], "--bits"),
    (["papr", "--frames", 2 ** 32 * 8 + 1], "--frames"),
    # mu values that passed a check for finite and positive but break the
    # compander: 1 / log1p(mu) or scale / mu overflows
    (["papr", "--compand", "--mu", "5e-324", "--frames", 150], "--mu"),
    (["ber", "--compand", "--mu", "5e-324", "--bits", 1000, "--snr", "10"],
     "--mu"),
    (["papr", "--compand", "--mu", "3e-308", "--frames", 150], "--mu"),
    (["ber", "--compand", "--mu", "3e-308", "--bits", 1000, "--snr", "10"],
     "--mu"),
    # the largest float: the compressor's peak rounds up to inf
    (["papr", "--compand", "--mu", "1.7976931348623157e308",
      "--frames", 150], "--mu"),
    # a PAPR run that would keep more than about 1 GiB
    (["papr", "--frames", harness.MAX_PAPR_FRAMES + 1], "--frames"),
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


@pytest.mark.parametrize("line,message", [
    ("bogus = 1", "unknown config key 'bogus'"),
    ("frames = 1e3", "config key frames: bad int '1e3'"),
    ("scheme rs2516", "expected 'key = value'"),
])
def test_config_file_error_names_the_flag_path_and_line(tmp_path, capsys,
                                                        line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\nscheme = none\n{line}\nframes = 150\n")
    rc = run(["papr", "--config", cfg, "--out", tmp_path / "x.csv"])
    assert rc == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == [f"papr-lab: error: --config {cfg}:3: {message}"]
    assert not (tmp_path / "x.csv").exists()


def test_mu_and_papr_frames_bounds(capsys):
    """Each bound is accepted at its value and refused just past it, and
    --help states it."""
    from papr_lab import compander
    for mu in (compander.MU_MIN, compander.MU_MAX):
        harness.SimConfig(mu=mu).validate()
    for mu in (np.nextafter(compander.MU_MIN, 0),
               np.nextafter(compander.MU_MAX, np.inf)):
        with pytest.raises(harness.ConfigError, match="^--mu: "):
            harness.SimConfig(mu=float(mu)).validate()
    harness.SimConfig(frames=harness.MAX_PAPR_FRAMES).validate()
    with pytest.raises(harness.ConfigError, match="^--frames must be at most"):
        harness.SimConfig(frames=harness.MAX_PAPR_FRAMES + 1).validate()
    for command in ("papr", "ber"):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert "1e-306..1e+308" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        run(["papr", "--help"])
    assert f"at most {harness.MAX_PAPR_FRAMES:,}" in capsys.readouterr().out
