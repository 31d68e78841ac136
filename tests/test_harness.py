import threading
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import compander, harness, metrics, modem
from papr_lab.fec import bch, crs, rs
from papr_lab.harness import SimConfig


def _rng(master_seed, scenario_key, burst, role):
    """Oracle of the seeded streams: one SeedSequence per stream, built
    from the uint32 words numpy makes of [master_seed mod 2^64,
    scenario_key, burst, role] (the master seed is one word, or two, lowest
    first, when it exceeds 2^32 - 1)."""
    master = master_seed & 0xFFFFFFFFFFFFFFFF
    words = [master & 0xFFFFFFFF] + ([master >> 32] if master >> 32 else [])
    return np.random.default_rng(np.random.SeedSequence(np.array(
        words + [scenario_key, burst, role], dtype=np.uint32)))


def payload_seeds(master_seed, key, bursts):
    """The payload streams' seed rows of bursts, one per burst."""
    return harness._seed_words(master_seed, key, bursts,
                               (harness._ROLE_PAYLOAD,))[0]


class TestSchemes:
    @pytest.mark.parametrize("name,payload", [("none", 128), ("bch", 85),
                                              ("rs2516", 80), ("crs31_19", 64)])
    def test_registry(self, name, payload):
        scheme = harness.get_scheme(name)
        assert scheme.payload_bits == payload
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, payload).astype(np.uint8)
        frame = scheme.encode(bits)
        assert frame.size == 128
        assert np.array_equal(scheme.decode(frame), bits)

    def test_unknown_scheme(self):
        with pytest.raises(harness.ConfigError,
                           match="unknown scheme 'turbo'"):
            harness.get_scheme("turbo")
        with pytest.raises(harness.ConfigError,
                           match="bad scheme name 'crs31_x'"):
            harness.get_scheme("crs31_x")

    @staticmethod
    def decode_oracle(name, frame):
        """One frame through its codec, as payload bits; a failed decode
        gives the frame's systematic bits."""
        k = harness.get_scheme(name).payload_bits
        try:
            if name == "none":
                return frame
            if name == "bch":
                return bch.bch_decode(frame)[0]
            if name == "rs2516":
                symbols = rs.rs2516_decode(frame)[0]
                return np.array([s >> (4 - j) & 1 for s in symbols
                                 for j in range(5)], np.uint8)
            layout = crs.crs_layout(6, 31, int(name.split("_")[1]))
            return crs.crs_decode(layout, frame)[0]
        except rs.DecodeFailure:
            return frame[:k]

    @given(st.sampled_from(("none", "bch", "rs2516", "crs31_19", "crs31_29")),
           st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_decode_equals_one_codec_call_per_frame(self, name, bursts,
                                                    frames, seed):
        """Scheme.decode of a (bursts, frames, 128) stack with 0-20 bit
        flips a frame equals decoding each frame on its own."""
        scheme = harness.get_scheme(name)
        rng = np.random.default_rng(seed)
        payloads = rng.integers(0, 2, (bursts, frames, scheme.payload_bits),
                                dtype=np.uint8)
        stack = scheme.encode(payloads).copy()
        for frame in stack.reshape(-1, 128):
            frame[rng.choice(128, rng.integers(0, 21), replace=False)] ^= 1
        want = np.stack([self.decode_oracle(name, f)
                         for f in stack.reshape(-1, 128)])
        got = scheme.decode(stack)
        assert got.dtype == np.uint8
        assert got.shape == (bursts, frames, scheme.payload_bits)
        assert np.array_equal(got.reshape(want.shape), want)

    def test_decode_failure_falls_back_to_systematic_bits(self):
        scheme = harness.get_scheme("bch")
        garbage = np.random.default_rng(1).integers(0, 2, 128).astype(np.uint8)
        out = scheme.decode(garbage)  # must not raise
        assert out.size == 85


class TestConfig:
    def test_validation(self):
        for bad in (dict(frames=0), dict(bits=0), dict(workers=0),
                    dict(snr_list_db=(4.0, float("nan"))),
                    dict(snr_list_db=(-np.inf,)),
                    dict(snr_list_db=(np.inf, 4.0, np.inf))):
            with pytest.raises(harness.ConfigError):
                SimConfig(**bad).validate()
        SimConfig(snr_list_db=(np.inf,)).validate()  # the noiseless point
        SimConfig(snr_list_db=(-1000.0, 1000.0)).validate()
        with pytest.raises(harness.ConfigError, match="--snr"):
            SimConfig(snr_list_db=(1000.001,)).validate()
        with pytest.raises(harness.ConfigError):
            SimConfig(frames_per_burst=2).validate()
        with pytest.raises(harness.ConfigError):
            SimConfig(load="half").validate()
        with pytest.raises(harness.ConfigError):
            SimConfig(scheme="nope").validate()
        SimConfig().validate()

    @pytest.mark.parametrize("scheme,frames_per_burst",
                             [("none", 10), ("rs2516", 3), ("bch", 10_000)])
    def test_bits_bound_is_the_one_it_states(self, scheme, frames_per_burst):
        """--bits is refused past 2^32 bursts a point, a burst's index being
        one uint32 seed word: 2**32 bursts of per_burst measured payload
        bits validate, one bit more does not, and the refusal states the
        bound exactly.  Only validate runs."""
        per_burst = ((frames_per_burst - 2)
                     * harness.get_scheme(scheme).payload_bits)
        cfg = SimConfig(scheme=scheme, frames_per_burst=frames_per_burst,
                        bits=2**32 * per_burst)
        cfg.validate()
        with pytest.raises(harness.ConfigError,
                           match=f"^--bits must be at most {2**32 * per_burst}"
                                 f" \\(2\\^32 bursts of {per_burst}\\), got "
                                 f"{2**32 * per_burst + 1}$"):
            replace(cfg, bits=cfg.bits + 1).validate()

    # field -> (its flag, values of a wrong type): a float count, a bool
    # where a number goes, a string for a bool or a number, None for a name
    WRONG_TYPES = {
        "scheme": ("--scheme", [None, 19]),
        "companding": ("--compand", ["no", 1, None]),
        "mu": ("--mu", ["25", True, None]),
        "channel": ("--channel", [None, 0]),
        "snr_list_db": ("--snr", [5.0, "5", ("5",), (True,), [None]]),
        "frames": ("--frames", [150.5, 150.0, True, "150"]),
        "bits": ("--bits", [1000.5, True]),
        "load": ("--load", [None, 1]),
        "master_seed": ("--seed", [1.5, False, "1"]),
        "frames_per_burst": ("--frames-per-burst", [10.0, True]),
        "workers": ("--workers", [2.5, True]),
    }

    def test_wrong_types_cover_every_field(self):
        assert [f.name for f in fields(SimConfig)] == list(self.WRONG_TYPES)

    @pytest.mark.parametrize("name,flag,value", [
        (name, flag, value) for name, (flag, values) in WRONG_TYPES.items()
        for value in values])
    def test_wrong_type_names_the_flag(self, name, flag, value):
        """Each field refuses a value of the wrong type with a ConfigError
        that names its flag, where a range check would pass it (10.0
        frames per burst, companding "no") or fail with a bare TypeError."""
        with pytest.raises(harness.ConfigError, match=f"^{flag} "):
            SimConfig(**{name: value}).validate()

    def test_numpy_scalars_and_lists_pass(self):
        """A config of numpy numbers holds builtin ones, so it runs as its
        builtin twin: a narrow integer neither overflows nor wraps in the
        run's arithmetic, nor a float32 mu in the compander's checks."""
        SimConfig(frames=np.int64(150), bits=np.int32(1000),
                  master_seed=np.uint64(2**63), frames_per_burst=np.int64(10),
                  workers=np.int64(1), mu=np.float64(25.0),
                  snr_list_db=[np.float64(5.0), 6, np.inf]).validate()
        counts = dict(frames=100, bits=100, master_seed=5,
                      frames_per_burst=10, workers=1)
        twin = SimConfig(scheme="bch", companding=True, mu=25.0,
                         snr_list_db=(4.0, np.inf), **counts)
        samples = harness.run_papr_experiment(twin).samples_db
        records = harness.run_ber_sweep(twin)
        for int_type, float_type in product(
                [np.int8, np.int16, np.int32, np.int64,
                 np.uint8, np.uint16, np.uint32, np.uint64],
                [np.float32, np.float64]):
            cfg = replace(twin, mu=float_type(25),
                          snr_list_db=[float_type(4), float_type(np.inf)],
                          **{name: int_type(n) for name, n in counts.items()})
            assert cfg == twin
            assert [type(getattr(cfg, f.name)) for f in fields(cfg)] == [
                type(getattr(twin, f.name)) for f in fields(twin)]
            got = harness.run_papr_experiment(cfg).samples_db
            assert got.dtype == samples.dtype
            assert np.array_equal(got, samples)
            got = harness.run_ber_sweep(cfg)
            assert got == records
            assert all(type(r.snr_db) is float for r in got)


class TestPaprExperiment:
    def test_deterministic(self):
        cfg = SimConfig(scheme="none", frames=120, master_seed=7)
        a = harness.run_papr_experiment(cfg)
        b = harness.run_papr_experiment(cfg)
        assert np.array_equal(a.samples_db, b.samples_db)

    def test_worker_count_does_not_change_results(self):
        base = SimConfig(scheme="none", frames=120, master_seed=7)
        multi = SimConfig(scheme="none", frames=120, master_seed=7, workers=4)
        a = harness.run_papr_experiment(base)
        b = harness.run_papr_experiment(multi)
        assert np.array_equal(a.samples_db, b.samples_db)

    def test_full_load_is_deterministic_constant(self):
        cfg = SimConfig(scheme="none", load="full", frames=150, master_seed=3)
        res = harness.run_papr_experiment(cfg)
        assert res.samples_db.size == 150
        assert np.ptp(res.samples_db) < 1e-9

    def test_sample_count(self):
        cfg = SimConfig(scheme="rs2516", frames=77, master_seed=1)
        assert harness.run_papr_experiment(cfg).samples_db.size == 77
        # below CCDF_MIN_SAMPLES a run has no curve, and its PAPR at any
        # probability is its largest sample
        res = harness.run_papr_experiment(SimConfig(frames=50))
        assert res.samples_db.size == 50 and res.curve is None
        assert res.papr_at(1e-3) == res.max_papr_db


class TestKsweep:
    def test_rows_and_rs_constancy(self):
        rows = harness.run_crs_k_sweep()
        assert [r[0] for r in rows] == [19, 21, 23, 25, 27, 29]
        rs_col = [r[2] for r in rows]
        assert max(rs_col) - min(rs_col) < 0.1
        # CRS framing always sits below the conventional RS framing
        assert all(crs_db < rs_db for _, crs_db, rs_db in rows)


class TestBerSweep:
    def test_null_point_exact_zero(self):
        cfg = SimConfig(scheme="none", channel="awgn",
                        snr_list_db=(np.inf,), bits=4000, master_seed=11)
        rec = harness.run_ber_sweep(cfg)[0]
        assert rec.bits_error == 0

    def test_deterministic_and_worker_independent(self):
        base = SimConfig(scheme="none", channel="pedestrian_b",
                         snr_list_db=(8.0,), bits=4000, master_seed=11)
        a = harness.run_ber_sweep(base)[0]
        b = harness.run_ber_sweep(base)[0]
        c = harness.run_ber_sweep(
            SimConfig(scheme="none", channel="pedestrian_b",
                      snr_list_db=(8.0,), bits=4000, master_seed=11,
                      workers=3))[0]
        assert (a.bits_error, a.bits_total) == (b.bits_error, b.bits_total)
        assert (a.bits_error, a.bits_total) == (c.bits_error, c.bits_total)

    def test_paired_payloads_across_schemes(self):
        # the payload stream at a given (seed, snr, burst) is scheme-blind
        cfg = SimConfig(master_seed=5)
        key = harness._snr_key(10.0)
        want = _rng(cfg.master_seed, key, 0, harness._ROLE_PAYLOAD).integers(
            0, 2, 64)
        seeds = payload_seeds(cfg.master_seed, key, range(1))
        for name in ("crs31_19", "none"):
            got = harness._payloads(harness.get_scheme(name), cfg, seeds)
            assert np.array_equal(got[0].ravel()[:64], want)

    def test_empty_snr_list_rejected(self):
        with pytest.raises(harness.ConfigError):
            harness.run_ber_sweep(SimConfig(scheme="none"))

    @pytest.mark.parametrize("channel,snr_db,roles", [
        ("awgn", 4.0, ("noise",)),
        ("pedestrian_b", np.inf, ("fading",)),
        ("pedestrian_b", 16.0, ("fading", "noise"))])
    def test_channel_builds_only_the_generators_it_draws(
            self, monkeypatch, channel, snr_db, roles):
        """A BER point builds one Generator per burst for each stream the
        channel draws from: fading for a fading profile, noise at a finite
        SNR, and no other."""
        built = []
        monkeypatch.setattr(harness, "_generator", lambda words, _g=(
            harness._generator): built.append(words.tobytes()) or _g(words))
        bursts = 5
        cfg = SimConfig(scheme="none", channel=channel, snr_list_db=(snr_db,),
                        bits=bursts * 8 * 128, master_seed=3)
        harness.run_ber_sweep(cfg)
        seeds = harness._seed_words(cfg.master_seed, harness._snr_key(snr_db),
                                    range(bursts))
        stream = {words.tobytes(): (role, b) for role, rows in
                  zip(("payload", "fading", "noise"), seeds)
                  for b, words in enumerate(rows)}
        assert sorted(stream[w] for w in built) == sorted(
            (role, b) for role in roles for b in range(bursts))


class TestCsv:
    def test_ccdf_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        from papr_lab import metrics
        curve = metrics.ccdf(rng.uniform(4, 9, 500))
        path = tmp_path / "ccdf.csv"
        harness.emit_ccdf_csv(curve, str(path))
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "papr_db,ccdf"
        assert len(rows) == curve.thresholds_db.size + 1
        t, p = (float(x) for x in rows[1].split(","))
        assert t == pytest.approx(curve.thresholds_db[0], abs=1e-6)
        assert p == pytest.approx(curve.probabilities[0], abs=1e-6)

    def test_ber_header_and_empty(self, tmp_path):
        path = tmp_path / "ber.csv"
        harness.emit_ber_csv([], str(path))
        assert path.read_text() == \
            "snr_db,scheme,channel,companding,bits,errors,ber\n"

    def test_byte_identical_reemission(self, tmp_path):
        cfg = SimConfig(scheme="none", frames=150, master_seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit_ccdf_csv(harness.run_papr_experiment(cfg).curve, str(p1))
        harness.emit_ccdf_csv(harness.run_papr_experiment(cfg).curve, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_ccdf_bytes_equal_loop_ccdf(self, tmp_path):
        """The sorted ccdf writes the bytes the per-threshold loop wrote."""
        from test_metrics import loop_ccdf
        samples = harness.run_papr_experiment(SimConfig(
            scheme="crs31_19", companding=True, frames=400,
            master_seed=1)).samples_db
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit_ccdf_csv(harness.metrics.ccdf(samples), str(p1))
        harness.emit_ccdf_csv(loop_ccdf(samples), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self):
        with pytest.raises(IOError):
            harness.emit_ber_csv([], "/nonexistent-dir/x.csv")


class TestRng:
    """The _rng oracle builds its SeedSequence from uint32 entropy words,
    _seed_words computes SeedSequence's state of many streams at once; the
    streams of both must be those of the SeedSequence of the int list,
    whose master seed numpy splits into one or two words."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
                                        -1])
    @pytest.mark.parametrize("key", [harness._snr_key(16.0),
                                     harness._snr_key(np.inf)])
    def test_streams_equal_int_list_seed_sequence(self, master, key):
        for burst, role in ((0, 0), (7, 2), (2**31, 1)):
            seed = [master & (2**64 - 1), key, burst, role]
            ((words,),) = harness._seed_words(
                master, key, range(burst, burst + 1), (role,))
            for got in (_rng(master, key, burst, role),
                        harness._generator(words)):
                want = np.random.default_rng(np.random.SeedSequence(seed))
                assert np.array_equal(got.integers(0, 2**63, 8),
                                      want.integers(0, 2**63, 8))
                assert np.array_equal(got.standard_normal(8),
                                      want.standard_normal(8))

    def test_seeded_rejects_words_pcg64_cannot_read(self):
        words = harness._seed_words(5, 7, range(4))[0]
        for bad in (words[0, :3], words[:, 0], words[0].astype(np.int64),
                    words[0].view(np.uint32)):
            with pytest.raises(ValueError, match="seed words"):
                harness._generator(bad)

    @given(master=st.one_of(st.sampled_from((0, 2**32 - 1, 2**32,
                                             2**64 - 1, -1)),
                            st.integers(0, 2**64 - 1)),
           key=st.one_of(st.sampled_from((0, 2**32 - 1)),
                         st.integers(0, 2**32 - 1)),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_seed_words_equal_seed_sequence_state(self, master, key, data):
        n = data.draw(st.integers(1, 40))
        first = data.draw(st.one_of(st.just(2**32 - n),
                                    st.integers(0, 2**32 - n)))
        roles = data.draw(st.permutations(harness._ROLES))
        roles = roles[:data.draw(st.integers(1, 3))]
        bursts = range(first, first + n)
        words = harness._seed_words(master, key, bursts, roles)
        assert words.shape == (len(roles), n, 4)
        assert words.dtype == np.uint64
        for r, role in enumerate(roles):
            for b, burst in enumerate(bursts):
                seed = np.random.SeedSequence(
                    [master & (2**64 - 1), key, burst, role])
                assert np.array_equal(words[r, b],
                                      seed.generate_state(4, np.uint64))
                got = harness._generator(words[r, b])
                want = np.random.default_rng(seed)
                assert np.array_equal(got.bit_generator.random_raw(5),
                                      want.bit_generator.random_raw(5))
                assert np.array_equal(got.integers(0, 2, 70),
                                      want.integers(0, 2, 70))
                assert np.array_equal(got.standard_normal(5),
                                      want.standard_normal(5))


class TestBenchmarkContract:
    """perfbench counts and radius-checks each decode by wrapping the
    per-frame codec functions by module attribute.  A batched path that
    bypassed them would silently drop those counts, so every frame must
    reach them: the encoders take a whole chunk of bursts as one stack, and
    the frames they see are counted as rows; the decoders are called once
    per frame, after the chunk's stacked syndrome and BM pass, with the
    frame's row as a keyword (perfbench's radius check unpacks a
    decoder's positional arguments)."""

    CODEC = {"bch": ("bch_encode", "bch_decode", 85),
             "rs2516": ("rs2516_frame", "rs2516_decode", 80),
             "crs31_19": ("crs_encode", "crs_decode", 64)}

    @pytest.mark.parametrize("scheme", sorted(CODEC))
    def test_codec_called_once_per_frame(self, monkeypatch, scheme):
        frames = Counter()
        for mod, name in ((bch, "bch_encode"), (rs, "rs2516_frame"),
                          (crs, "crs_encode"), (bch, "bch_decode"),
                          (rs, "rs2516_decode"), (crs, "crs_decode")):
            def counted(*args, _fn=getattr(mod, name), _name=name,
                        **kwargs):
                # an encoder's messages are its last argument, one per row;
                # a decoder call is one frame, its row a keyword
                frames[_name] += (1 if _name.endswith("_decode")
                                  else np.asarray(args[-1])[..., 0].size)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
        encode, decode, payload = self.CODEC[scheme]
        bursts = 2
        cfg = SimConfig(scheme=scheme, channel="awgn", snr_list_db=(4.0,),
                        bits=bursts * 8 * payload, master_seed=1)
        rec = harness.run_ber_sweep(cfg)[0]
        assert rec.bits_total == bursts * 8 * payload
        # 10 frames per burst are encoded, the 8 measured ones decoded
        assert frames == {encode: bursts * 10, decode: bursts * 8}


class TestChunks:
    """Bursts run stacked, in chunks of consecutive bursts, seeded a group of
    chunks at a time; neither the chunk size, the group size nor the worker
    count may change an output."""

    BURSTS = 5

    @staticmethod
    def burst_seeds(mp):
        """Patch _seed_words to return each burst's index in its words, and
        return the list of the ranges it is called with."""
        calls = []

        def seed_words(master_seed, key, bursts, roles):
            calls.append(bursts)
            return np.broadcast_to(np.array(bursts)[:, None],
                                   (len(roles), len(bursts), 4))
        mp.setattr(harness, "_seed_words", seed_words)
        return calls

    @staticmethod
    def chunks(n, cfg, frames):
        """The (start, stop) bursts of each chunk of n bursts."""
        return harness._run_bursts(n, cfg, frames, 0, (0,),
                                   lambda s: (s[0, 0, 0], s[0, -1, 0] + 1))

    def _all_layouts(self, monkeypatch, budget, run, cfg):
        """run(cfg) at 1..BURSTS bursts a chunk, the chunk frame budget
        named budget patched to match, at two worker counts, and at
        seeding groups of 1, 2 and SEED_BURSTS bursts."""
        outs = []
        for per_chunk, workers, group in product(
                range(1, self.BURSTS + 1), (1, 3),
                (1, 2, harness.SEED_BURSTS)):
            monkeypatch.setattr(harness, budget,
                                per_chunk * cfg.frames_per_burst)
            monkeypatch.setattr(harness, "SEED_BURSTS", group)
            outs.append(run(replace(cfg, workers=workers)))
        return outs

    def test_ber_sweep(self, monkeypatch):
        cfg = SimConfig(scheme="rs2516", companding=True,
                        channel="pedestrian_b", snr_list_db=(16.0, np.inf),
                        bits=self.BURSTS * 8 * 80, master_seed=2)
        first, *rest = self._all_layouts(monkeypatch, "BER_CHUNK_FRAMES",
                                         harness.run_ber_sweep, cfg)
        assert first[0].bits_total == self.BURSTS * 8 * 80
        assert all(out == first for out in rest)

    def test_ber_sweep_at_budget_edge(self, monkeypatch):
        """One burst past a full BER chunk runs as two near-equal chunks,
        with the same records as chunks of one burst."""
        size = harness.BER_CHUNK_FRAMES // 10
        cfg = SimConfig(scheme="rs2516", companding=True,
                        channel="pedestrian_b", snr_list_db=(16.0, np.inf),
                        bits=(size + 1) * 8 * 80, master_seed=4)
        layout = harness._run_bursts(size + 1, cfg, harness.BER_CHUNK_FRAMES,
                                     0, harness._ROLES, lambda s: s.shape[1])
        assert layout == [size // 2 + 1, size // 2]  # 21 + 20
        edge = harness.run_ber_sweep(cfg)
        monkeypatch.setattr(harness, "BER_CHUNK_FRAMES", 10)
        assert harness.run_ber_sweep(cfg) == edge
        assert edge[0].bits_total == (size + 1) * 8 * 80

    def test_papr_experiment(self, monkeypatch):
        cfg = SimConfig(scheme="crs31_19", companding=True, frames_per_burst=7,
                        frames=self.BURSTS * 5, master_seed=2)
        first, *rest = self._all_layouts(
            monkeypatch, "CHUNK_FRAMES",
            lambda c: harness.run_papr_experiment(c).samples_db, cfg)
        assert first.size == self.BURSTS * 5
        assert all(np.array_equal(out, first) for out in rest)

    def test_layout_ignores_workers(self, monkeypatch):
        self.burst_seeds(monkeypatch)
        # 2 size + 3 bursts at size a chunk: three contiguous chunks
        # covering them in order, the larger ones first
        for frames, bounds in ((harness.CHUNK_FRAMES, [0, 15, 29, 43]),
                               (harness.BER_CHUNK_FRAMES, [0, 28, 56, 83])):
            n = bounds[-1]
            assert n == 2 * frames // 10 + 3
            for workers in (1, 3):
                seen = self.chunks(n, SimConfig(workers=workers), frames)
                assert seen == list(zip(bounds, bounds[1:]))

    @given(n=st.integers(1, 400), fpb=st.integers(3, 50),
           frames=st.integers(1, 600), group=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_layout(self, n, fpb, frames, group):
        """Chunks cover 0..n in order, each of at most the budget's size,
        the sizes within a group differing by at most one; no chunk
        crosses a group, and each group is seeded once."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "SEED_BURSTS", group)
            calls = self.burst_seeds(mp)
            seen = self.chunks(n, SimConfig(frames_per_burst=fpb), frames)
        groups = [range(g, min(g + group, n)) for g in range(0, n, group)]
        assert calls == groups
        assert [a for a, _ in seen] == [0] + [b for _, b in seen[:-1]]
        assert seen[-1][1] == n
        size = max(1, frames // fpb)
        for g in groups:
            sizes = [b - a for a, b in seen if g.start <= a < g.stop]
            assert sum(sizes) == len(g)  # so no chunk crosses its end
            assert max(sizes) <= size
            assert max(sizes) - min(sizes) <= 1

    def test_each_group_seeds_its_bursts_once(self, monkeypatch):
        """_seed_words is called once per group of SEED_BURSTS bursts, with
        exactly that group's bursts, in a PAPR run and at a BER point alike,
        and each chunk gets the rows _seed_words gives its own bursts."""
        seed_words, calls, got = harness._seed_words, [], []

        def record(master_seed, key, bursts, *roles):
            calls.append(bursts)
            return seed_words(master_seed, key, bursts, *roles)
        monkeypatch.setattr(harness, "_seed_words", record)
        for name in ("_papr_chunk", "_ber_chunk"):
            chunk = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, chunk=chunk: (
                got.append(a[-1]) or chunk(*a)))
        # 2 bursts a chunk and 3 a group: groups 0..3 and 3..5, chunks of
        # 2 + 1 and 2
        monkeypatch.setattr(harness, "CHUNK_FRAMES", 20)
        monkeypatch.setattr(harness, "BER_CHUNK_FRAMES", 20)
        monkeypatch.setattr(harness, "SEED_BURSTS", 3)
        groups = [range(0, 3), range(3, 5)]
        chunks = [range(0, 2), range(2, 3), range(3, 5)]
        for run, cfg, key, roles in (
                (harness.run_papr_experiment,
                 SimConfig(frames=self.BURSTS * 8, master_seed=6), 0,
                 (harness._ROLE_PAYLOAD,)),
                (harness.run_ber_sweep,
                 SimConfig(scheme="bch", snr_list_db=(4.0,), master_seed=6,
                           bits=self.BURSTS * 8 * 85),
                 harness._snr_key(4.0), harness._ROLES)):
            calls.clear()
            got.clear()
            run(cfg)
            assert calls == groups
            assert len(got) == len(chunks)
            for seeds, bursts in zip(got, chunks):
                assert np.array_equal(seeds, seed_words(6, key, bursts, roles))

    def test_chunks_run_on_calling_thread(self, monkeypatch):
        """Any worker count runs every chunk on the calling thread."""
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        # 2 bursts a chunk
        monkeypatch.setattr(harness, "CHUNK_FRAMES", 20)
        monkeypatch.setattr(harness, "BER_CHUNK_FRAMES", 20)
        ber = SimConfig(scheme="bch", channel="awgn", snr_list_db=(4.0,),
                        bits=self.BURSTS * 8 * 85, master_seed=3, workers=4)
        assert harness.run_ber_sweep(ber)[0].bits_total == self.BURSTS * 8 * 85
        papr = SimConfig(scheme="none", frames=self.BURSTS * 8, master_seed=3,
                         workers=4)
        samples = harness.run_papr_experiment(papr).samples_db
        assert samples.size == self.BURSTS * 8

    @staticmethod
    def ber_peaks(chunks):
        """tracemalloc peaks of rs2516 + mu-law BER points over Pedestrian
        B, of one full BER chunk and of chunks of them."""
        def peak(n):
            cfg = SimConfig(scheme="rs2516", companding=True,
                            channel="pedestrian_b", snr_list_db=(16.0,),
                            bits=n * harness.BER_CHUNK_FRAMES // 10 * 8 * 80)
            harness.run_ber_sweep(cfg)  # builds the codec matrices
            tracemalloc.start()
            try:
                harness.run_ber_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak(1), peak(chunks)

    def test_memory_flat_in_bits(self):
        """A chunk's arrays are freed before the next chunk runs, so peak
        memory does not grow with the number of chunks."""
        one, eight = self.ber_peaks(8)
        assert eight < 1.1 * one + 64 * 2**10
        # a full BER chunk of rs2516 + mu-law over Pedestrian B measured
        # 3.36 MiB
        assert one < 4 * 2**20

    def test_memory_flat_in_groups(self, monkeypatch):
        """A group's seed words are freed before the next group is seeded,
        so peak memory does not grow with the number of groups either (one
        chunk a group here)."""
        monkeypatch.setattr(harness, "SEED_BURSTS",
                            harness.BER_CHUNK_FRAMES // 10)
        one, eight = self.ber_peaks(8)
        assert eight < 1.1 * one + 64 * 2**10


class TestBlocks:
    """A PAPR burst longer than CHUNK_FRAMES goes in blocks; the payloads
    of a long burst are drawn in pieces.  Neither may change an output."""

    LENGTHS = (3, 99, 100, 101, 103, 199, 200, 201, 399, 401, 1000)
    SCHEMES = ("none", "bch", "rs2516", "crs31_19", "crs31_25")

    @staticmethod
    def one_block(cfg, payloads, encode):
        """The whole burst modulated and companded as one stack, every frame
        measured, through none of the harness's send step."""
        mcfg = cfg.modem_config()
        sig = modem.modulate_frames(encode(payloads), mcfg)
        if cfg.companding:
            sig, _ = compander.mu_compress(
                sig, compander.CompanderConfig(mu=cfg.mu))
        return metrics.frame_paprs(sig, cfg.M, mcfg.Lp,
                                   cfg.frames_per_burst)[..., 1:-1]

    @pytest.mark.parametrize("name", SCHEMES)
    @pytest.mark.parametrize("load", ["random", "full"])
    @given(fpb=st.sampled_from(LENGTHS), compand=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=16, deadline=None)
    def test_blocks_equal_one_block(self, name, load, fpb, compand,
                                    seed):
        cfg = SimConfig(scheme=name, load=load, companding=compand,
                        frames_per_burst=fpb, master_seed=seed)
        scheme = harness.get_scheme(name)
        if load == "full":
            payloads = np.ones((fpb, scheme.payload_bits), np.uint8)
        else:
            payloads = harness._payloads(scheme, cfg, payload_seeds(
                seed, 0, range(max(1, harness.CHUNK_FRAMES // fpb))))
        got = harness._measured_paprs(cfg, payloads, scheme.encode)
        want = self.one_block(cfg, payloads, scheme.encode)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_blocks_carry_the_minimum_halo(self, monkeypatch):
        """Each block of an uncompanded 1,000-frame burst is sent with
        exactly reach = 2 frames on each side, the frames whose samples
        meet its windows at K = 4, cut at the burst's ends."""
        cfg = SimConfig(companding=False, frames_per_burst=1000)
        payloads = np.random.default_rng(1).integers(0, 2, (1000, 128),
                                                     dtype=np.uint8)
        sent, send = [], harness._tx_burst
        monkeypatch.setattr(harness, "_tx_burst", lambda c, frames, keep: (
            sent.append(frames) or send(c, frames, keep)))
        harness._measured_paprs(cfg, payloads)
        ends = [(s, min(s + harness.CHUNK_FRAMES, 999))
                for s in range(1, 999, harness.CHUNK_FRAMES)]
        assert len(sent) == len(ends) > 1
        for frames, (s, e) in zip(sent, ends):
            assert np.array_equal(frames,
                                  payloads[max(s - 2, 0):min(e + 2, 1000)])

    @pytest.mark.parametrize("at", [0, -1])
    def test_nan_outside_the_kept_windows_fails_a_companded_burst(
            self, monkeypatch, at):
        """The mu-law scale is the peak of the whole burst, so a NaN in a
        sample that no measured frame's window reads still raises."""
        cfg = SimConfig(scheme="crs31_19", companding=True)
        scheme = harness.get_scheme(cfg.scheme)
        payloads = np.ones((cfg.frames_per_burst, scheme.payload_bits),
                           np.uint8)
        modulate = modem.modulate_frames

        def poisoned(frames, mcfg):
            sig = modulate(frames, mcfg)
            sig[..., at] = np.nan
            return sig
        monkeypatch.setattr(modem, "modulate_frames", poisoned)
        mcfg = cfg.modem_config()
        sig, _ = harness._tx_burst(replace(cfg, companding=False),
                                   scheme.encode(payloads))
        # the poisoned sample lies outside every measured frame's window
        windows = metrics.frame_paprs(sig, cfg.M, mcfg.Lp,
                                      cfg.frames_per_burst)[..., 1:-1]
        assert np.isfinite(windows).all()
        with pytest.raises(metrics.DegenerateSignal):
            harness._measured_paprs(cfg, payloads, scheme.encode)

    @given(st.integers(3, 450), st.sampled_from((64, 80, 85, 128)),
           st.integers(1, 3), st.integers(0, 2**64 - 1), st.integers(0, 9),
           st.sampled_from((7, 33, harness.CHUNK_FRAMES)))
    @settings(max_examples=60, deadline=None)
    def test_payloads_equal_one_draw_per_burst(self, fpb, bits, n, seed,
                                               first, chunk):
        """Payloads from raw words equal one Generator.integers(0, 2) draw
        per burst, also where CHUNK_FRAMES frames of 85 bits end a piece
        mid-word (odd CHUNK_FRAMES)."""
        scheme = harness.Scheme("any", bits, np.asarray, np.asarray)
        cfg = SimConfig(frames_per_burst=fpb, master_seed=seed)
        bursts = range(first, first + n)
        want = np.stack([
            _rng(seed, 5, b, harness._ROLE_PAYLOAD).integers(
                0, 2, (fpb, bits)) for b in bursts]).astype(np.uint8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "CHUNK_FRAMES", chunk)
            got = harness._payloads(scheme, cfg,
                                    payload_seeds(seed, 5, bursts))
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["none", "bch", "rs2516", "crs31_19"])
    def test_memory_bounded_in_burst_length(self, name):
        """Without mu-law a 10,000-frame burst is measured in blocks; in one
        stack its modem arrays peaked at 60 MiB."""
        harness.run_papr_experiment(SimConfig(scheme=name, frames=8))
        cfg = SimConfig(scheme=name, frames_per_burst=10_000, frames=9_998)
        tracemalloc.start()
        try:
            harness.run_papr_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_papr_peak_memory_within_the_frames_bound():
    """At 3 frames per burst, the worst case, a PAPR run's tracemalloc peak
    per frame times MAX_PAPR_FRAMES stays under 1 GiB."""
    harness.run_papr_experiment(SimConfig(frames=8, frames_per_burst=3))
    frames = 80_000  # the peak is linear in frames from about here
    tracemalloc.start()
    try:
        harness.run_papr_experiment(SimConfig(frames=frames,
                                              frames_per_burst=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / frames * harness.MAX_PAPR_FRAMES < 2 ** 30


def test_papr_peak_memory_per_frame_at_a_64_bit_seed():
    """A master seed of 2^32 or more adds a fifth entropy word to every
    burst's seed, the worst case for _seed_words.  The words are derived
    one group of SEED_BURSTS bursts at a time, so a run at 3 frames per
    burst grows by at most 16 B a frame (its chunks' samples) beside one
    chunk's working set and one group's words; deriving every burst's
    words up front grew it by 96 B a frame.  A peak is counted less what
    the run leaves allocated once its result is dropped: now and then a
    table of string keys outside the program (the interpreter's or
    numpy's) grows past 21,845 keys during a run, one 0.92 MiB block that
    outlives it, allocated under numpy's as_strided."""
    cfg = SimConfig(frames_per_burst=3, master_seed=2**40)
    harness.run_papr_experiment(replace(cfg, frames=8))
    peaks = []
    for frames in (80_000, 240_000):
        tracemalloc.start()
        try:
            harness.run_papr_experiment(replace(cfg, frames=frames))
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - left)
    assert (peaks[1] - peaks[0]) / (240_000 - 80_000) <= 16
