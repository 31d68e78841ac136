import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab import harness, metrics
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
        with pytest.raises(crs.UnknownScheme):
            harness.get_scheme("turbo")
        with pytest.raises(crs.UnknownScheme):
            harness.get_scheme("crs31_x")

    def test_decode_failure_falls_back_to_systematic_bits(self):
        scheme = harness.get_scheme("bch")
        garbage = np.random.default_rng(1).integers(0, 2, 128).astype(np.uint8)
        out = scheme.decode(garbage)  # must not raise
        assert out.size == 85


class TestConfig:
    def test_validation(self):
        for bad in (dict(frames=0), dict(bits=0), dict(workers=0),
                    dict(snr_list_db=(4.0, float("nan"))),
                    dict(snr_list_db=(-np.inf,))):
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
    per frame."""

    CODEC = {"bch": ("bch_encode", "bch_decode", 85),
             "rs2516": ("rs2516_frame", "rs2516_decode", 80),
             "crs31_19": ("crs_encode", "crs_decode", 64)}

    @pytest.mark.parametrize("scheme", sorted(CODEC))
    def test_codec_called_once_per_frame(self, monkeypatch, scheme):
        frames = Counter()
        for mod, name in ((bch, "bch_encode"), (rs, "rs2516_frame"),
                          (crs, "crs_encode"), (bch, "bch_decode"),
                          (rs, "rs2516_decode"), (crs, "crs_decode")):
            def counted(*args, _fn=getattr(mod, name), _name=name):
                # an encoder's messages are its last argument, one per row;
                # a decoder call is one frame
                frames[_name] += (1 if _name.endswith("_decode")
                                  else np.asarray(args[-1])[..., 0].size)
                return _fn(*args)
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
    """Bursts run stacked, in chunks of consecutive bursts; neither the chunk
    size nor the worker count may change an output."""

    BURSTS = 5

    def _all_layouts(self, monkeypatch, run, cfg):
        outs = []
        for per_chunk in range(1, self.BURSTS + 1):
            monkeypatch.setattr(harness, "CHUNK_FRAMES",
                                per_chunk * cfg.frames_per_burst)
            for workers in (1, 3):
                outs.append(run(replace(cfg, workers=workers)))
        return outs

    def test_ber_sweep(self, monkeypatch):
        cfg = SimConfig(scheme="rs2516", companding=True,
                        channel="pedestrian_b", snr_list_db=(16.0, np.inf),
                        bits=self.BURSTS * 8 * 80, master_seed=2)
        first, *rest = self._all_layouts(monkeypatch, harness.run_ber_sweep,
                                         cfg)
        assert first[0].bits_total == self.BURSTS * 8 * 80
        assert all(out == first for out in rest)

    def test_papr_experiment(self, monkeypatch):
        cfg = SimConfig(scheme="crs31_19", companding=True, frames_per_burst=7,
                        frames=self.BURSTS * 5, master_seed=2)
        first, *rest = self._all_layouts(
            monkeypatch, lambda c: harness.run_papr_experiment(c).samples_db,
            cfg)
        assert first.size == self.BURSTS * 5
        assert all(np.array_equal(out, first) for out in rest)

    def test_layout_ignores_workers(self):
        size = harness.CHUNK_FRAMES // 10
        for workers in (1, 3):
            seen = harness._run_bursts(2 * size + 3, SimConfig(workers=workers),
                                       lambda c: (c.start, c.stop))
            assert seen == [(0, size), (size, 2 * size),
                            (2 * size, 2 * size + 3)]

    def test_chunks_run_on_calling_thread(self, monkeypatch):
        """Any worker count runs every chunk on the calling thread."""
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(harness, "CHUNK_FRAMES", 20)  # 2 bursts a chunk
        ber = SimConfig(scheme="bch", channel="awgn", snr_list_db=(4.0,),
                        bits=self.BURSTS * 8 * 85, master_seed=3, workers=4)
        assert harness.run_ber_sweep(ber)[0].bits_total == self.BURSTS * 8 * 85
        papr = SimConfig(scheme="none", frames=self.BURSTS * 8, master_seed=3,
                         workers=4)
        samples = harness.run_papr_experiment(papr).samples_db
        assert samples.size == self.BURSTS * 8

    def test_memory_flat_in_bits(self):
        """A chunk's arrays are freed before the next chunk runs, so peak
        memory does not grow with the number of chunks."""
        def peak(chunks):
            cfg = SimConfig(scheme="rs2516", companding=True,
                            channel="pedestrian_b", snr_list_db=(16.0,),
                            bits=chunks * harness.CHUNK_FRAMES // 10 * 8 * 80)
            harness.run_ber_sweep(cfg)  # builds the codec matrices
            tracemalloc.start()
            try:
                harness.run_ber_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one, eight = peak(1), peak(8)
        assert eight < 1.1 * one + 64 * 2**10


class TestBlocks:
    """A PAPR burst longer than CHUNK_FRAMES goes in blocks; the payloads
    of a long burst are drawn in pieces.  Neither may change an output."""

    LENGTHS = (3, 99, 100, 101, 103, 199, 201, 1000)
    SCHEMES = ("none", "bch", "rs2516", "crs31_19", "crs31_25")

    @staticmethod
    def one_block(cfg, payloads, encode):
        """The whole burst modulated as one stack, every frame measured."""
        mcfg = cfg.modem_config()
        sig, _ = harness._tx_burst(cfg, mcfg, encode(payloads))
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
        got = harness._measured_paprs(cfg, cfg.modem_config(), payloads,
                                      scheme.encode)
        want = self.one_block(cfg, payloads, scheme.encode)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

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
