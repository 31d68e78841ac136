"""Every cached result of the package is immutable all the way down.

A functools.cache result is shared by every later caller in the process,
so one write to it (say gf2m.mul_table(fs)[3, 5] = 0) would corrupt every
later decode.  CALLS reaches every cache in src/papr_lab with the
arguments the four schemes (none, bch, rs2516, crs31_19) build, UNBUILT
every cache no scheme builds, and each result must be a read-only
ndarray, a tuple, an int, bytes, a frozen dataclass of such values, or a
class that carries no data.
"""
import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import papr_lab
from papr_lab import channel, gf2m, harness, modem
from papr_lab.fec import bch, crs, rs


def _caches():
    """Every functools.cache of the package, once each, by the name it
    is defined under, however many modules import it."""
    found = {}
    for info in pkgutil.walk_packages(papr_lab.__path__, "papr_lab."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                found.setdefault(value,
                                 f"{value.__module__}.{value.__name__}")
    return found


GF32, GF128 = gf2m.cached_field(5), gf2m.cached_field(7)
RS_SPEC = rs.rs_spec(5, 19)  # the code of rs2516 and crs31_19
LAYOUTS = (rs.RS2516, crs.crs_layout(6, 31, 19))
BCH_GENERATOR = tuple((bch.bch_spec().generator >> d) & 1 for d in range(43))

# cache -> the argument tuples the four schemes build it with
CALLS = {
    gf2m.cached_field: [(5,), (7,)],
    gf2m.mul_table: [(GF32,), (GF128,)],
    gf2m.inverses: [(GF32,), (GF128,)],
    rs._generator_poly: [(5, 19)],
    rs._parity_table: [(GF32, RS_SPEC.generator, 31),
                       (GF128, BCH_GENERATOR, 127)],
    # the Chien search reads degree r, BCH's degree t = r / 2
    rs._power_table: [(GF32, 31, 12), (GF128, 127, 6)],
    rs._syndrome_rows: [(GF32, 31, 12), (GF128, 127, 12)],
    rs._encoder_tables: [(layout,) for layout in LAYOUTS],
    rs._symbol_bits: [(5,)],
    rs._decoder: [(layout,) for layout in LAYOUTS],
    bch.bch_spec: [()],
    bch._encoder_tables: [()],
    bch._decoder: [()],
    harness._modem_config: [(64, 4)],
    harness._seeded: [()],
    modem._stagger_signs: [(64,)],
    channel._tap_powers: [(channel.make_profile(name),) for name in
                          ("awgn", "pedestrian_b", "vehicular_a")],
}
# caches no scheme builds -> the argument tuples their other callers use:
# criterion 1, the k-sweep's conventional column and codeword_density
UNBUILT = {rs.rs_spec: [(5, 19)]}
CACHES = CALLS | UNBUILT


def _immutable(value) -> bool:
    if isinstance(value, np.ndarray):
        return (not value.flags.writeable and value.dtype != object
                and (value.base is None or _immutable(value.base)))
    if isinstance(value, (int, bytes)):
        return True
    if isinstance(value, tuple):  # namedtuples too
        return all(map(_immutable, value))
    if isinstance(value, type):
        # a class carries behaviour: every attribute it defines, other than
        # the ones Python and abc set, is a function
        return all(callable(v) and not isinstance(v, type)
                   for k, v in vars(value).items()
                   if not k.startswith("__") and k != "_abc_impl")
    if dataclasses.is_dataclass(value):
        return (value.__dataclass_params__.frozen
                and all(_immutable(getattr(value, f.name))
                        for f in dataclasses.fields(value)))
    return False


def test_calls_reach_every_cache():
    found = _caches()
    assert [name for cached, name in found.items()
            if cached not in CACHES] == []
    assert set(CACHES) <= set(found)


@pytest.mark.parametrize("cached", list(CACHES), ids=lambda c: c.__name__)
def test_cached_results_are_immutable(cached):
    for args in CACHES[cached]:
        result = cached(*args)
        assert _immutable(result), (cached.__name__, args)


def test_shared_product_rows_refuse_writes():
    """The example a mutable table would allow: one product or inverse
    rewritten for every later decode."""
    with pytest.raises(ValueError):
        gf2m.mul_table(GF32)[3, 5] = 0
    with pytest.raises(ValueError):
        gf2m.inverses(GF32)[3] = 0


def test_calls_are_the_calls_the_schemes_build():
    """From cleared caches, a PAPR run and an errored BER run of each
    scheme on each channel leave every cache holding exactly its CALLS:
    each listed call is a hit, and no other call was cached.  The field
    instances stay, since callers share them by identity (GF32 is
    cached_field(5)), and cached_field caches no other m.  No UNBUILT
    cache holds anything."""
    for cached in CACHES:
        if cached is not gf2m.cached_field:
            cached.cache_clear()
    for scheme in ("none", "bch", "rs2516", "crs31_19"):
        harness.run_papr_experiment(
            harness.SimConfig(scheme=scheme, frames=16, master_seed=1))
        for name in ("awgn", "pedestrian_b", "vehicular_a"):
            harness.run_ber_sweep(harness.SimConfig(
                scheme=scheme, channel=name, snr_list_db=(4.0,), bits=2000,
                master_seed=1))
    for cached, calls in CALLS.items():
        before = cached.cache_info()
        for args in calls:
            cached(*args)
        after = cached.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses,
                after.currsize) == (len(calls), 0, len(calls)), \
            cached.__name__
    assert [cached.cache_info().currsize for cached in UNBUILT] \
        == [0] * len(UNBUILT)
