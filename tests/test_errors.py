"""One exception class per error kind: the package defines five, and a new
per-module class fails here.  Every codec entry point refuses an entry that
is not an integer of its alphabet with a ConstraintViolation, whatever the
entry's type."""
import importlib
import inspect
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import papr_lab
from papr_lab import metrics
from papr_lab.fec import bch, rs

KINDS = {metrics.ConfigError, metrics.DegenerateSignal,
         metrics.LengthMismatch, rs.ConstraintViolation, rs.DecodeFailure}


def test_five_exception_classes():
    defined = set()
    for info in pkgutil.walk_packages(papr_lab.__path__, "papr_lab."):
        mod = importlib.import_module(info.name)
        defined |= {cls for _, cls in inspect.getmembers(mod, inspect.isclass)
                    if issubclass(cls, BaseException)
                    and cls.__module__ == mod.__name__}
    assert defined == KINDS


def test_refusals_are_value_errors_but_decode_failure():
    """A caller catching ValueError sees every refusal of input; a failed
    decode is an outcome, not bad input."""
    assert all(issubclass(kind, ValueError) for kind in KINDS
               if kind is not rs.DecodeFailure)
    assert not issubclass(rs.DecodeFailure, ValueError)


SPEC = rs.rs_spec(5, 19)
# entry point -> (entries, call on a list of them); 1 is a valid entry
CODEC_INPUTS = {
    "rs_encode": (19, lambda v: rs.rs_encode(SPEC, v)),
    "rs_decode received": (31, lambda v: rs.rs_decode(SPEC, v)),
    "rs_decode erasures": (3, lambda v: rs.rs_decode(SPEC, [0] * 31, v)),
    "frame_encode": (80, lambda v: rs.frame_encode(rs.RS2516, v)),
    "rs2516_frame": (16, rs.rs2516_frame),
    "bch_encode": (85, bch.bch_encode),
    "frame_decode": (128, lambda v: rs.frame_decode(rs.RS2516, v)),
    "bch_decode": (128, bch.bch_decode),
}
# entries no alphabet holds, which make numpy's input float, complex,
# object or str: a cast to uint8 would warn, overflow or fail to parse them
NOT_INTEGERS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300, 2 ** 70, -2 ** 70,
                     "a", "1", None, 1 + 1j]),
    st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    st.floats(min_value=2 ** 63), st.integers(min_value=2 ** 64))


@pytest.mark.parametrize("entry_point", CODEC_INPUTS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_codecs_name_an_entry_that_is_not_an_integer(entry_point, data):
    count, call = CODEC_INPUTS[entry_point]
    at = data.draw(st.integers(0, count - 1))
    values = [1] * count
    values[at] = data.draw(NOT_INTEGERS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rs.ConstraintViolation,
                           match=f" at index {at} outside 0.."):
            call(values)
