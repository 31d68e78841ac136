"""One exception class per error kind: the package defines five, and a new
per-module class fails here."""
import importlib
import inspect
import pkgutil

import papr_lab
from papr_lab import metrics
from papr_lab.fec import rs

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
