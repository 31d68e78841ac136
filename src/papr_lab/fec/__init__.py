"""Block codecs: Reed-Solomon over GF(2^m), binary BCH, constrained RS framing."""

from .rs import (RsCodeSpec, DecodeFailure, LengthMismatch,
                 ConstraintViolation, rs_spec, rs_encode, rs_decode,
                 rs2516_encode, rs2516_frame, rs2516_decode)
from .bch import BchCodeSpec, bch_spec, bch_encode, bch_decode
from .crs import (CrsFrameLayout, LayoutInfeasible, UnknownScheme,
                  crs_layout, crs_encode, crs_decode, codeword_density)

__all__ = [
    "RsCodeSpec", "DecodeFailure", "LengthMismatch", "rs_spec", "rs_encode",
    "rs_decode", "rs2516_encode", "rs2516_frame", "rs2516_decode",
    "BchCodeSpec", "bch_spec", "bch_encode", "bch_decode",
    "CrsFrameLayout", "LayoutInfeasible", "ConstraintViolation",
    "UnknownScheme", "crs_layout", "crs_encode", "crs_decode",
    "codeword_density",
]
