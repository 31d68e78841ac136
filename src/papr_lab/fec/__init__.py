"""Block codecs: Reed-Solomon over GF(2^m) and its bit-frame layouts
(RS(25,16), constrained RS), binary BCH."""

from .rs import (RsCodeSpec, RsFrameLayout, RS2516, DecodeFailure,
                 LengthMismatch, ConstraintViolation, rs_spec, rs_encode,
                 rs_decode, frame_encode, frame_decode, rs2516_frame,
                 rs2516_decode)
from .bch import BchCodeSpec, bch_spec, bch_encode, bch_decode
from .crs import (LayoutInfeasible, UnknownScheme, crs_layout, crs_encode,
                  crs_decode, codeword_density)

__all__ = [
    "RsCodeSpec", "RsFrameLayout", "RS2516", "DecodeFailure",
    "LengthMismatch", "rs_spec", "rs_encode", "rs_decode", "frame_encode",
    "frame_decode", "rs2516_frame", "rs2516_decode",
    "BchCodeSpec", "bch_spec", "bch_encode", "bch_decode",
    "LayoutInfeasible", "ConstraintViolation", "UnknownScheme",
    "crs_layout", "crs_encode", "crs_decode", "codeword_density",
]
