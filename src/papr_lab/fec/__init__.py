"""Block codecs: Reed-Solomon over GF(2^m) and its bit-frame layouts
(RS(25,16), constrained RS), binary BCH."""
