import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from papr_lab.fec import crs, rs

LAYOUT = crs.crs_layout(6, 31, 19)


def test_reference_layout():
    assert LAYOUT.q == 5
    assert LAYOUT.k_prime == 16
    assert LAYOUT.p == 4
    assert LAYOUT.p_lower == pytest.approx(3.58, abs=0.005)
    assert LAYOUT.p_upper == pytest.approx(4.25, abs=0.005)
    assert LAYOUT.frame_bits == 128
    assert LAYOUT.message_bits == 64
    assert LAYOUT.pad_bits == 4


@pytest.mark.parametrize("k,pad", [(19, 4), (21, 14), (23, 24), (25, 34),
                                   (27, 44), (29, 54)])
def test_sweep_layouts(k, pad):
    lay = crs.crs_layout(6, 31, k)
    assert lay.p == 4
    assert lay.pad_bits == pad
    assert lay.message_bits + lay.r * lay.q + pad == 128


def test_infeasible_layouts():
    with pytest.raises(crs.LayoutInfeasible):
        crs.crs_layout(2, 31, 19)  # parity alone overflows an 8-bit frame
    with pytest.raises(crs.LayoutInfeasible):
        crs.crs_layout(6, 30, 19)  # n not of the form 2^q - 1
    with pytest.raises(crs.LayoutInfeasible):
        crs.crs_layout(6, 31, 15)  # k' exceeds k


def test_encode_layout_and_systematic():
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 2, 64).astype(np.uint8)
    frame = crs.crs_encode(LAYOUT, msg)
    assert frame.size == 128
    assert np.array_equal(frame[:64], msg)
    assert not frame[124:].any()  # zero pad


@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_roundtrip_with_errors(seed, e):
    """Up to t = (r - shortening erasures... ) symbol errors decode cleanly;
    t = 6 for (31,19)."""
    rng = np.random.default_rng(seed)
    msg = rng.integers(0, 2, 64).astype(np.uint8)
    frame = crs.crs_encode(LAYOUT, msg)
    # corrupt e of the 28 transmitted symbols (16 message + 12 parity)
    pos = rng.choice(28, size=e, replace=False)
    for p in pos:
        if p < 16:
            lo, width = p * 4, 4
        else:
            lo, width = 64 + (p - 16) * 5, 5
        j = int(rng.integers(0, width))
        frame[lo + j] ^= 1
    decoded, corrected, ok = crs.crs_decode(LAYOUT, frame)
    assert np.array_equal(decoded, msg)
    assert corrected <= e


def test_constraint_flag_reports_escape():
    # force a corrected message symbol outside the p-bit alphabet: flip a
    # parity bit pattern that decodes to an error magnitude with bit 4 set
    msg = np.zeros(64, dtype=np.uint8)
    frame = crs.crs_encode(LAYOUT, msg)
    # replace message symbol 0 (bits 0..3) with a 5-bit error by altering the
    # received word at the symbol level via a crafted frame: flip all of its
    # bits plus nothing else -- error magnitude 15, still in alphabet
    frame[0:4] ^= 1
    _, _, ok = crs.crs_decode(LAYOUT, frame)
    assert ok  # magnitude 15 stays inside the 4-bit alphabet
    # now emulate a channel error on a parity symbol only: also fine
    frame2 = crs.crs_encode(LAYOUT, msg)
    frame2[64:69] ^= 1
    _, corrected, ok2 = crs.crs_decode(LAYOUT, frame2)
    assert ok2 and corrected == 1


def test_encode_rejects_non_binary_bits():
    # the 2 sits in the low bits of a 4-bit field, where the old symbol-level
    # check could not see it
    msg = np.zeros(64, dtype=np.uint8)
    msg[3] = 2
    with pytest.raises(crs.ConstraintViolation,
                       match="message bit 2 at index 3"):
        crs.crs_encode(LAYOUT, msg)
    assert crs.ConstraintViolation is rs.ConstraintViolation


def test_encode_rejects_bad_lengths():
    with pytest.raises(rs.LengthMismatch):
        crs.crs_encode(LAYOUT, np.zeros(63, dtype=np.uint8))
    with pytest.raises(rs.LengthMismatch):
        crs.crs_decode(LAYOUT, np.zeros(127, dtype=np.uint8))


# --- codeword density --------------------------------------------------------

def test_density_values():
    assert crs.codeword_density("bch") == -43
    assert crs.codeword_density("rs31_19_raw") == -60
    assert crs.codeword_density("rs2516") == -48
    assert crs.codeword_density("crs31_19") == -64


def test_density_ordering():
    # log2 densities: CRS < RS < BCH (sparser codes are better confined)
    assert (crs.codeword_density("crs31_19")
            < crs.codeword_density("rs31_19_raw")
            < crs.codeword_density("bch"))


def test_density_unknown_scheme():
    with pytest.raises(crs.UnknownScheme):
        crs.codeword_density("hamming")
