"""Unit tests for the AES S-box construction."""

import pytest
from hypothesis import given, strategies as st
from oracles import affine_transform, reference_inv_sbox, reference_sbox

from repro.crypto.gf import gf_inv
from repro.crypto.sbox import (
    INV_SBOX,
    SBOX,
    inv_sub_byte,
    sbox_output_bit,
    sub_byte,
    sub_bytes,
)

# FIPS-197 reference values.
KNOWN_SBOX = {
    0x00: 0x63,
    0x01: 0x7C,
    0x10: 0xCA,
    0x53: 0xED,
    0xAA: 0xAC,
    0xFF: 0x16,
    0x9A: 0xB8,
}


def test_sbox_known_answer_values():
    for value, expected in KNOWN_SBOX.items():
        assert SBOX[value] == expected


def test_sbox_tables_match_the_field_inverse_and_affine_map():
    """All 256 entries of both tables equal the element-wise FIPS-197
    construction (``gf_inv`` then the bit-serial affine map)."""
    assert SBOX == reference_sbox()
    assert INV_SBOX == reference_inv_sbox()


def test_sbox_is_a_permutation():
    assert sorted(SBOX) == list(range(256))


def test_inverse_sbox_inverts_forward_sbox():
    for value in range(256):
        assert INV_SBOX[SBOX[value]] == value
        assert SBOX[INV_SBOX[value]] == value


def test_sbox_has_no_fixed_points():
    assert all(SBOX[value] != value for value in range(256))


def test_sbox_affine_of_inverse():
    # The defining relation on a few points: the affine map of the
    # field inverse.
    for value in (1, 2, 0x53, 0xCA):
        inverse = gf_inv(value)
        assert SBOX[value] == affine_transform(inverse)
        assert INV_SBOX[SBOX[inverse]] == inverse


def test_sub_byte_rejects_out_of_range():
    with pytest.raises(ValueError):
        sub_byte(256)
    with pytest.raises(ValueError):
        inv_sub_byte(-1)


def test_sub_bytes_applies_elementwise():
    data = bytes([0x00, 0x01, 0x53])
    assert sub_bytes(data) == [0x63, 0x7C, 0xED]


def test_sbox_output_bit_matches_table():
    for value in (0, 1, 0x53, 0xFF):
        for bit in range(8):
            assert sbox_output_bit(value, bit) == (SBOX[value] >> bit) & 1


def test_sbox_output_bit_rejects_bad_bit_index():
    with pytest.raises(ValueError):
        sbox_output_bit(0, 8)


@given(st.integers(min_value=0, max_value=255))
def test_sbox_round_trip_property(value):
    assert inv_sub_byte(sub_byte(value)) == value
