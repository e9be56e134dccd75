"""Unit tests for the AES S-box construction."""

from hypothesis import given, strategies as st
from oracles import affine_transform, gf_inv, reference_inv_sbox, reference_sbox

from repro.crypto.sbox import INV_SBOX, SBOX

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


@given(st.integers(min_value=0, max_value=255))
def test_sbox_round_trip_property(value):
    assert INV_SBOX[SBOX[value]] == value
