"""Unit tests for block/bit/state helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.state import (
    BLOCK_BYTES,
    INV_SHIFT_ROWS_PERM,
    SHIFT_ROWS_PERM,
    bits_to_bytes,
    bytes_to_bits,
    validate_block,
    validate_key,
)

BLOCKS = st.binary(min_size=16, max_size=16)


def test_validate_block_accepts_16_bytes():
    assert validate_block(bytes(16)) == bytes(16)


def test_validate_block_rejects_other_lengths():
    with pytest.raises(ValueError):
        validate_block(bytes(15))
    with pytest.raises(ValueError):
        validate_block(bytes(17))


def test_validate_key_accepts_all_aes_lengths():
    for length in (16, 24, 32):
        assert validate_key(bytes(length)) == bytes(length)
    with pytest.raises(ValueError):
        validate_key(bytes(20))


def test_bytes_to_bits_msb_first():
    assert bytes_to_bits(b"\x80") == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bytes_to_bits(b"\x01") == [0, 0, 0, 0, 0, 0, 0, 1]


def test_bits_to_bytes_rejects_partial_bytes():
    with pytest.raises(ValueError):
        bits_to_bytes([1, 0, 1])


def test_bits_to_bytes_rejects_non_binary_values():
    with pytest.raises(ValueError):
        bits_to_bytes([0, 1, 2, 0, 0, 0, 0, 0])


@given(BLOCKS)
def test_bits_bytes_round_trip(block):
    assert bits_to_bytes(bytes_to_bits(block)) == block



def test_shift_rows_perm_rotates_row_r_left_by_r():
    # Byte i of the column-major state sits in row i % 4, column i // 4.
    for row in range(4):
        for column in range(4):
            source = 4 * ((column + row) % 4) + row
            assert SHIFT_ROWS_PERM[4 * column + row] == source


def test_inv_shift_rows_perm_undoes_shift_rows():
    identity = tuple(range(BLOCK_BYTES))
    assert tuple(SHIFT_ROWS_PERM[i] for i in INV_SHIFT_ROWS_PERM) == identity
    assert tuple(INV_SHIFT_ROWS_PERM[i] for i in SHIFT_ROWS_PERM) == identity
