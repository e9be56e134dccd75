"""Unit tests for GF(2^8) arithmetic."""

import pytest
from hypothesis import given, strategies as st

from oracles import gf_inv, gf_mul, gf_pow

from repro.crypto.gf import xtime

BYTES = st.integers(min_value=0, max_value=255)


def test_xtime_known_values():
    assert xtime(0x57) == 0xAE
    assert xtime(0xAE) == 0x47
    assert xtime(0x47) == 0x8E
    assert xtime(0x8E) == 0x07


def test_gf_mul_known_value_fips():
    # FIPS-197 example: 0x57 * 0x83 = 0xC1.
    assert gf_mul(0x57, 0x83) == 0xC1


def test_gf_mul_identity_and_zero():
    for value in range(256):
        assert gf_mul(value, 1) == value
        assert gf_mul(value, 0) == 0


def test_gf_mul_rejects_out_of_range():
    with pytest.raises(ValueError):
        gf_mul(256, 1)
    with pytest.raises(ValueError):
        gf_mul(1, -1)
    with pytest.raises(TypeError):
        gf_mul(1.5, 1)


def test_gf_pow_matches_repeated_multiplication():
    value = 0x53
    acc = 1
    for exponent in range(8):
        assert gf_pow(value, exponent) == acc
        acc = gf_mul(acc, value)


def test_gf_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        gf_pow(2, -1)


def test_gf_inv_zero_maps_to_zero():
    assert gf_inv(0) == 0


def test_gf_inv_of_one_is_one():
    assert gf_inv(1) == 1


def test_gf_inv_all_nonzero_elements():
    for value in range(1, 256):
        assert gf_mul(value, gf_inv(value)) == 1


@given(BYTES, BYTES)
def test_gf_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(BYTES, BYTES, BYTES)
def test_gf_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(BYTES, BYTES, BYTES)
def test_gf_mul_distributes_over_xor(a, b, c):
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


@given(BYTES)
def test_xtime_equals_mul_by_two(a):
    assert xtime(a) == gf_mul(a, 2)
