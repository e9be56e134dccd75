"""Unit tests for the scalar AES reference cipher (``tests/oracles/aes.py``)."""

import pytest
from oracles import AES, encrypt_block, mix_columns_block, shift_rows_block

# FIPS-197 Appendix C known-answer vectors.
FIPS_KEY_128 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT_128 = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
FIPS_KEY_192 = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
FIPS_CT_192 = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
FIPS_KEY_256 = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
)
FIPS_CT_256 = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")


def test_fips197_aes128_known_answer():
    assert encrypt_block(FIPS_KEY_128, FIPS_PT) == FIPS_CT_128


def test_fips197_aes192_known_answer():
    assert encrypt_block(FIPS_KEY_192, FIPS_PT) == FIPS_CT_192


def test_fips197_aes256_known_answer():
    assert encrypt_block(FIPS_KEY_256, FIPS_PT) == FIPS_CT_256


def test_encrypt_rejects_bad_block_size():
    aes = AES(FIPS_KEY_128)
    with pytest.raises(ValueError):
        aes.encrypt(bytes(15))
    with pytest.raises(ValueError):
        aes.encrypt(bytes(17))


def test_shift_rows_moves_expected_bytes():
    block = bytes(range(16))
    shifted = shift_rows_block(block)
    # Row 0 untouched, row 1 rotated by one column.
    assert shifted[0] == 0
    assert shifted[1] == 5
    assert shifted[2] == 10
    assert shifted[3] == 15


def test_mix_columns_fips_example():
    # FIPS-197 Sec. 5.1.3 example column: d4 bf 5d 30 -> 04 66 81 e5.
    column = bytes.fromhex("d4bf5d30") + bytes(12)
    mixed = mix_columns_block(column)
    assert mixed[:4] == bytes.fromhex("046681e5")


def test_encrypt_trace_structure():
    aes = AES(FIPS_KEY_128)
    trace = aes.encrypt_trace(FIPS_PT)
    assert trace.num_rounds == 10
    assert trace.ciphertext == FIPS_CT_128
    assert trace.rounds[-1].state_out == FIPS_CT_128
    assert trace.round(1).round_index == 1
    with pytest.raises(ValueError):
        trace.round(11)
    with pytest.raises(ValueError):
        trace.round(0)


def test_encrypt_trace_round_chaining():
    aes = AES(FIPS_KEY_128)
    trace = aes.encrypt_trace(FIPS_PT)
    previous = trace.initial_state
    for record in trace.rounds:
        assert record.state_in == previous
        previous = record.state_out


def test_last_round_has_no_mix_columns():
    aes = AES(FIPS_KEY_128)
    trace = aes.encrypt_trace(FIPS_PT)
    last = trace.last_round
    assert last.after_mix_columns == last.after_shift_rows


def test_switching_activities_length_and_range():
    aes = AES(FIPS_KEY_128)
    trace = aes.encrypt_trace(FIPS_PT)
    activities = trace.switching_activities()
    assert len(activities) == 11
    assert all(0 <= a <= 128 for a in activities)


def test_last_round_key_helper_matches_trace():
    aes = AES(FIPS_KEY_128)
    trace = aes.encrypt_trace(FIPS_PT)
    assert aes.last_round_key() == trace.last_round.round_key


def test_trace_records_round_keys():
    aes = AES(FIPS_KEY_128)
    trace = aes.encrypt_trace(FIPS_PT)
    for index, record in enumerate(trace.rounds, start=1):
        assert record.round_key == aes.round_keys[index]
