"""Equivalence of the vectorised AES kernel with the scalar cipher.

``repro.crypto.batch`` is a pure performance refactor: for every key
length, every plaintext and every intermediate quantity (round-state
tensor, switching activities, ciphertexts) it must reproduce the scalar
cipher of ``tests/oracles/aes.py`` bit for bit — the serial reference,
exactly as the interpreted netlist is for the compiled kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import AES

from repro.crypto.batch import (
    BatchedAES,
    as_block_matrix,
    expand_keys,
    round_states_with_keys,
    switching_activity_counts,
)
from repro.crypto.keyschedule import expand_key
from repro.crypto.state import INV_SHIFT_ROWS_PERM, SHIFT_ROWS_PERM

#: FIPS-197 appendix C known-answer vectors (one per key length).
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]

KEY_LENGTHS = (16, 24, 32)


def _random_blocks(rng, count, size=16):
    return [bytes(int(x) for x in rng.integers(0, 256, size=size))
            for _ in range(count)]


@pytest.mark.parametrize("key_hex,ciphertext_hex", FIPS_VECTORS)
def test_fips_known_answer_batched_and_scalar(key_hex, ciphertext_hex):
    key = bytes.fromhex(key_hex)
    expected = bytes.fromhex(ciphertext_hex)
    assert AES(key).encrypt(FIPS_PLAINTEXT) == expected
    batched = BatchedAES(key).round_states([FIPS_PLAINTEXT])[:, -1]
    assert bytes(batched[0]) == expected


@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_round_state_tensor_matches_scalar_trace(key_length, rng):
    key = bytes(int(x) for x in rng.integers(0, 256, size=key_length))
    plaintexts = _random_blocks(rng, 8)
    batched = BatchedAES(key)
    states = batched.round_states(plaintexts)
    assert states.shape == (8, batched.num_rounds + 2, 16)
    for row, plaintext in enumerate(plaintexts):
        trace = AES(key).encrypt_trace(plaintext)
        assert bytes(states[row, 0]) == plaintext
        assert bytes(states[row, 1]) == trace.initial_state
        for round_index, record in enumerate(trace.rounds, start=1):
            assert bytes(states[row, round_index + 1]) == record.state_out
        assert bytes(states[row, -1]) == trace.ciphertext


@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_switching_activity_matrix_matches_scalar_trace(key_length, rng):
    key = bytes(int(x) for x in rng.integers(0, 256, size=key_length))
    plaintexts = _random_blocks(rng, 6)
    batched = BatchedAES(key)
    activities = switching_activity_counts(batched.round_states(plaintexts))
    assert activities.shape == (6, batched.num_rounds + 1)
    for row, plaintext in enumerate(plaintexts):
        scalar = AES(key).encrypt_trace(plaintext).switching_activities()
        assert list(activities[row]) == scalar


@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_per_row_keys_match_scalar(key_length, rng):
    keys = _random_blocks(rng, 5, size=key_length)
    plaintexts = _random_blocks(rng, 5)
    states = round_states_with_keys(as_block_matrix(plaintexts),
                                    expand_keys(keys))
    for row, (plaintext, key) in enumerate(zip(plaintexts, keys)):
        assert bytes(states[row, -1]) == AES(key).encrypt(plaintext)


def test_expand_keys_matches_scalar_key_schedule(rng):
    for key_length in KEY_LENGTHS:
        key = bytes(int(x) for x in rng.integers(0, 256, size=key_length))
        tensor = expand_keys(key)
        scalar = expand_key(key)
        assert tensor.shape == (1, len(scalar), 16)
        for round_index, round_key in enumerate(scalar):
            assert bytes(tensor[0, round_index]) == round_key


def test_expand_keys_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        expand_keys([bytes(16), bytes(24)])


def test_round_states_reject_key_count_mismatch():
    with pytest.raises(ValueError):
        round_states_with_keys(as_block_matrix([bytes(16)] * 3),
                               expand_keys([bytes(16)] * 2))


def test_as_block_matrix_validates_shape():
    with pytest.raises(ValueError):
        as_block_matrix([b"short"])
    matrix = as_block_matrix([bytes(range(16))])
    assert matrix.shape == (1, 16) and matrix.dtype == np.uint8


def test_switching_activity_counts_rejects_bad_shape():
    with pytest.raises(ValueError):
        switching_activity_counts(np.zeros((3, 4), dtype=np.uint8))


def test_scalar_encrypt_fast_path_matches_trace(rng):
    """``AES.encrypt`` no longer builds a trace but must equal it."""
    for key_length in KEY_LENGTHS:
        key = bytes(int(x) for x in rng.integers(0, 256, size=key_length))
        for plaintext in _random_blocks(rng, 4):
            aes = AES(key)
            assert aes.encrypt(plaintext) == \
                aes.encrypt_trace(plaintext).ciphertext


def test_inv_shift_rows_perm_is_the_inverse_permutation():
    assert sorted(INV_SHIFT_ROWS_PERM) == list(range(16))
    for position in range(16):
        assert SHIFT_ROWS_PERM[INV_SHIFT_ROWS_PERM[position]] == position
        assert INV_SHIFT_ROWS_PERM[SHIFT_ROWS_PERM[position]] == position
