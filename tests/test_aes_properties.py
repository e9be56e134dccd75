"""Property-based tests for the AES implementation."""

from hypothesis import given, settings, strategies as st

from oracles import AES, hamming_distance

BLOCKS = st.binary(min_size=16, max_size=16)
KEYS_128 = st.binary(min_size=16, max_size=16)


@given(KEYS_128, BLOCKS)
@settings(max_examples=25, deadline=None)
def test_encryption_is_deterministic(key, plaintext):
    assert AES(key).encrypt(plaintext) == AES(key).encrypt(plaintext)


@given(KEYS_128, BLOCKS, st.integers(min_value=0, max_value=127))
@settings(max_examples=25, deadline=None)
def test_plaintext_avalanche(key, plaintext, bit):
    """Flipping one plaintext bit changes roughly half the ciphertext bits."""
    aes = AES(key)
    flipped = bytearray(plaintext)
    flipped[bit // 8] ^= 1 << (7 - bit % 8)
    distance = hamming_distance(aes.encrypt(plaintext), aes.encrypt(bytes(flipped)))
    assert 20 <= distance <= 108


@given(KEYS_128, BLOCKS)
@settings(max_examples=25, deadline=None)
def test_trace_ciphertext_matches_encrypt(key, plaintext):
    aes = AES(key)
    assert aes.encrypt_trace(plaintext).ciphertext == aes.encrypt(plaintext)


@given(KEYS_128, BLOCKS)
@settings(max_examples=20, deadline=None)
def test_trace_switching_activity_matches_state_transitions(key, plaintext):
    aes = AES(key)
    trace = aes.encrypt_trace(plaintext)
    for record in trace.rounds:
        assert record.switching_activity == hamming_distance(
            record.state_in, record.state_out
        )
