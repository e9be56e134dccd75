"""Tests for the differential fault analysis (DFA) key-recovery analyzer."""

import numpy as np
import pytest

from repro.analysis.dfa import (
    PHANTOM_TOGGLE_WEIGHT,
    dfa_key_scores,
    localise_faults,
    recover_last_round_key,
)
from repro.crypto.aes import INV_SHIFT_ROWS_PERM, SHIFT_ROWS_PERM
from repro.crypto.batch import BatchedAES
from repro.crypto.keyschedule import last_round_key

from oracles import dfa_key_scores_serial

KEY = bytes(range(16))


def _stale_fault_population(num_stimuli, register_bytes, seed=3,
                            repeats=3):
    """Synthesise full-byte stale captures at the given register bytes.

    Returns ``(correct, faulted, expected_key)``: each stimulus's
    faulted rows replace the chosen ciphertext-register bytes with the
    stale (last-round input) value — exactly what a deep clock glitch
    with stale-only resolution captures.
    """
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=(num_stimuli, 16), dtype=np.uint8)
    states = BatchedAES(KEY).round_states(plaintexts)
    correct = states[:, -1]
    stale = states[:, -2]
    correct_rows = []
    faulted_rows = []
    for _ in range(repeats):
        for byte in register_bytes:
            faulted = correct.copy()
            faulted[:, byte] = stale[:, byte]
            correct_rows.append(correct)
            faulted_rows.append(faulted)
    return (np.concatenate(correct_rows), np.concatenate(faulted_rows),
            last_round_key(KEY))


# -- scoring kernel -----------------------------------------------------------


def test_dfa_key_scores_matches_serial_reference():
    rng = np.random.default_rng(11)
    correct = rng.integers(0, 256, size=(40, 16), dtype=np.uint8)
    flips = rng.integers(0, 256, size=(40, 16), dtype=np.uint8)
    flips[rng.random((40, 16)) < 0.7] = 0
    faulted = correct ^ flips
    assert np.array_equal(dfa_key_scores(correct, faulted),
                          dfa_key_scores_serial(correct, faulted))


def test_dfa_key_scores_matches_serial_with_observable_bits():
    rng = np.random.default_rng(12)
    correct = rng.integers(0, 256, size=(24, 16), dtype=np.uint8)
    faulted = correct ^ rng.integers(0, 256, size=(24, 16), dtype=np.uint8)
    observable = rng.integers(0, 256, size=16, dtype=np.uint8)
    assert np.array_equal(
        dfa_key_scores(correct, faulted, observable_bits=observable),
        dfa_key_scores_serial(correct, faulted, observable_bits=observable),
    )


def test_dfa_key_scores_shape_and_fault_free_is_flat():
    correct = np.zeros((4, 16), dtype=np.uint8)
    scores = dfa_key_scores(correct, correct)
    assert scores.shape == (16, 256)
    # No faults: every guess is equally (un)supported.
    assert np.all(scores == 0)


def test_true_key_minimises_score_on_stale_faults():
    correct, faulted, expected = _stale_fault_population(
        num_stimuli=8, register_bytes=(0, 5))
    scores = dfa_key_scores(correct, faulted)
    for register_byte in (0, 5):
        position = INV_SHIFT_ROWS_PERM[register_byte]
        assert int(np.argmin(scores[position])) == expected[position]


# -- key recovery -------------------------------------------------------------


def test_recover_known_key_bytes_end_to_end():
    register_bytes = (2, 7, 13)
    correct, faulted, expected = _stale_fault_population(
        num_stimuli=8, register_bytes=register_bytes)
    result = recover_last_round_key(correct, faulted)
    recovered = result.recovered_bytes()
    assert result.num_recovered >= 1
    assert result.matches(expected)
    for register_byte in register_bytes:
        position = INV_SHIFT_ROWS_PERM[register_byte]
        assert recovered.get(position) == expected[position]


def test_unfaulted_positions_abstain():
    correct, faulted, _ = _stale_fault_population(
        num_stimuli=6, register_bytes=(4,))
    result = recover_last_round_key(correct, faulted)
    faulted_position = INV_SHIFT_ROWS_PERM[4]
    for entry in result.bytes:
        if entry.position != faulted_position:
            assert entry.value is None
            assert entry.num_faults == 0


def test_recover_gates_block_thin_evidence():
    # A single stimulus can never clear the min_stimuli gate, however
    # deep its faults.
    correct, faulted, _ = _stale_fault_population(
        num_stimuli=1, register_bytes=(0,))
    result = recover_last_round_key(correct, faulted)
    assert result.num_recovered == 0


def test_recover_dedups_repeated_captures():
    correct, faulted, expected = _stale_fault_population(
        num_stimuli=6, register_bytes=(9,), repeats=1)
    once = recover_last_round_key(correct, faulted)
    thrice = recover_last_round_key(np.tile(correct, (3, 1)),
                                    np.tile(faulted, (3, 1)))
    assert once.recovered_bytes() == thrice.recovered_bytes()
    position = INV_SHIFT_ROWS_PERM[9]
    assert once.recovered_bytes().get(position) == expected[position]


def test_recover_validation():
    correct = np.zeros((4, 16), dtype=np.uint8)
    with pytest.raises(ValueError):
        recover_last_round_key(correct, np.zeros((4, 15), dtype=np.uint8))
    with pytest.raises(ValueError):
        recover_last_round_key(correct, correct, min_evidence_bits=0)
    with pytest.raises(ValueError):
        recover_last_round_key(correct, correct, min_stimuli=0)


def test_margin_gate_reflects_score_gap():
    correct, faulted, _ = _stale_fault_population(
        num_stimuli=8, register_bytes=(3,))
    result = recover_last_round_key(correct, faulted)
    for entry in result.bytes:
        if entry.value is not None:
            assert entry.margin >= PHANTOM_TOGGLE_WEIGHT
            assert entry.evidence_bits >= 8
            assert entry.num_stimuli >= 2


# -- localisation -------------------------------------------------------------


def test_localise_faults_covers_faulted_bytes():
    correct, faulted, _ = _stale_fault_population(
        num_stimuli=6, register_bytes=(1, 10))
    localisation = localise_faults(correct, faulted)
    assert localisation.covered_bytes() == [1, 10]
    assert localisation.faulted_fraction > 0.9
    assert localisation.last_round_consistent


def test_localise_faults_rejects_non_last_round_pattern():
    # Random dense garbage at one byte is not explainable by any
    # last-round key guess: the consistency check must fail.
    rng = np.random.default_rng(5)
    correct = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
    faulted = correct.copy()
    faulted[:, 6] = rng.integers(0, 256, size=64, dtype=np.uint8)
    localisation = localise_faults(correct, faulted)
    assert not localisation.last_round_consistent


def test_localise_faults_empty_population_is_trivially_inconsistent():
    correct = np.zeros((4, 16), dtype=np.uint8)
    localisation = localise_faults(correct, correct)
    assert localisation.covered_bytes() == []
    assert localisation.faulted_fraction == 0.0
    assert not localisation.last_round_consistent


def test_shift_rows_position_mapping_roundtrip():
    for position in range(16):
        assert INV_SHIFT_ROWS_PERM[SHIFT_ROWS_PERM[position]] == position
