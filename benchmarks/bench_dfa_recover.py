"""DFA_RECOVER — vectorised DFA key-guess scoring versus the serial scan.

The DFA analyzer's hot loop scores all 256 last-round key guesses at
all 16 byte positions against every faulted capture.  The serial
reference walks (fault x position x guess) in Python; the vectorised
kernel (:func:`repro.analysis.dfa.dfa_key_scores`) resolves the whole
(F, 16, 256) score tensor in chunked table-lookup passes.  Both must
produce bit-identical score matrices; the kernel must be >= 5x faster
on an attack-campaign-sized fault population.

The timed population is the real thing: stale-capture faults
synthesised from the batched AES round states, exactly what a deep
clock glitch with stale-only resolution leaves in the ciphertext
register — and the recovered bytes are checked against the true
last-round key before anything is timed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.dfa import dfa_key_scores, recover_last_round_key
from repro.crypto.batch import BatchedAES
from repro.crypto.keyschedule import last_round_key

from oracles import dfa_key_scores_serial

KEY = bytes(range(16))
SEED = 2015
NUM_STIMULI = 16
REPEATS = 2
GATE_SPEEDUP = 5.0
TIMING_ROUNDS = 5


def _stale_fault_population():
    """(F, 16) correct/faulted pairs: deep 8-byte stale captures, F = 256.

    A deep glitch violates many register bits at once; each synthesised
    capture latches the stale value on a rotating window of 8 of the 16
    register bytes, so every byte position carries fault evidence and
    the serial scan pays the real per-position cost.
    """
    rng = np.random.default_rng(SEED)
    plaintexts = rng.integers(0, 256, size=(NUM_STIMULI, 16), dtype=np.uint8)
    states = BatchedAES(KEY).round_states(plaintexts)
    correct = states[:, -1]
    stale = states[:, -2]
    correct_rows = []
    faulted_rows = []
    for _ in range(REPEATS):
        for start in range(8):
            window = [(start + offset) % 16 for offset in range(8)]
            faulted = correct.copy()
            faulted[:, window] = stale[:, window]
            correct_rows.append(correct)
            faulted_rows.append(faulted)
    return np.concatenate(correct_rows), np.concatenate(faulted_rows)


def _best_of(rounds, func):
    """Best-of-N wall time after one untimed warmup pass."""
    func()
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_vectorised_dfa_scoring_matches_serial_and_is_5x_faster(benchmark):
    correct, faulted = _stale_fault_population()
    num_faults = correct.shape[0]

    # Recovery sanity before timing: the population must actually yield
    # the key it was synthesised from.
    recovery = recover_last_round_key(correct, faulted)
    expected = last_round_key(KEY)
    assert recovery.num_recovered >= 1
    assert recovery.matches(expected)

    serial_seconds, serial_scores = _best_of(
        TIMING_ROUNDS, lambda: dfa_key_scores_serial(correct, faulted)
    )
    vector_seconds, vector_scores = _best_of(
        TIMING_ROUNDS, lambda: dfa_key_scores(correct, faulted)
    )
    assert np.array_equal(serial_scores, vector_scores), (
        "vectorised DFA scoring diverged from the serial reference"
    )

    speedup = serial_seconds / vector_seconds
    benchmark.extra_info["num_faults"] = num_faults
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["vector_seconds"] = round(vector_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["gate"] = GATE_SPEEDUP
    benchmark.extra_info["recovered_bytes"] = recovery.num_recovered
    benchmark.extra_info["key_byte_coverage"] = round(
        recovery.num_recovered / 16, 4)
    assert speedup >= GATE_SPEEDUP, (
        f"vectorised DFA scoring must be >= {GATE_SPEEDUP}x faster than the "
        f"serial scan (serial {serial_seconds:.4f} s, vectorised "
        f"{vector_seconds:.4f} s, {speedup:.1f}x)"
    )

    benchmark(lambda: dfa_key_scores(correct, faulted))
