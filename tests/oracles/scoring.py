"""Serial references of the batched scoring, ROC, DFA and fault kernels.

Each function is the per-element loop its vectorised counterpart in
``src/`` replaced, kept as the executable specification the
bit-identity tests and the speed-up benchmarks compare against.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.analysis.dfa import (
    MISSED_TOGGLE_WEIGHT,
    NUM_GUESSES,
    PHANTOM_TOGGLE_WEIGHT,
    _normalise_fault_pair,
)
from repro.analysis.roc import ROCCurve, _roc_thresholds
from repro.crypto.aes import SHIFT_ROWS_PERM
from repro.crypto.sbox import INV_SBOX
from repro.crypto.state import BLOCK_BYTES
from repro.measurement.fault_injection import SetupViolationFaultModel


#: Per-device delay scorers over the Eq. (4) per-(pair, bit) difference
#: matrix of one device campaign: the serial references of the campaign
#: engine's ``DELAY_METRIC_BATCH_SCORERS``.
DELAY_METRIC_SCORERS = {
    "delay_max_difference":
        lambda differences: float(differences.max()),
    "delay_mean_pair_max":
        lambda differences: float(differences.max(axis=1).mean()),
}


def build_delay_scorer(name: str):
    """Resolve a serial delay-metric scorer from its campaign-spec name."""
    try:
        return DELAY_METRIC_SCORERS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown delay metric {name!r}; available: "
            + ", ".join(DELAY_METRIC_SCORERS)
        ) from exc


def scores_serial(metric, traces: Sequence, reference) -> np.ndarray:
    """Per-trace scoring loop — the serial reference of ``metric.scores``.

    ``metric`` is any of the trace metrics of :mod:`repro.core.metrics`;
    each score comes from its scalar ``score``.
    """
    return np.array([metric.score(trace, reference) for trace in traces])


def roc_curve_serial(genuine_scores: Sequence[float],
                     infected_scores: Sequence[float]) -> ROCCurve:
    """Serial reference of :func:`repro.analysis.roc.roc_curve`.

    The original per-threshold scan — one ``(scores > threshold).mean()``
    pass per threshold — kept as the pinned reference the equivalence
    tests compare the sort + ``searchsorted`` curve against.
    """
    genuine = np.asarray(genuine_scores, dtype=float)
    infected = np.asarray(infected_scores, dtype=float)
    if genuine.size == 0 or infected.size == 0:
        raise ValueError("both score populations must be non-empty")
    thresholds = _roc_thresholds(genuine, infected)
    fprs: List[float] = []
    tprs: List[float] = []
    for threshold in thresholds:
        fprs.append(float((genuine > threshold).mean()))
        tprs.append(float((infected > threshold).mean()))
    return ROCCurve(
        thresholds=thresholds,
        false_positive_rates=np.array(fprs),
        true_positive_rates=np.array(tprs),
    )


def dfa_key_scores_serial(correct_ciphertexts, faulted_ciphertexts,
                          observable_bits=None) -> np.ndarray:
    """Scalar reference of :func:`repro.analysis.dfa.dfa_key_scores`.

    One Python loop per (fault, position, guess) over the plain-list
    ``INV_SBOX`` — the executable specification the vectorised kernel
    must match entry-for-entry, and the baseline of the >= 5x speedup
    gate in ``benchmarks/bench_dfa_recover.py``.
    """
    correct, faulted = _normalise_fault_pair(correct_ciphertexts,
                                             faulted_ciphertexts)
    if observable_bits is None:
        observable = np.full(correct.shape, 0xFF, dtype=np.uint8)
    else:
        observable = np.broadcast_to(
            np.asarray(observable_bits, dtype=np.uint8), correct.shape)
    scores = np.zeros((BLOCK_BYTES, NUM_GUESSES), dtype=np.int64)
    for fault_index in range(correct.shape[0]):
        correct_block = correct[fault_index]
        faulted_block = faulted[fault_index]
        for position in range(BLOCK_BYTES):
            register_byte = SHIFT_ROWS_PERM[position]
            register = int(correct_block[register_byte])
            observed_mask = int(faulted_block[register_byte]) ^ register
            if observed_mask == 0:
                continue
            capturable = int(observable[fault_index, register_byte])
            ciphertext_byte = int(correct_block[position])
            for guess in range(NUM_GUESSES):
                predicted_mask = INV_SBOX[ciphertext_byte ^ guess] ^ register
                scores[position, guess] += (
                    PHANTOM_TOGGLE_WEIGHT * bin(
                        observed_mask & ~predicted_mask & 0xFF).count("1")
                    + MISSED_TOGGLE_WEIGHT * bin(
                        predicted_mask & capturable
                        & ~observed_mask & 0xFF).count("1")
                )
    return scores


def faulted_bits_population_serial(model: SetupViolationFaultModel,
                                   correct_bits: np.ndarray,
                                   stale_bits: np.ndarray,
                                   arrival_ps: np.ndarray,
                                   clock_period_ps: np.ndarray,
                                   rng: np.random.Generator) -> np.ndarray:
    """Serial reference of ``model.faulted_bits_population``.

    Same rng stream layout (three whole-population draws up front),
    then one scalar ``violation_probability`` /
    ``capture_bit`` decision per entry in C order — bit-identical
    to the vectorised kernel by construction, kept as the pinned
    reference the equivalence tests compare against.
    """
    correct = np.asarray(correct_bits, dtype=np.uint8)
    stale = np.asarray(stale_bits, dtype=np.uint8)
    arrivals = np.asarray(arrival_ps, dtype=float)
    periods = np.asarray(clock_period_ps, dtype=float)[..., None]
    shape = np.broadcast_shapes(
        correct.shape, stale.shape,
        np.broadcast(arrivals, periods).shape,
    )
    violation_draw = rng.random(size=shape)
    resolution_draw = rng.random(size=shape)
    random_bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
    correct_b = np.broadcast_to(correct, shape)
    stale_b = np.broadcast_to(stale, shape)
    arrivals_b = np.broadcast_to(arrivals, shape)
    periods_b = np.broadcast_to(periods, shape)
    captured = np.empty(shape, dtype=np.uint8)
    for index in np.ndindex(shape):
        arrival = arrivals_b[index]
        probability = model.violation_probability(
            None if np.isnan(arrival) else float(arrival),
            float(periods_b[index]),
        )
        if violation_draw[index] >= probability:
            captured[index] = correct_b[index]
        elif resolution_draw[index] < model.stale_capture_probability:
            captured[index] = stale_b[index]
        else:
            captured[index] = random_bits[index]
    return captured
