"""Serial references of the batched scoring, DFA and fault kernels.

Each function is the per-element loop its vectorised counterpart in
``src/`` replaced, kept as the executable specification the
bit-identity tests and the speed-up benchmarks compare against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.dfa import (
    MISSED_TOGGLE_WEIGHT,
    NUM_GUESSES,
    PHANTOM_TOGGLE_WEIGHT,
    _normalise_fault_pair,
)
from repro.analysis.traces import abs_difference
from repro.core.metrics import (
    L1TraceMetric,
    LocalMaximaSumMetric,
    MaxDifferenceMetric,
)
from repro.crypto.sbox import INV_SBOX
from repro.crypto.state import BLOCK_BYTES, SHIFT_ROWS_PERM
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


def find_local_maxima(signal: Sequence[float],
                      min_height: Optional[float] = None,
                      min_distance: int = 1) -> np.ndarray:
    """Indices of strict local maxima of ``signal``.

    A sample is a local maximum when it is strictly greater than its left
    neighbour and at least as large as its right neighbour (plateaus keep
    their first sample).  End points are never maxima.

    Serial reference of
    :func:`repro.analysis.batch.find_local_maxima_batch`: the batched
    kernel must reproduce this function's output bit-for-bit on every
    row, including the tie order of equal-height peaks during
    min-distance suppression.

    Parameters
    ----------
    min_height:
        Discard maxima below this value.
    min_distance:
        Enforce a minimum index spacing between returned maxima, keeping
        the highest peak of each cluster.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if min_distance < 1:
        raise ValueError("min_distance must be >= 1")
    if x.size < 3 or not np.any(x[1:] != x[:-1]):
        # Too short, or flat (e.g. the all-zero difference trace of a
        # same-die self-comparison): no interior sample can be a strict
        # local maximum, so skip the neighbour comparisons entirely.
        return np.array([], dtype=int)

    left = x[1:-1] > x[:-2]
    right = x[1:-1] >= x[2:]
    candidates = np.flatnonzero(left & right) + 1

    if min_height is not None:
        candidates = candidates[x[candidates] >= min_height]
    if candidates.size == 0 or min_distance == 1:
        return candidates
    if candidates.size == 1 or np.all(np.diff(candidates) >= min_distance):
        # Already spaced: the greedy suppression would keep every peak.
        return candidates

    # Greedy keep-highest with spacing constraint.  Visiting candidates
    # in descending height order (the same ordering the original
    # quadratic implementation used) and suppressing the ``candidates``
    # range within ``min_distance`` of every kept peak is equivalent to
    # re-checking each candidate against all kept peaks, but runs in
    # O(K log K): ``candidates`` is ascending, so every suppression
    # window is one precomputed ``searchsorted`` slice — no per-peak
    # bisect and no list round-trips.
    order_positions = np.argsort(x[candidates])[::-1].tolist()
    lows = np.searchsorted(candidates, candidates - (min_distance - 1),
                           side="left")
    highs = np.searchsorted(candidates, candidates + (min_distance - 1),
                            side="right")
    suppressed = np.zeros(candidates.size, dtype=bool)
    kept: List[int] = []
    for position in order_positions:
        if suppressed[position]:
            continue
        kept.append(candidates[position])
        suppressed[lows[position]:highs[position]] = True
    return np.array(sorted(kept), dtype=int)


def sum_of_local_maxima_serial(signal: Sequence[float],
                               min_height: Optional[float] = None,
                               min_distance: int = 1) -> float:
    """Serial reference of
    :func:`repro.analysis.batch.sum_of_local_maxima_batch`: the values
    at :func:`find_local_maxima`'s indices, summed in index order."""
    x = np.asarray(signal, dtype=float)
    if x.size < 3:
        return 0.0
    indices = find_local_maxima(x, min_height=min_height,
                                min_distance=min_distance)
    if indices.size == 0:
        return 0.0
    return float(x[indices].sum())


def pooled_std(a: Sequence[float], b: Sequence[float]) -> float:
    """Pooled standard deviation of two samples — the serial reference
    of :func:`repro.analysis.batch.pooled_std_batch`.

    The paper assumes ``sigma1 ~= sigma2 = sigma`` when applying Eq. (5);
    the pooled estimate is the natural single sigma to use.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("both samples need at least two observations")
    var = ((x.size - 1) * x.var(ddof=1) + (y.size - 1) * y.var(ddof=1)) / (
        x.size + y.size - 2
    )
    return float(np.sqrt(var))


def score_trace(metric, trace, reference) -> float:
    """Per-trace serial reference of ``metric.scores_matrix``.

    ``metric`` is one of the trace metrics of :mod:`repro.core.metrics`;
    the score is built on the absolute difference ``|trace -
    reference|``.
    """
    difference = abs_difference(trace, reference)
    if isinstance(metric, LocalMaximaSumMetric):
        return sum_of_local_maxima_serial(
            difference, min_height=metric.min_peak_height,
            min_distance=metric.min_peak_distance)
    if isinstance(metric, L1TraceMetric):
        return float(np.mean(difference))
    if isinstance(metric, MaxDifferenceMetric):
        return float(np.max(difference))
    raise TypeError(f"no serial reference for {type(metric).__name__}")


def scores_serial(metric, traces: Sequence, reference) -> np.ndarray:
    """Per-trace scoring loop — the serial reference of
    ``metric.scores_matrix`` over a population (one
    :func:`score_trace` per trace)."""
    return np.array([score_trace(metric, trace, reference)
                     for trace in traces])


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
