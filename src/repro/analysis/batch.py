"""Batched, matrix-resident scoring primitives.

The detection decision of the paper (Sec. V / Eq. (5)) is the sum of
local maxima of ``|trace - golden mean|`` scored per die, fed into
Gaussian fits for the false-negative rate.  After the acquisition side
went tensor-resident (``EMSimulator.acquire_many_batch_tensor``
returns every die's stimulus-averaged trace as one ``(dies x
samples)`` matrix), scoring was the last scalar stage: every campaign cell exploded
the tensor into per-die traces and pushed them one at a time through
pure-Python loops.

This module is the batched counterpart: every function operates on a
whole ``(traces x samples)`` matrix (or a ``(populations x scores)``
score matrix) in vectorised NumPy passes.

**Serial-reference contract.**  Each function here is a pure performance
refactor of a scalar reference.  The references the package itself
uses stay in :mod:`repro.analysis`; the ones only the tests need live
in ``tests/oracles/scoring.py``:

========================================  =====================================
batched                                   serial reference
========================================  =====================================
:func:`find_local_maxima_batch`           ``find_local_maxima`` (oracle)
:func:`sum_of_local_maxima_batch`         ``sum_of_local_maxima_serial`` (oracle)
:func:`abs_difference_matrix`             :func:`~repro.analysis.traces.abs_difference`
:func:`fit_gaussians_batch`               :func:`~repro.analysis.gaussian.fit_gaussian`
:func:`pooled_std_batch`                  ``pooled_std`` (oracle)
========================================  =====================================

Outputs must be **bit-identical** to looping the reference over the
rows — including the tie order of equal-height peaks during
min-distance suppression — which is what the equivalence tests in
``tests/test_batch_scoring.py`` pin.  :func:`false_negative_rates` is
the one implementation of Eq. (5);
:func:`repro.core.metrics.false_negative_rate` is its one-entry view.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .gaussian import GaussianFit, fit_gaussian

__all__ = [
    "abs_difference_matrix",
    "find_local_maxima_batch",
    "sum_of_local_maxima_batch",
    "fit_gaussians_batch",
    "pooled_std_batch",
    "false_negative_rates",
    "ScorePopulationFits",
    "characterise_score_populations",
]


def abs_difference_matrix(matrix: np.ndarray,
                          reference: Union[Sequence[float], np.ndarray]
                          ) -> np.ndarray:
    """Absolute difference of every row of ``matrix`` against ``reference``.

    Batched :func:`~repro.analysis.traces.abs_difference`: one broadcast
    subtraction covers the whole ``(traces x samples)`` matrix.
    """
    x = np.asarray(matrix, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if x.ndim != 2:
        raise ValueError("matrix must be two-dimensional (traces x samples)")
    if ref.ndim != 1 or ref.size != x.shape[1]:
        raise ValueError(
            f"reference has {ref.size} samples but the matrix rows have "
            f"{x.shape[1]}"
        )
    out = np.subtract(x, ref[None, :])
    np.abs(out, out=out)
    return out


def find_local_maxima_batch(matrix: np.ndarray,
                            min_height: Optional[float] = None,
                            min_distance: int = 1) -> np.ndarray:
    """Strict local maxima of every row of a ``(traces x samples)`` matrix.

    Returns a boolean mask of the same shape; ``mask[i]`` is True exactly
    at the indices the serial reference ``find_local_maxima``
    (``tests/oracles/scoring.py``) returns for ``matrix[i]`` — bit-identical,
    including the quicksort tie order of equal-height peaks during the
    greedy min-distance suppression.

    The neighbour comparisons and the ``min_height`` filter are one
    vectorised pass over the whole matrix.  Min-distance suppression
    runs as *iterated window-minimum rounds* over the flattened
    candidate set of all rows at once: in each round, every still-active
    candidate that has the best greedy priority (height descending,
    serial tie order) within ``min_distance - 1`` of its position is
    kept, and every active candidate inside a kept peak's window is
    retired.  A candidate kept this way has nothing stronger left to
    suppress it, and a retired candidate is exactly one the greedy pass
    would have skipped, so the fixed point equals the serial greedy
    result peak-for-peak.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise ValueError("matrix must be two-dimensional (traces x samples)")
    flat, _ = _local_maxima_flat(x, min_height, min_distance)
    mask = np.zeros(x.size, dtype=bool)
    mask[flat] = True
    return mask.reshape(x.shape)


def _local_maxima_flat(x: np.ndarray, min_height: Optional[float],
                       min_distance: int
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Flat (row-major) indices of every row's kept local maxima.

    The shared core of :func:`find_local_maxima_batch` and
    :func:`sum_of_local_maxima_batch`; ``x`` must already be a 2-D float
    matrix.  Returns ``(flat_indices, peak_values)`` — the values are
    only materialised when the suppression path already gathered them,
    ``None`` otherwise.
    """
    if min_distance < 1:
        raise ValueError("min_distance must be >= 1")
    num_rows, num_samples = x.shape
    if num_rows == 0 or num_samples < 3:
        return np.array([], dtype=np.int64), None
    mask = np.zeros((num_rows, num_samples), dtype=bool)
    inner = mask[:, 1:-1]
    np.greater(x[:, 1:-1], x[:, :-2], out=inner)
    inner &= x[:, 1:-1] >= x[:, 2:]
    if min_height is not None:
        mask &= x >= min_height
    flat = np.flatnonzero(mask.ravel())
    if min_distance == 1 or flat.size <= 1:
        return flat, None

    # Candidate counts fit 32-bit arithmetic in any realistic campaign;
    # the narrower lanes roughly halve the suppression's memory traffic.
    if num_rows * (num_samples + min_distance) < 2**31:
        positions = flat.astype(np.int32, copy=False)
    else:
        positions = flat
    rows = positions // num_samples
    # Composite keys leave a >= min_distance gap between consecutive
    # rows' index ranges, so one sorted array serves every row at once:
    # a suppression window can never straddle a row boundary.  In flat
    # coordinates that is simply ``flat + row * min_distance``.
    keys = positions + rows * min_distance
    if np.all(np.diff(keys) >= min_distance):
        # Every row's peaks are already spaced: greedy keeps them all.
        return flat, None

    values = x.ravel()[flat]
    ranks = _greedy_priority_ranks(values, rows, num_rows, keys.dtype)
    kept = _suppress_by_min_distance(keys, ranks, min_distance)
    kept = np.flatnonzero(kept)
    return flat[kept], values[kept]


def _greedy_priority_ranks(values: np.ndarray, rows: np.ndarray,
                           num_rows: int, dtype=np.int64) -> np.ndarray:
    """Per-row greedy visiting order of the candidates (0 = first kept).

    Replicates the serial suppression's ``np.argsort(heights)[::-1]``
    per row — same sort kind, same reversal — so equal-height peaks tie
    in exactly the serial order.
    """
    ranks = np.empty(values.size, dtype=dtype)
    starts = np.searchsorted(rows, np.arange(num_rows + 1)).tolist()
    sequence = np.arange(values.size, dtype=dtype)
    for row in range(num_rows):
        begin, end = starts[row], starts[row + 1]
        if end <= begin:
            continue
        order = np.argsort(values[begin:end])[::-1]
        ranks[begin:end][order] = sequence[:end - begin]
    return ranks


def _suppress_by_min_distance(keys: np.ndarray, ranks: np.ndarray,
                              min_distance: int) -> np.ndarray:
    """Greedy min-distance suppression over all rows' candidates at once.

    Iterated window-minimum rounds (see :func:`find_local_maxima_batch`)
    whose fixed point equals the serial greedy pass peak-for-peak.
    Window minima are computed by comparing each candidate against its
    k-th neighbours for growing k while *any* pair at that offset is
    still within the window — the keys are sorted, so once no pair at
    offset k is close enough, no larger offset can be either.  Windows
    hold only a handful of candidates in practice, so each round is a
    few full-array passes instead of per-candidate searches, and the
    active set shrinks geometrically between rounds.
    """
    window = keys.dtype.type(min_distance - 1)
    kept = np.zeros(keys.size, dtype=bool)
    active_keys = keys
    active_ranks = ranks
    # ``None`` marks the identity mapping of the first round, so the
    # full-size ``arange`` and its fancy indexing are never built when
    # one round suffices.
    active_positions: Optional[np.ndarray] = None
    sentinel = np.iinfo(keys.dtype).max
    while active_keys.size:
        if active_keys.size <= 128:
            # Few survivors left: one scalar greedy pass over them costs
            # less than further vectorised rounds.  Greedy on the
            # survivors alone is exact — every retired candidate was
            # inside an already-kept peak's window, and every kept
            # peak's whole window is retired with it.
            _suppress_serial_tail(active_keys.tolist(),
                                  active_ranks, active_positions,
                                  int(window), kept)
            return kept
        window_min = active_ranks.copy()
        pairs_by_offset: list = []
        for offset in range(1, active_keys.size):
            near = (active_keys[offset:] - active_keys[:-offset]) <= window
            near_count = np.count_nonzero(near)
            if not near_count:
                break
            if near_count * 3 < near.size * 2:
                # Sparse offset: touch only the near pairs.  ``left`` is
                # unique (one entry per pair start), so the fancy
                # minimum-scatter is race-free.
                left = np.flatnonzero(near)
                right = left + offset
                pairs_by_offset.append((offset, None, left, right))
                window_min[left] = np.minimum(window_min[left],
                                              active_ranks[right])
                window_min[right] = np.minimum(window_min[right],
                                               active_ranks[left])
            else:
                pairs_by_offset.append((offset, near, None, None))
                np.minimum(window_min[:-offset],
                           np.where(near, active_ranks[offset:], sentinel),
                           out=window_min[:-offset])
                np.minimum(window_min[offset:],
                           np.where(near, active_ranks[:-offset], sentinel),
                           out=window_min[offset:])
        new_kept = active_ranks == window_min
        if active_positions is None:
            kept |= new_kept
        else:
            kept[active_positions[new_kept]] = True
        # Retire the kept peaks and every active candidate inside one of
        # their windows; the survivors carry into the next round.
        retired = new_kept.copy()
        for offset, near, left, right in pairs_by_offset:
            if near is None:
                retired[right] |= new_kept[left]
                retired[left] |= new_kept[right]
            else:
                retired[offset:] |= new_kept[:-offset] & near
                retired[:-offset] |= new_kept[offset:] & near
        survivors = np.flatnonzero(~retired)
        active_keys = active_keys[survivors]
        active_ranks = active_ranks[survivors]
        active_positions = (survivors if active_positions is None
                            else active_positions[survivors])
    return kept


def _suppress_serial_tail(keys_list: list, ranks: np.ndarray,
                          positions: Optional[np.ndarray], window: int,
                          kept: np.ndarray) -> None:
    """Scalar greedy pass over the few remaining active candidates."""
    order = np.argsort(ranks).tolist()
    suppressed = [False] * len(keys_list)
    for position in order:
        if suppressed[position]:
            continue
        kept[position if positions is None else positions[position]] = True
        key = keys_list[position]
        neighbour = position - 1
        while neighbour >= 0 and key - keys_list[neighbour] <= window:
            suppressed[neighbour] = True
            neighbour -= 1
        neighbour = position + 1
        while neighbour < len(keys_list) \
                and keys_list[neighbour] - key <= window:
            suppressed[neighbour] = True
            neighbour += 1


def sum_of_local_maxima_batch(matrix: np.ndarray,
                              min_height: Optional[float] = None,
                              min_distance: int = 1) -> np.ndarray:
    """Per-row sum of local maxima — the paper's metric over a population.

    Batched ``sum_of_local_maxima_serial`` (the serial reference in
    ``tests/oracles/scoring.py``): one peak-finding pass over the whole
    matrix, then one compact sum per row.  Each row's sum is computed
    over the extracted peak values exactly as the serial reference
    does, so the floats are bit-identical (summation order included).
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise ValueError("matrix must be two-dimensional (traces x samples)")
    flat, peak_values = _local_maxima_flat(x, min_height, min_distance)
    sums = np.zeros(x.shape[0])
    if flat.size == 0:
        return sums
    # One gather of every kept peak value, then per-row *slice* sums:
    # each slice is exactly the contiguous ``x[indices]`` extraction the
    # scalar reference sums, so the floats (pairwise summation order
    # included) are bit-identical.
    if peak_values is None:
        peak_values = x.ravel()[flat]
    bounds = np.searchsorted(
        flat, np.arange(x.shape[0] + 1) * x.shape[1]).tolist()
    for row in range(x.shape[0]):
        begin, end = bounds[row], bounds[row + 1]
        if end > begin:
            sums[row] = peak_values[begin:end].sum()
    return sums


def fit_gaussians_batch(score_matrix: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise Gaussian fits of a ``(populations x scores)`` matrix.

    Batched :func:`~repro.analysis.gaussian.fit_gaussian`: returns
    ``(means, stds)`` vectors (MLE mean, unbiased std; a single-score
    row fits ``std = 0`` like the scalar reference).
    """
    scores = np.asarray(score_matrix, dtype=float)
    if scores.ndim != 2:
        raise ValueError("score matrix must be two-dimensional")
    if scores.shape[1] == 0:
        raise ValueError("cannot fit a Gaussian to an empty sample")
    means = scores.mean(axis=1)
    if scores.shape[1] == 1:
        stds = np.zeros(scores.shape[0])
    else:
        stds = scores.std(axis=1, ddof=1)
    return means, stds


def pooled_std_batch(reference_scores: Sequence[float],
                     score_matrix: np.ndarray) -> np.ndarray:
    """Pooled std of one reference population against each matrix row.

    Batched ``pooled_std`` (the serial reference in
    ``tests/oracles/scoring.py``) for the common
    campaign shape: one genuine score vector pooled against every
    trojan's score row at once.
    """
    x = np.asarray(reference_scores, dtype=float)
    y = np.asarray(score_matrix, dtype=float)
    if y.ndim != 2:
        raise ValueError("score matrix must be two-dimensional")
    if x.size < 2 or y.shape[1] < 2:
        raise ValueError("both samples need at least two observations")
    var = ((x.size - 1) * x.var(ddof=1)
           + (y.shape[1] - 1) * y.var(axis=1, ddof=1)) / (
        x.size + y.shape[1] - 2
    )
    return np.sqrt(var)


def false_negative_rates(mu: Union[Sequence[float], np.ndarray],
                         sigma: Union[Sequence[float], np.ndarray]
                         ) -> np.ndarray:
    """Eq. (5) false-negative rates of many (mu, sigma) separations.

    ``1/2 - 1/2 erf(mu / (2 sigma sqrt(2)))``, evaluated with the scalar
    ``math.erf`` per entry (the vectors here are one entry per trojan —
    tiny).  At ``sigma == 0`` the rate is the ``sigma -> 0`` limit: 0
    for ``mu > 0``, 1/2 for ``mu == 0`` and 1 for ``mu < 0`` (every
    infected device then falls below the symmetric threshold).
    """
    mu_arr, sigma_arr = np.broadcast_arrays(
        np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    )
    if np.any(sigma_arr < 0):
        raise ValueError("sigma must be non-negative")
    rates = np.empty(mu_arr.shape)
    flat_mu = mu_arr.ravel().tolist()
    flat_sigma = sigma_arr.ravel().tolist()
    flat_rates = rates.ravel()
    for index, (mu_value, sigma_value) in enumerate(zip(flat_mu, flat_sigma)):
        if sigma_value == 0:
            flat_rates[index] = (0.0 if mu_value > 0
                                 else 0.5 if mu_value == 0 else 1.0)
        else:
            flat_rates[index] = 0.5 - 0.5 * math.erf(
                mu_value / (2.0 * sigma_value * math.sqrt(2.0))
            )
    return rates


class ScorePopulationFits(NamedTuple):
    """Eq. (5) characterisation of several infected score populations.

    ``genuine`` is the fit of the shared genuine population; the other
    fields are vectors with one entry per infected population.
    """

    genuine: GaussianFit
    infected_means: np.ndarray
    infected_stds: np.ndarray
    mus: np.ndarray
    sigmas: np.ndarray
    rates: np.ndarray


def characterise_score_populations(genuine_scores: Sequence[float],
                                   infected_scores: np.ndarray
                                   ) -> ScorePopulationFits:
    """Gaussian fits, pooled sigma and Eq. (5) rates in one batched pass.

    ``infected_scores`` is a ``(populations x scores)`` matrix, one row
    per trojan.  ``mu`` is each infected mean minus the genuine mean;
    ``sigma`` is the pooled std when both populations hold at least two
    scores, else the larger of the two fitted stds.  Every value is
    bit-identical to :func:`~repro.analysis.gaussian.fit_gaussian`, the
    ``pooled_std`` oracle and :func:`false_negative_rates` applied per
    row.
    """
    genuine = np.asarray(genuine_scores, dtype=float)
    infected = np.asarray(infected_scores, dtype=float)
    genuine_fit = fit_gaussian(genuine)
    means, stds = fit_gaussians_batch(infected)
    mus = means - genuine_fit.mean
    if genuine.size >= 2 and infected.shape[1] >= 2:
        sigmas = pooled_std_batch(genuine, infected)
    else:
        sigmas = np.maximum(genuine_fit.std, stds)
    return ScorePopulationFits(
        genuine=genuine_fit,
        infected_means=means,
        infected_stds=stds,
        mus=mus,
        sigmas=sigmas,
        rates=false_negative_rates(mus, sigmas),
    )
