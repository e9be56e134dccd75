"""Analysis toolkit: traces, local maxima, Gaussian fits, DFA.

The scoring primitives are batched and matrix-resident
(:mod:`repro.analysis.batch`).  The scalar serial references they are
pinned against bit for bit (``find_local_maxima``,
``sum_of_local_maxima``, ``pooled_std``, the per-trace metric
``score``) live in ``tests/oracles/scoring.py``, not in the package.
"""

from .batch import (
    abs_difference_matrix,
    false_negative_rates,
    find_local_maxima_batch,
    fit_gaussians_batch,
    pooled_std_batch,
    sum_of_local_maxima_batch,
)
from .gaussian import (
    GaussianFit,
    fit_gaussian,
    overlap_threshold,
)
from .local_maxima import sum_of_local_maxima
from .dfa import (
    DFAResult,
    FaultLocalisation,
    RecoveredKeyByte,
    dfa_key_scores,
    localise_faults,
    recover_last_round_key,
)
from .traces import (
    abs_difference,
    as_samples,
    stack_traces,
)

__all__ = [
    "abs_difference_matrix",
    "false_negative_rates",
    "find_local_maxima_batch",
    "fit_gaussians_batch",
    "pooled_std_batch",
    "sum_of_local_maxima_batch",
    "GaussianFit",
    "fit_gaussian",
    "overlap_threshold",
    "sum_of_local_maxima",
    "DFAResult",
    "FaultLocalisation",
    "RecoveredKeyByte",
    "dfa_key_scores",
    "localise_faults",
    "recover_last_round_key",
    "abs_difference",
    "as_samples",
    "stack_traces",
]
