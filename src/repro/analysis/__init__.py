"""Analysis toolkit: traces, local maxima, Gaussian fits, DFA.

The scoring primitives are batched and matrix-resident
(:mod:`repro.analysis.batch`).  The scalar serial references they are
pinned against bit for bit (``find_local_maxima``,
``sum_of_local_maxima``, ``pooled_std``, the per-trace metric
``score``) live in ``tests/oracles/scoring.py``, not in the package.
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "abs_difference_matrix": ".batch",
    "false_negative_rates": ".batch",
    "find_local_maxima_batch": ".batch",
    "fit_gaussians_batch": ".batch",
    "pooled_std_batch": ".batch",
    "sum_of_local_maxima_batch": ".batch",
    "GaussianFit": ".gaussian",
    "fit_gaussian": ".gaussian",
    "overlap_threshold": ".gaussian",
    "sum_of_local_maxima": ".local_maxima",
    "DFAResult": ".dfa",
    "FaultLocalisation": ".dfa",
    "RecoveredKeyByte": ".dfa",
    "dfa_key_scores": ".dfa",
    "localise_faults": ".dfa",
    "recover_last_round_key": ".dfa",
    "abs_difference": ".traces",
    "as_samples": ".traces",
    "stack_traces": ".traces",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
