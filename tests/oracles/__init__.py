"""Serial and interpreted references of the shipped kernels.

The package in ``src/`` keeps one implementation per operation: the
compiled netlist and timing kernels, the batched acquisition, scoring,
ROC, DFA and fault kernels.  The per-element loops and cell-by-cell
walks they replaced live here, as the executable specifications the
bit-identity tests (``from oracles import ...``) and the speed-up
benchmarks compare against.  Each reference of a method takes the
instance as its first argument.
"""

from .acquisition import (
    acquire_population_traces_serial,
    acquire_population_traces_stimuli_serial,
    average_stimulus_traces,
)
from .delay import (
    arrival_times_ps,
    calibrate_glitch,
    calibrate_glitches,
    measure,
    measure_pair,
    pair_transitions,
)
from .netlist import (
    encryption_activity_counts_loop,
    encryption_activity_interpreted,
    evaluate_interpreted,
    net_values_to_block,
)
from .scoring import (
    dfa_key_scores_serial,
    faulted_bits_population_serial,
    roc_curve_serial,
    scores_serial,
)
from .timing import TimingEngine, TwoVectorResult, two_vector_result

__all__ = [
    "acquire_population_traces_serial",
    "acquire_population_traces_stimuli_serial",
    "average_stimulus_traces",
    "arrival_times_ps",
    "calibrate_glitch",
    "calibrate_glitches",
    "measure",
    "measure_pair",
    "pair_transitions",
    "encryption_activity_counts_loop",
    "encryption_activity_interpreted",
    "evaluate_interpreted",
    "net_values_to_block",
    "dfa_key_scores_serial",
    "faulted_bits_population_serial",
    "roc_curve_serial",
    "scores_serial",
    "TimingEngine",
    "TwoVectorResult",
    "two_vector_result",
]
