"""Serial and interpreted references of the shipped kernels.

The package in ``src/`` keeps one implementation per operation: the
compiled netlist and timing kernels, the one EM acquisition core, the
batched trojan activity, scoring, DFA and fault kernels, the bulk-seeded
intra-die offsets, the store payload codecs and the table-built S-box.  The per-element
loops, cell-by-cell walks and trace-list payload packers they replaced
live here, as the executable
specifications the bit-identity tests (``from oracles import ...``) and
the speed-up benchmarks compare against.  Each
reference of a method takes the instance as its first argument.
"""

from .acquisition import (
    acquire_many,
    acquire_population_traces,
    acquire_population_traces_serial,
    acquire_population_traces_stimuli_serial,
    acquire_serial,
    amplify,
    average_stimulus_traces,
    host_cycle_activities,
    noiseless_trace,
    oscilloscope_acquire,
    sample_setup_perturbation,
    trojan_cycle_activities,
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
    NO_ACTIVITY,
    TrojanActivity,
    encryption_activity_counts_loop,
    encryption_activity_interpreted,
    evaluate_interpreted,
    net_values_to_block,
    netlist_toggle_counts,
    round_activity,
)
from .payloads import (
    pack_delay_differences,
    pack_fault_sweep,
    pack_population_traces,
)
from .scoring import (
    DELAY_METRIC_SCORERS,
    build_delay_scorer,
    dfa_key_scores_serial,
    faulted_bits_population_serial,
    find_local_maxima,
    pooled_std,
    score_trace,
    scores_serial,
    sum_of_local_maxima_serial,
)
from .sbox import affine_transform, reference_inv_sbox, reference_sbox
from .timing import TimingEngine, TwoVectorResult, two_vector_result
from .variation import cell_offset_ps

__all__ = [
    "acquire_many",
    "acquire_population_traces",
    "acquire_population_traces_serial",
    "acquire_population_traces_stimuli_serial",
    "acquire_serial",
    "amplify",
    "average_stimulus_traces",
    "host_cycle_activities",
    "noiseless_trace",
    "oscilloscope_acquire",
    "sample_setup_perturbation",
    "trojan_cycle_activities",
    "arrival_times_ps",
    "calibrate_glitch",
    "calibrate_glitches",
    "measure",
    "measure_pair",
    "pair_transitions",
    "NO_ACTIVITY",
    "TrojanActivity",
    "encryption_activity_counts_loop",
    "encryption_activity_interpreted",
    "evaluate_interpreted",
    "net_values_to_block",
    "netlist_toggle_counts",
    "round_activity",
    "pack_delay_differences",
    "pack_fault_sweep",
    "pack_population_traces",
    "DELAY_METRIC_SCORERS",
    "build_delay_scorer",
    "dfa_key_scores_serial",
    "faulted_bits_population_serial",
    "find_local_maxima",
    "pooled_std",
    "score_trace",
    "scores_serial",
    "sum_of_local_maxima_serial",
    "affine_transform",
    "reference_inv_sbox",
    "reference_sbox",
    "TimingEngine",
    "TwoVectorResult",
    "two_vector_result",
    "cell_offset_ps",
]
