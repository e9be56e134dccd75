"""Serial references of the batched EM population acquisition.

One ``EMSimulator.acquire``/``acquire_many`` call per (design, die) and
an :class:`EMTrace`-level stimulus average: the loops the
tensor-resident ``HTDetectionPlatform.acquire_population_tensors``
replaced, each taking the platform as its first argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import HTDetectionPlatform
from repro.measurement.em_simulator import EMTrace
from repro.stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT


def acquire_population_traces_serial(platform: HTDetectionPlatform,
                                     trojan_names: Sequence[str],
                                     plaintext: Optional[bytes] = None,
                                     key: Optional[bytes] = None
                                     ) -> "tuple[List[EMTrace], Dict[str, List[EMTrace]]]":
    """Reference per-die acquisition loop (one ``acquire`` per DUT).

    The ground truth ``platform.acquire_population_traces`` is validated
    (and benchmarked) against.
    """
    plaintext = plaintext if plaintext is not None else DEFAULT_PLAINTEXT
    key = key if key is not None else DEFAULT_KEY
    golden_traces: List[EMTrace] = []
    infected_traces: Dict[str, List[EMTrace]] = {name: [] for name in trojan_names}
    for die_index, rng in enumerate(platform._die_rngs()):
        golden_traces.append(
            platform.em_simulator.acquire(
                platform.golden_dut(die_index), plaintext, key, rng,
                new_setup_installation=True,
            )
        )
        for name in trojan_names:
            infected_traces[name].append(
                platform.em_simulator.acquire(
                    platform.infected_dut(name, die_index), plaintext, key, rng,
                    new_setup_installation=True,
                )
            )
    return golden_traces, infected_traces


def acquire_population_traces_stimuli_serial(
        platform: HTDetectionPlatform, trojan_names: Sequence[str], plaintexts: Sequence[bytes],
        key: Optional[bytes] = None
        ) -> "tuple[List[List[EMTrace]], Dict[str, List[List[EMTrace]]]]":
    """Reference nested loop for the multi-stimulus acquisition.

    One serial ``EMSimulator.acquire_many`` per (design, die), golden
    first, in die order — the ground truth the multi-stimulus
    ``platform.acquire_population_tensors`` is validated (and
    benchmarked) against.
    """
    key = key if key is not None else DEFAULT_KEY
    golden_traces: List[List[EMTrace]] = []
    infected_traces: Dict[str, List[List[EMTrace]]] = {
        name: [] for name in trojan_names
    }
    rngs = platform._die_rngs()
    for die_index, rng in enumerate(rngs):
        golden_traces.append(
            platform.em_simulator.acquire_many(
                platform.golden_dut(die_index), plaintexts, key, rng,
                new_setup_installation=True,
            )
        )
    for name in trojan_names:
        for die_index, rng in enumerate(rngs):
            infected_traces[name].append(
                platform.em_simulator.acquire_many(
                    platform.infected_dut(name, die_index), plaintexts, key,
                    rng, new_setup_installation=True,
                )
            )
    return golden_traces, infected_traces


def average_stimulus_traces(per_die_traces: Sequence[Sequence[EMTrace]]
                            ) -> List[EMTrace]:
    """Collapse a (die x plaintext) trace grid to one trace per die.

    A random-plaintext campaign characterises each die by the mean of
    its per-stimulus averaged traces (the multi-stimulus analogue of the
    oscilloscope's 1 000-fold same-stimulus averaging); the golden
    reference and every infected device are averaged over the *same*
    stimulus set, so the Sec. V comparison stays like-for-like.
    Serial (:class:`EMTrace`-level) reference of
    :func:`repro.core.pipeline.average_stimulus_tensor`.
    """
    averaged: List[EMTrace] = []
    for die_traces in per_die_traces:
        if not die_traces:
            raise ValueError("every die needs at least one stimulus trace")
        first = die_traces[0]
        samples = np.mean([trace.samples for trace in die_traces], axis=0)
        averaged.append(EMTrace(
            samples=samples,
            label=first.label,
            plaintext=first.plaintext,
            sample_period_ns=first.sample_period_ns,
            cycle_sample_offsets=list(first.cycle_sample_offsets),
        ))
    return averaged
