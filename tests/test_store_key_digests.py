"""The content keys of every stored artifact kind, pinned to literal digests.

A store written by one version of the package must resume on the next,
so the key of each artifact kind is frozen here as a hex digest.  The
keys are read off the store requests a campaign engine makes (a store
that records the key and stops), so the test pins what reaches the
store, whatever builds the key.
"""

from __future__ import annotations

import pytest

from repro.campaigns import AcquisitionVariant, CampaignEngine, CampaignSpec
from repro.experiments import summarise_suite
from repro.store import ArtifactStore


class _Requested(Exception):
    """Raised by :class:`_KeyRecordingStore` with the requested key."""


class _KeyRecordingStore(ArtifactStore):
    """A store whose reads raise the key they were asked for."""

    def load_json(self, key):
        raise _Requested(key)

    def load_arrays(self, key):
        raise _Requested(key)


def _requested_key(request) -> str:
    with pytest.raises(_Requested) as raised:
        request()
    return raised.value.args[0]


#: One spec that sets every key-relevant field away from its default.
SPEC = CampaignSpec(
    name="pinned-keys",
    trojans=("HT1", "HT3"),
    die_counts=(3,),
    variants=(AcquisitionVariant.make(
        "noisy", {"noise.sigma_single_shot": 500.0}),),
    metrics=("local_maxima_sum", "delay_max_difference", "fault_coverage"),
    seed=7,
    num_plaintexts=2,
    num_pk_pairs=2,
    delay_repetitions=2,
    glitch_offsets_ps=(100, 200.5),
    glitch_widths_ps=(50,),
    glitch_periods_ps=(4000,),
)

PINNED = {
    "population_traces":
        "71f7a38613c82e248ea382a1532445f208e4b01d128bd16517c2e15ebcd29917",
    "delay_differences":
        "bb93ebcf34a50a28293008d5daad21e4010de59876878a893d974c97817954d2",
    "fault_sweep":
        "dd17f7c2948afb34db6f6e5201b057a6e4f354f3b901eb3b59d598cb14665180",
    "infected_summary":
        "5418b4f2169d264b9e5521cf98fb641caf32351016a02859fb2b9b2d07e7a379",
    "campaign_cell":
        "295a59b7e2a344a52a92abcaee0f03801b0b1282c95e0273e495f303b711714c",
    # Holds ``SUITE_ROWS_VERSION``: a version bump re-pins this one.
    "experiment_suite":
        "392f9b4e878fa68489a506ffb8f0a42eeb0789bb54b33f855bb941834954f474",
}

#: The paper geometry of ``campaign run --dies 4 --seed 2015`` and of
#: ``experiments --quick``: the population both share in a store.
PAPER_QUICK_POPULATION = (
    "8715240aac79d2003ba0e1046287d12262add70bbc896f9c30e3757ea1344b89")


def _keys(spec: CampaignSpec, tmp_path):
    engine = CampaignEngine(spec, store=_KeyRecordingStore(tmp_path / "s"))
    em, delay, fault = spec.grid()
    return {
        "population_traces": _requested_key(
            lambda: engine.cell_trace_matrices(em)),
        "delay_differences": _requested_key(
            lambda: engine.delay_study_data(delay)),
        "fault_sweep": _requested_key(lambda: engine.fault_sweep_data(fault)),
        "infected_summary": _requested_key(
            lambda: engine.trojan_area_fraction("HT3")),
        "campaign_cell": _requested_key(lambda: engine.load_cell_result(em)),
        "experiment_suite": _requested_key(
            lambda: summarise_suite(spec, store=engine.store)),
    }


def test_every_artifact_key_is_pinned(tmp_path):
    assert _keys(SPEC, tmp_path) == PINNED


def test_paper_population_key_is_pinned(tmp_path):
    spec = CampaignSpec(die_counts=(4,), seed=2015)
    engine = CampaignEngine(spec, store=_KeyRecordingStore(tmp_path / "s"))
    (cell,) = spec.grid()
    assert _requested_key(lambda: engine.cell_trace_matrices(cell)) == \
        PAPER_QUICK_POPULATION
