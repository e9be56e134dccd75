"""Shared experiment configuration.

Every experiment driver accepts an :class:`ExperimentConfig`.  The
default profile mirrors the paper's campaign sizes (8 dies, 50 (P, K)
pairs, 10 repetitions, 1 000-fold averaging); the *quick* profile keeps
every code path identical but shrinks the campaign so the full
experiment suite runs in seconds — it is what the unit tests and the
pytest benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..campaigns.engine import CampaignEngine
from ..campaigns.spec import CampaignSpec
from ..core.pipeline import HTDetectionPlatform
from ..stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT, campaign_stimuli


@dataclass
class ExperimentConfig:
    """Campaign sizes shared by the experiment drivers."""

    num_dies: int = 8
    num_pk_pairs: int = 50
    repetitions: int = 10
    representative_pairs: "tuple[int, int]" = (13, 47)
    seed: int = 2015
    #: EM stimulus diversity: 1 reproduces the paper's fixed plaintext;
    #: N > 1 adds N - 1 seed-derived random plaintexts (each die is then
    #: scored on its stimulus-averaged trace).
    num_plaintexts: int = 1

    def __post_init__(self) -> None:
        if self.num_dies < 2:
            raise ValueError("num_dies must be at least 2")
        if self.num_pk_pairs < 1:
            raise ValueError("num_pk_pairs must be at least 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.num_plaintexts < 1:
            raise ValueError("num_plaintexts must be at least 1")
        for pair in self.representative_pairs:
            if pair >= self.num_pk_pairs:
                raise ValueError(
                    "representative pair index beyond the number of pairs"
                )

    def stimulus_plaintexts(self) -> List[bytes]:
        """The EM stimulus set: the fixed plaintext plus random extras.

        Shares :func:`repro.stimulus.campaign_stimuli` with the
        campaign specs, so equal (count, seed) always means equal
        stimuli across both drivers.
        """
        return campaign_stimuli(self.num_plaintexts, self.seed,
                                first=FIXED_PLAINTEXT)

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's campaign sizes."""
        return cls()

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """A reduced campaign for tests and benchmarks (same code paths)."""
        return cls(
            num_dies=4,
            num_pk_pairs=4,
            repetitions=3,
            representative_pairs=(0, 3),
        )

    def campaign_spec(self) -> CampaignSpec:
        """The suite's one-cell Sec. V campaign: HT1-HT3 over
        ``num_dies`` dies, the fixed key and the config's stimulus set,
        scored with the paper's local-maxima-sum metric.  Fig. 6 and the
        headline read its population study from a
        :class:`~repro.campaigns.engine.CampaignEngine`, and the
        figure platform is that engine's platform."""
        return CampaignSpec(
            name="experiments",
            trojans=("HT1", "HT2", "HT3"),
            die_counts=(self.num_dies,),
            metrics=("local_maxima_sum",),
            seed=self.seed,
            plaintext=FIXED_PLAINTEXT,
            key=FIXED_KEY,
            num_plaintexts=self.num_plaintexts,
            delay_repetitions=self.repetitions,
        )

    def build_platform(self) -> HTDetectionPlatform:
        """The detection platform of this configuration: the platform of
        the one cell of :meth:`campaign_spec`."""
        engine = CampaignEngine(self.campaign_spec())
        (cell,) = engine.spec.grid()
        return engine.platform_for(cell)


#: Fixed plaintext/key used by the EM experiments (the paper fixes the
#: plaintext but does not disclose it; any fixed value plays that role).
FIXED_PLAINTEXT = DEFAULT_PLAINTEXT
FIXED_KEY = DEFAULT_KEY
