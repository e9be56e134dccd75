"""Trojan resource accounting (Sec. II-B and Sec. V-A figures).

The paper reports the footprint of its designs on the FPGA:

* the AES implementation covers 38.26 % of the FPGA slices,
* the combinational trojan uses 0.19 % of the FPGA slices,
* the sequential trojan uses 0.36 % of the FPGA slices,
* HT1 / HT2 / HT3 occupy 0.5 % / 1.0 % / 1.7 % of the AES area.

The driver rebuilds every catalog trojan on the Virtex-5 LX30 model,
inserts it next to the golden design and reports the measured slice
counts and fractions so they can be compared against the paper's
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..campaigns.engine import CampaignEngine
from ..fpga.device import AES_SLICE_UTILISATION

#: Paper-reported sizes: fraction of the FPGA for the Sec. II trojans,
#: fraction of the AES for the Sec. V trojans.
PAPER_DEVICE_FRACTIONS: Dict[str, float] = {
    "HT_comb": 0.0019,
    "HT_seq": 0.0036,
}
PAPER_AES_FRACTIONS: Dict[str, float] = {
    "HT1": 0.005,
    "HT2": 0.010,
    "HT3": 0.017,
}


@dataclass
class TrojanSizeRow:
    """Measured footprint of one catalog trojan."""

    trojan_name: str
    lut_count: float
    slice_count: int
    fraction_of_aes: float
    fraction_of_device: float
    trigger_width: int
    paper_fraction_of_aes: Optional[float] = None
    paper_fraction_of_device: Optional[float] = None


@dataclass
class TrojanSizeTable:
    """The full resource-accounting table."""

    aes_slice_utilisation: float
    aes_slice_count: int
    modelled_last_round_slices: int
    rows: List[TrojanSizeRow]

    def row(self, trojan_name: str) -> TrojanSizeRow:
        for candidate in self.rows:
            if candidate.trojan_name == trojan_name:
                return candidate
        raise KeyError(f"no row for trojan {trojan_name!r}")

    def ordering_matches_paper(self) -> bool:
        """HT1 < HT2 < HT3 in area, as in the paper."""
        try:
            sizes = [self.row(name).fraction_of_aes
                     for name in ("HT1", "HT2", "HT3")]
        except KeyError:
            return False
        return sizes[0] < sizes[1] < sizes[2]


def run(engine: CampaignEngine,
        trojan_names: Sequence[str] = ("HT_comb", "HT_seq", "HT1", "HT2", "HT3")
        ) -> TrojanSizeTable:
    """Measure the footprint of every catalog trojan on the modelled device."""
    platform = engine.platform
    golden = platform.golden

    rows: List[TrojanSizeRow] = []
    for name in trojan_names:
        infected = platform.infected_design(name)
        trojan = infected.trojan
        trigger_width = getattr(trojan, "counter_width",
                                len(getattr(trojan, "scanned_bits", [])) or 0)
        rows.append(
            TrojanSizeRow(
                trojan_name=name,
                lut_count=trojan.lut_count(),
                slice_count=infected.trojan_slice_count(),
                fraction_of_aes=infected.area_fraction_of_aes(),
                fraction_of_device=infected.area_fraction_of_device(),
                trigger_width=int(trigger_width),
                paper_fraction_of_aes=PAPER_AES_FRACTIONS.get(name),
                paper_fraction_of_device=PAPER_DEVICE_FRACTIONS.get(name),
            )
        )
    return TrojanSizeTable(
        aes_slice_utilisation=AES_SLICE_UTILISATION,
        aes_slice_count=golden.aes_total_slices(),
        modelled_last_round_slices=golden.modelled_slice_count(),
        rows=rows,
    )
