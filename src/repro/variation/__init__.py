"""Process-variation models: intra-die and inter-die."""

from .inter_die import DieProfile, DiePopulation
from .intra_die import IntraDieVariation

__all__ = [
    "DieProfile",
    "DiePopulation",
    "IntraDieVariation",
]
