"""Canonical stimuli of the EM campaigns.

The paper fixes one plaintext (and key) for every EM acquisition but
does not disclose it; any fixed value plays that role.  These constants
are the single definition shared by the detection platform, the
experiment drivers and the campaign engine — they must stay equal across
those paths for their traces to be interchangeable, so do not duplicate
them.

Random-plaintext campaigns extend the fixed stimulus with
:func:`random_plaintexts`: a deterministic, seed-addressed plaintext
set whose first entry is (by default) the canonical plaintext, so a
multi-stimulus sweep is always a superset of the paper's scenario.
"""

from __future__ import annotations

from typing import List

DEFAULT_PLAINTEXT = bytes(range(16))
DEFAULT_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def random_plaintexts(count: int, seed: int = 0,
                      include_default: bool = True) -> List[bytes]:
    """Deterministic plaintext set for random-stimulus campaigns.

    Returns ``count`` 16-byte plaintexts.  With ``include_default`` the
    first entry is :data:`DEFAULT_PLAINTEXT` and the remaining
    ``count - 1`` are drawn uniformly from ``seed``; otherwise all
    ``count`` are random.  The same ``(count, seed)`` always yields the
    same set, and growing ``count`` extends the set without reshuffling
    the existing entries.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    import numpy as np

    plaintexts: List[bytes] = [DEFAULT_PLAINTEXT] if include_default else []
    rng = np.random.default_rng(seed)
    while len(plaintexts) < count:
        plaintexts.append(bytes(int(x) for x in rng.integers(0, 256, size=16)))
    return plaintexts


def campaign_stimuli(count: int, seed: int,
                     first: bytes = DEFAULT_PLAINTEXT) -> List[bytes]:
    """The EM stimulus set of a campaign with ``count`` plaintexts.

    ``[first]`` for the paper's fixed-stimulus scenario; otherwise
    ``first`` followed by ``count - 1`` random plaintexts derived
    deterministically from the campaign ``seed``.  This is the single
    derivation shared by :class:`~repro.campaigns.spec.CampaignSpec`
    and :class:`~repro.experiments.config.ExperimentConfig` — the two
    must stay equal for their traces to be comparable, so do not
    duplicate it.
    """
    if count == 1:
        return [first]
    return [first] + random_plaintexts(count - 1, seed=seed + 23,
                                       include_default=False)
