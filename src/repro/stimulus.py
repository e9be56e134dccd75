"""Canonical stimuli of the EM campaigns.

The paper fixes one plaintext (and key) for every EM acquisition but
does not disclose it; any fixed value plays that role.  These constants
are the defaults of :class:`~repro.campaigns.spec.CampaignSpec`, whose
``plaintext`` and ``key`` the detection platform, the experiment
drivers and the campaign engine all read, so their traces are
interchangeable.

Random-plaintext campaigns extend the fixed stimulus with
:func:`random_plaintexts` (:meth:`CampaignSpec.stimulus_plaintexts`): a
deterministic, seed-addressed plaintext set, so a multi-stimulus sweep
is always a superset of the paper's scenario.
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

