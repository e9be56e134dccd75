"""Cryptographic substrate: the AES-128/192/256 target cipher.

The AES block cipher is the paper's target circuit.  This subpackage
provides its batched NumPy implementation (:mod:`repro.crypto.batch`):
the per-round register states that drive the EM simulator's switching
activity, and the round-10 states the clock-glitch fault model and the
DFA analyzer work on.  The key schedule, the generated S-box, the
GF(2^8) doubling primitive and the byte/bit helpers sit beside it; the
block-at-a-time reference cipher is a test oracle
(``tests/oracles/aes.py``).
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "BatchedAES": ".batch",
    "as_block_matrix": ".batch",
    "expand_keys": ".batch",
    "mix_columns_batch": ".batch",
    "switching_activity_counts": ".batch",
    "xtime": ".gf",
    "expand_key": ".keyschedule",
    "last_round_key": ".keyschedule",
    "round_key": ".keyschedule",
    "SBOX": ".sbox",
    "INV_SBOX": ".sbox",
    "BLOCK_BITS": ".state",
    "BLOCK_BYTES": ".state",
    "bits_to_bytes": ".state",
    "bytes_to_bits": ".state",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
