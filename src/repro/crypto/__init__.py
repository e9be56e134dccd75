"""Cryptographic substrate: AES-128/192/256 with round tracing.

The AES block cipher is the paper's target circuit.  This subpackage
provides a behavioural implementation used as the functional reference
for the gate-level last-round circuit, as the source of per-round
switching activity for the EM simulator, and as the cipher whose round
10 is attacked by the clock-glitch delay meter.
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "AES": ".aes",
    "BatchedAES": ".batch",
    "EncryptionTrace": ".aes",
    "RoundRecord": ".aes",
    "as_block_matrix": ".batch",
    "encrypt_round_states": ".batch",
    "expand_keys": ".batch",
    "mix_columns_batch": ".batch",
    "switching_activity_counts": ".batch",
    "encrypt_block": ".aes",
    "decrypt_block": ".aes",
    "sub_bytes_block": ".aes",
    "inv_sub_bytes_block": ".aes",
    "shift_rows_block": ".aes",
    "inv_shift_rows_block": ".aes",
    "mix_columns_block": ".aes",
    "inv_mix_columns_block": ".aes",
    "gf_mul": ".gf",
    "gf_inv": ".gf",
    "gf_pow": ".gf",
    "xtime": ".gf",
    "expand_key": ".keyschedule",
    "last_round_key": ".keyschedule",
    "round_key": ".keyschedule",
    "SBOX": ".sbox",
    "INV_SBOX": ".sbox",
    "sub_byte": ".sbox",
    "inv_sub_byte": ".sbox",
    "BLOCK_BITS": ".state",
    "BLOCK_BYTES": ".state",
    "bit_of_block": ".state",
    "bits_to_bytes": ".state",
    "bytes_to_bits": ".state",
    "differing_bits": ".state",
    "hamming_distance": ".state",
    "hamming_weight": ".state",
    "random_block": ".state",
    "random_key": ".state",
    "xor_bytes": ".state",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
