"""Equivalence and structure tests for the last-round circuit."""

import pytest
from oracles import AES, input_values, netlist_stats, xor_bytes

from repro.crypto.state import BLOCK_BITS
from repro.netlist.aes_round_circuit import paper_bit_to_byte_bit


def _random_bytes(rng, length=16):
    return bytes(int(x) for x in rng.integers(0, 256, size=length))


@pytest.fixture(scope="module")
def circuit(golden_design):
    # Reuse the circuit embedded in the session-scoped golden design.
    return golden_design.circuit


def test_paper_bit_mapping_is_a_bijection():
    pairs = {paper_bit_to_byte_bit(paper_bit)
             for paper_bit in range(BLOCK_BITS)}
    assert pairs == {(byte, bit) for byte in range(16) for bit in range(8)}
    with pytest.raises(ValueError):
        paper_bit_to_byte_bit(128)


def test_paper_bit_zero_is_msb_of_byte_zero():
    assert paper_bit_to_byte_bit(0) == (0, 7)
    assert paper_bit_to_byte_bit(7) == (0, 0)
    assert paper_bit_to_byte_bit(8) == (1, 7)


def test_circuit_structure(circuit):
    stats = netlist_stats(circuit.netlist)
    assert stats["DFF"] == 128
    assert len(circuit.netlist.inputs) == 256  # 128 state + 128 key bits
    assert len(circuit.netlist.outputs) == 128
    assert len(circuit.subbytes_input_nets) == 128
    # 16 S-boxes x 32 LUTs + 128 AddRoundKey LUTs.
    assert stats["LUT"] == 16 * 32 + 128


def test_circuit_matches_behavioural_last_round(circuit, rng):
    for _ in range(5):
        key = _random_bytes(rng)
        plaintext = _random_bytes(rng)
        aes = AES(key)
        trace = aes.encrypt_trace(plaintext)
        (observed,) = circuit.evaluate_batch([trace.last_round.state_in],
                                             [aes.last_round_key()])
        assert observed == trace.ciphertext


def test_circuit_differs_when_key_bit_flipped(circuit, rng):
    key = _random_bytes(rng)
    plaintext = _random_bytes(rng)
    aes = AES(key)
    trace = aes.encrypt_trace(plaintext)
    round_key = bytearray(aes.last_round_key())
    round_key[0] ^= 0x80
    (observed,) = circuit.evaluate_batch([trace.last_round.state_in],
                                         [bytes(round_key)])
    # Exactly paper bit 0, the MSB of byte 0, differs.
    assert xor_bytes(observed, trace.ciphertext) == b"\x80" + bytes(15)


def test_output_net_accessors_are_consistent(circuit):
    d_nets = circuit.output_d_nets()
    assert len(d_nets) == BLOCK_BITS
    assert len(set(d_nets)) == BLOCK_BITS
    for paper_bit in (0, 63, 127):
        assert circuit.output_d_net(paper_bit) in d_nets


def test_input_values_cover_all_inputs(circuit):
    values = input_values(circuit, bytes(16), bytes(16))
    assert set(values) == set(circuit.netlist.inputs)
    assert all(v in (0, 1) for v in values.values())


def test_lut_equivalent_area_positive(circuit):
    assert circuit.netlist.lut_equivalent_area() > 500
