"""Tests for combinational trojans."""

import numpy as np
import pytest

from repro.crypto.state import BLOCK_BITS
from repro.trojan.base import TrojanKind
from repro.trojan.combinational import (
    CombinationalTrojan,
    build_combinational_trojan,
    default_scanned_bits,
)

from oracles import round_activity


def test_default_scanned_bits():
    assert default_scanned_bits(32) == list(range(32))
    assert len(default_scanned_bits(128)) == BLOCK_BITS
    with pytest.raises(ValueError):
        default_scanned_bits(0)
    with pytest.raises(ValueError):
        default_scanned_bits(129)


def test_constructor_validation():
    with pytest.raises(ValueError):
        CombinationalTrojan("bad", scanned_bits=[])
    with pytest.raises(ValueError):
        CombinationalTrojan("bad", scanned_bits=[1, 1])
    with pytest.raises(ValueError):
        CombinationalTrojan("bad", scanned_bits=[200])
    with pytest.raises(ValueError):
        build_combinational_trojan("bad", 4, scanned_bits=[0, 1, 2])


def test_structure_and_kind(small_trojan):
    assert small_trojan.kind == TrojanKind.COMBINATIONAL
    assert len(small_trojan.tapped_host_nets) == 8
    assert len(small_trojan.tap_input_nets) == 8
    assert small_trojan.lut_count() > 0
    assert small_trojan.cell_count() > 0
    assert small_trojan.slice_count() == pytest.approx(small_trojan.lut_count() / 4)


def test_tapped_host_nets_are_state_register_bits(small_trojan):
    assert all(net.startswith("st_b") for net in small_trojan.tapped_host_nets)


def test_trigger_fires_only_on_all_ones():
    trojan = build_combinational_trojan("t", 8)
    all_ones = bytes([0xFF] + [0x00] * 15)
    assert trojan.is_triggered(all_ones)
    almost = bytes([0xFE] + [0x00] * 15)
    assert not trojan.is_triggered(almost)
    assert not trojan.is_triggered(bytes(16))


def test_trigger_probability_is_negligible_for_random_states(rng):
    trojan = build_combinational_trojan("t", 32)
    for _ in range(50):
        state = bytes(int(x) for x in rng.integers(0, 256, size=16))
        # The scanned 32 bits are all-1 with probability 2^-32.
        if state[:4] != b"\xff\xff\xff\xff":
            assert not trojan.is_triggered(state)


def test_tap_values_follow_state_bits(small_trojan):
    state = bytes([0b10100101] + [0] * 15)
    values = small_trojan.tap_values(state)
    expected_bits = [1, 0, 1, 0, 0, 1, 0, 1]  # MSB-first paper bits 0..7
    for tap_net, expected in zip(small_trojan.tap_input_nets, expected_bits):
        assert values[tap_net] == expected


def test_round_activity_counts_toggles(small_trojan):
    quiet = round_activity(small_trojan, bytes(16), bytes(16))
    assert quiet.output_toggles == 0
    assert quiet.input_pin_toggles == 0
    busy = round_activity(small_trojan, bytes(16), bytes([0xFF] * 16))
    assert busy.input_pin_toggles >= 8
    assert busy.weighted() > 0


def test_encryption_activity_length(small_trojan):
    states = np.array([[[k] * 16 for k in range(5)]], dtype=np.uint8)
    output_toggles, pin_toggles = \
        small_trojan.encryption_activity_counts(states)
    assert output_toggles.shape == pin_toggles.shape == (1, 4)


def test_payload_is_dormant_without_trigger():
    trojan = build_combinational_trojan("t", 8, payload_luts=5)
    values = trojan.netlist.evaluate(trojan.tap_values(bytes(16)))
    payload_nets = [net for net in values if net.startswith("payload_")]
    assert payload_nets
    assert all(values[net] == 0 for net in payload_nets)


def test_payload_increases_area():
    bare = build_combinational_trojan("t", 16, payload_luts=0)
    padded = build_combinational_trojan("t", 16, payload_luts=20)
    assert padded.lut_count() == pytest.approx(bare.lut_count() + 20)
