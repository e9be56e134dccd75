"""Tests for the sequential (counter) trojan."""

import pytest

from repro.trojan.base import TrojanKind
from repro.trojan.sequential import SequentialTrojan, build_sequential_trojan

from oracles import (
    NO_ACTIVITY,
    counter_register_values,
    is_triggered_at,
    netlist_stats,
    next_register_values,
    round_activity,
    tap_values,
)


def test_kind_and_structure(sequential_trojan):
    assert sequential_trojan.kind == TrojanKind.SEQUENTIAL
    assert sequential_trojan.tapped_host_nets == []
    assert sequential_trojan.counter_width == 8
    stats = netlist_stats(sequential_trojan.netlist)
    assert stats["DFF"] >= 8


def test_constructor_validation():
    with pytest.raises(ValueError):
        SequentialTrojan("bad", counter_width=1)
    with pytest.raises(ValueError):
        SequentialTrojan("bad", counter_width=8, compare_value=256)
    with pytest.raises(ValueError):
        SequentialTrojan("bad", increment_round=0)


def test_counter_register_values_encoding(sequential_trojan):
    values = counter_register_values(sequential_trojan, 0b1011)
    assert values["cnt_q0"] == 1
    assert values["cnt_q1"] == 1
    assert values["cnt_q2"] == 0
    assert values["cnt_q3"] == 1
    # Values wrap at the counter width.
    wrapped = counter_register_values(sequential_trojan, 1 << 8)
    assert all(bit == 0 for bit in wrapped.values())


def test_comparator_fires_only_at_compare_value():
    trojan = SequentialTrojan("t", counter_width=8, compare_value=0x5A)
    assert is_triggered_at(trojan, 0x5A)
    assert not is_triggered_at(trojan, 0x59)
    assert not is_triggered_at(trojan, 0)


def test_default_compare_value_unreachable(sequential_trojan):
    assert sequential_trojan.compare_value == (1 << 8) - 1
    for value in range(0, 200, 13):
        if value != sequential_trojan.compare_value:
            assert not is_triggered_at(sequential_trojan, value)


def test_counter_increment_logic(sequential_trojan):
    """The ripple-carry increment produces value + 1 at the D inputs."""
    netlist = sequential_trojan.netlist
    for value in (0, 1, 7, 127, 254):
        regs = counter_register_values(sequential_trojan, value)
        next_regs = next_register_values(netlist, {"inc": 1}, regs)
        observed = sum(next_regs[f"cnt_q{bit}"] << bit for bit in range(8))
        assert observed == (value + 1) % 256


def test_counter_holds_without_increment(sequential_trojan):
    netlist = sequential_trojan.netlist
    regs = counter_register_values(sequential_trojan, 37)
    next_regs = next_register_values(netlist, {"inc": 0}, regs)
    observed = sum(next_regs[f"cnt_q{bit}"] << bit for bit in range(8))
    assert observed == 37


def test_round_activity_only_at_increment_round(sequential_trojan):
    silent = round_activity(sequential_trojan, bytes(16), bytes(16),
                            encryption_index=5, round_index=3)
    assert silent == NO_ACTIVITY
    active = round_activity(sequential_trojan, bytes(16), bytes(16),
                            encryption_index=5, round_index=10)
    assert active.output_toggles > 0


def test_activity_larger_on_carry_chains(sequential_trojan):
    """Incrementing 0b0111...1 flips many bits; incrementing an even value flips one."""
    few = round_activity(sequential_trojan, bytes(16), bytes(16),
                         encryption_index=0, round_index=10)
    many = round_activity(sequential_trojan, bytes(16), bytes(16),
                          encryption_index=127, round_index=10)
    assert many.output_toggles > few.output_toggles


def test_tap_values_empty(sequential_trojan):
    assert tap_values(sequential_trojan, bytes(16)) == {}


def test_build_helper_with_payload():
    bare = build_sequential_trojan("s", counter_width=8, payload_luts=0)
    padded = build_sequential_trojan("s", counter_width=8, payload_luts=10)
    assert padded.lut_count() == pytest.approx(bare.lut_count() + 10)
