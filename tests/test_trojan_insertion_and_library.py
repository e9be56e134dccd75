"""Tests for trojan insertion and the trojan catalog."""

import pytest

from repro.trojan.insertion import InsertionError, insert_trojan
from repro.trojan.library import TROJAN_SPECS, build_trojan
from repro.trojan.payload import payload_luts_for_target_area


def test_insertion_preserves_golden_layout(golden_design, infected_design):
    golden_slices = set(golden_design.placement.slice_map.occupied_slices())
    for coord in infected_design.trojan_placement.cell_positions.values():
        assert coord not in golden_slices
    infected_design.verify_layout_preserved()
    # The golden design object is shared, not copied.
    assert infected_design.golden is golden_design


def test_insertion_reports_tap_loading(golden_design, infected_design):
    taps = infected_design.tap_extra_delay_ps
    assert set(taps) == set(infected_design.trojan.tapped_host_nets)
    assert all(extra > 0 for extra in taps.values())
    assert all(net in golden_design.netlist.nets() for net in taps)


def test_insertion_area_accounting(infected_design):
    assert infected_design.trojan_slice_count() > 0
    assert 0 < infected_design.area_fraction_of_aes() < 0.05
    assert infected_design.area_fraction_of_device() < \
        infected_design.area_fraction_of_aes()


def test_insertion_rejects_unknown_tapped_net(golden_design, small_trojan):
    small_trojan_bad = small_trojan
    original = list(small_trojan_bad.tapped_host_nets)
    small_trojan_bad.tapped_host_nets[0] = "no_such_net"
    try:
        with pytest.raises(InsertionError):
            insert_trojan(golden_design, small_trojan_bad)
    finally:
        small_trojan_bad.tapped_host_nets[:] = original


def test_insertion_of_sequential_trojan(golden_design, sequential_trojan):
    infected = insert_trojan(golden_design, sequential_trojan)
    assert infected.tap_extra_delay_ps == {}
    assert infected.trojan_slice_count() > 0
    assert infected.aggressor_positions()


def test_catalog_names_and_specs():
    assert set(TROJAN_SPECS) == {"HT_comb", "HT_seq", "HT1", "HT2", "HT3"}
    assert TROJAN_SPECS["HT3"].trigger_width == 128
    with pytest.raises(KeyError):
        build_trojan("HT_unknown")


def test_catalog_sizes_match_paper_fractions(golden_design):
    device = golden_design.device
    expected = {"HT1": 0.005, "HT2": 0.010, "HT3": 0.017}
    for name, fraction in expected.items():
        trojan = build_trojan(name, device)
        infected = insert_trojan(golden_design, trojan)
        assert infected.area_fraction_of_aes() == pytest.approx(fraction, rel=0.25)


def test_catalog_size_ordering(golden_design):
    sweep = [build_trojan(name, golden_design.device)
             for name in ("HT1", "HT2", "HT3")]
    luts = [trojan.lut_count() for trojan in sweep]
    assert luts[0] < luts[1] < luts[2]


def test_ht_comb_matches_section2_footprint(golden_design, ht_comb):
    infected = insert_trojan(golden_design, ht_comb)
    # Paper: 0.19 % of the FPGA slices; accept a modest modelling margin.
    assert infected.area_fraction_of_device() == pytest.approx(0.0019, rel=0.35)


def test_payload_padding_helper():
    assert payload_luts_for_target_area(40, 10) == 30
    assert payload_luts_for_target_area(5, 10) == 0
    with pytest.raises(ValueError):
        payload_luts_for_target_area(-1, 0)
