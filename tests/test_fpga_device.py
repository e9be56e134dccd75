"""Unit tests for FPGA device models and floorplans."""

import pytest

from repro.fpga.device import (
    AES_SLICE_UTILISATION,
    FPGADevice,
    aes_slice_budget,
    virtex5_lx30,
)
from repro.fpga.floorplan import Floorplan, Region, default_floorplan


def test_virtex5_lx30_parameters():
    device = virtex5_lx30()
    assert device.total_slices == 4800
    assert device.technology_nm == 65
    assert device.luts_per_slice == 4
    assert device.nominal_clock_period_ns == pytest.approx(1000.0 / 24.0)
    assert device.nominal_clock_period_ps == pytest.approx(1e6 / 24.0)


def test_device_validation():
    with pytest.raises(ValueError):
        FPGADevice("bad", 65, 0, 10, 4, 4, 1.0, 10.0)
    with pytest.raises(ValueError):
        FPGADevice("bad", 65, 10, 10, 0, 4, 1.0, 10.0)


def test_device_contains():
    device = virtex5_lx30()
    assert device.contains(0, 0)
    assert device.contains(device.rows - 1, device.columns - 1)
    assert not device.contains(device.rows, 0)
    assert not device.contains(0, -1)


def test_aes_slice_budget_matches_paper_utilisation():
    device = virtex5_lx30()
    budget = aes_slice_budget(device)
    assert budget == round(4800 * AES_SLICE_UTILISATION)
    assert device.slice_fraction(budget) == pytest.approx(AES_SLICE_UTILISATION,
                                                          abs=1e-3)


def test_region_geometry():
    region = Region("r", 2, 3, 5, 7)
    assert region.rows == 4
    assert region.columns == 5
    assert region.slice_count == 20
    assert region.center == (3.5, 5.0)
    slices = list(region.iter_slices())
    assert len(slices) == 20
    assert (2, 3) in slices and (6, 3) not in slices


def test_region_validation():
    with pytest.raises(ValueError):
        Region("bad", 5, 0, 2, 3)
    with pytest.raises(ValueError):
        Region("bad", -1, 0, 2, 3)


def test_region_overlap_detection():
    a = Region("a", 0, 0, 4, 4)
    b = Region("b", 3, 3, 6, 6)
    c = Region("c", 5, 5, 8, 8)
    assert a.overlaps(b)
    assert b.overlaps(a)
    assert not a.overlaps(c)


def test_default_floorplan_structure():
    device = virtex5_lx30()
    plan = default_floorplan(device)
    plan.validate()
    assert plan.aes_region.slice_count >= aes_slice_budget(device) * 0.9
    assert sum(region.slice_count for region in plan.free_regions) > 0
    for region in plan.free_regions:
        assert not region.overlaps(plan.aes_region)


def test_default_floorplan_rejects_bad_utilisation():
    with pytest.raises(ValueError):
        default_floorplan(virtex5_lx30(), aes_utilisation=0.0)
    with pytest.raises(ValueError):
        default_floorplan(virtex5_lx30(), aes_utilisation=1.0)


def test_floorplan_validate_rejects_out_of_device_regions():
    device = virtex5_lx30()
    bad = Floorplan(
        device=device,
        aes_region=Region("aes", 0, 0, device.rows + 5, 10),
        free_regions=(),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_floorplan_validate_rejects_overlapping_free_region():
    device = virtex5_lx30()
    bad = Floorplan(
        device=device,
        aes_region=Region("aes", 0, 0, 10, 10),
        free_regions=(Region("free", 5, 5, 20, 20),),
    )
    with pytest.raises(ValueError):
        bad.validate()
