"""Unit tests for slice maps, placement and routing."""

import pytest
from oracles import make_xor

from repro.fpga.device import virtex5_lx30
from repro.fpga.floorplan import Region
from repro.fpga.placement import Placer, net_endpoints
from repro.fpga.routing import Router, added_tap_delay_ps
from repro.fpga.slices import PlacementError, SliceMap, manhattan_distance
from repro.netlist.cells import make_dff, make_lut
from repro.netlist.netlist import Netlist


@pytest.fixture()
def device():
    return virtex5_lx30()


def small_netlist() -> Netlist:
    netlist = Netlist("small")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_cell(make_xor("x0", "a", "b", "n0"))
    netlist.add_cell(make_xor("x1", "n0", "b", "n1"))
    netlist.add_cell(make_dff("r0", "n1", "q0"))
    netlist.add_output("q0")
    return netlist


def test_manhattan_distance():
    assert manhattan_distance((0, 0), (3, 4)) == 7
    assert manhattan_distance((2, 2), (2, 2)) == 0


def test_slice_map_capacity_enforced(device):
    slice_map = SliceMap(device)
    for index in range(device.luts_per_slice):
        slice_map.place_cell(f"lut{index}", (0, 0))
    with pytest.raises(PlacementError):
        slice_map.place_cell("overflow", (0, 0))


def test_slice_map_rejects_duplicates_and_out_of_bounds(device):
    slice_map = SliceMap(device)
    slice_map.place_cell("c0", (0, 0))
    with pytest.raises(PlacementError):
        slice_map.place_cell("c0", (0, 1))
    with pytest.raises(PlacementError):
        slice_map.place_cell("c1", (device.rows, 0))


def test_slice_map_queries(device):
    slice_map = SliceMap(device)
    slice_map.place_cell("c0", (0, 0))
    slice_map.place_cell("c1", (0, 1), uses_lut=False, uses_ff=True)
    assert slice_map.used_slice_count() == 2
    assert slice_map.occupied_slices() == {(0, 0), (0, 1)}
    assert slice_map.usage((0, 1)).cells == ["c1"]
    assert (slice_map.usage((0, 1)).luts_used,
            slice_map.usage((0, 1)).ffs_used) == (0, 1)


def test_placer_places_all_cells_inside_region(device):
    netlist = small_netlist()
    region = Region("r", 0, 0, 3, 3)
    placement = Placer(device).place(netlist, region)
    assert len(placement.cell_positions) == len(netlist.cells)
    for coord in placement.cell_positions.values():
        assert coord in set(region.iter_slices())


def test_placer_is_deterministic(device):
    netlist = small_netlist()
    region = Region("r", 0, 0, 3, 3)
    p1 = Placer(device).place(netlist, region)
    p2 = Placer(device).place(netlist, region)
    assert p1.cell_positions == p2.cell_positions


def test_placer_respects_avoid_list(device):
    netlist = small_netlist()
    region = Region("r", 0, 0, 1, 1)
    avoid = [(0, 0)]
    placement = Placer(device).place(netlist, region, avoid=avoid)
    assert all(coord != (0, 0) for coord in placement.cell_positions.values())


def test_placer_raises_when_region_full(device):
    # A 1x1 region cannot host 9 LUT cells on a 4-LUT slice.
    netlist = Netlist("big")
    netlist.add_input("a")
    previous = "a"
    for index in range(9):
        net = f"n{index}"
        netlist.add_cell(make_lut(f"l{index}", [previous], net, (0, 1)))
        previous = net
    netlist.add_output(previous)
    with pytest.raises(PlacementError):
        Placer(device).place(netlist, Region("tiny", 0, 0, 0, 0))


def test_placer_rejects_empty_usable_region(device):
    netlist = small_netlist()
    region = Region("r", 0, 0, 0, 0)
    with pytest.raises(PlacementError):
        Placer(device).place(netlist, region, avoid=[(0, 0)])


def test_net_endpoints_and_router(device):
    netlist = small_netlist()
    region = Region("r", 0, 0, 3, 3)
    placement = Placer(device).place(netlist, region)
    driver, loads = net_endpoints(netlist, placement, "n0")
    assert driver == placement.cell_positions["x0"]
    assert placement.cell_positions["x1"] in loads

    router = Router()
    routed = router.route(netlist, placement)
    assert set(routed) == netlist.nets()
    for net, info in routed.items():
        assert info.delay_ps >= router.base_delay_ps
    delays = router.net_delays(netlist, placement)
    assert delays.keys() == routed.keys()


def test_router_delay_grows_with_distance_and_fanout():
    router = Router(base_delay_ps=100, delay_per_hop_ps=10, delay_per_load_ps=5)
    device = virtex5_lx30()
    netlist = Netlist("fanout")
    netlist.add_input("a")
    netlist.add_cell(make_lut("src", ["a"], "n0", (0, 1)))
    for index in range(3):
        netlist.add_cell(make_lut(f"load{index}", ["n0"], f"o{index}", (0, 1)))
        netlist.add_output(f"o{index}")
    placement = Placer(device).place(netlist, Region("r", 0, 0, 40, 40))
    routed = Router().route_net(netlist, placement, "n0")
    assert routed.fanout == 3
    single = Router().route_net(netlist, placement, "o0")
    assert routed.delay_ps >= single.delay_ps


def test_router_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        Router(base_delay_ps=-1)


def test_added_tap_delay_model():
    assert added_tap_delay_ps(0) == 0.0
    assert added_tap_delay_ps(2) == pytest.approx(2 * added_tap_delay_ps(1))
    with pytest.raises(ValueError):
        added_tap_delay_ps(-1)
