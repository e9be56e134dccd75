"""Compiled-kernel equivalence with the interpreted netlist walks.

The compiled kernel (:mod:`repro.netlist.compiled`) is a pure
performance refactor: for every catalog trojan netlist and for the AES
last-round circuit, batched evaluation and two-vector timing must
reproduce the interpreted reference **bit for bit** — identical net
values, identical arrival times including the NaN/stable-net handling,
identical toggle counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.aes_round_circuit import AESLastRoundCircuit
from repro.netlist.cells import make_dff, make_lut, make_mux2, Cell, CellType
from repro.netlist.compiled import CompiledTimingEngine
from repro.netlist.netlist import Netlist, NetlistError
from repro.trojan.library import TROJAN_SPECS, build_trojan

from oracles import (
    DelayAnnotation,
    build_sbox_netlist,
    delay_vectors,
    compiled_evaluate,
    make_xor,
    TimingEngine,
    encryption_activity_interpreted,
    evaluate_interpreted,
    input_values,
    two_vector_result,
)

pytestmark = []


@pytest.fixture(scope="module")
def circuit():
    return AESLastRoundCircuit.build()


@pytest.fixture(scope="module")
def trojans():
    return {name: build_trojan(name) for name in list(TROJAN_SPECS)}


def _random_annotation(netlist: Netlist, seed: int,
                       scale: float = 1.0) -> DelayAnnotation:
    rng = np.random.default_rng(seed)
    annotation = DelayAnnotation(cell_scale=scale)
    cell_names = list(netlist.cells)
    for name in cell_names[:: max(1, len(cell_names) // 40)]:
        annotation.cell_offsets_ps[name] = float(rng.normal(0.0, 8.0))
    nets = sorted(netlist.nets())
    for net in nets[:: max(1, len(nets) // 40)]:
        annotation.net_delays_ps[net] = (annotation.default_net_delay_ps
                                         + float(abs(rng.normal(0.0, 30.0))))
    return annotation


def _random_inputs(netlist: Netlist, rng) -> dict:
    return {net: int(rng.integers(0, 2)) for net in netlist.inputs}


# -- value equivalence ----------------------------------------------------


@pytest.mark.parametrize("trojan_name", list(TROJAN_SPECS))
def test_trojan_values_match_interpreted(trojans, trojan_name):
    netlist = trojans[trojan_name].netlist
    compiled = netlist.compiled()
    rng = np.random.default_rng(hash(trojan_name) % 2**32)
    for _ in range(5):
        stimulus = _random_inputs(netlist, rng)
        reference = netlist.evaluate(stimulus)
        result = compiled_evaluate(compiled, stimulus)
        assert result == reference


def test_circuit_values_match_interpreted(circuit):
    netlist = circuit.netlist
    compiled = netlist.compiled()
    rng = np.random.default_rng(11)
    stimulus = _random_inputs(netlist, rng)
    assert compiled_evaluate(compiled, stimulus) == netlist.evaluate(stimulus)


def test_circuit_evaluate_batch_matches_interpreted(circuit):
    rng = np.random.default_rng(5)
    states = [bytes(int(x) for x in rng.integers(0, 256, 16))
              for _ in range(8)]
    keys = [bytes(int(x) for x in rng.integers(0, 256, 16))
            for _ in range(8)]
    batch = circuit.evaluate_batch(states, keys)
    for state, key, result in zip(states, keys, batch):
        assert result == evaluate_interpreted(circuit, state, key)


def test_register_values_match_interpreted():
    netlist = Netlist(name="regs")
    netlist.add_input("a")
    netlist.add_cell(make_xor("x", "a", "q", "d"))
    netlist.add_cell(make_dff("r", "d", "q", init=1))
    netlist.add_output("d")
    compiled = netlist.compiled()
    for registers in (None, {"q": 0}, {"q": 1}, {"q": 1, "stray": 1}):
        for a in (0, 1):
            reference = netlist.evaluate({"a": a}, registers)
            assert compiled_evaluate(compiled, {"a": a}, registers) == reference


def test_constants_and_mux_match_interpreted():
    netlist = Netlist(name="mix")
    netlist.add_input("s")
    netlist.add_input("b")
    netlist.add_cell(Cell("one", CellType.CONST1, (), "c1"))
    netlist.add_cell(Cell("zero", CellType.CONST0, (), "c0"))
    netlist.add_cell(make_mux2("m", "s", "c0", "b", "y"))
    netlist.add_cell(make_lut("l", ["y", "c1"], "z", (0, 1, 1, 0)))
    netlist.add_output("z")
    compiled = netlist.compiled()
    for s in (0, 1):
        for b in (0, 1):
            stimulus = {"s": s, "b": b}
            assert compiled_evaluate(compiled, stimulus) == netlist.evaluate(stimulus)


def test_missing_primary_input_raises(circuit):
    compiled = circuit.netlist.compiled()
    with pytest.raises(NetlistError):
        compiled_evaluate(compiled, {"st_b0_0": 1})


# -- two-vector timing equivalence ------------------------------------------


@pytest.mark.parametrize("trojan_name", list(TROJAN_SPECS))
def test_trojan_two_vector_timing_matches_interpreted(trojans, trojan_name):
    netlist = trojans[trojan_name].netlist
    annotation = _random_annotation(netlist, seed=3, scale=1.07)
    interpreted = TimingEngine(netlist, annotation, input_arrival_ps=25.0)
    compiled = CompiledTimingEngine(netlist.compiled(),
                                    delay_vectors(annotation, netlist),
                                    input_arrival_ps=25.0)
    rng = np.random.default_rng(17)
    for _ in range(3):
        before = _random_inputs(netlist, rng)
        after = _random_inputs(netlist, rng)
        reference = interpreted.two_vector_arrival_times(before, after)
        result = two_vector_result(compiled, before, after)
        assert result.values_before == reference.values_before
        assert result.values_after == reference.values_after
        # Bit-identical arrivals, including None for stable nets.
        assert result.arrival_ps == reference.arrival_ps


def test_circuit_timing_broadcast_over_dies(circuit):
    """One batched pass over (pairs x dies) equals per-die interpreted runs."""
    netlist = circuit.netlist
    annotations = [_random_annotation(netlist, seed=die, scale=1.0 + 0.04 * die)
                   for die in range(3)]
    engine = CompiledTimingEngine(
        netlist.compiled(),
        [delay_vectors(annotation, netlist) for annotation in annotations])
    rng = np.random.default_rng(23)
    pairs = []
    for _ in range(4):
        state = bytes(int(x) for x in rng.integers(0, 256, 16))
        key = bytes(int(x) for x in rng.integers(0, 256, 16))
        pairs.append(input_values(circuit, state, key))
    input_nets = list(netlist.inputs)
    rows = np.array([[vector[net] for net in input_nets] for vector in pairs],
                    dtype=np.uint8)
    before_rows, after_rows = rows[:-1], rows[1:]
    _, _, arrivals = engine.two_vector_arrivals(before_rows, after_rows,
                                                input_nets)
    endpoints = engine.endpoint_arrivals(arrivals, circuit.output_d_nets())

    for die, annotation in enumerate(annotations):
        interpreted = TimingEngine(netlist, annotation)
        for pair_index in range(before_rows.shape[0]):
            reference = interpreted.two_vector_arrival_times(
                pairs[pair_index], pairs[pair_index + 1]
            )
            reference_endpoints = interpreted.endpoint_delays(
                reference, circuit.output_d_nets()
            )
            for bit, net in enumerate(circuit.output_d_nets()):
                expected = reference_endpoints[net]
                observed = endpoints[pair_index, die, bit]
                if expected is None:
                    assert np.isnan(observed)
                else:
                    assert observed == expected  # bit-identical float


def test_stable_transition_is_all_nan(circuit):
    """Identical before/after vectors leave every net stable (all NaN)."""
    netlist = circuit.netlist
    engine = CompiledTimingEngine(netlist.compiled(),
                                  delay_vectors(DelayAnnotation(), netlist))
    vector = input_values(circuit, bytes(16), bytes(16))
    rows = np.array([[vector[net] for net in netlist.inputs]], dtype=np.uint8)
    _, _, arrivals = engine.two_vector_arrivals(rows, rows)
    assert np.all(np.isnan(arrivals))


# -- trojan activity equivalence -------------------------------------------


@pytest.mark.parametrize("trojan_name", list(TROJAN_SPECS))
def test_encryption_activity_matches_interpreted(trojans, trojan_name):
    trojan = trojans[trojan_name]
    rng = np.random.default_rng(29)
    states = [bytes(int(x) for x in rng.integers(0, 256, 16))
              for _ in range(12)]
    for encryption_index in (0, 3, 1023):
        reference = encryption_activity_interpreted(
            trojan, states, encryption_index=encryption_index
        )
        output_toggles, pin_toggles = trojan.encryption_activity_counts(
            np.array([[list(state) for state in states]], dtype=np.uint8),
            [encryption_index],
        )
        assert output_toggles[0].tolist() == \
            [activity.output_toggles for activity in reference]
        assert pin_toggles[0].tolist() == \
            [activity.input_pin_toggles for activity in reference]


# -- cache maintenance -------------------------------------------------------


def test_add_cell_maintains_driver_cache_incrementally():
    netlist = Netlist(name="incremental")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_cell(make_xor("x0", "a", "b", "n0"))
    cache = netlist.__dict__.get("_driver_cache")
    assert cache is not None and "n0" in cache
    netlist.add_cell(make_xor("x1", "a", "n0", "n1"))
    # Same dict object, updated in place — not rebuilt per added cell.
    assert netlist.__dict__["_driver_cache"] is cache
    assert cache["n1"] is netlist.cells["x1"]
    assert netlist.driver_of("n1") is netlist.cells["x1"]
    assert netlist.driver_of("a") is None


def test_structural_edit_invalidates_compiled_cache():
    netlist = Netlist(name="invalidate")
    netlist.add_input("a")
    netlist.add_cell(make_xor("x0", "a", "a", "n0"))
    netlist.add_output("n0")
    first = netlist.compiled()
    assert netlist.compiled() is first  # cached
    netlist.add_cell(make_xor("x1", "a", "n0", "n1"))
    second = netlist.compiled()
    assert second is not first
    assert compiled_evaluate(second, {"a": 1})["n1"] == \
        netlist.evaluate({"a": 1})["n1"]


def test_compiled_netlist_shape(circuit):
    compiled = circuit.netlist.compiled()
    num_comb_cells = len(compiled.comb_cell_names)
    assert num_comb_cells == len(circuit.netlist.topological_order())
    assert compiled.num_nets == len(circuit.netlist.nets())
    # Levels partition the combinational cells.
    covered = sum(end - start for start, end in compiled.level_slices)
    assert covered == num_comb_cells


# -- static critical path ------------------------------------------------------


def test_circuit_critical_path_matches_interpreted_per_die(circuit):
    """One levelised max sweep over every die equals per-die interpreted
    static timing, bit for bit, for default and explicit endpoints."""
    netlist = circuit.netlist
    annotations = [_random_annotation(netlist, seed=40 + die,
                                      scale=1.0 + 0.03 * die)
                   for die in range(3)]
    engine = CompiledTimingEngine(
        netlist, [delay_vectors(annotation, netlist)
                  for annotation in annotations], input_arrival_ps=12.5)
    some_nets = circuit.output_d_nets()[:5] + ["not_a_net"]
    for nets in (None, some_nets):
        paths = engine.critical_path_ps(nets)
        assert paths.shape == (3,)
        for die, annotation in enumerate(annotations):
            reference = TimingEngine(netlist, annotation,
                                     input_arrival_ps=12.5)
            assert paths[die] == reference.critical_path_ps(nets)


@pytest.mark.parametrize("trojan_name", list(TROJAN_SPECS))
def test_trojan_critical_path_matches_interpreted(trojans, trojan_name):
    netlist = trojans[trojan_name].netlist
    annotation = _random_annotation(netlist, seed=5, scale=0.97)
    engine = CompiledTimingEngine(netlist, delay_vectors(annotation, netlist))
    assert engine.critical_path_ps()[0] == \
        TimingEngine(netlist, annotation).critical_path_ps()


def test_critical_path_without_observable_nets_raises(circuit):
    engine = CompiledTimingEngine(
        circuit.netlist, delay_vectors(DelayAnnotation(), circuit.netlist))
    with pytest.raises(NetlistError, match="no observable nets"):
        engine.critical_path_ps(["not_a_net"])


# -- exhaustive tables and random netlists -------------------------------------


def _single_lut_netlist(table):
    arity = len(table).bit_length() - 1
    netlist = Netlist("one", inputs=[f"pi{pin}" for pin in range(arity)])
    netlist.add_cell(make_lut("cell", [f"pi{pin}" for pin in range(arity)],
                              "out", table))
    return netlist


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_every_small_table_evaluates_exactly(arity):
    """Exhaustive over all 2**2**k truth tables for k <= 3, on all 2**k
    input combinations at once."""
    size = 1 << arity
    stimuli = np.array([[(index >> pin) & 1 for pin in range(arity)]
                        for index in range(size)], dtype=np.uint8)
    for encoded in range(1 << size):
        table = tuple((encoded >> entry) & 1 for entry in range(size))
        compiled = _single_lut_netlist(table).compiled()
        values = compiled.evaluate_batch(stimuli)
        out_col = compiled.net_index["out"]
        assert [int(v) for v in values[:, out_col]] == list(table)


@given(arity=st.integers(4, 6), data=st.data())
@settings(max_examples=30, deadline=None)
def test_wide_random_tables_evaluate_exactly(arity, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    table = tuple(int(bit) for bit in rng.integers(0, 2, size=1 << arity))
    compiled = _single_lut_netlist(table).compiled()
    stimuli = rng.integers(0, 2, size=(97, arity), dtype=np.uint8)
    values = compiled.evaluate_batch(stimuli)
    addresses = (stimuli.astype(np.int64) << np.arange(arity)).sum(axis=1)
    expected = np.array(table, dtype=np.uint8)[addresses]
    assert np.array_equal(values[:, compiled.net_index["out"]], expected)


@st.composite
def random_netlists(draw):
    """Random netlists covering DFFs, constants, MUXes and LUTs."""
    num_inputs = draw(st.integers(1, 5))
    netlist = Netlist("rand",
                      inputs=[f"pi{index}" for index in range(num_inputs)])
    nets = list(netlist.inputs)
    if draw(st.booleans()):
        netlist.add_cell(Cell("konst0", CellType.CONST0, (), "k0"))
        nets.append("k0")
    if draw(st.booleans()):
        netlist.add_cell(Cell("konst1", CellType.CONST1, (), "k1"))
        nets.append("k1")
    for index in range(draw(st.integers(1, 10))):
        out = f"n{index}"
        kind = draw(st.sampled_from(
            ["lut", "lut", "mux", "dff", "xor", "and", "inv"]))
        if kind == "lut":
            arity = draw(st.integers(1, 4))
            pins = [draw(st.sampled_from(nets)) for _ in range(arity)]
            table = draw(st.lists(st.integers(0, 1), min_size=1 << arity,
                                  max_size=1 << arity))
            netlist.add_cell(make_lut(f"c{index}", pins, out, table))
        elif kind == "mux":
            netlist.add_cell(make_mux2(
                f"c{index}", draw(st.sampled_from(nets)),
                draw(st.sampled_from(nets)), draw(st.sampled_from(nets)),
                out))
        elif kind == "dff":
            netlist.add_cell(make_dff(f"c{index}",
                                      draw(st.sampled_from(nets)), out,
                                      init=draw(st.integers(0, 1))))
        elif kind == "xor":
            netlist.add_cell(Cell(f"c{index}", CellType.XOR2,
                                  (draw(st.sampled_from(nets)),
                                   draw(st.sampled_from(nets))), out))
        elif kind == "and":
            netlist.add_cell(Cell(f"c{index}", CellType.AND2,
                                  (draw(st.sampled_from(nets)),
                                   draw(st.sampled_from(nets))), out))
        else:
            netlist.add_cell(Cell(f"c{index}", CellType.INV,
                                  (draw(st.sampled_from(nets)),), out))
        nets.append(out)
    return netlist


@given(netlist=random_netlists(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_netlists_batch_equals_interpreted(netlist, data):
    """Random netlists with DFFs and constants, stray stimulus nets,
    ragged batch sizes and the zero-vector batch: every evaluated row
    equals the interpreted walk."""
    compiled = netlist.compiled()
    num_vectors = data.draw(st.sampled_from([0, 1, 5, 63, 64, 65, 130]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    input_nets = list(netlist.inputs)
    if data.draw(st.booleans()):  # stray nets the netlist does not know
        input_nets += ["stray_a", "stray_b"]
    rows = rng.integers(0, 2, size=(num_vectors, len(input_nets)),
                        dtype=np.uint8)

    register_rows = None
    register_nets = None
    dff_nets = sorted(compiled.dff_index)
    if dff_nets and data.draw(st.booleans()):
        register_nets = dff_nets
        register_rows = rng.integers(0, 2,
                                     size=(num_vectors, len(dff_nets)),
                                     dtype=np.uint8)

    values = compiled.evaluate_batch(rows, input_nets,
                                     register_rows, register_nets)
    assert values.dtype == np.uint8
    assert values.shape == (num_vectors, compiled.num_nets)

    for vector in range(min(num_vectors, 3)):
        stimulus = {net: int(rows[vector, position])
                    for position, net in enumerate(input_nets)}
        registers = None
        if register_nets is not None:
            registers = {net: int(register_rows[vector, position])
                         for position, net in enumerate(register_nets)}
        walked = netlist.evaluate(stimulus, registers)
        for net, column in compiled.net_index.items():
            assert int(values[vector, column]) == walked[net], net


# -- duplicate stimulus nets ---------------------------------------------------


def _two_input_netlist():
    netlist = Netlist("dup", inputs=["a", "b"])
    netlist.add_cell(Cell("g", CellType.XOR2, ("a", "b"), "y"))
    netlist.add_cell(make_dff("r", "y", "q"))
    return netlist


def test_duplicate_known_input_nets_raise():
    compiled = _two_input_netlist().compiled()
    rows = np.zeros((4, 3), dtype=np.uint8)
    with pytest.raises(NetlistError, match=r"duplicate stimulus net\(s\)"):
        compiled.evaluate_batch(rows, ["a", "b", "a"])


def test_duplicate_register_nets_raise_but_stray_duplicates_do_not():
    compiled = _two_input_netlist().compiled()
    rows = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(NetlistError, match=r"duplicate register net\(s\)"):
        compiled.evaluate_batch(rows, ["a", "b"],
                                np.zeros((2, 2), dtype=np.uint8),
                                ["q", "q"])
    # Stray (unknown) nets are ignored, duplicated or not — matching the
    # interpreted walk, which accepts and ignores stray stimulus keys.
    stray = np.zeros((2, 4), dtype=np.uint8)
    values = compiled.evaluate_batch(stray, ["a", "b", "ghost", "ghost"])
    assert values.shape == (2, compiled.num_nets)
    # Register entries for non-DFF nets are ignored even when duplicated.
    values = compiled.evaluate_batch(rows, ["a", "b"],
                                     np.zeros((2, 2), dtype=np.uint8),
                                     ["ghost", "ghost"])
    assert values.shape == (2, compiled.num_nets)


# -- lean toggle counts --------------------------------------------------------


@given(groups=st.integers(1, 4), states=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1), as_3d=st.booleans())
@settings(max_examples=40, deadline=None)
def test_toggle_counts_match_full_tensor_reference(groups, states, seed,
                                                   as_3d):
    compiled = build_sbox_netlist().compiled()
    rng = np.random.default_rng(seed)
    shape = ((groups, states, compiled.num_nets) if as_3d
             else (states, compiled.num_nets))
    values = rng.integers(0, 2, size=shape, dtype=np.uint8)

    # Full (groups x states x nets) toggle tensor, then two column
    # gathers: the direct definition the lean kernel must equal.
    toggles = values[..., 1:, :] != values[..., :-1, :]
    expected_outputs = toggles[..., compiled.all_output_columns] \
        .sum(axis=-1).astype(np.int64)
    expected_pins = toggles[..., compiled.all_pin_columns] \
        .sum(axis=-1).astype(np.int64)

    outputs, pins = compiled.toggle_counts(values)
    assert outputs.dtype == pins.dtype == np.int64
    assert np.array_equal(outputs, expected_outputs)
    assert np.array_equal(pins, expected_pins)


def test_toggle_counts_chunking_is_exact_on_many_transitions():
    """Force several chunks through the bounded kernel."""
    import repro.netlist.compiled as compiled_module

    compiled = build_sbox_netlist().compiled()
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2, size=(3, 40, compiled.num_nets),
                          dtype=np.uint8)
    toggles = values[..., 1:, :] != values[..., :-1, :]
    expected = toggles[..., compiled.all_output_columns].sum(axis=-1)
    original = compiled_module._TOGGLE_CHUNK_ELEMS
    compiled_module._TOGGLE_CHUNK_ELEMS = 1024  # a few transitions/chunk
    try:
        outputs, _ = compiled.toggle_counts(values)
    finally:
        compiled_module._TOGGLE_CHUNK_ELEMS = original
    assert np.array_equal(outputs, expected)
