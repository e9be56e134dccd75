"""Structural netlist container and evaluation.

A :class:`Netlist` is a directed graph of :class:`~repro.netlist.cells.Cell`
instances connected by named nets.  It supports:

* functional evaluation of the combinational portion (used to check the
  generated circuits against the behavioural AES),
* topological ordering (used by the timing engine),
* structural queries (fan-in cone, fan-out, primary inputs/outputs),
* merging of sub-circuits with name prefixes (used to compose the 16
  S-box circuits and the key-addition network into the last-round
  circuit, and to attach trojan circuits without disturbing the host).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from .cells import Cell, CellType


class NetlistError(Exception):
    """Raised for structural problems in a netlist."""


@dataclass
class Netlist:
    """A flat structural netlist.

    Attributes
    ----------
    name:
        Human-readable design name.
    inputs:
        Ordered primary input net names.
    outputs:
        Ordered primary output net names.
    cells:
        Mapping from instance name to :class:`Cell`.
    """

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    cells: Dict[str, Cell] = field(default_factory=dict)

    # -- construction ----------------------------------------------------

    def add_input(self, net: str) -> str:
        if net in self.inputs:
            raise NetlistError(f"duplicate primary input {net!r}")
        self.inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        if net in self.outputs:
            raise NetlistError(f"duplicate primary output {net!r}")
        self.outputs.append(net)
        return net

    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise NetlistError(f"duplicate cell name {cell.name!r}")
        existing_driver = self.driver_of(cell.output)
        if existing_driver is not None:
            raise NetlistError(
                f"net {cell.output!r} already driven by {existing_driver.name!r}"
            )
        if cell.output in self.inputs:
            raise NetlistError(
                f"net {cell.output!r} is a primary input and cannot be driven"
            )
        self.cells[cell.name] = cell
        # Maintain the driver map incrementally: re-deriving it per added
        # cell made composing sub-circuits (merge of the 16 S-boxes)
        # quadratic.  Only the structure-dependent caches are dropped.
        driver_cache = self.__dict__.get("_driver_cache")
        if driver_cache is not None:
            driver_cache[cell.output] = cell
        self._invalidate_structure_caches()
        return cell

    # -- structural queries ----------------------------------------------

    def _invalidate_structure_caches(self) -> None:
        """Drop the caches a structural edit invalidates.

        The driver map is maintained incrementally by :meth:`add_cell`
        and therefore survives; the fan-out, topological-order and
        compiled-kernel caches are derived from the full structure and
        must be rebuilt.
        """
        self.__dict__.pop("_loads_cache", None)
        self.__dict__.pop("_topo_cache", None)
        self.__dict__.pop("_compiled_cache", None)

    @property
    def _drivers(self) -> Dict[str, Cell]:
        cache = self.__dict__.get("_driver_cache")
        if cache is None:
            cache = {cell.output: cell for cell in self.cells.values()}
            self.__dict__["_driver_cache"] = cache
        return cache

    @property
    def _loads(self) -> Dict[str, List[Cell]]:
        cache = self.__dict__.get("_loads_cache")
        if cache is None:
            cache = defaultdict(list)
            for cell in self.cells.values():
                for net in cell.inputs:
                    cache[net].append(cell)
            self.__dict__["_loads_cache"] = dict(cache)
        return self.__dict__["_loads_cache"]

    def driver_of(self, net: str) -> Optional[Cell]:
        """The cell driving ``net`` or None (primary input / dangling)."""
        return self._drivers.get(net)

    def loads_of(self, net: str) -> List[Cell]:
        """Cells whose inputs include ``net``."""
        return list(self._loads.get(net, []))

    def nets(self) -> Set[str]:
        """All net names referenced by the netlist."""
        result: Set[str] = set(self.inputs) | set(self.outputs)
        for cell in self.cells.values():
            result.add(cell.output)
            result.update(cell.inputs)
        return result

    def register_cells(self) -> List[Cell]:
        """All DFF cells, in name order."""
        return sorted(
            (c for c in self.cells.values() if c.is_sequential),
            key=lambda c: c.name,
        )

    def lut_equivalent_area(self) -> float:
        """Total area of the netlist in LUT equivalents.

        The paper reports trojan size as a percentage of the AES area;
        this is the quantity those percentages are computed from.
        """
        return sum(cell.lut_equivalents() for cell in self.cells.values())

    # -- validation and ordering ------------------------------------------

    def validate(self) -> None:
        """Check that the netlist is structurally sound.

        Every cell input must be driven by a primary input, a constant
        or another cell; every primary output must be driven; the
        combinational portion must be acyclic.
        """
        drivers = self._drivers
        known_sources = set(self.inputs) | set(drivers)
        for cell in self.cells.values():
            for net in cell.inputs:
                if net not in known_sources:
                    raise NetlistError(
                        f"cell {cell.name!r} input net {net!r} has no driver"
                    )
        for net in self.outputs:
            if net not in known_sources:
                raise NetlistError(f"primary output {net!r} has no driver")
        # Acyclicity is established by topological_order(); it raises on cycles.
        self.topological_order()

    def topological_order(self) -> List[Cell]:
        """Topological order of combinational cells (Kahn's algorithm).

        DFF outputs and primary inputs are treated as sources; DFF and
        constant cells are excluded from the returned ordering (they
        have no combinational predecessors that matter for evaluation).
        """
        cached = self.__dict__.get("_topo_cache")
        if cached is not None:
            return list(cached)

        drivers = self._drivers
        comb_cells = [c for c in self.cells.values() if c.is_combinational]
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[Cell]] = defaultdict(list)

        for cell in comb_cells:
            count = 0
            for net in cell.inputs:
                driver = drivers.get(net)
                if driver is not None and driver.is_combinational:
                    count += 1
                    dependents[driver.name].append(cell)
            indegree[cell.name] = count

        queue = deque(
            sorted((c for c in comb_cells if indegree[c.name] == 0),
                   key=lambda c: c.name)
        )
        order: List[Cell] = []
        while queue:
            cell = queue.popleft()
            order.append(cell)
            for successor in dependents[cell.name]:
                indegree[successor.name] -= 1
                if indegree[successor.name] == 0:
                    queue.append(successor)
        if len(order) != len(comb_cells):
            raise NetlistError(
                f"combinational cycle detected in netlist {self.name!r}"
            )
        self.__dict__["_topo_cache"] = list(order)
        return order

    # -- compiled kernel ----------------------------------------------------

    def compiled(self) -> "CompiledNetlist":
        """The (cached) compiled form of this netlist.

        Lowering happens once per structure; any :meth:`add_cell` drops
        the cache together with the topological order.  The compiled
        kernel evaluates batches of stimulus vectors at array speed and
        is bit-identical to :meth:`evaluate` — see
        :mod:`repro.netlist.compiled`.
        """
        cache = self.__dict__.get("_compiled_cache")
        if cache is None:
            from .compiled import CompiledNetlist  # deferred: avoids cycle
            cache = CompiledNetlist.from_netlist(self)
            self.__dict__["_compiled_cache"] = cache
        return cache

    # -- evaluation --------------------------------------------------------

    def evaluate(self, input_values: Mapping[str, int],
                 register_values: Optional[Mapping[str, int]] = None
                 ) -> Dict[str, int]:
        """Evaluate every net of the combinational portion.

        Parameters
        ----------
        input_values:
            Values of the primary input nets.
        register_values:
            Optional values of the DFF *output* nets (``Q`` pins).  When
            omitted, DFF outputs take their ``init`` values.

        Returns
        -------
        dict mapping every net name to 0/1.
        """
        values: Dict[str, int] = {}
        for net in self.inputs:
            if net not in input_values:
                raise NetlistError(f"missing value for primary input {net!r}")
            values[net] = int(input_values[net]) & 1
        for net, value in input_values.items():
            values[net] = int(value) & 1

        for cell in self.cells.values():
            if cell.cell_type == CellType.CONST0:
                values[cell.output] = 0
            elif cell.cell_type == CellType.CONST1:
                values[cell.output] = 1
            elif cell.is_sequential:
                if register_values is not None and cell.output in register_values:
                    values[cell.output] = int(register_values[cell.output]) & 1
                else:
                    values[cell.output] = cell.init

        for cell in self.topological_order():
            try:
                operands = [values[n] for n in cell.inputs]
            except KeyError as exc:
                raise NetlistError(
                    f"cell {cell.name!r} input {exc.args[0]!r} is undriven"
                ) from exc
            values[cell.output] = cell.evaluate(operands)
        return values

    # -- cones --------------------------------------------------------------
