"""FPGA device models.

The paper uses two boards: a **Xilinx Spartan-3AN** board for the
clock-glitch delay platform (10 ns nominal clock period, 1.2 V core)
and **Xilinx Virtex-5 LX30** devices (65 nm) on an FF324 test board with
a ZIF socket for the EM campaign across 8 dies.  The reproduction runs
both studies on the Virtex-5 model (:func:`virtex5_lx30`).

An :class:`FPGADevice` describes the logic fabric at the granularity the
reproduction needs: a rectangular grid of slices, each with a number of
LUTs and flip-flops, plus the electrical/nominal-timing parameters used
by the measurement models.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FPGADevice:
    """Static description of an FPGA device.

    Attributes
    ----------
    name:
        Commercial device name.
    technology_nm:
        Process node in nanometres (drives the process-variation model).
    rows, columns:
        Dimensions of the slice grid.
    luts_per_slice, ffs_per_slice:
        Slice capacity.
    core_voltage_v:
        Nominal core supply voltage.
    nominal_clock_period_ns:
        Clock period of the reference design on this board.
    """

    name: str
    technology_nm: int
    rows: int
    columns: int
    luts_per_slice: int
    ffs_per_slice: int
    core_voltage_v: float
    nominal_clock_period_ns: float

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.columns <= 0:
            raise ValueError("device grid dimensions must be positive")
        if self.luts_per_slice <= 0 or self.ffs_per_slice <= 0:
            raise ValueError("slice capacities must be positive")

    @property
    def total_slices(self) -> int:
        """Number of slices in the device."""
        return self.rows * self.columns

    @property
    def nominal_clock_period_ps(self) -> float:
        """Nominal clock period in picoseconds."""
        return self.nominal_clock_period_ns * 1000.0

    def contains(self, row: int, col: int) -> bool:
        """True if ``(row, col)`` is a valid slice coordinate."""
        return 0 <= row < self.rows and 0 <= col < self.columns

    def slice_fraction(self, slice_count: float) -> float:
        """Express a slice count as a fraction of the device."""
        return slice_count / self.total_slices


def virtex5_lx30() -> FPGADevice:
    """The Virtex-5 LX30 device used for the EM / process-variation study.

    The LX30 has 4 800 slices of 4 six-input LUTs and 4 flip-flops each,
    fabricated in 65 nm.  The EM experiments clock the AES at 24 MHz.
    """
    return FPGADevice(
        name="xc5vlx30",
        technology_nm=65,
        rows=80,
        columns=60,
        luts_per_slice=4,
        ffs_per_slice=4,
        core_voltage_v=1.0,
        nominal_clock_period_ns=1000.0 / 24.0,
    )


#: Fraction of the FPGA slices occupied by the full AES-128 design
#: (Sec. II-B of the paper: "AES implementation covers 38.26 % of the
#: FPGA slices").  Used for area accounting of the trojans.
AES_SLICE_UTILISATION = 0.3826


def aes_slice_budget(device: FPGADevice) -> int:
    """Number of slices the full AES-128 design occupies on ``device``."""
    return int(round(device.total_slices * AES_SLICE_UTILISATION))
