"""DRAM device substrate.

This package models everything the paper's characterization and
performance evaluation need from a DDR4 DRAM device:

* :mod:`repro.dram.geometry` -- channel/rank/bank-group/bank/subarray/
  row/column topology and address arithmetic.
* :mod:`repro.dram.timing` -- JEDEC timing parameters as declarative
  device-generation tables (DDR4, LPDDR4, DDR5).
* :mod:`repro.dram.commands` -- the DDR4 command set used by test
  programs and the memory controller.
* :mod:`repro.dram.bank` -- per-bank state machine enforcing timing.
* :mod:`repro.dram.cells` -- cell-array storage with data patterns.
* :mod:`repro.dram.mapping` -- in-DRAM logical-to-physical row
  remapping and controller-side (MOP) address mapping.
* :mod:`repro.dram.device` -- the assembled device executing commands.
"""

from repro.dram.geometry import DramGeometry, RowAddress, Subarray
from repro.dram.timing import (
    DDR4_2400,
    DDR4_2666,
    DDR4_3200,
    DDR5_4800,
    GENERATIONS,
    LPDDR4_3200,
    DDR5TimingParameters,
    DeviceGeneration,
    LPDDR4TimingParameters,
    RuleSpec,
    TimingParameters,
    all_device_names,
    device_for,
)
from repro.dram.commands import Command, CommandKind
from repro.dram.bank import Bank, BankState
from repro.dram.cells import CellArray
from repro.dram.mapping import RowScrambler, MopAddressMapper, PhysicalAddress
from repro.dram.device import DramDevice, TimingViolation

__all__ = [
    "DramGeometry",
    "RowAddress",
    "Subarray",
    "TimingParameters",
    "LPDDR4TimingParameters",
    "DDR5TimingParameters",
    "DeviceGeneration",
    "RuleSpec",
    "GENERATIONS",
    "DDR4_3200",
    "DDR4_2666",
    "DDR4_2400",
    "LPDDR4_3200",
    "DDR5_4800",
    "all_device_names",
    "device_for",
    "Command",
    "CommandKind",
    "Bank",
    "BankState",
    "CellArray",
    "RowScrambler",
    "MopAddressMapper",
    "PhysicalAddress",
    "DramDevice",
    "TimingViolation",
]
