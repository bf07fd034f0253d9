"""Physical-address to Rambus-coordinate mappings (Figure 3).

The memory controller treats the ``n`` physical channels as one ganged
logical channel ``n`` dualocts wide, so channel bits never affect bank
or row selection — the same (device, bank, row, column) is accessed on
every physical channel simultaneously.  Coordinates are therefore
reported as a single *logical bank index* (device and bank combined),
a row index, and a column (logical-dualoct) index.

Field layout, least-significant bits first (Figure 3a):

    unused(4) | channel(c) | column(7) | device(d) | bank(5) | row(9)

The improved mapping (Figure 3b) XORs the initial device/bank field
with the low-order row bits, then rotates the bank sub-field right by
one so that bank bit 0 lands in the most-significant position.  The XOR
"randomizes" the banks that successive cache sets map to (fixing the
writeback bank-conflict anomaly of Section 3.4), and the rotation
stripes consecutive regions across all even banks before any odd bank,
avoiding shared-sense-amp adjacency conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DRAMConfig

__all__ = ["DRAMCoordinates", "AddressMapping", "BaseMapping", "XorMapping", "make_mapping"]


@dataclass(frozen=True)
class DRAMCoordinates:
    """Location of one logical dualoct in the memory system.

    ``__slots__`` because one is allocated per DRAM access (and per
    bank-aware prefetch candidate probe) on the simulator's hot path.
    """

    __slots__ = ("bank", "row", "column")

    bank: int
    row: int
    column: int

    @property
    def open_row_key(self) -> int:
        """Hashable identity of the (bank, row) pair."""
        return (self.bank << 16) | self.row


class AddressMapping:
    """Common field extraction for both mappings."""

    name = "abstract"

    def __init__(self, config: DRAMConfig) -> None:
        self._config = config
        self._offset_bits = config.dualoct_bytes.bit_length() - 1
        self._channel_bits = config.channels.bit_length() - 1
        self._column_bits = (config.row_bytes // config.dualoct_bytes).bit_length() - 1
        self._device_bits = config.devices_per_channel.bit_length() - 1
        self._bank_bits = config.banks_per_device.bit_length() - 1
        self._row_bits = config.rows_per_bank.bit_length() - 1
        self._column_mask = (1 << self._column_bits) - 1
        self._device_mask = (1 << self._device_bits) - 1
        self._bank_mask = (1 << self._bank_bits) - 1
        self._row_mask = (1 << self._row_bits) - 1
        self._devbank_bits = self._device_bits + self._bank_bits
        self._devbank_mask = (1 << self._devbank_bits) - 1
        self._addr_bits = (
            self._offset_bits
            + self._channel_bits
            + self._column_bits
            + self._devbank_bits
            + self._row_bits
        )

    @property
    def config(self) -> DRAMConfig:
        return self._config

    @property
    def address_bits(self) -> int:
        """Number of physical address bits the mapping consumes."""
        return self._addr_bits

    def _split(self, addr: int) -> tuple:
        """Extract (column, initial device/bank field, row) from ``addr``.

        Addresses beyond the configured capacity wrap (the high bits are
        folded into the row field), so synthetic traces with footprints
        larger than the memory still exercise the full coordinate space.
        """
        shifted = addr >> (self._offset_bits + self._channel_bits)
        column = shifted & self._column_mask
        shifted >>= self._column_bits
        devbank = shifted & self._devbank_mask
        shifted >>= self._devbank_bits
        row = shifted & self._row_mask
        return column, devbank, row

    def translate(self, addr: int) -> DRAMCoordinates:
        raise NotImplementedError


class BaseMapping(AddressMapping):
    """Straightforward mapping of Figure 3a.

    Adjacent blocks fill a DRAM row contiguously, then stripe across
    devices (least-significant) and banks, and finally rows.  Blocks
    that share an L2 cache set differ only above the index bits, which
    for a one-device channel means *the same bank, different rows* —
    the writeback conflict anomaly the XOR mapping repairs.
    """

    name = "base"

    def translate(self, addr: int) -> DRAMCoordinates:
        column, devbank, row = self._split(addr)
        return DRAMCoordinates(bank=devbank, row=row, column=column)


class XorMapping(AddressMapping):
    """Improved mapping of Figure 3b (XOR swizzle + bank-bit rotation)."""

    name = "xor"

    def translate(self, addr: int) -> DRAMCoordinates:
        column, devbank, row = self._split(addr)
        swizzled = devbank ^ (row & self._devbank_mask)
        device = swizzled & self._device_mask
        bank = (swizzled >> self._device_bits) & self._bank_mask
        # Move bank bit 0 to the most-significant bank position:
        # consecutive regions walk the even banks, then the odd banks.
        if self._bank_bits > 0:
            rotated = ((bank & 1) << (self._bank_bits - 1)) | (bank >> 1)
        else:
            rotated = bank
        return DRAMCoordinates(bank=(rotated << self._device_bits) | device, row=row, column=column)


def make_mapping(config: DRAMConfig) -> AddressMapping:
    """Instantiate the mapping selected by ``config.mapping``."""
    if config.mapping == "base":
        return BaseMapping(config)
    if config.mapping == "xor":
        return XorMapping(config)
    raise ValueError(f"unknown mapping {config.mapping!r}")
