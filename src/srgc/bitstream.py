"""Versioned bitstream container (magic ``SRGC``, version 4).

Layout (all little-endian, no padding; see docs/bitstream.md):

    magic     4s    b"SRGC"
    version   u8    4
    header    fixed 31-byte struct (dims, depth, channels, flags, quantizer, ...)
    lengths   6 x u32, payload byte length of sections 1..6 in id order
    payloads  the six section payloads, concatenated in id order

Every section payload starts with a u32 symbol count followed by one
entropy-coded integer stream.  Section ids: 1 segmentation, 2 disparity,
3 structure, 4 coefficients, 5 groups, 6 residuals.  The coefficient
stream opens with one extent per coefficient vector, under the ``extent``
contexts, before its levels.
"""

import math
import struct
from dataclasses import dataclass, field

from .errors import CorruptStreamError, UnsupportedStreamError

MAGIC = b"SRGC"
VERSION = 4

SEC_SEGMENTATION = 1
SEC_DISPARITY = 2
SEC_STRUCTURE = 3
SEC_COEFFICIENTS = 4
SEC_GROUPS = 5
SEC_RESIDUALS = 6

SECTION_NAMES = {
    SEC_SEGMENTATION: "segmentation",
    SEC_DISPARITY: "disparity",
    SEC_STRUCTURE: "structure",
    SEC_COEFFICIENTS: "coefficients",
    SEC_GROUPS: "groups",
    SEC_RESIDUALS: "residuals",
}

# the entropy context category each section's symbols are coded under
# (the coefficient section's head of extents under "extent")
SECTION_CONTEXTS = {
    SEC_SEGMENTATION: "labels",
    SEC_DISPARITY: "disparities",
    SEC_STRUCTURE: "structure",
    SEC_COEFFICIENTS: "gft",
    SEC_GROUPS: "group",
    SEC_RESIDUALS: "residual",
}

_FLAG_GROUPING = 1

_HEADER_FMT = "<HHIIBBBIId"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_LENGTHS_FMT = f"<{len(SECTION_NAMES)}I"
_LENGTHS_SIZE = struct.calcsize(_LENGTHS_FMT)


@dataclass
class StreamHeader:
    angular_dims: tuple
    spatial_dims: tuple
    bit_depth: int
    channels: int
    grouping: bool
    label_count: int
    n_target: int
    q_gft: float

    def pack(self):
        return struct.pack(
            _HEADER_FMT,
            self.angular_dims[0],
            self.angular_dims[1],
            self.spatial_dims[0],
            self.spatial_dims[1],
            self.bit_depth,
            self.channels,
            _FLAG_GROUPING if self.grouping else 0,
            self.label_count,
            self.n_target,
            self.q_gft,
        )

    def check(self):
        """Reject values no encoder writes (CorruptStreamError)."""
        for ok, what in (
            (0 not in self.angular_dims + self.spatial_dims, "has a zero dimension"),
            (self.bit_depth in (8, 10, 16), f"bit depth {self.bit_depth}"),
            (self.channels in (1, 3), f"channel count {self.channels}"),
            (self.n_target > 0, "n_target 0"),
            (math.isfinite(self.q_gft) and self.q_gft > 0,
             f"q_gft {self.q_gft} not finite and positive"),
        ):
            if not ok:
                raise CorruptStreamError(f"corrupt stream: header {what}")

    @classmethod
    def unpack(cls, data):
        s, t, w, h, depth, channels, flags, labels, n_target, q_gft = struct.unpack(
            _HEADER_FMT, data
        )
        if flags & ~_FLAG_GROUPING:
            raise CorruptStreamError(f"corrupt stream: header flags {flags:#04x} set unknown bits")
        return cls(
            angular_dims=(s, t),
            spatial_dims=(w, h),
            bit_depth=depth,
            channels=channels,
            grouping=bool(flags & _FLAG_GROUPING),
            label_count=labels,
            n_target=n_target,
            q_gft=q_gft,
        )


@dataclass
class Bitstream:
    """Parsed container: header plus raw section payloads by id."""

    header: StreamHeader
    sections: dict = field(default_factory=dict)


def pack_section(symbol_count, payload):
    return struct.pack("<I", symbol_count) + payload


def unpack_section(data, section_id):
    if len(data) < 4:
        raise CorruptStreamError(
            f"corrupt stream: section '{SECTION_NAMES.get(section_id, section_id)}' too short"
        )
    (count,) = struct.unpack("<I", data[:4])
    return count, data[4:]


def serialize(bs: Bitstream) -> bytes:
    """The v4 container; every one of the six sections must be present."""
    payloads = [bs.sections[sid] for sid in SECTION_NAMES]
    return b"".join([
        MAGIC,
        bytes([VERSION]),
        bs.header.pack(),
        struct.pack(_LENGTHS_FMT, *map(len, payloads)),
        *payloads,
    ])


def deserialize(data: bytes) -> Bitstream:
    if len(data) < 5 or data[:4] != MAGIC:
        raise UnsupportedStreamError("unsupported stream: bad magic")
    if data[4] != VERSION:
        raise UnsupportedStreamError(f"unsupported stream: version {data[4]}")
    pos = 5
    if len(data) < pos + _HEADER_SIZE:
        raise CorruptStreamError("corrupt stream: truncated header")
    header = StreamHeader.unpack(data[pos : pos + _HEADER_SIZE])
    header.check()
    pos += _HEADER_SIZE
    if len(data) < pos + _LENGTHS_SIZE:
        raise CorruptStreamError("corrupt stream: truncated section length table")
    lengths = struct.unpack_from(_LENGTHS_FMT, data, pos)
    pos += _LENGTHS_SIZE
    sections = {}
    for sid, length in zip(SECTION_NAMES, lengths):
        if len(data) < pos + length:
            raise CorruptStreamError(
                f"corrupt stream: truncated section '{SECTION_NAMES[sid]}'"
            )
        sections[sid] = data[pos : pos + length]
        pos += length
    if pos != len(data):
        raise CorruptStreamError(f"corrupt stream: {len(data) - pos} trailing bytes")
    return Bitstream(header=header, sections=sections)
