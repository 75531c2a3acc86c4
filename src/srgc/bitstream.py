"""Versioned bitstream container (magic ``SRGC``, version 1).

Layout (all little-endian, no padding; see docs/bitstream.md):

    magic      4s   b"SRGC"
    version    u8   1
    header     fixed struct (dims, depth, channels, flags, quantizers, ...)
    n_sections u8
    table      n_sections x (u8 section id, u64 payload byte length)
    payloads   concatenated section bytes

Every section payload starts with a u32 symbol count followed by one
entropy-coded integer stream.  Section ids: 1 segmentation, 2 disparity,
3 structure, 4 coefficients, 5 groups, 6 residuals.
"""

import math
import struct
from dataclasses import dataclass, field

from .errors import CorruptStreamError, UnsupportedStreamError

MAGIC = b"SRGC"
VERSION = 1

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
SECTION_CONTEXTS = {
    SEC_SEGMENTATION: "labels",
    SEC_DISPARITY: "disparities",
    SEC_STRUCTURE: "structure",
    SEC_COEFFICIENTS: "gft",
    SEC_GROUPS: "group",
    SEC_RESIDUALS: "residual",
}

_FLAG_GROUPING = 1
_FLAG_EXPLICIT_GROUPS = 2
_FLAG_RESIDUAL_DCT = 4

_HEADER_FMT = "<HHIIBBBIIIIddd"


@dataclass
class StreamHeader:
    angular_dims: tuple
    spatial_dims: tuple
    bit_depth: int
    channels: int
    grouping: bool
    explicit_groups: bool
    residual_mode: str
    label_count: int
    n_target: int
    max_vertices: int
    q_switch: int
    q_gft: float
    q_dct: float
    bin_width: float

    def pack(self):
        flags = (
            (_FLAG_GROUPING if self.grouping else 0)
            | (_FLAG_EXPLICIT_GROUPS if self.explicit_groups else 0)
            | (_FLAG_RESIDUAL_DCT if self.residual_mode == "dct" else 0)
        )
        return struct.pack(
            _HEADER_FMT,
            self.angular_dims[0],
            self.angular_dims[1],
            self.spatial_dims[0],
            self.spatial_dims[1],
            self.bit_depth,
            self.channels,
            flags,
            self.label_count,
            self.n_target,
            self.max_vertices,
            self.q_switch,
            self.q_gft,
            self.q_dct,
            self.bin_width,
        )

    def check(self):
        """Reject values no encoder writes (CorruptStreamError)."""
        steps = (self.q_gft, self.q_dct, self.bin_width)
        for ok, what in (
            (0 not in self.angular_dims + self.spatial_dims, "has a zero dimension"),
            (self.bit_depth in (8, 10, 16), f"bit depth {self.bit_depth}"),
            (self.channels in (1, 3), f"channel count {self.channels}"),
            (self.n_target > 0, "n_target 0"),
            (all(math.isfinite(q) and q > 0 for q in steps),
             f"q_gft/q_dct/bin_width {steps} not finite and positive"),
        ):
            if not ok:
                raise CorruptStreamError(f"corrupt stream: header {what}")

    @classmethod
    def unpack(cls, data):
        s, t, w, h, depth, channels, flags, labels, n_target, max_v, q_switch, q_gft, q_dct, bw = struct.unpack(
            _HEADER_FMT, data
        )
        return cls(
            angular_dims=(s, t),
            spatial_dims=(w, h),
            bit_depth=depth,
            channels=channels,
            grouping=bool(flags & _FLAG_GROUPING),
            explicit_groups=bool(flags & _FLAG_EXPLICIT_GROUPS),
            residual_mode="dct" if flags & _FLAG_RESIDUAL_DCT else "raw",
            label_count=labels,
            n_target=n_target,
            max_vertices=max_v,
            q_switch=q_switch,
            q_gft=q_gft,
            q_dct=q_dct,
            bin_width=bw,
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
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out += bs.header.pack()
    ids = sorted(bs.sections)
    out.append(len(ids))
    for sid in ids:
        out += struct.pack("<BQ", sid, len(bs.sections[sid]))
    for sid in ids:
        out += bs.sections[sid]
    return bytes(out)


def deserialize(data: bytes) -> Bitstream:
    if len(data) < 5 or data[:4] != MAGIC:
        raise UnsupportedStreamError("unsupported stream: bad magic")
    if data[4] != VERSION:
        raise UnsupportedStreamError(f"unsupported stream: version {data[4]}")
    pos = 5
    header_size = struct.calcsize(_HEADER_FMT)
    if len(data) < pos + header_size + 1:
        raise CorruptStreamError("corrupt stream: truncated header")
    header = StreamHeader.unpack(data[pos : pos + header_size])
    header.check()
    pos += header_size
    n_sections = data[pos]
    pos += 1
    table = {}
    for _ in range(n_sections):
        if len(data) < pos + 9:
            raise CorruptStreamError("corrupt stream: truncated section table")
        sid, length = struct.unpack("<BQ", data[pos : pos + 9])
        if sid not in SECTION_NAMES or sid in table:
            raise CorruptStreamError(f"corrupt stream: unknown or repeated section id {sid}")
        table[sid] = length
        pos += 9
    sections = {}
    for sid, length in table.items():
        if len(data) < pos + length:
            raise CorruptStreamError(
                f"corrupt stream: truncated section '{SECTION_NAMES[sid]}'"
            )
        sections[sid] = data[pos : pos + length]
        pos += length
    if pos != len(data):
        raise CorruptStreamError(f"corrupt stream: {len(data) - pos} trailing bytes")
    return Bitstream(header=header, sections=sections)
