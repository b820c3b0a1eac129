"""Flow-key layout and shift-and-XOR folding of keys onto bucket indices.

A flow key is the big-endian concatenation of selected packet header
fields; KeySpec.layout says where each field sits.  The bucket index is
obtained by zero-padding the key on the right to a whole number of
hash-width windows and XOR-folding the windows together (fold), so the
whole hash costs only shifts and XORs.  The fold is linear over GF(2):
hash(a ^ b) == hash(a) ^ hash(b) for keys of equal width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import lshift, or_
from typing import Sequence

MIN_HASH_WIDTH = 1
MAX_HASH_WIDTH = 24

# Header fields a key may select, with their bit widths.
FIELD_WIDTHS = {
    "src_ip": 32,
    "dst_ip": 32,
    "src_port": 16,
    "dst_port": 16,
    "protocol": 8,
}


@dataclass(frozen=True)
class KeySpec:
    """Ordered selection of header fields that forms the flow key.

    Field order is significant: fields are concatenated big-endian in
    the order given, so ("src_ip", "dst_ip") and ("dst_ip", "src_ip")
    produce different keys.
    """

    fields: tuple[str, ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError("key spec must select at least one field")
        seen = set()
        for name in self.fields:
            if name not in FIELD_WIDTHS:
                raise ValueError(f"unknown key field {name!r}")
            if name in seen:
                raise ValueError(f"duplicate key field {name!r}")
            seen.add(name)

    @cached_property
    def total_bits(self) -> int:
        return sum(FIELD_WIDTHS[f] for f in self.fields)

    @cached_property
    def layout(self) -> tuple[tuple[str, int], ...]:
        """(field, left shift) pairs in concatenation order: the key is
        the OR of every field's value shifted left by its shift."""
        pairs = []
        shift = self.total_bits
        for name in self.fields:
            shift -= FIELD_WIDTHS[name]
            pairs.append((name, shift))
        return tuple(pairs)

    def key_column(self, columns) -> Sequence[int]:
        """The raw key value of every row of a column chunk, such as an
        ingest.TraceColumns: each field's column shifted by its layout
        shift and ORed in, by C-level maps, into a list.  A single-field
        key's column is that field's column itself."""
        keys = None
        for name, shift in self.layout:
            values = getattr(columns, name)
            if shift:
                values = map(lshift, values, repeat(shift))
            keys = values if keys is None else map(or_, keys, values)
        return list(keys) if type(keys) is map else keys

    @classmethod
    def parse(cls, text: str) -> "KeySpec":
        """Parse "src_ip+dst_port" (or comma-separated) into a KeySpec."""
        parts = [p.strip() for p in text.replace("+", ",").split(",") if p.strip()]
        return cls(tuple(parts))

    def __str__(self) -> str:
        return "+".join(self.fields)


@dataclass(frozen=True)
class FlowKey:
    """A fixed-width bit string identifying a flow."""

    value: int
    width: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("key width must be nonnegative")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"key value {self.value} does not fit in {self.width} bits")

    def __xor__(self, other: "FlowKey") -> "FlowKey":
        if self.width != other.width:
            raise ValueError("cannot XOR keys of different widths")
        return FlowKey(self.value ^ other.value, self.width)


def extract_key(packet, spec: KeySpec) -> FlowKey:
    """Concatenate the spec's fields from a packet record, big-endian."""
    value = 0
    for name, shift in spec.layout:
        value |= getattr(packet, name) << shift
    return FlowKey(value, spec.total_bits)


def check_width(width_bits: int) -> None:
    if not MIN_HASH_WIDTH <= width_bits <= MAX_HASH_WIDTH:
        raise ValueError(
            f"hash width must be in [{MIN_HASH_WIDTH}, {MAX_HASH_WIDTH}], got {width_bits}"
        )


def fold(value: int, key_bits: int, width_bits: int) -> int:
    """Fold a key_bits-wide key value into a bucket index in
    [0, 2**width_bits).

    The value is zero-padded on the right to a whole number of
    width_bits windows and the windows are XORed together.  An all-zero
    key therefore hashes to bucket 0.  The checks are inline because the
    sketch calls this on every fold-memo miss.
    """
    if value < 0 or not MIN_HASH_WIDTH <= width_bits <= MAX_HASH_WIDTH:
        raise ValueError(
            f"cannot fold {value} at hash width {width_bits}: the value must be"
            f" nonnegative and the width in [{MIN_HASH_WIDTH}, {MAX_HASH_WIDTH}]"
        )
    mask = (1 << width_bits) - 1
    value <<= -key_bits % width_bits
    acc = 0
    while value:
        acc ^= value & mask
        value >>= width_bits
    return acc


def shift_xor_hash(key: FlowKey, width_bits: int) -> int:
    """The bucket index of a key at a hash width; see fold."""
    return fold(key.value, key.width, width_bits)
