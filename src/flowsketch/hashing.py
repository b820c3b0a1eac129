"""Shift-and-XOR folding of flow keys onto bucket indices.

A flow key is the big-endian concatenation of selected packet header
fields.  The bucket index is obtained by zero-padding the key on the
right to a whole number of hash-width windows and XOR-folding the
windows together, so the whole hash costs only shifts and XORs.  The
fold is linear over GF(2): hash(a ^ b) == hash(a) ^ hash(b) for keys of
equal width.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def total_bits(self) -> int:
        return sum(FIELD_WIDTHS[f] for f in self.fields)

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
    value = bits = 0
    for name in spec.fields:
        width = FIELD_WIDTHS[name]
        value = (value << width) | getattr(packet, name)
        bits += width
    return FlowKey(value, bits)


def check_width(width_bits: int) -> None:
    if not MIN_HASH_WIDTH <= width_bits <= MAX_HASH_WIDTH:
        raise ValueError(
            f"hash width must be in [{MIN_HASH_WIDTH}, {MAX_HASH_WIDTH}], got {width_bits}"
        )


def shift_xor_hash(key: FlowKey, width_bits: int) -> int:
    """Fold a key into a bucket index in [0, 2**width_bits).

    The key is zero-padded on the right to a multiple of width_bits,
    split into consecutive windows left to right, and the windows are
    XORed together.  An all-zero key therefore hashes to bucket 0.
    """
    check_width(width_bits)
    windows = -(-key.width // width_bits)
    padded = windows * width_bits
    value = key.value << (padded - key.width)
    mask = (1 << width_bits) - 1
    acc = 0
    shift = padded
    while shift > 0:
        shift -= width_bits
        acc ^= (value >> shift) & mask
    return acc


def fold_plan(key_bits: int, width_bits: int) -> tuple[int, tuple[int, ...] | None]:
    """Precompute a fold strategy for keys of a fixed bit length.

    Returns (pad_shift, halving_shifts).  pad_shift is the left shift
    that right-pads a key value to a whole number of windows.  When the
    padded window count is a power of two the fold collapses into a
    chain of halving shift-XOR steps (v ^= v >> s for each s); otherwise
    halving_shifts is None and callers fold window by window.  Both
    routes agree with shift_xor_hash.
    """
    check_width(width_bits)
    if key_bits < 0:
        raise ValueError("key width must be nonnegative")
    windows = max(1, -(-key_bits // width_bits))
    padded = windows * width_bits
    pad_shift = padded - key_bits
    if windows & (windows - 1) == 0:
        shifts = []
        span = padded
        while span > width_bits:
            span //= 2
            shifts.append(span)
        return pad_shift, tuple(shifts)
    return pad_shift, None
