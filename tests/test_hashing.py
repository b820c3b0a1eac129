"""Key extraction and shift-XOR fold hashing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from flowsketch.hashing import FlowKey, KeySpec, extract_key, fold, shift_xor_hash

from conftest import make_packet

# 10-bit key 1011001101 at width 5: windows 10110 and 01101 XOR to 11011.
W5_EXAMPLE_KEY = FlowKey(0b1011001101, 10)
W5_EXAMPLE_BUCKET = 27

# Same key at width 4 pads to 101100110100: 1011 ^ 0011 ^ 0100 = 1100.
W4_PADDED_BUCKET = 0b1100

# Header field widths in bits, written out here so the layout checks do
# not lean on the library's own table.
HEADER_BITS = {"src_ip": 32, "dst_ip": 32, "src_port": 16, "dst_port": 16, "protocol": 8}


def bit_string_fold(value: int, key_bits: int, width: int) -> int:
    """Reference fold on text: write the key as key_bits binary digits,
    pad with zeros on the right to whole windows, XOR the windows."""
    bits = format(value, f"0{key_bits}b") if key_bits else ""
    bits += "0" * (-len(bits) % width)
    acc = 0
    for i in range(0, len(bits), width):
        acc ^= int(bits[i : i + width], 2)
    return acc


def test_extract_key_single_field():
    pkt = make_packet(src="10.0.0.1")
    key = extract_key(pkt, KeySpec(("src_ip",)))
    assert key == FlowKey(0x0A000001, 32)


def test_extract_key_concatenates_big_endian():
    pkt = make_packet(src="10.0.0.1", dport=443)
    key = extract_key(pkt, KeySpec(("src_ip", "dst_port")))
    assert key.width == 48
    assert key.value == (0x0A000001 << 16) | 443


def test_extract_key_order_matters():
    pkt = make_packet(src="10.0.0.1", dst="192.168.0.9")
    a = extract_key(pkt, KeySpec(("src_ip", "dst_ip")))
    b = extract_key(pkt, KeySpec(("dst_ip", "src_ip")))
    assert a.width == b.width == 64
    assert a.value != b.value


def test_extract_key_field_widths():
    pkt = make_packet(proto=17)
    assert extract_key(pkt, KeySpec(("protocol",))) == FlowKey(17, 8)
    five = KeySpec(("src_ip", "dst_ip", "src_port", "dst_port", "protocol"))
    assert extract_key(pkt, five).width == 104


def test_keyspec_validation():
    with pytest.raises(ValueError):
        KeySpec(())
    with pytest.raises(ValueError):
        KeySpec(("src_ip", "src_ip"))
    with pytest.raises(ValueError):
        KeySpec(("ttl",))


def test_keyspec_parse_and_str():
    spec = KeySpec.parse("src_ip+dst_port")
    assert spec.fields == ("src_ip", "dst_port")
    assert str(spec) == "src_ip+dst_port"
    assert KeySpec.parse("src_ip,dst_port") == spec
    assert spec.total_bits == 48


def test_flowkey_validation():
    with pytest.raises(ValueError):
        FlowKey(4, 2)
    with pytest.raises(ValueError):
        FlowKey(0, -1)
    with pytest.raises(ValueError):
        FlowKey(1, 8) ^ FlowKey(1, 16)
    assert (FlowKey(0b1100, 4) ^ FlowKey(0b1010, 4)).value == 0b0110


def test_hash_zero_key_is_zero():
    for width in range(1, 25):
        assert shift_xor_hash(FlowKey(0, 32), width) == 0


def test_hash_single_byte_width_4():
    # windows A and B: 0xA ^ 0xB == 1
    assert shift_xor_hash(FlowKey(0xAB, 8), 4) == 1


def test_hash_worked_example_width_5():
    assert shift_xor_hash(W5_EXAMPLE_KEY, 5) == W5_EXAMPLE_BUCKET


def test_hash_right_padding():
    assert shift_xor_hash(W5_EXAMPLE_KEY, 4) == W4_PADDED_BUCKET


def test_hash_padding_soundness():
    # Folding a key equals folding the explicitly right-padded key.
    rng = random.Random(11)
    for _ in range(500):
        width = rng.randrange(1, 25)
        bits = rng.randrange(1, 64)
        key = FlowKey(rng.getrandbits(bits), bits)
        windows = -(-bits // width)
        padded = FlowKey(key.value << (windows * width - bits), windows * width)
        assert shift_xor_hash(key, width) == shift_xor_hash(padded, width)


def test_hash_width_bounds():
    key = FlowKey(123, 32)
    with pytest.raises(ValueError):
        shift_xor_hash(key, 0)
    with pytest.raises(ValueError):
        shift_xor_hash(key, 25)
    with pytest.raises(ValueError):
        fold(-1, 8, 4)  # would never shift down to zero
    assert 0 <= shift_xor_hash(key, 1) < 2
    assert 0 <= shift_xor_hash(key, 24) < (1 << 24)


def test_hash_range_all_widths():
    rng = random.Random(5)
    for width in range(1, 25):
        for _ in range(200):
            bits = rng.randrange(1, 80)
            key = FlowKey(rng.getrandbits(bits), bits)
            assert 0 <= shift_xor_hash(key, width) < (1 << width)


def test_hash_gf2_linearity():
    rng = random.Random(17)
    for _ in range(2000):
        width = rng.randrange(1, 25)
        bits = rng.randrange(1, 64)
        a = FlowKey(rng.getrandbits(bits), bits)
        b = FlowKey(rng.getrandbits(bits), bits)
        assert shift_xor_hash(a ^ b, width) == shift_xor_hash(a, width) ^ shift_xor_hash(b, width)


@st.composite
def keys_and_widths(draw):
    key_bits = draw(st.integers(0, 104))
    value = draw(st.integers(0, (1 << key_bits) - 1))
    return value, key_bits, draw(st.integers(1, 24))


@settings(max_examples=600, deadline=None)
@given(keys_and_widths())
def test_fold_matches_bit_string_reference(case):
    # Window counts that are powers of two and ones that are not, padded
    # and unpadded, all go through the one fold.
    value, key_bits, width = case
    want = bit_string_fold(value, key_bits, width)
    assert fold(value, key_bits, width) == want
    assert shift_xor_hash(FlowKey(value, key_bits), width) == want


@st.composite
def specs_and_packets(draw):
    order = draw(st.permutations(tuple(HEADER_BITS)))
    fields = order[: draw(st.integers(1, len(order)))]
    pkt = make_packet(
        src=draw(st.integers(0, (1 << 32) - 1)),
        dst=draw(st.integers(0, (1 << 32) - 1)),
        sport=draw(st.integers(0, (1 << 16) - 1)),
        dport=draw(st.integers(0, (1 << 16) - 1)),
        proto=draw(st.integers(0, 255)),
    )
    return KeySpec(fields), pkt


@settings(max_examples=300, deadline=None)
@given(specs_and_packets())
def test_layout_and_extract_key_match_bit_string_reference(case):
    spec, pkt = case
    bits = "".join(format(getattr(pkt, f), f"0{HEADER_BITS[f]}b") for f in spec.fields)
    # A field starting at string offset i sits len(bits) - i - width
    # bits up from the least significant end.
    want_layout = []
    offset = 0
    for name in spec.fields:
        offset += HEADER_BITS[name]
        want_layout.append((name, len(bits) - offset))
    assert spec.layout == tuple(want_layout)
    assert spec.total_bits == len(bits)
    assert extract_key(pkt, spec) == FlowKey(int(bits, 2), len(bits))


def test_hash_uniformity_on_random_keys():
    # Loose Monte Carlo check: 1e5 random 32-bit keys over 16 buckets,
    # each bucket expects 6250 and must stay within 400 (about 5 sigma).
    rng = random.Random(1)
    counts = [0] * 16
    for _ in range(100_000):
        counts[shift_xor_hash(FlowKey(rng.getrandbits(32), 32), 4)] += 1
    assert max(abs(c - 6250) for c in counts) < 400
