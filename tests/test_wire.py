import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetgka import wire
from vanetgka.crypto import get_profile, kdf
from wiregen import random_message

WIDTHS = [1, 8, 33]


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
@pytest.mark.parametrize("width", WIDTHS)
def test_round_trip_randomized(cls, width):
    rng = random.Random(hash((cls.TAG, width)) & 0xFFFF)
    for _ in range(50):
        msg = random_message(cls, rng, width)
        data = wire.encode_message(msg, width)
        assert wire.decode_message(data, width) == msg
        # canonical: re-encoding the decode gives the same bytes
        assert wire.encode_message(wire.decode_message(data, width), width) == data


@given(
    pk_v=st.integers(0, 256**8 - 1),
    ts=st.integers(0, 2**64 - 1),
    gk_ct=st.binary(max_size=200),
    epk=st.integers(0, 256**8 - 1),
    kem_ct=st.binary(max_size=200),
    mac=st.binary(min_size=16, max_size=16),
)
@settings(max_examples=200)
def test_hello_round_trip_property(pk_v, ts, gk_ct, epk, kem_ct, mac):
    msg = wire.AuthHello(pk_v, ts, gk_ct, epk, kem_ct, mac)
    assert wire.decode_message(wire.encode_message(msg, 8), 8) == msg


@given(
    tid=st.binary(max_size=41),
    y=st.integers(0, 255),
    s=st.integers(0, 255),
    tokens=st.lists(st.integers(0, 255), max_size=10).map(tuple),
    c=st.integers(0, 255),
    r=st.integers(0, 255),
)
@settings(max_examples=200)
def test_ring_response_round_trip_property(tid, y, s, tokens, c, r):
    msg = wire.RingResponse(tid, y, s, tokens, c, r)
    assert wire.decode_message(wire.encode_message(msg, 1), 1) == msg


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown type tag"):
        wire.decode_message(b"\x7f\x00\x00", 1)


def test_truncation_rejected():
    msg = wire.UplinkMessage(b"\x01" * 42, b"payload", b"\x02" * 16)
    data = wire.encode_message(msg, 4)
    for cut in (1, 10, len(data) - 1):
        with pytest.raises(ValueError):
            wire.decode_message(data[:cut], 4)


def test_trailing_garbage_rejected():
    msg = wire.AuthChallenge(b"ct", b"\x00" * 16)
    data = wire.encode_message(msg, 4)
    with pytest.raises(ValueError, match="trailing"):
        wire.decode_message(data + b"\x00", 4)


def test_length_prefix_overrun_rejected():
    # a var field claiming more bytes than exist
    bad = bytes([wire.AuthChallenge.TAG]) + (1000).to_bytes(4, "big") + b"xy"
    with pytest.raises(ValueError):
        wire.decode_message(bad, 4)


def test_field_width_enforced_on_encode():
    with pytest.raises(ValueError):
        wire.encode_message(wire.UplinkMessage(b"short", b"", b"\x00" * 16), 4)
    with pytest.raises(ValueError):
        wire.encode_message(wire.AuthChallenge(b"", b"\x00" * 15), 4)
    with pytest.raises(ValueError):
        wire.encode_message(
            wire.RsuBeacon(256**4, 0, 0, 0, 0, 0), 4  # element too wide
        )


def test_pseudonym_and_mac_widths_on_wire():
    msg = wire.UplinkMessage(b"\xaa" * 42, b"ct", b"\xbb" * 16)
    data = wire.encode_message(msg, 4)
    assert data[1:43] == b"\xaa" * 42
    assert data[-16:] == b"\xbb" * 16


def test_mac_input_zeroes_only_the_mac():
    msg = wire.AuthChallenge(b"ct-bytes", b"\xcc" * 16)
    base = wire.mac_input(msg, 4)
    assert base[-16:] == bytes(16)
    assert wire.decode_message(base, 4).ct == b"ct-bytes"


# --- memoized channel derivation and MAC input ---------------------------------


def test_memoized_derive_equals_the_kdf_pair():
    for secret in (1, 5, 2**255 + 7):
        for label in (b"n1", b"gk", b"sk"):
            fresh = wire.Channel(kdf(secret, label + b":enc"), kdf(secret, label + b":mac"))
            assert wire.Channel.derive(secret, label) == fresh
            assert wire.Channel.derive(secret, label) == fresh  # from the cache


def test_labels_on_one_secret_give_distinct_channels():
    channels = {wire.Channel.derive(42, label) for label in (b"n1", b"gk", b"sk")}
    assert len(channels) == 3


def test_mac_input_memo_keys_on_class_and_width():
    ct, mac = b"ct-bytes", b"\xcc" * 16
    challenge = wire.mac_input(wire.AuthChallenge(ct, mac), 4)
    confirm = wire.mac_input(wire.AuthConfirm(ct, mac), 4)
    assert challenge[0] == wire.AuthChallenge.TAG and confirm[0] == wire.AuthConfirm.TAG
    assert challenge[1:] == confirm[1:]
    hello = wire.AuthHello(7, 1, b"g", 9, b"k", mac)
    for width in (8, 16, 8):
        assert wire.mac_input(hello, width) == wire.encode_message(hello, width)[:-16] + bytes(16)
    assert wire.mac_input(hello, 8) != wire.mac_input(hello, 16)


def test_mac_input_raises_on_every_call_for_a_class_without_mac():
    beacon = wire.RsuBeacon(1, 2, 3, 4, 5, 6)
    for _ in range(2):
        with pytest.raises(TypeError):
            wire.mac_input(beacon, 4)


def test_memo_caches_are_bounded():
    for cached in (wire.Channel.derive, wire.mac_input):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 256


def test_describe_mentions_every_field():
    rng = random.Random(0)
    width = get_profile("test").element_width
    for cls in wire.MESSAGE_TYPES:
        msg = random_message(cls, rng, width)
        text = wire.describe(msg)
        assert cls.__name__ in text
        assert f"0x{cls.TAG:02x}" in text
