import gc
import random
import traceback
import tracemalloc
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetgka import auth, wire
from vanetgka.crypto import _hmac_states, get_profile, kdf, sym_encrypt
from vanetgka.errors import DecryptFail, MacFail
from wiregen import count_crypto_calls, random_message

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


def test_mac_input_covers_the_type_tag_and_the_width():
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
    for cached in (wire.Channel.derive, auth.gk_fid_key, _hmac_states):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 256


def test_a_message_only_mac_checked_is_freed_with_its_last_reference():
    channel = wire.Channel.derive(1005, b"gk")
    msg = wire.decode_message(wire.encode_message(channel.tag(8, wire.AuthChallenge, b"ct"), 8), 8)
    channel.check(8, msg)
    ref = weakref.ref(msg)
    del msg
    assert ref() is None


# --- one encoding per message ----------------------------------------------------

EXACT_WIDTHS = [4, 8, 32]
MAC_TYPES = [cls for cls in wire.MESSAGE_TYPES if cls.LAYOUT[-1] == "mac"]


def fresh_encoding(msg, width: int) -> bytes:
    """The message's bytes, encoded from its field values now."""
    return wire._encode(type(msg), tuple(getattr(msg, f.name) for f in fields(msg)), width)


@pytest.mark.parametrize("cls", MAC_TYPES)
@pytest.mark.parametrize("width", EXACT_WIDTHS)
def test_tag_keeps_the_fresh_encoding(cls, width):
    rng = random.Random(cls.TAG * 100 + width)
    channel = wire.Channel.derive(1006, b"gk")
    for _ in range(20):
        head = [getattr(random_message(cls, rng, width), f.name) for f in fields(cls)][:-1]
        msg = channel.tag(width, cls, *head)
        kept = wire.encode_message(msg, width)
        assert kept == fresh_encoding(msg, width)
        assert wire.encode_message(msg, width) is kept
        assert wire.mac_input(msg, width) == kept[:-16] + bytes(16)


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
@pytest.mark.parametrize("width", EXACT_WIDTHS)
def test_a_decoded_message_encodes_to_the_bytes_it_came_from(cls, width):
    rng = random.Random(cls.TAG * 100 + width)
    for _ in range(20):
        data = fresh_encoding(random_message(cls, rng, width), width)
        msg = wire.decode_message(data, width)
        assert wire.encode_message(msg, width) is data
        assert fresh_encoding(msg, width) == data
        from_buffer = wire.encode_message(wire.decode_message(bytearray(data), width), width)
        assert type(from_buffer) is bytes and from_buffer == data


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
def test_a_message_encoded_at_another_width_is_encoded_afresh(cls):
    rng = random.Random(cls.TAG)
    for _ in range(20):
        built = random_message(cls, rng, 8)
        for msg in (built, wire.decode_message(fresh_encoding(built, 8), 8)):
            for width in (8, 16, 8):
                assert wire.encode_message(msg, width) == fresh_encoding(msg, width)
                if cls in MAC_TYPES:
                    assert wire.mac_input(msg, width) == fresh_encoding(msg, width)[:-16] + bytes(16)


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
@pytest.mark.parametrize("width", EXACT_WIDTHS)
def test_a_replaced_copy_never_inherits_the_kept_bytes(cls, width):
    rng = random.Random(cls.TAG * 100 + width)
    first = fields(cls)[0].name
    for _ in range(20):
        msg = wire.decode_message(fresh_encoding(random_message(cls, rng, width), width), width)
        other = getattr(random_message(cls, rng, width), first)
        for copy in (replace(msg), replace(msg, **{first: other})):
            assert wire.encode_message(copy, width) == fresh_encoding(copy, width)
            assert wire.encode_message(copy, width) is not wire.encode_message(msg, width)


def test_describe_mentions_every_field():
    rng = random.Random(0)
    width = get_profile("test").element_width
    for cls in wire.MESSAGE_TYPES:
        msg = random_message(cls, rng, width)
        text = wire.describe(msg)
        assert cls.__name__ in text
        assert f"0x{cls.TAG:02x}" in text


# --- sealed bodies -------------------------------------------------------------

BODY_TYPES = [cls for cls in wire.MESSAGE_TYPES if hasattr(cls, "BODY")]


def random_values(kinds, rng, width):
    def elem():
        return rng.randrange(0, 256**width)

    def var():
        return rng.randbytes(rng.randrange(0, 80))

    gen = {
        "elem": elem,
        "elem_list": lambda: tuple(elem() for _ in range(rng.randrange(0, 8))),
        "shares": lambda: tuple((elem(), rng.randbytes(42)) for _ in range(rng.randrange(1, 6))),
        "fid": lambda: rng.randbytes(42),
        "mac": lambda: rng.randbytes(16),
        "u64": lambda: rng.randrange(2**64),
        "i64": lambda: rng.randrange(-(2**63), 2**63),
        "var": var,
        "rest": var,
    }
    return tuple(gen[kind]() for kind in kinds)


def test_every_sealed_class_declares_a_body():
    sealed = {cls for cls in wire.MESSAGE_TYPES if "var" in cls.LAYOUT and cls.LAYOUT[-1] == "mac"}
    assert set(BODY_TYPES) == sealed - {wire.AuthHello}


@pytest.mark.parametrize("cls", BODY_TYPES)
@pytest.mark.parametrize("width", WIDTHS)
def test_body_round_trip(cls, width):
    rng = random.Random(cls.TAG * 100 + width)
    for _ in range(50):
        values = random_values(cls.BODY, rng, width)
        data = wire.pack(cls.BODY, values, width)
        assert wire.unpack(cls.BODY, data, width) == values


@pytest.mark.parametrize("cls", BODY_TYPES)
def test_body_truncation_and_trailing_byte_raise_decrypt_fail(cls):
    width = 8
    values = random_values(cls.BODY, random.Random(cls.TAG), width)
    data = wire.pack(cls.BODY, values, width)
    if cls.BODY[-1] == "rest":
        # a cut inside the final rest field still frames, with a shorter rest
        fixed = len(data) - len(values[-1])
        for cut in range(fixed, len(data) + 1):
            assert wire.unpack(cls.BODY, data[:cut], width) == (
                *values[:-1],
                values[-1][: cut - fixed],
            )
    else:
        fixed = len(data)
        with pytest.raises(DecryptFail):
            wire.unpack(cls.BODY, data + b"\x00", width)
    for cut in range(fixed):
        with pytest.raises(DecryptFail):
            wire.unpack(cls.BODY, data[:cut], width)


@pytest.mark.parametrize("kind", ["elem", "elem_list", "shares", "fid", "mac", "u64", "i64", "var"])
@pytest.mark.parametrize("width", EXACT_WIDTHS)
def test_every_reader_rejects_a_field_cut_short(kind, width):
    rng = random.Random(width)
    for _ in range(5):
        data = wire.pack((kind,), random_values((kind,), rng, width), width)
        for cut in range(len(data)):
            with pytest.raises(DecryptFail, match="truncated message"):
                wire.unpack((kind,), data[:cut], width)


@pytest.mark.parametrize(
    "kind, width, outside, edges",
    [
        ("u64", 8, (-1, 2**64), (0, 2**64 - 1)),
        ("i64", 8, (-(2**63) - 1, 2**63), (-(2**63), 2**63 - 1)),
        *[("elem", w, (-1, 256**w), (0, 256**w - 1)) for w in WIDTHS],
    ],
)
def test_pack_rejects_an_integer_that_does_not_fit_and_takes_the_edges(
    kind, width, outside, edges
):
    for v in outside:
        with pytest.raises(ValueError):
            wire.pack((kind,), (v,), width)
    for v in edges:
        assert wire.unpack((kind,), wire.pack((kind,), (v,), width), width) == (v,)


class _Sized:
    """Claims 2**32 items, one more than a 4-byte count holds, and has none."""

    def __len__(self):
        return 2**32


@pytest.mark.parametrize("kind", ["var", "elem_list", "shares"])
def test_pack_rejects_a_count_that_does_not_fit_four_bytes(kind):
    with pytest.raises(ValueError):
        wire.pack((kind,), (_Sized(),), 8)


def test_messages_and_seals_reject_a_field_that_does_not_fit():
    with pytest.raises(ValueError):
        wire.encode_message(wire.AuthHello(0, 2**64, b"", 0, b"", bytes(16)), 8)
    channel = wire.Channel.derive(7, b"sk")
    with pytest.raises(ValueError):
        channel.seal(8, wire.GroupKeyTransfer, (5, -1), random.Random(1))


def test_channel_open_rejects_a_misframed_body():
    channel = wire.Channel.derive(7, b"gk")
    rng = random.Random(3)
    assert channel.open(8, channel.seal(8, wire.GroupKeyNotice, (5,), rng, 1)) == (5,)
    for plain in (bytes(7), bytes(9)):
        msg = channel.tag(8, wire.GroupKeyNotice, 1, sym_encrypt(channel.enc_key, plain, rng))
        for _ in range(2):  # the second from the kept outcome
            with pytest.raises(DecryptFail):
                channel.open(8, msg)


# --- memoized open ---------------------------------------------------------------


def group_broadcast(secret: int, seed: int) -> wire.GroupBroadcast:
    channel = wire.Channel.derive(secret, b"gk")
    return channel.seal(8, wire.GroupBroadcast, (bytes(42), b"payload"), random.Random(seed))


def test_receivers_under_one_key_make_one_hmac_and_one_decryption(monkeypatch):
    msg = group_broadcast(1001, seed=30)
    copy = wire.decode_message(wire.encode_message(msg, 8), 8)
    calls = count_crypto_calls(monkeypatch)
    for _ in range(10):  # every receiver is handed the one decoded copy
        assert wire.Channel.derive(1001, b"gk").open(8, copy) == (bytes(42), b"payload")
    assert calls == {"hmac_tag": 1, "sym_decrypt": 1}


def test_receivers_under_a_wrong_key_each_get_a_new_mac_fail(monkeypatch):
    msg = group_broadcast(1002, seed=31)
    stale = wire.Channel.derive(1003, b"gk")
    calls = count_crypto_calls(monkeypatch)
    errors = []
    for _ in range(10):
        with pytest.raises(MacFail) as info:
            stale.open(8, msg)
        errors.append(info.value)
    assert calls == {"hmac_tag": 1}
    assert len({id(e) for e in errors}) == 10
    # a re-raised cached exception would carry a longer traceback each time
    assert len({len(traceback.extract_tb(e.__traceback__)) for e in errors}) == 1


def test_an_opened_message_is_freed_with_its_last_reference():
    channel = wire.Channel.derive(1007, b"gk")
    stale = wire.Channel.derive(1008, b"gk")
    gc.disable()
    try:
        for opener, raised in ((channel, None), (stale, MacFail)):
            msg = wire.decode_message(wire.encode_message(group_broadcast(1007, seed=33), 8), 8)
            if raised is None:
                assert opener.open(8, msg) == (bytes(42), b"payload")
            else:
                with pytest.raises(raised):
                    opener.open(8, msg)
            ref = weakref.ref(msg)
            del msg
            assert ref() is None
    finally:
        gc.enable()


def test_a_forged_copy_still_fails_after_the_genuine_message_opened():
    msg = group_broadcast(1004, seed=32)
    channel = wire.Channel.derive(1004, b"gk")
    assert channel.open(8, msg) == (bytes(42), b"payload")
    flipped_mac = replace(msg, mac=bytes([msg.mac[0] ^ 1]) + msg.mac[1:])
    flipped_ct = replace(msg, ct=msg.ct[:-1] + bytes([msg.ct[-1] ^ 1]))
    for forged in (flipped_mac, flipped_ct):
        with pytest.raises(MacFail):
            channel.open(8, forged)
    assert channel.open(8, msg) == (bytes(42), b"payload")


def test_shares_count_beyond_the_data_rejected_before_any_entry_is_built():
    width = 8
    entries = tuple((i + 1, bytes([i % 256]) * 42) for i in range(1000))
    data = wire.pack(("shares",), (entries,), width)
    for count in (1001, 2**32 - 1):
        forged = count.to_bytes(4, "big") + data[4:]
        tracemalloc.start()
        try:
            with pytest.raises(DecryptFail):
                wire.unpack(("shares",), forged, width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 1000 entries that are present take over 100 kB once built
        assert peak < 20_000


def test_mac_and_rest_only_as_the_final_kind():
    for kinds in (("rest", "fid"), ("mac", "fid"), ("rest", "mac")):
        with pytest.raises(ValueError, match="final kind"):
            wire.pack(kinds, (b"", bytes(42)), 4)
        with pytest.raises(ValueError, match="final kind"):
            wire.unpack(kinds, bytes(58), 4)
