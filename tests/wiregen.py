"""Random wire-message generators shared by the codec and acceptance tests,
and a counter of the crypto calls the codec makes."""

import random
from collections import Counter

from vanetgka import wire


def random_message(cls, rng: random.Random, width: int):
    def elem():
        return rng.randrange(0, 256**width)

    def var(lo=0, hi=80):
        return rng.randbytes(rng.randrange(lo, hi))

    def mac():
        return rng.randbytes(16)

    def fid():
        return rng.randbytes(42)

    def u64():
        return rng.randrange(2**64)

    def i64():
        return rng.randrange(-(2**63), 2**63)

    if cls is wire.RingCommit:
        return cls(var(), elem(), elem(), elem(), elem(), elem())
    if cls is wire.RingResponse:
        tokens = tuple(elem() for _ in range(rng.randrange(0, 8)))
        return cls(var(), elem(), elem(), tokens, elem(), elem())
    if cls is wire.RsuBeacon:
        return cls(elem(), i64(), i64(), elem(), elem(), elem())
    if cls is wire.AuthHello:
        return cls(elem(), u64(), var(), elem(), var(), mac())
    if cls in (
        wire.AuthChallenge,
        wire.AuthConfirm,
        wire.ShareOffer,
        wire.GroupKeyTransfer,
        wire.GroupBroadcast,
        wire.DirectoryRequest,
        wire.PeerMessage,
    ):
        return cls(var(), mac())
    if cls in (wire.ShareUpdate, wire.GroupKeyNotice, wire.LeaveUpdate, wire.DirectoryListing):
        return cls(u64(), var(), mac())
    if cls is wire.UplinkMessage:
        return cls(fid(), var(), mac())
    raise AssertionError(f"no generator for {cls}")


def count_crypto_calls(monkeypatch) -> Counter:
    """Count the HMACs and decryptions that ``wire`` makes from now on."""
    calls = Counter()
    for name in ("hmac_tag", "sym_decrypt"):

        def counted(*args, _real=getattr(wire, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(wire, name, counted)
    return calls
