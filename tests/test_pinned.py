"""Pinned wire bytes and simulator reports.

One seeded exchange in the small64 profile produces every wire message type
(plus the fast-path acknowledgement), sealed exactly as the protocol modules
seal them. Each encoding, MAC included, is compared against hex recorded
before the codec and the seal/open code were restructured, and two
simulator reports are compared against their recorded ``repr``. Any change to
a byte on the wire or to a reported figure fails here.
"""

import dataclasses
import random

from vanetgka import auth, groupcomm, groupkey, wire
from vanetgka.crypto import get_profile
from vanetgka.gka import run_agreement
from vanetgka.registry import (
    refresh_vehicle_epoch,
    register_rsu,
    register_vehicle,
    ta_init,
)
from vanetgka.sim import ScenarioConfig, run_scenario

from test_sim import FAST


def _admit(ta, rsu, beacon, veh, group, neighbor_gk, rng, now):
    """One vehicle's hello, authentication and join at ``rsu``."""
    params = ta.params
    epoch = refresh_vehicle_epoch(veh, params, rng)
    vs = auth.start_vehicle_auth(params, epoch, beacon, rsu.tid)
    hello = auth.make_hello(params, vs, neighbor_gk, rng, now)
    candidates = [] if neighbor_gk is None else [neighbor_gk]
    rs, challenge = auth.process_hello(params, rsu, hello, now + 10, 500, candidates, rng)
    out = [("AuthHello", hello)]
    if challenge is None:
        ack = auth.make_fastpath_ack(params, rs)
        auth.vehicle_apply_fastpath_ack(params, vs, ack)
        out.append(("FastPathAck", ack))
    else:
        confirm = auth.vehicle_confirm(params, vs, veh, challenge, rng)
        auth.rsu_verify(params, rsu, rs, confirm)
        out += [("AuthChallenge", challenge), ("AuthConfirm", confirm)]
    mstate, offer = groupkey.member_offer(params, vs, rng)
    result = groupkey.handle_join(params, group, rs, offer, rng)
    update = result.share_updates[mstate.fid]
    groupkey.member_derive(params, mstate, update)
    out += [("ShareOffer", offer), ("ShareUpdate", update)]
    return mstate, result, out


def pinned_exchange() -> list[tuple[str, wire.WireMessage]]:
    """Every message type once, from one seeded run of the protocol engine."""
    rng = random.Random(20161128)
    ta = ta_init("small64", rng)
    params = ta.params
    r0, b0 = register_rsu(ta, b"rsu-000", (5000, 0), rng)
    r1, b1 = register_rsu(ta, b"rsu-001", (15000, 0), rng)
    keys, commits, responses = run_agreement(params, [r0, r1], rng)
    out = [("RingCommit", commits[0]), ("RingResponse", responses[0]), ("RsuBeacon", b0)]

    group0 = groupkey.GroupState()
    vehicles = [register_vehicle(ta, b"veh-%04d" % i) for i in range(3)]
    members = []
    for i, veh in enumerate(vehicles):
        mstate, result, msgs = _admit(ta, r0, b0, veh, group0, None, rng, 1000 * (i + 1))
        if i == 0:
            out += msgs
        for m in members:
            groupkey.member_apply_notice(params, m, result.notice)
        if result.notice is not None and i == 1:
            out.append(("GroupKeyNotice", result.notice))
        members.append(mstate)

    store = groupkey.NeighborGkStore()
    transfer = groupkey.transfer_gk(params, group0, keys[r0.tid], rng)
    groupkey.receive_gk_transfer(params, store, r0.tid, transfer, keys[r1.tid])
    out.append(("GroupKeyTransfer", transfer))

    a, b = members[0], members[1]
    bcast = groupcomm.broadcast(params, a.gk, a.fid, b"pinned payload", rng)
    assert groupcomm.open_broadcast(params, b.gk, bcast) == (a.fid, b"pinned payload")
    uplink = groupcomm.to_rsu(params, a, b"uplink payload", rng)
    assert groupcomm.rsu_open_uplink(params, a.n1, uplink) == b"uplink payload"
    request = groupcomm.request_directory(params, a, rng)
    assert groupcomm.rsu_open_directory_request(params, group0.gk, request) == a.fid
    listing = groupcomm.rsu_serve_directory(params, group0, rng)
    directory = groupcomm.open_directory(params, a.gk, listing)
    ch_ab = groupcomm.derive_vvk(params, a, b.fid, directory, listing.epoch)
    ch_ba = groupcomm.derive_vvk(params, b, a.fid, directory, listing.epoch)
    peer = groupcomm.send_peer(params, a, ch_ab, b"peer payload", rng)
    assert groupcomm.recv_peer(params, b, ch_ba, peer) == b"peer payload"
    out += [
        ("GroupBroadcast", bcast),
        ("UplinkMessage", uplink),
        ("DirectoryRequest", request),
        ("DirectoryListing", listing),
        ("PeerMessage", peer),
    ]

    old_gk = group0.gk
    leaver = members.pop()
    _, leave = groupkey.handle_leave(params, group0, leaver.fid, rng)
    for m in members:
        groupkey.member_derive_from_leave(params, m, leave, old_gk)
        assert m.gk == group0.gk
    out.append(("LeaveUpdate", leave))

    # the departed vehicle re-enters at the neighbour RSU on the fast path
    _, _, msgs = _admit(
        ta, r1, b1, vehicles[-1], groupkey.GroupState(), store.current(r0.tid), rng, 9000
    )
    out += [(label, m) for label, m in msgs if label == "FastPathAck"]
    return out


PINNED_HEX = {
    "RingCommit": (
        "01000000077273752d3030304e7ca77cf68d35181ba64438633081b153094ecb"
        "3e8c17901072085db4910e0b4e20d0bee4f06adf"
    ),
    "RingResponse": (
        "02000000077273752d303030000000000000000123f8d62572e0a40500000001"
        "49054087021dc8740a16674c8eca8caf4605b47d151cb4e5"
    ),
    "RsuBeacon": (
        "100b2fd13b67becec7000000000000138800000000000000002a70ab161b27f8"
        "2805ba3201a18988900830f06c61d4d876"
    ),
    "AuthHello": (
        "110fa1aebf6361021400000000000003e80000003af2a3ebe1bd7bac3aaa4e4c"
        "2935dc4ccf4f956c50168d049a606449442ea47f6f1d5779d769cbd8c900d4df"
        "9505b80fdf33b03149fc0eb139b848170177767732a0bc0000004225e5ca0c71"
        "8104fa645c6b69b0ac1fcdd53fe02d0bcec00e25145bd1a0d012e17d2504c8e0"
        "11758689cfb12c697fd1700de484ab48c62a787883b6fa0813758b5edb7cbe2f"
        "c28dbaf4752e841a4bd6573f8c"
    ),
    "AuthChallenge": (
        "12000000205844046f7366908a0415ff687c31a1ed99db44f6061fabff8ab423"
        "48c6e9a3270f3bab36095f3796da778da75d9a262c"
    ),
    "AuthConfirm": (
        "1300000052a75cd98147d825293255eb783f31ea88afe58e857f8c00f9fabfba"
        "c29328bf24fe3d63f2f1a0c98a0e2ec93b646fa0d64edebedd50842cd3a24501"
        "7c5876dd63f33669d5790fac2ff1d73f183caa10b3ce1d365c3bcabc4e264213"
        "ca2e0632ebaa2e"
    ),
    "ShareOffer": (
        "2000000042f1d10935a40a2cd5c4bc1a335c056cce44f0327376b05bf3685840"
        "3a1b7f06ca49f1ffc86030bfd3b4e414041ea120c81dd4568cab8c86386f1521"
        "2851b2a849f45792301da95311b375453499ca6acdb720"
    ),
    "ShareUpdate": (
        "2100000000000000010000002018df5ffed1930dd6a378774a7657522544b2c2"
        "22b0da39dda05cdba8435da98fda86209d8dec38f554641a7840b42e9c"
    ),
    "GroupKeyNotice": (
        "22000000000000000200000018fada06f37d679e7aa0dec198f2aaa47f79a0a3"
        "9197bb63379aa4a694ac2c22322851a4af46af56d1"
    ),
    "GroupKeyTransfer": (
        "240000002088fb7dbbfd866fb60588525ed7ab17831fe65ec8690bfc2192f0af"
        "dd7a2e0377e6e14c50d8f864fc64bc5e4b7d66de8e"
    ),
    "GroupBroadcast": (
        "3000000048428740657776ed27f1f991614ccc384dcc207002560213718901b1"
        "d1dabd07cf7e4a38953c85d5e985b210bbf200503d0e9d501c7f41de003da35b"
        "ad990cd9df12c53b609296a55bd3d3642ec70d4c7b5238239c6ebd5fb5"
    ),
    "UplinkMessage": (
        "3153bb46be5ea324b26c8e97f7f01040fad5eeaf5abc386ae3c9db220d652165"
        "1ddccea973ffcbae3d85d00000001e15a1992bfa28d87c93391eb09e527fcc9c"
        "a0f85680e1fbdc08b9c3f51643757cd4ea7c4bd3d13bfa439ef82adabc"
    ),
    "DirectoryRequest": (
        "3200000042a4f179b2c874468274e139a95741a40ee627f58ec676828052f7c8"
        "d8e68f6d32e2e62b53b8e654e5eada8ba3c06fce4c5b12b59e6111e1a1489e39"
        "830f8bbea4303555f794f3460a8bce2132f91433e0aff1"
    ),
    "DirectoryListing": (
        "330000000000000003000000aa531a2f3afb182029d276605f6747eb53033e60"
        "892570e30f2e2576c9cf0c9d65e999b34e9f49cc85f0aaefe05e3777d274385d"
        "a57ab70a94c879c1e2655f2871154fe8f61f8ca1771bf8ff21b184680d8d17b3"
        "d577413699d88cb9721256dbfc167865ddb30ced68eb8dc0a69e20be0dc2390c"
        "f428ddf6d83d2a70bfd49dc352ba5f4e6288dd00dde9fbb007aa88cda48b8b1e"
        "799b29b3a3e6d84806f60373d3b611f7dfdf1ce53833dd17d28ed4247f823336"
        "86ed6bf92cb01f"
    ),
    "PeerMessage": (
        "340000009c5d0c0fdbe0aa3fea04f8db091535fa5ed5833f5a46a52117691270"
        "cdb366981103d0fc07071fc95299325208266ac4354db77803ab14b9197ecc04"
        "0d0605a85e10ad3777d3529ce45ed4fa1ae8335227ac7b13569e06a635da3992"
        "0fc4048bd183d4eabdeda5c47dedad915b89e4e601da19e64708bdfed1ca520b"
        "e846e0c6a0131a70e3deae5118b1cac22f825c95fa0924be019f14946c9d4936"
        "6c52a19f18476d08e9cdc7e52fc9a1e70e"
    ),
    "LeaveUpdate": (
        "23000000000000000400000080efc0e0925aeab2c4c35fcc51ab2b031ba950ce"
        "a7d35ed14923f2c75bb4e95991978f72d897c73fcddca353635a127bc581ccad"
        "0922987c1eb194f1c0f80390f88ee76c7b646a4640a98110c4e504640b7e3732"
        "8a6241dd3714df54e826375c442986feb1ea92fa2f9a9c83d842072e1845059b"
        "0af27f77ea40f323fb50746c033951f53c23b3f682579f9cf1dddadb4d"
    ),
    "FastPathAck": (
        "1200000000d8aed025aaa8a0d14bb0b54084c7ba7b"
    ),
}

PINNED_REPORTS = {
    "fast": (
        "MetricsReport(n_vehicles=6, average_delay_ms=14.809374308303372, "
        "total_overhead_bytes=17632, auth_count=6, fastpath_count=0, rekey_count=10)"
    ),
    "default_n10": (
        "MetricsReport(n_vehicles=10, average_delay_ms=16.337177724841936, "
        "total_overhead_bytes=32712, auth_count=11, fastpath_count=2, rekey_count=19)"
    ),
}


def test_pinned_exchange_covers_every_message_type():
    exchange = pinned_exchange()
    labels = [label for label, _ in exchange]
    assert {type(m) for _, m in exchange} == set(wire.MESSAGE_TYPES)
    assert "FastPathAck" in labels and len(labels) == len(set(labels)) == 17


def test_wire_bytes_and_macs_are_pinned():
    width = get_profile("small64").element_width
    got = {label: wire.encode_message(m, width).hex() for label, m in pinned_exchange()}
    assert got == PINNED_HEX


def test_simulator_reports_are_pinned():
    assert repr(run_scenario(FAST)) == PINNED_REPORTS["fast"]
    default10 = run_scenario(dataclasses.replace(ScenarioConfig(), n_vehicles=10))
    assert repr(default10) == PINNED_REPORTS["default_n10"]
