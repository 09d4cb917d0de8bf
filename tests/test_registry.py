import random

import pytest

from vanetgka.errors import DuplicateIdentity, TraceMismatch
from vanetgka.registry import (
    credential_sound,
    load_ta,
    pad_tid,
    refresh_vehicle_epoch,
    register_rsu,
    register_vehicle,
    save_ta,
    ta_init,
    trace,
    unpad_tid,
)


@pytest.fixture
def ta():
    return ta_init("test", random.Random(42))


def test_ta_init_test_profile(ta):
    assert (ta.params.p, ta.params.q, ta.params.g) == (23, 11, 2)
    assert 1 <= ta.sk_ta <= 10
    assert ta.params.pk_ta_g == ta.params.g_exp(2, ta.sk_ta)
    assert ta.params.pk_ta_g1 == ta.sk_ta % 11


def test_ta_init_seeds_differ():
    a = ta_init("test", random.Random(1))
    b = ta_init("test", random.Random(2))
    assert a.sk_ta != b.sk_ta


def test_ta_init_secret_never_zero():
    for seed in range(50):
        assert ta_init("test", random.Random(seed)).sk_ta != 0


def test_register_rsu_certification_values(ta):
    # with psi = 3 and Q = 4 the certification value is 3*4 mod 11 = 1
    ta.sk_ta = 3
    ta.params = ta.params.with_ta_keys(3)
    rng = random.Random(0)
    tid = next(
        bytes([i]) for i in range(256) if ta.params.hash_to_g1(bytes([i])) == 4
    )
    creds, beacon = register_rsu(ta, tid, (100, 200), rng)
    assert creds.q_u == 4
    assert creds.s_u == 1
    assert credential_sound(ta.params, creds)
    assert beacon.pk_rsu == creds.pk


def test_register_duplicate_tid_rejected(ta):
    rng = random.Random(0)
    register_rsu(ta, b"rsu-1", (0, 0), rng)
    with pytest.raises(DuplicateIdentity):
        register_rsu(ta, b"rsu-1", (5, 5), rng)
    register_vehicle(ta, b"veh-1")
    with pytest.raises(DuplicateIdentity):
        register_vehicle(ta, b"veh-1")


def test_register_vehicle_sound(ta):
    creds = register_vehicle(ta, b"veh-7")
    assert creds.sk is None and creds.pk is None and creds.loc is None
    assert creds.q_u == ta.params.hash_to_g1(b"veh-7")
    assert creds.s_u == ta.params.g1_mul(ta.sk_ta, creds.q_u)
    assert credential_sound(ta.params, creds)


def test_pad_unpad_round_trip():
    for tid in (b"a", b"veh-123", b"x" * 41):
        assert unpad_tid(pad_tid(tid)) == tid
    with pytest.raises(ValueError):
        pad_tid(b"")
    with pytest.raises(ValueError):
        pad_tid(b"y" * 42)
    with pytest.raises(TraceMismatch):
        unpad_tid(bytes([0]) + bytes(41))
    with pytest.raises(TraceMismatch):
        unpad_tid(bytes([1, 65]) + b"\x01" + bytes(39))


def test_epoch_refresh_and_mask_round_trip(ta):
    creds = register_vehicle(ta, b"veh-9")
    rng = random.Random(3)
    epoch = refresh_vehicle_epoch(creds, ta.params, rng)
    assert epoch.pk_v == ta.params.g_exp(ta.params.g, epoch.alpha)
    mask = ta.params.mask_hash(ta.params.g_exp(ta.params.pk_ta_g, epoch.alpha))
    padded = bytes(a ^ b for a, b in zip(epoch.fid, mask))
    assert unpad_tid(padded) == b"veh-9"


def test_epochs_unlinkable_surrogate():
    ta = ta_init("small64", random.Random(8))
    creds = register_vehicle(ta, b"veh-2")
    rng = random.Random(9)
    seen_fids = set()
    seen_pks = set()
    for _ in range(1000):
        e = refresh_vehicle_epoch(creds, ta.params, rng)
        seen_fids.add(e.fid)
        seen_pks.add(e.pk_v)
    assert len(seen_fids) == 1000
    assert len(seen_pks) == 1000


def test_trace_identity_exhaustive_at_test_profile(ta):
    creds = register_vehicle(ta, b"veh-4")
    for alpha in range(1, 11):
        pk_v = ta.params.g_exp(ta.params.g, alpha)
        mask = ta.params.mask_hash(ta.params.g_exp(ta.params.pk_ta_g, alpha))
        fid = bytes(a ^ b for a, b in zip(pad_tid(creds.tid), mask))
        assert trace(ta, fid, pk_v) == b"veh-4"


def test_trace_production_size():
    ta = ta_init("default", random.Random(10))
    creds = register_vehicle(ta, b"veh-5")
    rng = random.Random(11)
    for _ in range(100):
        e = refresh_vehicle_epoch(creds, ta.params, rng)
        assert trace(ta, e.fid, e.pk_v) == b"veh-5"


def test_trace_wrong_key_fails():
    ta = ta_init("small64", random.Random(12))
    creds = register_vehicle(ta, b"veh-6")
    rng = random.Random(13)
    failures = 0
    for _ in range(200):
        e = refresh_vehicle_epoch(creds, ta.params, rng)
        wrong_pk = ta.params.g_exp(ta.params.g, e.alpha + 1)
        try:
            got = trace(ta, e.fid, wrong_pk)
            if got != creds.tid:
                failures += 1
        except TraceMismatch:
            failures += 1
    assert failures == 200


def test_trace_max_length_tid(ta):
    tid = b"z" * 41
    creds = register_vehicle(ta, tid)
    e = refresh_vehicle_epoch(creds, ta.params, random.Random(14))
    assert trace(ta, e.fid, e.pk_v) == tid


def test_persistence_round_trip(tmp_path):
    ta = ta_init("test", random.Random(15))
    rng = random.Random(16)
    register_rsu(ta, b"rsu-a", (1000, -2000), rng)
    register_vehicle(ta, b"veh-a")
    save_ta(ta, tmp_path)
    loaded = load_ta(tmp_path)
    assert loaded.sk_ta == ta.sk_ta
    assert loaded.params == ta.params
    assert loaded.registry == ta.registry
    assert loaded.beacons == ta.beacons


def test_registry_file_has_no_secret_fields(tmp_path):
    import json

    ta = ta_init("test", random.Random(17))
    register_rsu(ta, b"rsu-b", (0, 0), random.Random(18))
    save_ta(ta, tmp_path)
    data = json.loads((tmp_path / "registry.json").read_text())
    assert "sk_ta" not in data and "sk_ta" not in data["params"]
    for node in data["nodes"]:
        assert "sk" not in node
        assert "s_u" not in node
    keystore = json.loads((tmp_path / "keystore.json").read_text())
    assert "sk_ta" in keystore


def test_load_ta_rejects_invalid_params(tmp_path):
    import json

    save_ta(ta_init("test", random.Random(19)), tmp_path)
    path = tmp_path / "registry.json"
    saved = path.read_text()
    # p raised by 2 is not prime; g = 1 does not generate the order-q group
    for field, value in (("p", "25"), ("g", "1")):
        data = json.loads(saved)
        data["params"][field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_ta(tmp_path)


def test_load_ta_rejects_keys_or_credentials_that_do_not_match(tmp_path):
    import json

    ta = ta_init("small64", random.Random(20))
    register_rsu(ta, b"rsu-c", (0, 0), random.Random(21))
    save_ta(ta, tmp_path)
    registry_path = tmp_path / "registry.json"
    saved = json.loads(registry_path.read_text())
    # a TA public key in G that is not g^sk_ta
    data = json.loads(json.dumps(saved))
    data["params"]["pk_ta_g"] = str(ta.params.g_exp(ta.params.g, 12345))
    registry_path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="TA public keys"):
        load_ta(tmp_path)
    # a certification value that is not sk_ta * Q_U
    registry_path.write_text(json.dumps(saved))
    keystore_path = tmp_path / "keystore.json"
    keystore = json.loads(keystore_path.read_text())
    secrets = keystore["nodes"][b"rsu-c".hex()]
    secrets["s_u"] = str((int(secrets["s_u"]) + 1) % ta.params.q)
    keystore_path.write_text(json.dumps(keystore))
    with pytest.raises(ValueError, match="unsound certification"):
        load_ta(tmp_path)


def test_load_ta_rejects_fields_of_the_wrong_json_shape(tmp_path):
    import json
    import re

    ta = ta_init("small64", random.Random(22))
    register_rsu(ta, b"rsu", (0, 0), random.Random(23))
    save_ta(ta, tmp_path)
    path = tmp_path / "registry.json"
    saved = json.loads(path.read_text())
    node = saved["nodes"][0]
    for edit, message in (
        ({"nodes": [{**node, "loc": 5}]}, "node 727375 loc must be [x, y], got 5"),
        ({"params": {**saved["params"], "p": [1]}}, "params p must be an integer, got [1]"),
        ({"nodes": 5}, "nodes must be a JSON list, got 5"),
    ):
        path.write_text(json.dumps({**saved, **edit}))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_ta(tmp_path)


def test_load_ta_rejects_a_node_whose_role_does_not_match_its_keys(tmp_path):
    import json
    import re

    ta = ta_init("small64", random.Random(24))
    creds, _ = register_rsu(ta, b"rsu", (0, 0), random.Random(25))
    register_vehicle(ta, b"veh")
    save_ta(ta, tmp_path)
    path = tmp_path / "registry.json"
    saved = json.loads(path.read_text())
    rsu, veh = saved["nodes"]
    other_pk = str(ta.params.g_exp(ta.params.g, creds.sk + 1))
    for nodes, message in (
        ([{**rsu, "role": 5}, veh], "node 727375 role must be rsu or vehicle, got 5"),
        ([{**rsu, "role": "vehicle"}, veh], "node 727375 is a vehicle with an sk, pk or loc"),
        ([{**rsu, "loc": None}, veh], "node 727375 is an rsu without its sk, pk and loc"),
        ([{**rsu, "pk": None}, veh], "node 727375 is an rsu without its sk, pk and loc"),
        ([rsu, {**veh, "role": "rsu"}], "node 766568 is an rsu without its sk, pk and loc"),
        ([rsu, {**veh, "loc": [0, 0]}], "node 766568 is a vehicle with an sk, pk or loc"),
        ([{**rsu, "pk": other_pk}, veh], "node 727375 pk is not g^sk"),
    ):
        path.write_text(json.dumps({**saved, "nodes": nodes}))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_ta(tmp_path)
    # an RSU whose secret key is missing from the keystore
    path.write_text(json.dumps(saved))
    keystore_path = tmp_path / "keystore.json"
    keystore = json.loads(keystore_path.read_text())
    keystore["nodes"][b"rsu".hex()]["sk"] = None
    keystore_path.write_text(json.dumps(keystore))
    with pytest.raises(ValueError, match="node 727375 is an rsu without its sk, pk and loc"):
        load_ta(tmp_path)


def test_load_ta_rejects_a_beacon_that_is_not_the_nodes_own(tmp_path):
    import json
    import re
    from dataclasses import replace

    from vanetgka import wire
    from wiregen import random_message

    ta = ta_init("small64", random.Random(26))
    width = ta.params.element_width
    register_rsu(ta, b"rsu", (0, 0), random.Random(27))
    register_rsu(ta, b"usr", (50_000, 0), random.Random(28))
    register_vehicle(ta, b"veh")
    save_ta(ta, tmp_path)
    path = tmp_path / "registry.json"
    saved = json.loads(path.read_text())
    rsu, usr, veh = saved["nodes"]
    beacon = ta.beacons[b"rsu"]

    def encoded(msg) -> str:
        return wire.encode_message(msg, width).hex()

    transfer = random_message(wire.GroupKeyTransfer, random.Random(29), width)
    forged = replace(beacon, sig_s=(beacon.sig_s + 1) % ta.params.q)
    moved = replace(beacon, loc_x=100)
    not_own = "node 727375 beacon is not an RsuBeacon of its pk and loc"
    for nodes, message in (
        ([{**rsu, "beacon": usr["beacon"]}, usr, veh], not_own),
        ([{**rsu, "beacon": encoded(transfer)}, usr, veh], not_own),
        ([{**rsu, "beacon": encoded(forged)}, usr, veh], "node 727375 beacon: beacon signature"),
        ([{**rsu, "loc": [100, 0], "beacon": encoded(moved)}, usr, veh], "location hash"),
        ([rsu, usr, {**veh, "beacon": rsu["beacon"]}], "node 766568 is a vehicle with a beacon"),
        ([rsu, usr, veh, {**rsu, "loc": [7, 7], "beacon": None}], "node 727375 is listed twice"),
    ):
        path.write_text(json.dumps({**saved, "nodes": nodes}))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_ta(tmp_path)
    path.write_text(json.dumps(saved))
    assert load_ta(tmp_path).beacons == ta.beacons
