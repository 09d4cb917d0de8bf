import random
from dataclasses import replace

import pytest

from vanetgka import wire
from vanetgka.auth import (
    AuthSession,
    AuthState,
    hybrid_decrypt,
    hybrid_encrypt,
    is_authenticated,
    make_hello,
    process_hello,
    rsu_verify,
    start_vehicle_auth,
    verify_beacon,
    vehicle_confirm,
)
from vanetgka.crypto import get_profile, rand_zq_star
from vanetgka.errors import (
    DecryptFail,
    KeyConfirmFail,
    LocHashMismatch,
    MacFail,
    SigFail,
    StateError,
    StaleTimestamp,
)
from vanetgka.registry import (
    NodeCredentials,
    refresh_vehicle_epoch,
    register_rsu,
    register_vehicle,
    ta_init,
)


class ScriptedRng:
    def __init__(self, script, seed=0):
        self.script = list(script)
        self.rng = random.Random(seed)

    def randrange(self, *args):
        if self.script:
            return self.script.pop(0)
        return self.rng.randrange(*args)

    def randbytes(self, n):
        return self.rng.randbytes(n)


def setup(profile="small64", seed=0):
    ta = ta_init(profile, random.Random(seed))
    rng = random.Random(seed + 1)
    rsu, beacon = register_rsu(ta, b"rsu-a", (50_000, 0), rng)
    veh = register_vehicle(ta, b"veh-1")
    epoch = refresh_vehicle_epoch(veh, ta.params, rng)
    return ta, rsu, beacon, veh, epoch, rng


def run_full_auth(ta, rsu, beacon, veh, epoch, rng, neighbor_gks=(), vehicle_gk=None):
    params = ta.params
    vs = start_vehicle_auth(params, epoch, beacon, rsu.tid)
    hello = make_hello(params, vs, vehicle_gk, rng, now_ms=1000)
    rs, challenge = process_hello(
        params, rsu, hello, now_ms=1050, delta_max_ms=500,
        neighbor_gks=list(neighbor_gks), rng=rng,
    )
    if challenge is None:
        return vs, rs
    confirm = vehicle_confirm(params, vs, veh, challenge, rng)
    rsu_verify(params, rsu, rs, confirm)
    return vs, rs


# --- beacon ----------------------------------------------------------------------


def test_honest_beacon_accepted():
    ta, rsu, beacon, *_ = setup()
    verify_beacon(ta.params, beacon)


def test_moved_location_rejected():
    # one meter = 100 cm shift after signing
    ta, rsu, beacon, *_ = setup()
    with pytest.raises(LocHashMismatch):
        verify_beacon(ta.params, replace(beacon, loc_x=beacon.loc_x + 100))


def test_consistently_rewritten_location_fails_signature():
    ta, rsu, beacon, *_ = setup()
    moved = replace(
        beacon,
        loc_x=beacon.loc_x + 100,
        loc_hash=ta.params.hash_to_scalar(
            (beacon.loc_x + 100).to_bytes(8, "big", signed=True)
            + beacon.loc_y.to_bytes(8, "big", signed=True)
        ),
    )
    with pytest.raises(SigFail):
        verify_beacon(ta.params, moved)


def test_forged_beacon_signatures_rejected():
    ta, rsu, beacon, *_ = setup()
    rng = random.Random(1)
    for _ in range(100):
        forged = replace(
            beacon,
            sig_c=rng.randrange(ta.params.q),
            sig_s=rng.randrange(ta.params.q),
        )
        with pytest.raises(SigFail):
            verify_beacon(ta.params, forged)


# --- hello -----------------------------------------------------------------------


def test_hello_round_trip_recovers_fid_and_nonce():
    ta, rsu, beacon, veh, epoch, rng = setup()
    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, None, rng, now_ms=1000)
    rs, challenge = process_hello(ta.params, rsu, hello, 1100, 500, [], rng)
    assert rs.fid == epoch.fid
    assert rs.n1 == vs.n1
    assert challenge is not None


def test_hello_field_widths():
    ta, rsu, beacon, veh, epoch, rng = setup()
    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, None, rng, now_ms=1000)
    assert len(hello.gk_fid_ct) == 16 + 42  # nonce + pseudonym, size-invariant
    assert len(hello.mac) == 16


def test_hellos_use_fresh_nonces():
    ta, rsu, beacon, veh, epoch, rng = setup()
    n1s = set()
    for _ in range(20):
        vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
        make_hello(ta.params, vs, None, rng, now_ms=1000)
        n1s.add(vs.n1)
    assert len(n1s) == 20


def test_stale_hello_rejected():
    ta, rsu, beacon, veh, epoch, rng = setup()
    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, None, rng, now_ms=1000)
    with pytest.raises(StaleTimestamp):
        process_hello(ta.params, rsu, hello, 1501, 500, [], rng)
    # replay after the window is the same rejection
    with pytest.raises(StaleTimestamp):
        process_hello(ta.params, rsu, hello, 99999, 500, [], rng)


def test_hello_mac_bit_flip_rejected():
    ta, rsu, beacon, veh, epoch, rng = setup()
    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, None, rng, now_ms=1000)
    bad = replace(hello, mac=bytes([hello.mac[0] ^ 1]) + hello.mac[1:])
    with pytest.raises(MacFail):
        process_hello(ta.params, rsu, bad, 1100, 500, [], rng)


def test_hybrid_encryption_round_trip():
    params = get_profile("small64")
    rng = random.Random(2)
    sk = rand_zq_star(rng, params.q)
    pk = params.g_exp(params.g, sk)
    epk, ct = hybrid_encrypt(params, pk, b"payload-bytes", rng)
    assert hybrid_decrypt(params, sk, epk, ct) == b"payload-bytes"
    with pytest.raises(DecryptFail):
        hybrid_decrypt(params, sk, 0, ct)


# --- fast path ------------------------------------------------------------------


def test_fast_path_engages_on_matching_neighbor_key():
    ta, rsu, beacon, veh, epoch, rng = setup()
    gk = ta.params.g_exp(ta.params.g, 1234)
    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, gk, rng, now_ms=1000)
    rs, challenge = process_hello(ta.params, rsu, hello, 1100, 500, [777, gk], rng)
    assert challenge is None
    assert rs.state is AuthState.FASTPATH_DONE
    assert is_authenticated(rs)


def test_fast_path_skipped_without_matching_key():
    ta, rsu, beacon, veh, epoch, rng = setup()
    gk = ta.params.g_exp(ta.params.g, 1234)
    other = ta.params.g_exp(ta.params.g, 4321)
    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, gk, rng, now_ms=1000)
    rs, challenge = process_hello(ta.params, rsu, hello, 1100, 500, [other], rng)
    assert challenge is not None
    assert rs.state is AuthState.CHALLENGED


def test_fast_path_requires_fid_agreement():
    # an attacker pasting someone else's neighbor-key field into its own
    # hello fails the comparison and falls back to the challenge path
    ta, rsu, beacon, veh, epoch, rng = setup()
    gk = ta.params.g_exp(ta.params.g, 1234)
    other_veh = register_vehicle(ta, b"veh-2")
    other_epoch = refresh_vehicle_epoch(other_veh, ta.params, rng)
    donor = start_vehicle_auth(ta.params, other_epoch, beacon, rsu.tid)
    donor_hello = make_hello(ta.params, donor, gk, rng, now_ms=1000)

    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, None, rng, now_ms=1000)
    spliced = wire.Channel.derive(vs.n1, b"n1").tag(
        ta.params.element_width,
        wire.AuthHello,
        hello.pk_v,
        hello.ts_ms,
        donor_hello.gk_fid_ct,
        hello.kem_epk,
        hello.kem_ct,
    )
    rs, challenge = process_hello(ta.params, rsu, spliced, 1100, 500, [gk], rng)
    assert rs.state is AuthState.CHALLENGED and challenge is not None


# --- key confirmation -------------------------------------------------------------


def test_confirmation_golden_vector():
    # psi=3, Q_R=4, Q_V=5 (so s_R=1, s_V=4), n1=2, alpha=3, beta=5
    params = get_profile("test")
    params = params.with_ta_keys(params.g_exp(params.g, 3), params.g1_mul(3, 1))
    rsu = NodeCredentials(
        tid=b"r", role="rsu", q_u=4, s_u=1, sk=7, pk=params.g_exp(params.g, 7),
        loc=(0, 0),
    )
    veh = NodeCredentials(tid=b"v", role="vehicle", q_u=5, s_u=4)
    fid = bytes(41) + b"\x01"  # arbitrary 42-byte pseudonym
    vs = AuthSession(
        state=AuthState.BEACON_VERIFIED, fid=fid, pk_v=params.g_exp(params.g, 9),
        pk_rsu=rsu.pk, q_rsu=rsu.q_u,
    )
    hello = make_hello(params, vs, None, ScriptedRng([2]), now_ms=1000)
    assert vs.n1 == 2
    rs, challenge = process_hello(
        params, rsu, hello, 1100, 500, [], ScriptedRng([3], seed=1)
    )
    assert rs.alpha == 3
    confirm = vehicle_confirm(params, vs, veh, challenge, ScriptedRng([5], seed=2))
    assert vs.beta == 5
    assert vs.k_v == 2
    rsu_verify(params, rsu, rs, confirm)
    assert rs.k_rsu == 2
    assert rs.state is AuthState.CONFIRMED


def test_confirmation_identity_randomized_with_algebraic_oracle():
    ta, rsu, beacon, veh, epoch, rng = setup()
    params = ta.params
    psi = ta.sk_ta
    for _ in range(1000):
        vs, rs = run_full_auth(ta, rsu, beacon, veh, epoch, rng)
        assert rs.state is AuthState.CONFIRMED
        expected = params.g_exp(
            params.pair(1, 1),
            vs.n1 * psi * (vs.beta * rsu.q_u + rs.alpha * veh.q_u),
        )
        assert vs.k_v == rs.k_rsu == expected


def test_impostor_with_unissued_credential_rejected():
    ta, rsu, beacon, veh, epoch, rng = setup()
    rejected = 0
    for i in range(100):
        fake_s = rand_zq_star(rng, ta.params.q)
        impostor = NodeCredentials(
            tid=veh.tid, role="vehicle", q_u=veh.q_u, s_u=fake_s
        )
        if fake_s == veh.s_u:
            continue
        try:
            run_full_auth(ta, rsu, beacon, impostor, epoch, rng)
        except KeyConfirmFail:
            rejected += 1
    assert rejected == 100


def test_inconsistent_confirmation_value_rejected():
    # a malicious vehicle swaps its blinding value after computing K_V;
    # it knows n1, so it can re-MAC, but the pairing check still fails
    ta, rsu, beacon, veh, epoch, rng = setup()
    params = ta.params
    vs = start_vehicle_auth(params, epoch, beacon, rsu.tid)
    hello = make_hello(params, vs, None, rng, now_ms=1000)
    rs, challenge = process_hello(params, rsu, hello, 1100, 500, [], rng)
    confirm = vehicle_confirm(params, vs, veh, challenge, rng)

    channel = wire.Channel.derive(vs.n1, b"n1")
    w = params.element_width
    plain = bytearray(channel.open(w, confirm))
    t_v_tampered = params.g1_mul(vs.beta + 1, 1)
    plain[42 : 42 + w] = params.encode_elem(t_v_tampered)
    bad = channel.seal(w, wire.AuthConfirm, bytes(plain), rng)
    with pytest.raises(KeyConfirmFail):
        rsu_verify(params, rsu, rs, bad)


def test_challenge_mac_flip_rejected():
    ta, rsu, beacon, veh, epoch, rng = setup()
    vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
    hello = make_hello(ta.params, vs, None, rng, now_ms=1000)
    rs, challenge = process_hello(ta.params, rsu, hello, 1100, 500, [], rng)
    bad = replace(challenge, mac=bytes([challenge.mac[0] ^ 0x80]) + challenge.mac[1:])
    with pytest.raises(MacFail):
        vehicle_confirm(ta.params, vs, veh, bad, rng)


def test_wrong_blinded_certification_echo_rejected():
    ta, rsu, beacon, veh, epoch, rng = setup()
    params = ta.params
    vs = start_vehicle_auth(params, epoch, beacon, rsu.tid)
    hello = make_hello(params, vs, None, rng, now_ms=1000)
    rs, challenge = process_hello(params, rsu, hello, 1100, 500, [], rng)

    channel = wire.Channel.derive(rs.n1, b"n1")
    w = params.element_width
    plain = bytearray(channel.open(w, challenge))
    plain[w:] = params.encode_elem((params.decode_elem(bytes(plain[w:])) + 1) % params.q)
    bad = channel.seal(w, wire.AuthChallenge, bytes(plain), rng)
    with pytest.raises(MacFail):
        vehicle_confirm(params, vs, veh, bad, rng)


# --- state machine ------------------------------------------------------------------


def test_out_of_order_operations_rejected():
    ta, rsu, beacon, veh, epoch, rng = setup()
    params = ta.params
    vs = start_vehicle_auth(params, epoch, beacon, rsu.tid)
    dummy_challenge = wire.AuthChallenge(ct=b"", mac=bytes(16))
    with pytest.raises(StateError):
        vehicle_confirm(params, vs, veh, dummy_challenge, rng)  # before hello

    hello = make_hello(params, vs, None, rng, now_ms=1000)
    with pytest.raises(StateError):
        make_hello(params, vs, None, rng, now_ms=2000)  # hello twice

    rs, challenge = process_hello(params, rsu, hello, 1100, 500, [], rng)
    confirm = vehicle_confirm(params, vs, veh, challenge, rng)
    rsu_verify(params, rsu, rs, confirm)
    with pytest.raises(StateError):
        rsu_verify(params, rsu, rs, confirm)  # confirm twice


def test_sequence_fuzz_never_reaches_confirmed_out_of_order():
    ta, rsu, beacon, veh, epoch, _ = setup()
    params = ta.params
    meta = random.Random(31)
    for trial in range(50):
        rng = random.Random(trial)
        vs = start_vehicle_auth(params, epoch, beacon, rsu.tid)
        hello = make_hello(params, vs, None, rng, now_ms=1000)
        rs, challenge = process_hello(params, rsu, hello, 1100, 500, [], rng)
        confirm = vehicle_confirm(params, vs, veh, challenge, rng)
        ops = [
            lambda: make_hello(params, vs, None, rng, now_ms=1500),
            lambda: vehicle_confirm(params, vs, veh, challenge, rng),
            lambda: process_hello(params, rsu, hello, 99_999, 500, [], rng),
        ]
        op = meta.choice(ops)
        with pytest.raises(Exception) as exc:
            op()
        assert exc.type.__module__ == "vanetgka.errors"
        # the real exchange still completes exactly once
        rsu_verify(params, rsu, rs, confirm)
        assert rs.state is AuthState.CONFIRMED
