import gc
import hashlib
import hmac
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetgka.auth import hybrid_decrypt, hybrid_encrypt
from vanetgka.crypto import (
    MAC_LEN,
    PROFILES,
    SystemParams,
    get_profile,
    hmac_tag,
    is_probable_prime,
    kdf,
    rand_zq_star,
    schnorr_sign,
    schnorr_verify,
    sym_decrypt,
    sym_encrypt,
    _ctr_sha256,
    _fixed_base_table,
)
from vanetgka.errors import DecryptFail
from vanetgka.gka import run_agreement
from vanetgka.registry import (
    refresh_vehicle_epoch,
    register_rsu,
    register_vehicle,
    ta_init,
    trace,
)


@pytest.fixture(scope="module")
def tp() -> SystemParams:
    return get_profile("test")


# --- fold -------------------------------------------------------------------


def test_fold_below_q_is_identity(tp):
    assert tp.fold(9) == 9


def test_fold_above_q_reflects(tp):
    assert tp.fold(16) == 7
    assert tp.fold(22) == 1


def test_fold_rejects_out_of_range(tp):
    for bad in (0, 23, -1, 24):
        with pytest.raises(ValueError):
            tp.fold(bad)


# --- group operations ---------------------------------------------------------


def test_g_exp_known_values(tp):
    assert tp.g_exp(2, 4) == 7  # 2^4 = 16 -> fold
    assert tp.g_exp(2, 12) == 2  # exponent reduces mod 11
    for a in range(1, 12):
        assert tp.g_exp(a, 0) == 1


def test_g_mul_known_values(tp):
    assert tp.g_mul(4, 9) == 10  # 36 mod 23 = 13 -> fold
    assert tp.g_mul(11, 5) == 9
    for a in range(1, 12):
        assert tp.g_mul(a, 1) == a


def test_group_closure_exhaustive(tp):
    for a in range(1, 12):
        for b in range(1, 12):
            assert 1 <= tp.g_mul(a, b) <= 11
        for s in range(0, 11):
            assert 1 <= tp.g_exp(a, s) <= 11


def test_group_laws_exhaustive(tp):
    elems = range(1, 12)
    for a in elems:
        for b in elems:
            assert tp.g_mul(a, b) == tp.g_mul(b, a)
            for c in elems:
                assert tp.g_mul(tp.g_mul(a, b), c) == tp.g_mul(a, tp.g_mul(b, c))


def test_exponent_law_exhaustive(tp):
    for a in range(1, 12):
        for s in range(0, 11):
            for t in range(0, 11):
                assert tp.g_exp(tp.g_exp(a, s), t) == tp.g_exp(a, s * t % 11)


def test_inverse(tp):
    for a in range(1, 12):
        assert tp.g_mul(a, tp.g_inv(a)) == 1


# --- the fixed-base table for g -------------------------------------------------


def reference_exp(params: SystemParams, a: int, b: int) -> int:
    """a^b in G by ``pow``, without the table."""
    return params.fold(pow(a, b % params.q, params.p))


def test_g_exp_of_g_matches_pow_exhaustively(tp):
    for b in range(-2 * tp.q, 3 * tp.q):
        assert tp.g_exp(tp.g, b) == reference_exp(tp, tp.g, b)


@pytest.mark.parametrize("name", ["small64", "default"])
def test_g_exp_of_g_matches_pow_at_the_edges(name):
    params = get_profile(name)
    q = params.q
    edges = [0, 1, q - 1, q, q + 1, -1]
    for k in range(1, (q.bit_length() + 7) // 8 + 2):
        edges += [2 ** (8 * k), 2 ** (8 * k) - 1]
    for b in edges:
        assert params.g_exp(params.g, b) == reference_exp(params, params.g, b)


@given(st.sampled_from(["small64", "default"]), st.integers(-(2**300), 2**300))
def test_g_exp_of_g_matches_pow(name, b):
    params = get_profile(name)
    assert params.g_exp(params.g, b) == reference_exp(params, params.g, b)


@given(st.sampled_from(["small64", "default"]), st.integers(0, 2**260), st.integers(0, 2**260))
def test_pair_matches_pow(name, a, b):
    params = get_profile(name)
    assert params.pair(a, b) == reference_exp(params, params.gt, a * b)


def test_pair_and_other_bases_match_pow_exhaustively(tp):
    for a in range(1, tp.q + 1):
        for b in range(-tp.q, 2 * tp.q):
            assert tp.g_exp(a, b) == reference_exp(tp, a, b)
            assert tp.pair(a % tp.q, b) == reference_exp(tp, tp.gt, a * b)


@given(st.sampled_from(["small64", "default"]), st.integers(2, 2**260), st.integers(0, 2**260))
def test_other_bases_match_pow(name, a, b):
    params = get_profile(name)
    a = a % params.q + 1
    assert params.g_exp(a, b) == reference_exp(params, a, b)


# --- the powers of a recurring base -------------------------------------------------


def test_g_exp_from_powers_matches_pow_exhaustively(tp):
    for a in range(1, tp.q + 1):
        powers = tp.base_powers(a)
        for b in range(-2 * tp.q, 3 * tp.q):
            assert tp.g_exp(a, b, powers) == reference_exp(tp, a, b)


@pytest.mark.parametrize("name", ["small64", "default"])
def test_g_exp_from_powers_matches_pow_at_the_edges(name):
    params = get_profile(name)
    q = params.q
    edges = [0, 1, q - 1, q, q + 1, -1]
    for k in range(1, (q.bit_length() + 3) // 4 + 2):
        edges += [16**k, 16**k - 1]
    for a in (params.g, 2, q - 1, q, params.hash_to_scalar(b"base")):
        powers = params.base_powers(a)
        for b in edges:
            assert params.g_exp(a, b, powers) == reference_exp(params, a, b)


@given(
    st.sampled_from(["small64", "default"]),
    st.integers(2, 2**260),
    st.integers(-(2**300), 2**300),
)
def test_g_exp_from_powers_matches_pow(name, a, b):
    params = get_profile(name)
    a = a % params.q + 1
    assert params.g_exp(a, b, params.base_powers(a)) == reference_exp(params, a, b)


@pytest.mark.parametrize("name, length", [("test", 1), ("small64", 16), ("default", 64)])
def test_base_powers_hold_one_power_per_hex_digit_of_q(name, length):
    params = get_profile(name)
    a = params.hash_to_scalar(b"base")
    powers = params.base_powers(a)
    assert len(powers) == length == (params.q.bit_length() + 3) // 4
    assert powers == tuple(pow(a, 16**j, params.p) for j in range(length))


def test_groups_with_the_same_generator_have_their_own_tables():
    small, default = get_profile("small64"), get_profile("default")
    assert small.g == default.g
    b = 2**70 + 12345
    for params in (small, default, small):
        assert params.g_exp(params.g, b) == reference_exp(params, params.g, b)


def test_trust_authorities_of_one_group_share_one_table():
    _fixed_base_table.cache_clear()
    first, second = (ta_init("default", random.Random(seed)) for seed in (1, 2))
    assert first.params.pk_ta_g != second.params.pk_ta_g
    info = _fixed_base_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert info.maxsize is not None


# --- the powers of registered public keys ------------------------------------------


def on_both_paths(monkeypatch, run):
    """``run()`` as the code runs, then with ``g_exp`` ignoring every table of
    powers, so that each base other than g is raised by ``pow``."""
    g_exp = SystemParams.g_exp
    with_tables = run()
    with monkeypatch.context() as m:
        m.setattr(SystemParams, "g_exp", lambda self, a, b, powers=None: g_exp(self, a, b))
        on_pow = run()
    return with_tables, on_pow


def ta_with_rsus(profile: str, n: int):
    ta = ta_init(profile, random.Random(1))
    rng = random.Random(2)
    rsus = [register_rsu(ta, b"rsu-%d" % i, (i * 1000, 0), rng)[0] for i in range(n)]
    return ta, rsus


@pytest.mark.parametrize("name", ["small64", "default"])
def test_hybrid_encrypt_matches_the_pow_path(monkeypatch, name):
    def run():
        ta, rsus = ta_with_rsus(name, 3)
        rng = random.Random(3)
        out = [hybrid_encrypt(ta.params, r.pk, b"pseudonym and nonce", rng) for r in rsus * 2]
        for r, (epk, ct) in zip(rsus * 2, out):
            assert hybrid_decrypt(ta.params, r.sk, epk, ct) == b"pseudonym and nonce"
        return out, ta.params.key_powers.cache_info().currsize

    (with_tables, keys), (on_pow, _) = on_both_paths(monkeypatch, run)
    assert with_tables == on_pow
    assert keys == 3


@pytest.mark.parametrize("name", ["small64", "default"])
def test_refresh_vehicle_epoch_matches_the_pow_path(monkeypatch, name):
    def run():
        ta, _ = ta_with_rsus(name, 0)
        vehicle = register_vehicle(ta, b"veh-1")
        rng = random.Random(4)
        epochs = [refresh_vehicle_epoch(vehicle, ta.params, rng) for _ in range(5)]
        for epoch in epochs:
            assert trace(ta, epoch.fid, epoch.pk_v) == b"veh-1"
        return epochs, ta.params.key_powers.cache_info().hits

    (with_tables, hits), (on_pow, _) = on_both_paths(monkeypatch, run)
    assert with_tables == on_pow
    assert hits == 4


@pytest.mark.parametrize("name", ["small64", "default"])
def test_run_agreement_matches_the_pow_path(monkeypatch, name):
    def run():
        ta, rsus = ta_with_rsus(name, 4)
        out = run_agreement(ta.params, rsus, random.Random(5))
        assert len(set(out[0].values())) == 1
        return out, ta.params.key_powers.cache_info().currsize

    (with_tables, keys), (on_pow, _) = on_both_paths(monkeypatch, run)
    assert with_tables == on_pow
    assert keys == 4


def test_key_memo_returns_the_powers_of_each_key():
    ta, rsus = ta_with_rsus("default", 3)
    params = ta.params
    keys = [params.pk_ta_g, *(r.pk for r in rsus)]
    for _ in range(2):
        for pk in keys:
            assert params.key_powers(pk) == params.base_powers(pk)
    info = params.key_powers.cache_info()
    assert (info.misses, info.hits) == (4, 4)


def test_key_memo_is_bounded():
    maxsize = get_profile("default").with_ta_keys(5).key_powers.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 256


def test_key_memo_holds_a_roster_of_100_rsus():
    # a key agreement walks the whole roster, so a memo smaller than the
    # roster would miss on every key of every walk
    params = get_profile("small64").with_ta_keys(5)
    keys = [params.g_exp(params.g, k) for k in range(2, 102)]
    for _ in range(3):
        for pk in keys:
            params.key_powers(pk)
    info = params.key_powers.cache_info()
    assert (info.misses, info.hits) == (100, 200)


def test_dropped_parameters_are_freed_with_their_memos_at_once():
    params = ta_init("default", random.Random(1)).params
    params.key_powers(params.pk_ta_g)
    assert not schnorr_verify(params, params.pk_ta_g, b"message", (1, 1))
    freed = weakref.ref(params)
    gc.disable()  # only reference counting may free it
    try:
        del params
        assert freed() is None
    finally:
        gc.enable()


def test_trust_authorities_of_one_profile_keep_their_own_key_memo():
    first, second = (ta_init("default", random.Random(seed)).params for seed in (1, 2))
    first.key_powers(first.pk_ta_g)
    assert first.key_powers is not second.key_powers
    assert first.key_powers.cache_info().currsize == 1
    assert second.key_powers.cache_info().currsize == 0


# --- pairing ------------------------------------------------------------------


def test_pair_known_values(tp):
    assert tp.pair(1, 1) == 2  # e(P, P) = gT
    assert tp.pair(3, 4) == 2  # gT^(12 mod 11)
    for b in range(0, 11):
        assert tp.pair(0, b) == 1


def test_bilinearity_exhaustive(tp):
    e_pp = tp.pair(1, 1)
    for x in range(0, 11):
        for y in range(0, 11):
            assert tp.pair(x, y) == tp.g_exp(e_pp, x * y)


def test_nondegeneracy():
    for params in PROFILES.values():
        assert params.pair(1, 1) != 1


def test_bilinearity_randomized_at_production_size():
    params = get_profile("default")
    rng = random.Random(7)
    e_pp = params.pair(1, 1)
    for _ in range(1000):
        x = rng.randrange(params.q)
        y = rng.randrange(params.q)
        assert params.pair(x, y) == params.g_exp(e_pp, x * y)


# --- hashing -------------------------------------------------------------------


def test_hash_to_g1_deterministic_and_in_range(tp):
    assert tp.hash_to_g1(b"abc") == tp.hash_to_g1(b"abc")
    assert 1 <= tp.hash_to_g1(b"") <= 10


def test_hash_to_g1_uniformity(tp):
    # chi-square over the 10 possible outputs; 21.666 is the 0.99 quantile
    # for 9 degrees of freedom
    rng = random.Random(1)
    counts = [0] * 10
    n = 10_000
    for _ in range(n):
        counts[tp.hash_to_g1(rng.randbytes(16)) - 1] += 1
    expected = n / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 21.666


def test_hash_to_scalar_uniformity(tp):
    rng = random.Random(2)
    counts = [0] * 10
    n = 10_000
    for _ in range(n):
        counts[tp.hash_to_scalar(rng.randbytes(16)) - 1] += 1
    expected = n / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 21.666


def test_hash_domains_are_separated(tp):
    hits = sum(
        tp.hash_to_g1(bytes([i])) == tp.hash_to_scalar(bytes([i])) for i in range(200)
    )
    # 1/10 collision rate by chance; identical functions would give 200
    assert hits < 60


def test_mask_hash_deterministic_width_and_balance():
    params = get_profile("small64")
    assert params.mask_hash(5) == params.mask_hash(5)
    assert len(params.mask_hash(5)) == 42
    rng = random.Random(3)
    ones = total = 0
    for _ in range(1000):
        m = params.mask_hash(rng.randrange(1, params.q))
        ones += sum(bin(b).count("1") for b in m)
        total += 8 * len(m)
    assert abs(ones / total - 0.5) < 0.004  # 4.5 sigma over 336k bits


# --- kdf / symmetric / hmac -----------------------------------------------------


def test_kdf_deterministic_and_context_separated():
    assert kdf(5, b"enc") == kdf(5, b"enc")
    assert kdf(5, b"enc") != kdf(5, b"mac")
    assert len(kdf(5, b"enc")) == 32


def test_kdf_table_gives_the_hmac_under_the_hashed_context():
    for context in (b"n1:enc", b"gk:mac", b"kem", b""):
        for value in (0, 1, 255, 256, 2**255 + 3):
            key = hashlib.sha256(b"kdf:" + context).digest()
            n = max(1, (value.bit_length() + 7) // 8)
            expected = hmac.new(key, value.to_bytes(n, "big"), "sha256").digest()
            assert kdf(value, context) == expected


def test_element_width_is_cached_per_instance():
    for params in PROFILES.values():
        assert params.element_width == (params.p.bit_length() + 7) // 8
        assert params.with_ta_keys(3).element_width == params.element_width
    wide = SystemParams(p=2**70 + 1, q=7, g=2, gt=2)
    assert wide.element_width == 9


def test_kdf_collision_scan():
    seen = set()
    for v in range(10_000):
        seen.add(kdf(v, b"enc"))
    assert len(seen) == 10_000


def reference_ctr_sha256(head: bytes, n: int, tail: bytes = b"") -> bytes:
    """The keystream hashed block by block, head included each time."""
    out = bytearray()
    ctr = 0
    while len(out) < n:
        out += hashlib.sha256(head + ctr.to_bytes(8, "big") + tail).digest()
        ctr += 1
    return bytes(out[:n])


@pytest.mark.parametrize("tail", [b"", b"data after the counter"])
def test_ctr_sha256_matches_the_block_by_block_keystream(tail):
    head = kdf(7, b"enc") + bytes(range(16))
    # 7,000 and 9,000 bytes lie on either side of 256 blocks
    for n in [*range(301), 7000, 9000]:
        assert _ctr_sha256(head, n, tail) == reference_ctr_sha256(head, n, tail)


def test_sym_round_trip():
    key = kdf(123, b"enc")
    for msg in (b"", b"x" * 200, bytes(range(256))):
        assert sym_decrypt(key, sym_encrypt(key, msg, random.Random(1))) == msg


def test_sym_ciphertext_length_and_freshness():
    key = kdf(9, b"enc")
    rng = random.Random(4)
    msg = b"m" * 50
    c1 = sym_encrypt(key, msg, rng)
    c2 = sym_encrypt(key, msg, rng)
    assert len(c1) == 50 + 16
    assert c1 != c2  # fresh nonces


def test_sym_decrypt_rejects_short_input():
    with pytest.raises(DecryptFail):
        sym_decrypt(kdf(1, b"enc"), b"short")


def test_hmac_deterministic_16_bytes():
    key = kdf(7, b"mac")
    t = hmac_tag(key, b"payload")
    assert t == hmac_tag(key, b"payload")
    assert len(t) == MAC_LEN == 16


def test_hmac_bit_flip_sensitivity():
    key = kdf(8, b"mac")
    rng = random.Random(5)
    data = bytearray(rng.randbytes(64))
    base = hmac_tag(key, bytes(data))
    for _ in range(1000):
        i = rng.randrange(len(data))
        bit = 1 << rng.randrange(8)
        data[i] ^= bit
        assert hmac_tag(key, bytes(data)) != base
        data[i] ^= bit


def test_hmac_tag_matches_the_standard_library():
    # keys on either side of the 32-byte digest and the 64-byte block, which
    # longer keys are hashed to fit; data on either side of the 55 bytes that
    # fit in one block with SHA-256's padding
    rng = random.Random(11)
    for key_len in (0, 1, 31, 32, 33, 63, 64, 65, 100, 200):
        key = rng.randbytes(key_len)
        for data_len in (0, 1, 55, 56, 63, 64, 65, 300, 1000):
            data = rng.randbytes(data_len)
            assert hmac_tag(key, data) == hmac.digest(key, data, "sha256")[:MAC_LEN]


def test_hmac_rfc_4231_test_case_2():
    tag = hmac_tag(b"Jefe", b"what do ya want for nothing?")
    assert tag == bytes.fromhex("5bdcc146bf60754e6a042426089575c7")


def test_kept_hmac_states_are_not_updated_by_their_users():
    keys = [kdf(1, b"mac"), kdf(2, b"mac")]
    first = {key: hmac_tag(key, b"first") for key in keys}
    derived = kdf(3, b"enc")
    for i in range(5):
        for key in keys:
            hmac_tag(key, b"other data %d" % i)
            kdf(i, key)
            assert kdf(3, b"enc") == derived
            assert hmac_tag(key, b"first") == first[key]


# --- parameters -------------------------------------------------------------------


def test_all_profiles_validate():
    for params in PROFILES.values():
        params.validate()


def test_validate_rejects_bad_params():
    with pytest.raises(ValueError):
        SystemParams(p=25, q=12, g=2, gt=2).validate()
    with pytest.raises(ValueError):
        SystemParams(p=23, q=11, g=1, gt=2).validate()


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        get_profile("nope")


def test_params_json_round_trip(tp):
    assert SystemParams.from_json_dict(tp.to_json_dict()) == tp
    with_keys = tp.with_ta_keys(3)
    assert SystemParams.from_json_dict(with_keys.to_json_dict()) == with_keys


def test_element_codec(tp):
    assert tp.element_width == 1
    assert tp.encode_elem(7) == b"\x07"


# --- schnorr -----------------------------------------------------------------------


def test_schnorr_sign_verify():
    params = get_profile("small64")
    rng = random.Random(6)
    sk = rand_zq_star(rng, params.q)
    pk = params.g_exp(params.g, sk)
    sig = schnorr_sign(params, sk, b"hello", rng)
    assert schnorr_verify(params, pk, b"hello", sig)
    assert not schnorr_verify(params, pk, b"other", sig)
    assert not schnorr_verify(params, params.g_exp(params.g, sk + 1), b"hello", sig)


def test_schnorr_memo_still_rejects_near_misses():
    params = get_profile("small64").with_ta_keys(11)
    rng = random.Random(8)
    sk = rand_zq_star(rng, params.q)
    pk = params.g_exp(params.g, sk)
    message = b"beacon bytes"
    c, s = schnorr_sign(params, sk, message, rng)
    for _ in range(2):  # the second pass from the memo
        assert schnorr_verify(params, pk, message, (c, s))
        assert not schnorr_verify(params, pk, bytes([message[0] ^ 1]) + message[1:], (c, s))
        assert not schnorr_verify(params, pk, message, (c, (s + 1) % params.q))
    memo = params._schnorr_memo.cache_info()
    assert (memo.hits, memo.misses, memo.maxsize) == (3, 3, 64)
    # a new trust authority starts with an empty memo
    assert params.with_ta_keys(12)._schnorr_memo.cache_info().currsize == 0


def test_schnorr_forgery_rejected():
    params = get_profile("small64")
    rng = random.Random(7)
    sk = rand_zq_star(rng, params.q)
    pk = params.g_exp(params.g, sk)
    for _ in range(100):
        forged = (rng.randrange(params.q), rng.randrange(params.q))
        assert not schnorr_verify(params, pk, b"msg", forged)
