"""RSU-vehicle mutual authentication.

Message flow (one session per vehicle-RSU pair):

  beacon    RSU -> *        TA-signed (pk, location, location hash)
  hello     vehicle -> RSU  epoch key, timestamp, pseudonym under a
                            neighbor group key (fast path), and
                            (pseudonym, nonce) hybrid-encrypted to the RSU
  challenge RSU -> vehicle  blinded certification values, if no fast path
  confirm   vehicle -> RSU  key-confirmation value K_V

Authentication completes when the RSU reproduces K_V from its own secrets:

  K_V   = e(beta*N1*Q_RSU, PK_TA) * e(N1*s_V, T_RSU)
  K_RSU = e(alpha*N1*Q_V, PK_TA) * e(N1*s_RSU, T_V)

both equal e(P, P)^(N1*psi*(beta*Q_RSU + alpha*Q_V)), and nothing else
matches without a TA-issued s value.

The fast path skips challenge/confirm entirely: if the hello's
neighbor-key field decrypts under a group key this RSU received from a
neighbor to the same pseudonym the hello carries, the vehicle already
authenticated nearby.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from . import wire
from .crypto import (
    G1Elem,
    GElem,
    PSEUDONYM_LEN,
    SYM_NONCE_LEN,
    Scalar,
    SystemParams,
    kdf,
    rand_zq_star,
    schnorr_verify,
    sym_decrypt,
    sym_encrypt,
)
from .errors import (
    DecryptFail,
    KeyConfirmFail,
    LocHashMismatch,
    MacFail,
    SigFail,
    StateError,
    StaleTimestamp,
)
from .registry import NodeCredentials, VehicleEpoch, beacon_signed_bytes
from .wire import Channel

GK_FID_CT_LEN = SYM_NONCE_LEN + PSEUDONYM_LEN  # the hello field is size-invariant


class AuthState(enum.Enum):
    BEACON_VERIFIED = "beacon_verified"
    HELLO_SENT = "hello_sent"
    CHALLENGED = "challenged"
    CONFIRMED = "confirmed"
    FASTPATH_DONE = "fastpath_done"
    FAILED = "failed"


@dataclass
class AuthSession:
    """One side's view of an authentication exchange, keyed by pseudonym."""

    state: AuthState
    fid: bytes
    pk_v: GElem
    n1: Scalar = 0
    ts_ms: int = 0
    # vehicle side
    pk_rsu: GElem | None = None
    q_rsu: G1Elem | None = None
    beta: Scalar = 0
    k_v: GElem = 0
    # rsu side
    alpha: Scalar = 0
    k_rsu: GElem = 0


def gk_fid_key(gk: GElem) -> bytes:
    """Key of the hello's fast-path field: the pseudonym under a neighbor gk."""
    return kdf(gk, b"gk:fid")


# ---------------------------------------------------------------------------
# Hybrid public-key encryption to the RSU (ephemeral KEM in G)
# ---------------------------------------------------------------------------


def hybrid_encrypt(
    params: SystemParams, pk: GElem, plaintext: bytes, rng: random.Random
) -> tuple[GElem, bytes]:
    u = rand_zq_star(rng, params.q)
    epk = params.g_exp(params.g, u)
    key = kdf(params.g_exp(pk, u), b"kem")
    return epk, sym_encrypt(key, plaintext, rng)


def hybrid_decrypt(params: SystemParams, sk: Scalar, epk: GElem, ct: bytes) -> bytes:
    if not 1 <= epk <= params.q:
        raise DecryptFail("ephemeral key outside the group")
    return sym_decrypt(kdf(params.g_exp(epk, sk), b"kem"), ct)


# ---------------------------------------------------------------------------
# Beacon
# ---------------------------------------------------------------------------


def verify_beacon(params: SystemParams, beacon: wire.RsuBeacon) -> None:
    """Location-hash recomputation, then the TA signature.

    The hash consistency check runs first so that an edited location is
    reported as LocHashMismatch rather than a generic signature failure.
    """
    loc_bytes = beacon.loc_x.to_bytes(8, "big", signed=True) + beacon.loc_y.to_bytes(
        8, "big", signed=True
    )
    if params.hash_to_scalar(loc_bytes) != beacon.loc_hash:
        raise LocHashMismatch("beacon location hash mismatch")
    if not schnorr_verify(
        params,
        params.pk_ta_g,
        beacon_signed_bytes(
            params, beacon.pk_rsu, (beacon.loc_x, beacon.loc_y), beacon.loc_hash
        ),
        (beacon.sig_c, beacon.sig_s),
    ):
        raise SigFail("beacon signature invalid")


def start_vehicle_auth(
    params: SystemParams,
    epoch: VehicleEpoch,
    beacon: wire.RsuBeacon,
    rsu_tid: bytes,
) -> AuthSession:
    """Verify the beacon and open a vehicle-side session toward that RSU.

    RSU identities are public, so the vehicle derives Q_RSU from the TID
    it associates with the beacon and later cross-checks the blinded copy
    the RSU echoes in its challenge.
    """
    verify_beacon(params, beacon)
    return AuthSession(
        state=AuthState.BEACON_VERIFIED,
        fid=epoch.fid,
        pk_v=epoch.pk_v,
        pk_rsu=beacon.pk_rsu,
        q_rsu=params.hash_to_g1(rsu_tid),
    )


# ---------------------------------------------------------------------------
# Hello
# ---------------------------------------------------------------------------


def make_hello(
    params: SystemParams,
    session: AuthSession,
    neighbor_gk: GElem | None,
    rng: random.Random,
    now_ms: int,
) -> wire.AuthHello:
    if session.state is not AuthState.BEACON_VERIFIED:
        raise StateError(f"hello invalid in state {session.state.value}")
    session.n1 = rand_zq_star(rng, params.q)
    session.ts_ms = now_ms
    if neighbor_gk is not None:
        gk_fid_ct = sym_encrypt(gk_fid_key(neighbor_gk), session.fid, rng)
    else:
        # keep the hello size-invariant so traffic analysis cannot tell
        # fast-path attempts from cold starts
        gk_fid_ct = rng.randbytes(GK_FID_CT_LEN)
    epk, kem_ct = hybrid_encrypt(
        params, session.pk_rsu, session.fid + params.encode_elem(session.n1), rng
    )
    hello = Channel.derive(session.n1, b"n1").tag(
        params.element_width, wire.AuthHello, session.pk_v, now_ms, gk_fid_ct, epk, kem_ct
    )
    session.state = AuthState.HELLO_SENT
    return hello


def process_hello(
    params: SystemParams,
    rsu_creds: NodeCredentials,
    hello: wire.AuthHello,
    now_ms: int,
    delta_max_ms: float,
    neighbor_gks: list[GElem],
    rng: random.Random,
) -> tuple[AuthSession, wire.AuthChallenge | None]:
    """Freshness, nonce recovery, fast-path attempt, else challenge.

    Returns the RSU-side session and, when the fast path did not engage,
    the challenge to send back.
    """
    if now_ms - hello.ts_ms > delta_max_ms:
        raise StaleTimestamp(f"hello is {now_ms - hello.ts_ms:.0f} ms old")
    plain = hybrid_decrypt(params, rsu_creds.sk, hello.kem_epk, hello.kem_ct)
    if len(plain) != PSEUDONYM_LEN + params.element_width:
        raise DecryptFail("hello payload has wrong length")
    fid = plain[:PSEUDONYM_LEN]
    n1 = params.decode_elem(plain[PSEUDONYM_LEN:])
    if not 1 <= n1 < params.q:
        raise DecryptFail("hello nonce outside the scalar range")
    channel = Channel.derive(n1, b"n1")
    channel.check(params.element_width, hello)

    session = AuthSession(
        state=AuthState.HELLO_SENT, fid=fid, pk_v=hello.pk_v, n1=n1, ts_ms=hello.ts_ms
    )

    if len(hello.gk_fid_ct) == GK_FID_CT_LEN:
        for gk in neighbor_gks:
            if sym_decrypt(gk_fid_key(gk), hello.gk_fid_ct) == fid:
                session.state = AuthState.FASTPATH_DONE
                return session, None

    session.alpha = rand_zq_star(rng, params.q)
    t_rsu = params.g1_mul(session.alpha, 1)
    n1_qr = params.g1_mul(n1, rsu_creds.q_u)
    challenge = channel.seal(
        params.element_width,
        wire.AuthChallenge,
        params.encode_elem(t_rsu) + params.encode_elem(n1_qr),
        rng,
    )
    session.state = AuthState.CHALLENGED
    return session, challenge


# ---------------------------------------------------------------------------
# Key confirmation
# ---------------------------------------------------------------------------


def vehicle_confirm(
    params: SystemParams,
    session: AuthSession,
    creds: NodeCredentials,
    challenge: wire.AuthChallenge,
    rng: random.Random,
) -> wire.AuthConfirm:
    if session.state is not AuthState.HELLO_SENT:
        raise StateError(f"confirm invalid in state {session.state.value}")
    channel = Channel.derive(session.n1, b"n1")
    plain = channel.open(params.element_width, challenge)
    if len(plain) != 2 * params.element_width:
        raise DecryptFail("challenge payload has wrong length")
    t_rsu = params.decode_elem(plain[: params.element_width])
    n1_qr = params.decode_elem(plain[params.element_width :])
    if n1_qr != params.g1_mul(session.n1, session.q_rsu):
        raise MacFail("challenge echoes a wrong blinded certification value")

    session.beta = rand_zq_star(rng, params.q)
    t_v = params.g1_mul(session.beta, 1)
    session.k_v = params.g_mul(
        params.pair(params.g1_mul(session.beta, n1_qr), params.pk_ta_g1),
        params.pair(params.g1_mul(session.n1, creds.s_u), t_rsu),
    )
    confirm = channel.seal(
        params.element_width,
        wire.AuthConfirm,
        session.fid
        + params.encode_elem(t_v)
        + params.encode_elem(params.g1_mul(session.n1, creds.q_u))
        + params.encode_elem(session.k_v),
        rng,
    )
    session.state = AuthState.CONFIRMED
    return confirm


def rsu_verify(
    params: SystemParams,
    rsu_creds: NodeCredentials,
    session: AuthSession,
    confirm: wire.AuthConfirm,
) -> None:
    """Final check: recompute the confirmation value and compare."""
    if session.state is not AuthState.CHALLENGED:
        raise StateError(f"verify invalid in state {session.state.value}")
    plain = Channel.derive(session.n1, b"n1").open(params.element_width, confirm)
    if len(plain) != PSEUDONYM_LEN + 3 * params.element_width:
        raise DecryptFail("confirm payload has wrong length")
    w = params.element_width
    fid = plain[:PSEUDONYM_LEN]
    t_v = params.decode_elem(plain[PSEUDONYM_LEN : PSEUDONYM_LEN + w])
    n1_qv = params.decode_elem(plain[PSEUDONYM_LEN + w : PSEUDONYM_LEN + 2 * w])
    k_v = params.decode_elem(plain[PSEUDONYM_LEN + 2 * w :])
    if fid != session.fid:
        raise MacFail("confirm pseudonym does not match the session")

    session.k_rsu = params.g_mul(
        params.pair(params.g1_mul(session.alpha, n1_qv), params.pk_ta_g1),
        params.pair(params.g1_mul(session.n1, rsu_creds.s_u), t_v),
    )
    if session.k_rsu != k_v:
        session.state = AuthState.FAILED
        raise KeyConfirmFail("confirmation values disagree")
    session.state = AuthState.CONFIRMED


def is_authenticated(session: AuthSession) -> bool:
    return session.state in (AuthState.CONFIRMED, AuthState.FASTPATH_DONE)


# ---------------------------------------------------------------------------
# Fast-path acknowledgment
#
# The fast path sends no challenge, but the vehicle still needs to learn
# that it may proceed straight to group key negotiation.  The ack reuses
# the challenge wire type with an empty ciphertext (a real challenge's
# ciphertext is never empty) and the usual channel MAC.
# ---------------------------------------------------------------------------


def make_fastpath_ack(params: SystemParams, session: AuthSession) -> wire.AuthChallenge:
    if session.state is not AuthState.FASTPATH_DONE:
        raise StateError("ack only follows a fast-path admission")
    return Channel.derive(session.n1, b"n1").tag(params.element_width, wire.AuthChallenge, b"")


def is_fastpath_ack(msg: wire.AuthChallenge) -> bool:
    return msg.ct == b""


def vehicle_apply_fastpath_ack(
    params: SystemParams, session: AuthSession, msg: wire.AuthChallenge
) -> None:
    if session.state is not AuthState.HELLO_SENT:
        raise StateError(f"ack invalid in state {session.state.value}")
    Channel.derive(session.n1, b"n1").check(params.element_width, msg)
    session.state = AuthState.FASTPATH_DONE
