"""Trust authority: system initialization, node registration, pseudonyms,
and the non-repudiation trace.

Identity material per node U: certification pair Q_U = H1(TID_U) and
s_U = psi * Q_U under the TA secret psi.  RSUs additionally get a long-term
key pair and a TA-signed beacon; vehicles get fresh per-RSU-range key pairs
and pseudonyms from :func:`refresh_vehicle_epoch`.

A pseudonym is the padded true identity XORed with a mask derived from the
Diffie-Hellman value g^(psi*alpha), so only the TA (via :func:`trace`) can
undo it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import wire
from .crypto import (
    G1Elem,
    GElem,
    PSEUDONYM_LEN,
    Scalar,
    SystemParams,
    get_profile,
    json_int,
    rand_zq_star,
    schnorr_sign,
    schnorr_verify,
    xor_bytes,
)
from .errors import DuplicateIdentity, LocHashMismatch, SigFail, TraceMismatch

ROLE_RSU = "rsu"
ROLE_VEHICLE = "vehicle"

MAX_TID_LEN = PSEUDONYM_LEN - 1  # one byte of the pseudonym holds the length


@dataclass(frozen=True)
class NodeCredentials:
    """Registration record for one node.

    ``sk``/``pk`` and ``loc`` are present for RSUs only; vehicle key pairs
    are ephemeral per RSU range and never issued by the TA.
    """

    tid: bytes
    role: str
    q_u: G1Elem
    s_u: G1Elem
    sk: Scalar | None = None
    pk: GElem | None = None
    loc: tuple[int, int] | None = None  # centimeters


@dataclass(frozen=True)
class VehicleEpoch:
    """Per-RSU-range vehicle material: ephemeral key pair and pseudonym."""

    alpha: Scalar
    pk_v: GElem
    fid: bytes


@dataclass
class TaState:
    sk_ta: Scalar
    params: SystemParams
    registry: dict[bytes, NodeCredentials] = field(default_factory=dict)
    beacons: dict[bytes, wire.RsuBeacon] = field(default_factory=dict)


def ta_init(profile: str, rng: random.Random) -> TaState:
    """Set up system parameters and the TA key pair; ``rng`` draws the TA secret."""
    params = get_profile(profile)
    sk_ta = rand_zq_star(rng, params.q)
    return TaState(sk_ta=sk_ta, params=params.with_ta_keys(sk_ta))


def _check_new_tid(ta: TaState, tid: bytes) -> None:
    if not 0 < len(tid) <= MAX_TID_LEN:
        raise ValueError(f"tid must be 1..{MAX_TID_LEN} bytes")
    if tid in ta.registry:
        raise DuplicateIdentity(f"tid {tid!r} already registered")


def location_hash(params: SystemParams, loc: tuple[int, int]) -> Scalar:
    """The beacon's hash of its location, in centimeters."""
    return params.hash_to_scalar(wire.pack(("i64", "i64"), loc, params.element_width))


def verify_beacon(params: SystemParams, beacon: wire.RsuBeacon) -> None:
    """Location-hash recomputation, then the TA signature: an edited location
    is reported as LocHashMismatch rather than a generic signature failure."""
    if location_hash(params, (beacon.loc_x, beacon.loc_y)) != beacon.loc_hash:
        raise LocHashMismatch("beacon location hash mismatch")
    signed = wire.signed_input(beacon, params.element_width)
    if not schnorr_verify(params, params.pk_ta_g, signed, (beacon.sig_c, beacon.sig_s)):
        raise SigFail("beacon signature invalid")


def register_rsu(
    ta: TaState, tid: bytes, loc: tuple[int, int], rng: random.Random
) -> tuple[NodeCredentials, wire.RsuBeacon]:
    """Issue RSU credentials plus the TA-signed beacon it will broadcast."""
    _check_new_tid(ta, tid)
    params = ta.params
    xi = rand_zq_star(rng, params.q)
    q_u = params.hash_to_g1(tid)
    creds = NodeCredentials(
        tid=tid,
        role=ROLE_RSU,
        q_u=q_u,
        s_u=params.g1_mul(ta.sk_ta, q_u),
        sk=xi,
        pk=params.g_exp(params.g, xi),
        loc=loc,
    )
    unsigned = wire.RsuBeacon(creds.pk, loc[0], loc[1], location_hash(params, loc), 0, 0)
    sig_c, sig_s = schnorr_sign(
        params, ta.sk_ta, wire.signed_input(unsigned, params.element_width), rng
    )
    beacon = replace(unsigned, sig_c=sig_c, sig_s=sig_s)
    ta.registry[tid] = creds
    ta.beacons[tid] = beacon
    return creds, beacon


def register_vehicle(ta: TaState, tid: bytes) -> NodeCredentials:
    """Issue a vehicle's base credentials (certification pair only)."""
    _check_new_tid(ta, tid)
    q_u = ta.params.hash_to_g1(tid)
    creds = NodeCredentials(
        tid=tid,
        role=ROLE_VEHICLE,
        q_u=q_u,
        s_u=ta.params.g1_mul(ta.sk_ta, q_u),
    )
    ta.registry[tid] = creds
    return creds


def pad_tid(tid: bytes) -> bytes:
    if not 0 < len(tid) <= MAX_TID_LEN:
        raise ValueError(f"tid must be 1..{MAX_TID_LEN} bytes")
    return bytes([len(tid)]) + tid + bytes(MAX_TID_LEN - len(tid))


def unpad_tid(padded: bytes) -> bytes:
    n = padded[0]
    if n == 0 or n > MAX_TID_LEN:
        raise TraceMismatch("bad length byte after unmasking")
    if any(padded[1 + n :]):
        raise TraceMismatch("nonzero padding after unmasking")
    return padded[1 : 1 + n]


def refresh_vehicle_epoch(
    creds: NodeCredentials, params: SystemParams, rng: random.Random
) -> VehicleEpoch:
    """New ephemeral key pair and pseudonym on entering an RSU range."""
    alpha = rand_zq_star(rng, params.q)
    pk_ta = params.pk_ta_g
    mask = params.mask_hash(params.g_exp(pk_ta, alpha, params.key_powers(pk_ta)))
    return VehicleEpoch(
        alpha=alpha,
        pk_v=params.g_exp(params.g, alpha),
        fid=xor_bytes(pad_tid(creds.tid), mask),
    )


def trace(ta: TaState, fid: bytes, pk_v: GElem) -> bytes:
    """Recover the true identity behind a pseudonym.

    Works because g^(psi*alpha) can be computed from either side:
    the vehicle used pk_ta^alpha, the TA uses pk_v^psi.
    """
    if len(fid) != PSEUDONYM_LEN:
        raise ValueError(f"fid must be {PSEUDONYM_LEN} bytes")
    mask = ta.params.mask_hash(ta.params.g_exp(pk_v, ta.sk_ta))
    return unpad_tid(xor_bytes(fid, mask))


def credential_sound(params: SystemParams, creds: NodeCredentials) -> bool:
    """Pairing consistency: e(s_U, P) == e(Q_U, pk_ta_g1)."""
    return params.pair(creds.s_u, 1) == params.pair(creds.q_u, params.pk_ta_g1)


# ---------------------------------------------------------------------------
# Persistence: public registry and secret keystore as separate JSON files
# ---------------------------------------------------------------------------


def save_ta(ta: TaState, directory: Path | str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    registry = {
        "params": ta.params.to_json_dict(),
        "nodes": [
            {
                "tid": creds.tid.hex(),
                "role": creds.role,
                "q_u": str(creds.q_u),
                "pk": str(creds.pk) if creds.pk is not None else None,
                "loc": list(creds.loc) if creds.loc is not None else None,
                "beacon": (
                    wire.encode_message(
                        ta.beacons[creds.tid], ta.params.element_width
                    ).hex()
                    if creds.tid in ta.beacons
                    else None
                ),
            }
            for creds in ta.registry.values()
        ],
    }
    keystore = {
        "sk_ta": str(ta.sk_ta),
        "nodes": {
            creds.tid.hex(): {
                "s_u": str(creds.s_u),
                "sk": str(creds.sk) if creds.sk is not None else None,
            }
            for creds in ta.registry.values()
        },
    }
    (directory / "registry.json").write_text(json.dumps(registry, indent=2))
    (directory / "keystore.json").write_text(json.dumps(keystore, indent=2))


def _json(value: object, kind: type, what: str):
    """``value`` if it is a ``kind`` (dict, list or str); else a ValueError
    naming ``what``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _check_role(params: SystemParams, creds: NodeCredentials, what: str) -> None:
    """ValueError naming ``what`` unless the node is an RSU with a key pair
    pk = g^sk and a location, or a vehicle with neither."""
    held = (creds.sk, creds.pk, creds.loc)
    if creds.role == ROLE_RSU:
        if None in held:
            raise ValueError(f"{what} is an rsu without its sk, pk and loc")
        if creds.pk != params.g_exp(params.g, creds.sk):
            raise ValueError(f"{what} pk is not g^sk")
    elif creds.role == ROLE_VEHICLE:
        if held != (None, None, None):
            raise ValueError(f"{what} is a vehicle with an sk, pk or loc")
    else:
        raise ValueError(f"{what} role must be rsu or vehicle, got {creds.role!r}")


def _check_beacon(
    params: SystemParams, creds: NodeCredentials, data: bytes, what: str
) -> wire.RsuBeacon:
    """The beacon ``data`` encodes; ValueError naming ``what`` unless it is
    an RsuBeacon of this RSU's pk and loc that passes ``verify_beacon``."""
    if creds.role != ROLE_RSU:
        raise ValueError(f"{what} is a vehicle with a beacon")
    beacon = wire.decode_message(data, params.element_width)
    if type(beacon) is not wire.RsuBeacon or (
        (beacon.pk_rsu, beacon.loc_x, beacon.loc_y) != (creds.pk, *creds.loc)
    ):
        raise ValueError(f"{what} beacon is not an RsuBeacon of its pk and loc")
    try:
        verify_beacon(params, beacon)
    except (LocHashMismatch, SigFail) as e:
        raise ValueError(f"{what} beacon: {e}") from None
    return beacon


def load_ta(directory: Path | str) -> TaState:
    """The TA that ``save_ta`` wrote; a field of the wrong JSON shape, an
    inconsistent key, a tid listed twice or a beacon that is not the node's
    own is a ValueError that names it."""
    directory = Path(directory)
    registry = _json(json.loads((directory / "registry.json").read_text()), dict, "registry")
    keystore = _json(json.loads((directory / "keystore.json").read_text()), dict, "keystore")
    params = SystemParams.from_json_dict(_json(registry["params"], dict, "params"))
    sk_ta = json_int(keystore["sk_ta"], "sk_ta")
    if params != params.with_ta_keys(sk_ta):
        raise ValueError("TA public keys are not g^sk_ta and sk_ta * P")
    ta = TaState(sk_ta=sk_ta, params=params)
    secrets_by_tid = _json(keystore["nodes"], dict, "keystore nodes")
    for node in _json(registry["nodes"], list, "nodes"):
        name = _json(_json(node, dict, "node")["tid"], str, "node tid")
        what = f"node {name}"
        secrets = _json(secrets_by_tid[name], dict, f"{what} secrets")
        loc = node["loc"]
        if loc is not None:
            if not (isinstance(loc, list) and len(loc) == 2):
                raise ValueError(f"{what} loc must be [x, y], got {loc!r}")
            loc = tuple(json_int(c, f"{what} loc") for c in loc)
        tid = bytes.fromhex(name)
        if tid in ta.registry:
            raise ValueError(f"{what} is listed twice")
        creds = NodeCredentials(
            tid=tid,
            role=node["role"],
            q_u=json_int(node["q_u"], f"{what} q_u"),
            s_u=json_int(secrets["s_u"], f"{what} s_u"),
            sk=None if secrets["sk"] is None else json_int(secrets["sk"], f"{what} sk"),
            pk=None if node["pk"] is None else json_int(node["pk"], f"{what} pk"),
            loc=loc,
        )
        _check_role(params, creds, what)
        if not credential_sound(params, creds):
            raise ValueError(f"{what} has an unsound certification value")
        ta.registry[tid] = creds
        if node.get("beacon"):
            beacon = bytes.fromhex(_json(node["beacon"], str, f"{what} beacon"))
            ta.beacons[tid] = _check_beacon(params, creds, beacon, what)
    return ta
