"""Group key lifecycle between an RSU and the vehicles in its range.

Every member i contributes a share base g^(lambda_i) over its
authenticated channel.  On each rekey the RSU draws a fresh gamma and
forms

    GK = g^gamma * prod_i g^(lambda_i * gamma)

A member recovers g^gamma from its own blinded share by exponentiating
with lambda_i^-1 mod q, which it computes once, then multiplies the share
product back in.  The RSU keeps only the share bases, with the powers of
each one built the first time a rekey blinds it, and computes a blinded
share where it is sent.

A join seals the joiner's blinded share and the product on the joiner's
channel, and announces the new GK to the existing members under the
previous GK (so newcomers cannot read history).  It computes the product
as (prod_i g^lambda_i)^gamma: three exponentiations whatever the group
size.  A leave broadcasts every remaining member's blinded share and
their product under the previous GK, so the departed vehicle, which only
ever knew its own lambda, cannot recover the new g^gamma: one evaluation
of a member's powers table per remaining member.  Both also draw the
nonces of the seals they leave out of a rekey that seals an update for
every member and then a notice, so runs keep their rng stream.

Updated group keys travel to neighbor RSUs encrypted under the
RSU-to-RSU session key; the receiving side keeps a short per-source
epoch history so vehicles arriving with a last-epoch key still hit the
authentication fast path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import wire
from .auth import AuthSession, is_authenticated
from .crypto import SYM_NONCE_LEN, GElem, Scalar, SystemParams, rand_zq_star
from .errors import DuplicateIdentity, FidAbsent, MacFail, StateError, UnknownIdentity
from .wire import Channel


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------


@dataclass
class MemberRecord:
    """RSU-side view of one group member, keyed by its fid in ``GroupState.members``."""

    n1: Scalar  # authenticated-channel nonce
    share_base: GElem  # g^lambda; its blinded share is g^(lambda * gamma)
    # share_base's powers for g_exp, built at the first blind(); about 4.4 kB
    powers: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def blind(self, params: SystemParams, gamma: Scalar) -> GElem:
        """The blinded share g^(lambda * gamma)."""
        if self.powers is None:
            self.powers = params.base_powers(self.share_base)
        return params.g_exp(self.share_base, gamma, self.powers)


@dataclass
class GroupState:
    """RSU-side group view; epoch increments on every membership change."""

    epoch: int = 0
    gamma: Scalar = 0
    members: dict[bytes, MemberRecord] = field(default_factory=dict)
    gk: GElem | None = None


@dataclass
class MemberState:
    """Vehicle-side group view: the member's lambda and the key it last derived."""

    fid: bytes
    n1: Scalar
    lam: Scalar
    gk: GElem | None = None
    epoch: int = 0
    # lambda^-1 mod q, computed at the first derivation
    lam_inv: Scalar | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class RekeyResult:
    """What a rekey sends; the new epoch and key are in the ``GroupState``."""

    share_updates: dict[bytes, wire.ShareUpdate]  # fid -> per-member material, as sent
    notice: wire.GroupKeyNotice | None  # new gk under the previous gk


# ---------------------------------------------------------------------------
# Share offer (vehicle -> RSU)
# ---------------------------------------------------------------------------


def member_offer(
    params: SystemParams, session: AuthSession, rng: random.Random
) -> tuple[MemberState, wire.ShareOffer]:
    """Draw lambda and submit g^lambda over the authenticated channel."""
    if not is_authenticated(session):
        raise StateError("share offer requires an authenticated session")
    lam = rand_zq_star(rng, params.q)
    mstate = MemberState(fid=session.fid, n1=session.n1, lam=lam)
    offer = Channel.derive(session.n1, b"n1").seal(
        params.element_width, wire.ShareOffer, (session.fid, params.g_exp(params.g, lam)), rng
    )
    return mstate, offer


def _open_offer(params: SystemParams, session: AuthSession, offer: wire.ShareOffer) -> GElem:
    fid, share_base = Channel.derive(session.n1, b"n1").open(params.element_width, offer)
    if fid != session.fid:
        raise MacFail("share offer pseudonym does not match the channel")
    params.check_group_elems(share_base)
    return share_base


# ---------------------------------------------------------------------------
# Rekey (RSU side)
# ---------------------------------------------------------------------------


def _new_epoch(
    params: SystemParams, state: GroupState, gamma: Scalar, product: GElem
) -> GElem | None:
    """Install ``gamma`` and the group key it gives with ``product``, the
    share product prod_i g^(lambda_i * gamma); returns the previous key."""
    old_gk = state.gk
    state.gamma = gamma
    state.gk = params.g_mul(params.g_exp(params.g, gamma), product)
    state.epoch += 1
    return old_gk


def _draw_unsent_nonces(rng: random.Random, count: int) -> None:
    """Draw the nonces of ``count`` seals that are not made.

    A join sends only the joiner's update and the notice, and a leave only
    its ``LeaveUpdate``. Each draws, in member order, the nonces of the
    updates it leaves out of a rekey that seals an update for every member
    and then a notice, and a leave the notice's too. That keeps the rng
    stream, and so every simulator report, byte-identical to sealing them
    all, until the group-key desync fix (ROADMAP item 1) re-pins the reports
    and deletes these draws. Each nonce is whole 32-bit words of the
    generator, so one draw of all ``count`` nonces leaves it where ``count``
    draws would."""
    rng.randbytes(SYM_NONCE_LEN * count)


def handle_join(
    params: SystemParams,
    state: GroupState,
    session: AuthSession,
    offer: wire.ShareOffer,
    rng: random.Random,
) -> RekeyResult:
    """Admit an authenticated vehicle and rekey the group: three
    exponentiations whatever the group size, and only the joiner's update
    and the notice to the existing members are sealed."""
    if not is_authenticated(session):
        raise StateError("join requires an authenticated session")
    share_base = _open_offer(params, session, offer)
    if session.fid in state.members:
        raise DuplicateIdentity("pseudonym already in the group")
    state.members[session.fid] = MemberRecord(n1=session.n1, share_base=share_base)
    gamma = rand_zq_star(rng, params.q)
    # (prod_i g^lambda_i)^gamma: one exponentiation, not one per member
    bases = params.g_prod(rec.share_base for rec in state.members.values())
    product = params.g_exp(bases, gamma)
    old_gk = _new_epoch(params, state, gamma, product)
    # the joiner is the last member: the others' nonces come before its own
    _draw_unsent_nonces(rng, len(state.members) - 1)
    update = Channel.derive(session.n1, b"n1").seal(
        params.element_width,
        wire.ShareUpdate,
        (params.g_exp(share_base, gamma), product),
        rng,
        state.epoch,
    )
    notice = None
    if old_gk is not None:
        notice = Channel.derive(old_gk, b"gk").seal(
            params.element_width, wire.GroupKeyNotice, (state.gk,), rng, state.epoch
        )
    return RekeyResult(share_updates={session.fid: update}, notice=notice)


def handle_leave(
    params: SystemParams, state: GroupState, fid: bytes, rng: random.Random
) -> tuple[RekeyResult, wire.LeaveUpdate | None]:
    """Evict a member, rekey, and broadcast the remaining shares under the
    old group key. The ``LeaveUpdate`` is all a leave sends, so the
    ``RekeyResult`` is empty."""
    if fid not in state.members:
        raise UnknownIdentity("pseudonym not in the group")
    del state.members[fid]
    if not state.members:
        # group emptied out: drop the key material, nothing to broadcast
        state.gk = None
        state.gamma = 0
        state.epoch += 1
        return RekeyResult({}, None), None
    gamma = rand_zq_star(rng, params.q)
    shares = tuple((rec.blind(params, gamma), fid) for fid, rec in state.members.items())
    product = params.g_prod(blinded for blinded, _ in shares)
    old_gk = _new_epoch(params, state, gamma, product)
    # one nonce per member update, then the notice's
    _draw_unsent_nonces(rng, len(state.members) + 1)
    update = Channel.derive(old_gk, b"gk").seal(
        params.element_width, wire.LeaveUpdate, (shares, product), rng, state.epoch
    )
    return RekeyResult({}, None), update


# ---------------------------------------------------------------------------
# Derivation (vehicle side)
# ---------------------------------------------------------------------------


def _derive(params: SystemParams, mstate: MemberState, blinded: GElem, product: GElem) -> GElem:
    if mstate.lam_inv is None:
        mstate.lam_inv = pow(mstate.lam, -1, params.q)
    g_gamma = params.g_exp(blinded, mstate.lam_inv)
    return params.g_mul(g_gamma, product)


def member_derive(
    params: SystemParams, mstate: MemberState, update: wire.ShareUpdate
) -> GElem:
    """Recover the group key from the member's own rekey material."""
    blinded, product = Channel.derive(mstate.n1, b"n1").open(params.element_width, update)
    params.check_group_elems(blinded, product)
    mstate.gk = _derive(params, mstate, blinded, product)
    mstate.epoch = update.epoch
    return mstate.gk


def member_apply_notice(
    params: SystemParams, mstate: MemberState, notice: wire.GroupKeyNotice
) -> GElem:
    """Existing members pick up the new group key from the broadcast."""
    if mstate.gk is None:
        raise StateError("no previous group key to decrypt the notice with")
    (gk,) = Channel.derive(mstate.gk, b"gk").open(params.element_width, notice)
    params.check_group_elems(gk)
    mstate.gk = gk
    mstate.epoch = notice.epoch
    return mstate.gk


def member_derive_from_leave(
    params: SystemParams, mstate: MemberState, update: wire.LeaveUpdate, old_gk: GElem
) -> GElem:
    """Find one's own pair in a leave broadcast and derive the new key."""
    shares, product = Channel.derive(old_gk, b"gk").open(params.element_width, update)
    for blinded, fid in shares:
        if fid == mstate.fid:
            params.check_group_elems(blinded, product)
            mstate.gk = _derive(params, mstate, blinded, product)
            mstate.epoch = update.epoch
            return mstate.gk
    raise FidAbsent("own pseudonym not listed; evicted or departed")


# ---------------------------------------------------------------------------
# Group key transfer between RSUs
# ---------------------------------------------------------------------------


def transfer_gk(
    params: SystemParams, state: GroupState, rsu_session_key: GElem | None, rng: random.Random
) -> wire.GroupKeyTransfer:
    if rsu_session_key is None:
        raise StateError("no RSU session key established")
    if state.gk is None:
        raise StateError("no group key to transfer")
    return Channel.derive(rsu_session_key, b"sk").seal(
        params.element_width, wire.GroupKeyTransfer, (state.gk, state.epoch), rng
    )


class NeighborGkStore:
    """Per-source history of transferred group keys.

    The last ``KEEP`` epochs are kept (not just the newest key) so a vehicle
    that left its old group right before that group rekeyed can still
    prove knowledge of a recently valid key.  Lookups yield newest first;
    an arriving transfer older than the stored maximum is recorded but
    never shadows it.
    """

    KEEP = 4  # epochs per source

    def __init__(self) -> None:
        self._by_source: dict[bytes, dict[int, GElem]] = {}

    def add(self, source_tid: bytes, epoch: int, gk: GElem) -> None:
        epochs = self._by_source.setdefault(source_tid, {})
        epochs[epoch] = gk
        for old in sorted(epochs)[: -self.KEEP]:
            del epochs[old]

    def candidates(self) -> list[GElem]:
        out: list[GElem] = []
        for epochs in self._by_source.values():
            out.extend(gk for _, gk in sorted(epochs.items(), reverse=True))
        return out


def receive_gk_transfer(
    params: SystemParams,
    store: NeighborGkStore,
    source_tid: bytes,
    msg: wire.GroupKeyTransfer,
    rsu_session_key: GElem,
) -> tuple[int, GElem]:
    gk, epoch = Channel.derive(rsu_session_key, b"sk").open(params.element_width, msg)
    params.check_group_elems(gk)
    store.add(source_tid, epoch, gk)
    return epoch, gk
