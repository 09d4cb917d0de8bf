"""Two-round deniable group key agreement among RSUs.

Round 1: each member broadcasts commitments X = g^x, R = g^r, T = g^t.
Round 2: each member publishes the ring value Y_i = (X_{i+1}/X_{i-1})^x_i,
a challenge-response pair (v_i, s_i = r_i - v_i * xi_i) binding R_i to its
long-term key, and pairwise deniability tokens T_j^{r_i}.

Finalize reconstructs every member's right-neighbor value by chaining the
ring values, checks that the chain closes, re-derives each challenge from
the reconstructed values, and multiplies the chain into the session key
sk = g^(x_1 x_2 + x_2 x_3 + ... + x_n x_1).

Both broadcast payloads travel in clear, signed under the sender's
long-term key; deniability rests on the fact that the transcript contains
nothing only a particular long-term key could have produced (the response
pairs are simulatable).
"""

from __future__ import annotations

import enum
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import wire
from .crypto import GElem, Scalar, SystemParams, rand_zq_star, schnorr_sign, schnorr_verify
from .errors import (
    ChainBreak,
    DuplicateIdentity,
    SchnorrFail,
    SigFail,
    StateError,
    TokenMismatch,
    UnknownIdentity,
)
from .registry import NodeCredentials


class Phase(enum.Enum):
    INIT = "init"
    ROUND1_DONE = "round1_done"
    ROUND2_DONE = "round2_done"
    KEYED = "keyed"


@dataclass(frozen=True)
class GkaPeer:
    tid: bytes
    pk: GElem


class GkaSession:
    """One member's state across the two rounds.

    The roster fixes the ring: members are ordered lexicographically by
    TID, and pid (the session identifier scalar) is hashed over that
    order.
    """

    def __init__(
        self,
        params: SystemParams,
        creds: NodeCredentials,
        roster: Sequence[GkaPeer],
    ):
        if len({p.tid for p in roster}) != len(roster):
            raise DuplicateIdentity("duplicate tid in roster")
        if len(roster) < 2:
            raise ValueError("group key agreement needs at least 2 members")
        self.params = params
        self.creds = creds
        self.roster: list[GkaPeer] = sorted(roster, key=lambda p: p.tid)
        self._index_of = {p.tid: i for i, p in enumerate(self.roster)}
        if creds.tid not in self._index_of:
            raise UnknownIdentity(f"own tid {creds.tid!r} not in roster")
        self.index = self._index_of[creds.tid]
        self.n = len(self.roster)
        self.pid: Scalar = params.hash_to_scalar(
            wire.pack(("var",) * self.n, [p.tid for p in self.roster], params.element_width)
        )
        self.phase = Phase.INIT
        self.x = self.r = self.t = 0
        self.y_left = self.y_right = 0
        self.commits: dict[bytes, wire.RingCommit] = {}
        self.responses: dict[bytes, wire.RingResponse] = {}
        self.sk: GElem | None = None

    # -- round 1 ---------------------------------------------------------------

    def round1(self, rng: random.Random) -> wire.RingCommit:
        if self.phase is not Phase.INIT:
            raise StateError("round1 already executed")
        params = self.params
        self.x = rand_zq_star(rng, params.q)
        self.r = rand_zq_star(rng, params.q)
        self.t = rand_zq_star(rng, params.q)
        msg = wire.RingCommit(
            tid=self.creds.tid,
            x_pub=params.g_exp(params.g, self.x),
            r_pub=params.g_exp(params.g, self.r),
            t_pub=params.g_exp(params.g, self.t),
            sig_c=0,
            sig_s=0,
        )
        c, s = schnorr_sign(
            params, self.creds.sk, wire.signed_input(msg, params.element_width), rng
        )
        msg = wire.RingCommit(msg.tid, msg.x_pub, msg.r_pub, msg.t_pub, c, s)
        self.commits[self.creds.tid] = msg
        self.phase = Phase.ROUND1_DONE
        return msg

    def _collect(self, messages: Iterable, store: dict, what: str) -> None:
        for msg in messages:
            if msg.tid not in self._index_of:
                raise UnknownIdentity(f"{what} from non-roster member {msg.tid!r}")
            if msg.tid == self.creds.tid:
                if msg != store[self.creds.tid]:
                    raise DuplicateIdentity(f"conflicting own {what}")
                continue
            if msg.tid in store:
                raise DuplicateIdentity(f"duplicate {what} from {msg.tid!r}")
            peer = self.roster[self._index_of[msg.tid]]
            signed = wire.signed_input(msg, self.params.element_width)
            if not schnorr_verify(self.params, peer.pk, signed, (msg.sig_c, msg.sig_s)):
                raise SigFail(f"bad signature on {what} from {msg.tid!r}")
            store[msg.tid] = msg
        missing = [p.tid for p in self.roster if p.tid not in store]
        if missing:
            raise UnknownIdentity(f"missing {what} from {missing[0]!r}")

    # -- round 2 ---------------------------------------------------------------

    def round2(self, commits: Iterable[wire.RingCommit]) -> wire.RingResponse:
        if self.phase is not Phase.ROUND1_DONE:
            raise StateError(f"round2 invalid in phase {self.phase.value}")
        self._collect(commits, self.commits, "round-1 commit")
        params = self.params
        left = self.roster[(self.index - 1) % self.n].tid
        right = self.roster[(self.index + 1) % self.n].tid
        self.y_left = params.g_exp(self.commits[left].x_pub, self.x)
        self.y_right = params.g_exp(self.commits[right].x_pub, self.x)
        y = params.g_mul(self.y_right, params.g_inv(self.y_left))
        v = params.hash_to_scalar(self._challenge_bytes(self.y_left, self.y_right))
        s = (self.r - v * self.creds.sk) % params.q
        tokens = tuple(
            params.g_exp(self.commits[p.tid].t_pub, self.r)
            for p in self.roster
            if p.tid != self.creds.tid
        )
        msg = wire.RingResponse(tid=self.creds.tid, y=y, s=s, tokens=tokens, sig_c=0, sig_s=0)
        sig_c, sig_s = schnorr_sign(
            params, self.creds.sk, wire.signed_input(msg, params.element_width)
        )
        msg = wire.RingResponse(msg.tid, y, s, tokens, sig_c, sig_s)
        self.responses[self.creds.tid] = msg
        self.phase = Phase.ROUND2_DONE
        return msg

    def _challenge_bytes(self, left: GElem, right: GElem) -> bytes:
        values = (left, right, *(self.commits[p.tid].x_pub for p in self.roster), self.pid)
        return wire.pack(("elem",) * len(values), values, self.params.element_width)

    def _token_for(self, sender: bytes, verifier: bytes) -> GElem:
        """Pick the verifier's entry out of the sender's token list."""
        si = self._index_of[sender]
        vi = self._index_of[verifier]
        return self.responses[sender].tokens[vi if vi < si else vi - 1]

    # -- finalize ----------------------------------------------------------------

    def finalize(self, responses: Iterable[wire.RingResponse]) -> GElem:
        if self.phase is not Phase.ROUND2_DONE:
            raise StateError(f"finalize invalid in phase {self.phase.value}")
        self._collect(responses, self.responses, "round-2 response")
        params = self.params

        # deniability tokens: the sender blinded my T with its r
        for peer in self.roster:
            if peer.tid == self.creds.tid:
                continue
            if len(self.responses[peer.tid].tokens) != self.n - 1:
                raise TokenMismatch(peer.tid, self.creds.tid)
            expected = params.g_exp(self.commits[peer.tid].r_pub, self.t)
            if self._token_for(peer.tid, self.creds.tid) != expected:
                raise TokenMismatch(peer.tid, self.creds.tid)

        # chain the ring values around the ring starting from my own right
        # value; after n-1 steps it must land back on my left value
        yhat = [0] * self.n
        yhat[self.index] = self.y_right
        cur = self.y_right
        for k in range(1, self.n):
            idx = (self.index + k) % self.n
            cur = params.g_mul(self.responses[self.roster[idx].tid].y, cur)
            yhat[idx] = cur
        if cur != self.y_left:
            raise ChainBreak("ring value chain does not close")

        # every member's response must verify against the challenge
        # re-derived from the reconstructed chain values
        for i, peer in enumerate(self.roster):
            resp = self.responses[peer.tid]
            v_hat = params.hash_to_scalar(
                self._challenge_bytes(yhat[(i - 1) % self.n], yhat[i])
            )
            ok = params.g_mul(
                params.g_exp(params.g, resp.s),
                params.g_exp(peer.pk, v_hat, params.key_powers(peer.pk)),
            )
            if ok != self.commits[peer.tid].r_pub:
                raise SchnorrFail(peer.tid)

        self.sk = params.g_prod(yhat)
        self.phase = Phase.KEYED
        return self.sk


def run_agreement(
    params: SystemParams,
    members: Sequence[NodeCredentials],
    rng: random.Random,
) -> tuple[dict[bytes, GElem], list[wire.RingCommit], list[wire.RingResponse]]:
    """Drive a full agreement among the given RSUs; returns every member's
    session key plus the transcript."""
    roster = [GkaPeer(c.tid, c.pk) for c in members]
    sessions = [GkaSession(params, c, roster) for c in members]
    commits = [s.round1(rng) for s in sessions]
    responses = [s.round2(commits) for s in sessions]
    keys = {s.creds.tid: s.finalize(responses) for s in sessions}
    return keys, commits, responses
