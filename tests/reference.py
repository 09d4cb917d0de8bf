"""A reference model of the full rekey, shared by the group-key tests.

``rsu_rekey`` seals a fresh update for every member and then a notice. The
package's join and leave send less, but draw from the rng as this model
does, so the tests compare their bytes against it. It is written against
the public API only, independently of the package's own rekey code.
"""

from vanetgka import wire
from vanetgka.crypto import rand_zq_star
from vanetgka.groupkey import RekeyResult
from vanetgka.wire import Channel


def rsu_rekey(params, state, rng):
    """Fresh gamma, new GK, an update for every member in member order, and
    a notice under the previous GK if there was one; the rng is drawn in
    that order."""
    gamma = rand_zq_star(rng, params.q)
    blinded = {fid: rec.blind(params, gamma) for fid, rec in state.members.items()}
    product = params.g_prod(blinded.values())
    old_gk = state.gk
    state.gamma = gamma
    state.gk = params.g_mul(params.g_exp(params.g, gamma), product)
    state.epoch += 1
    w = params.element_width
    updates = {
        fid: Channel.derive(rec.n1, b"n1").seal(
            w, wire.ShareUpdate, (blinded[fid], product), rng, state.epoch
        )
        for fid, rec in state.members.items()
    }
    notice = None
    if old_gk is not None:
        notice = Channel.derive(old_gk, b"gk").seal(
            w, wire.GroupKeyNotice, (state.gk,), rng, state.epoch
        )
    return RekeyResult(share_updates=updates, notice=notice)
