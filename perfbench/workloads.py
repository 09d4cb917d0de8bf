"""The benchmark's workloads.

A workload runs in rounds. ``build`` makes the inputs of one round (trust
authority, registration, RSU key agreement, scenario construction) and is not
timed; ``play`` runs the round and is timed; ``verify`` checks its outputs.
Every round of a workload performs the same operations, so the share of failed
operations is the same in every run, however many rounds fit in it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from vanetgka import auth, gka, groupcomm, groupkey, registry, wire
from vanetgka.errors import ProtocolError
from vanetgka.sim import ScenarioConfig, Simulation

import checks


@dataclass(frozen=True)
class Outcome:
    """What one round did. ``digest`` holds every output that two rounds of
    the same inputs must reproduce exactly."""

    attempted: int  # messages handed to a receiver
    failed: int  # of those, rejected with a ProtocolError or as a stale hello
    admissions: int  # full and fast-path joins
    digest: tuple


def _traced_identity(ta: registry.TaState, fid: bytes, pk_v: int) -> bytes | None:
    try:
        return registry.trace(ta, fid, pk_v)
    except (ProtocolError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------


class SimWorkload:
    """A fixed set of simulator scenarios per round, run in an order drawn
    from the benchmark seed.

    The scenario seeds are fixed: which deliveries the group-key desync makes
    fail depends on the scenario seed, and the failed share has to be the
    same in every run.
    """

    def __init__(self, name: str, configs: list[ScenarioConfig]):
        self.name = name
        self.configs = configs

    def build(self, seed: int) -> list[Simulation]:
        order = list(self.configs)
        random.Random(seed).shuffle(order)
        return [Simulation(cfg) for cfg in order]

    def play(self, sims: list[Simulation]) -> Outcome:
        attempted = failed = admissions = 0
        digest = []
        for s in sims:
            report = s.run()
            attempted += s.messages_delivered
            failed += s.mac_drops + s.stale_drops
            admissions += report.auth_count + report.fastpath_count
            counters = (
                s.messages_sent,
                s.messages_delivered,
                s.mac_drops,
                s.stale_drops,
                s.failed_full_auths,
            )
            digest.append((report, counters))
        return Outcome(attempted, failed, admissions, tuple(digest))

    def verify(self, sims: list[Simulation], outcome: Outcome, tracer=None) -> list[str]:
        problems = []
        for s in sims:
            joined_illegal = [v.creds.tid for v in s.vehicles if v.joined and not v.legit]
            if joined_illegal:
                problems.append(f"{_label(s)}: illegal vehicles joined: {joined_illegal}")
        if tracer is None:
            return problems
        if [r.sim for r in tracer.scenarios] != sims:
            return problems + ["the tracer did not see every simulation run"]
        for rec in tracer.scenarios:
            s, what = rec.sim, _label(rec.sim)
            problems += checks.overhead_law(s.total_overhead_bytes, rec.overhead_returns(), what)
            problems += checks.admissions_traced(
                [_traced_identity(s.ta, *pair) for pair in rec.joined],
                [_traced_identity(s.ta, *pair) for pair in rec.failed_confirms],
                {v.creds.tid for v in s.vehicles if not v.legit},
                {v.creds.tid for v in s.vehicles if v.legit},
                s.failed_full_auths,
                what,
            )
            problems += [f"{what}: {p}" for p in rec.problems]
        return problems


def _label(s: Simulation) -> str:
    return f"n={s.cfg.n_vehicles} scenario seed={s.cfg.rng_seed}"


DENSITY_SWEEP = SimWorkload(
    "density-sweep",
    # the default scenario at the paper's densities
    [ScenarioConfig(n_vehicles=n) for n in (10, 20, 40, 80)],
)

HIGHWAY_CHURN = SimWorkload(
    "highway-churn",
    [
        ScenarioConfig(
            road_length_m=6000.0,
            n_rsus=12,
            vehicle_speed_mps=35.0,
            vehicle_range_m=100.0,
            n_vehicles=40,
            sim_time_s=120.0,
        )
    ],
)


# ---------------------------------------------------------------------------
# Protocol engine without the simulator
# ---------------------------------------------------------------------------

N_VEHICLES = 100
N_IMPOSTORS = 5
N_BROADCASTERS = 20
N_FASTPATH = 30
PAYLOAD_BYTES = 200
DELTA_MAX_MS = 500.0


@dataclass
class _Vehicle:
    creds: registry.NodeCredentials
    legit: bool
    member: dict = field(default_factory=dict)  # RSU tid -> MemberState


@dataclass
class _Rsu:
    creds: registry.NodeCredentials
    beacon: wire.RsuBeacon
    session_key: int
    group: groupkey.GroupState = field(default_factory=groupkey.GroupState)
    store: groupkey.NeighborGkStore = field(default_factory=groupkey.NeighborGkStore)
    members: list = field(default_factory=list)  # _Vehicle, in join order


@dataclass
class _AdmissionInputs:
    rng: random.Random
    ta: registry.TaState
    a: _Rsu
    b: _Rsu
    vehicles: list
    round: _Round | None = None  # set by play, read by verify


class _Round:
    """Counters and records of one ``rsu-admission`` round."""

    def __init__(self, width: int):
        self.width = width
        self.attempted = self.failed = self.admissions = 0
        self.rejected: dict = {}  # (step, tid) -> error class name or None
        self.joined: list = []  # (fid, pk_v)
        self.failed_confirms: list = []  # (fid, pk_v)
        self.sent: dict = {}  # broadcast ct -> (fid, payload)
        self.opened: list = []  # (ct, (fid, payload))
        self.snapshots: list = []  # (what, gk, gamma, lambdas, member gks)
        self.transfer = None

    def send(self, msg, receivers: int = 1):
        """One wire round trip; the decoded copy goes to every receiver."""
        self.attempted += receivers
        return wire.decode_message(wire.encode_message(msg, self.width), self.width)

    def receive(self, fn, *args, intended: bool = False):
        """Hand a message to its receiver's handler. A ProtocolError rejects
        it; an ``intended`` rejection is checked, not counted as failed."""
        try:
            return fn(*args), None
        except ProtocolError as exc:
            if not intended:
                self.failed += 1
            return None, type(exc).__name__

    def snapshot(self, what: str, rsu: _Rsu) -> None:
        ms = [v.member[rsu.creds.tid] for v in rsu.members]
        self.snapshots.append(
            (what, rsu.group.gk, rsu.group.gamma, [m.lam for m in ms], [m.gk for m in ms])
        )


class RsuAdmission:
    """One closed-loop client driving the protocol engine: 100 full
    handshakes and joins at RSU A (5 impostors), group broadcasts, a group-key
    transfer to RSU B, 30 fast-path re-admissions at B, then every member
    leaves A one at a time."""

    name = "rsu-admission"

    def build(self, seed: int) -> _AdmissionInputs:
        rng = random.Random(seed)
        ta = registry.ta_init("default", rng)
        rsus = []
        for tid, x in ((b"rsu-a", 25_000), (b"rsu-b", 75_000)):
            creds, beacon = registry.register_rsu(ta, tid, (x, 0), rng)
            rsus.append((creds, beacon))
        keys, _, _ = gka.run_agreement(ta.params, [c for c, _ in rsus], rng)
        a, b = (_Rsu(c, beacon, keys[c.tid]) for c, beacon in rsus)
        impostors = set(rng.sample(range(N_VEHICLES), N_IMPOSTORS))
        vehicles = []
        for i in range(N_VEHICLES):
            creds = registry.register_vehicle(ta, b"veh-%04d" % i)
            if i in impostors:
                # an unissued certification value: fails key confirmation
                fake = rng.randrange(1, ta.params.q)
                while fake == creds.s_u:
                    fake = rng.randrange(1, ta.params.q)
                creds = replace(creds, s_u=fake)
            vehicles.append(_Vehicle(creds, legit=i not in impostors))
        return _AdmissionInputs(rng, ta, a, b, vehicles)

    def play(self, inp: _AdmissionInputs) -> Outcome:
        p, rng, a, b = inp.ta.params, inp.rng, inp.a, inp.b
        r = _Round(p.element_width)
        now = 0

        # 1-2. full handshakes and joins at A; members apply each join notice
        for veh in inp.vehicles:
            now += 10
            got = self._hello(r, p, rng, a, veh, None, now)
            if got is None:
                continue
            session, rsu_session, challenge = got
            challenge = r.send(challenge)
            confirm, err = r.receive(auth.vehicle_confirm, p, session, veh.creds, challenge, rng)
            if err:
                continue
            confirm = r.send(confirm)
            _, err = r.receive(
                auth.rsu_verify, p, a.creds, rsu_session, confirm, intended=not veh.legit
            )
            r.rejected[("confirm", veh.creds.tid)] = err
            if err == "KeyConfirmFail":
                r.failed_confirms.append((rsu_session.fid, rsu_session.pk_v))
            if err is None:
                self._join(r, p, rng, a, veh, session, rsu_session)

        # 3. broadcasts, opened by every other member and by the RSU
        for sender in rng.sample(a.members, N_BROADCASTERS):
            ms = sender.member[a.creds.tid]
            payload = rng.randbytes(PAYLOAD_BYTES)
            msg = groupcomm.broadcast(p, ms.gk, ms.fid, payload, rng)
            r.sent[msg.ct] = (ms.fid, payload)
            msg = r.send(msg, len(a.members))
            keys = [v.member[a.creds.tid].gk for v in a.members if v is not sender]
            for gk in keys + [a.group.gk]:
                opened, _ = r.receive(groupcomm.open_broadcast, p, gk, msg)
                if opened is not None:
                    r.opened.append((msg.ct, opened))

        # 4. A hands its group key to B under the RSU session key
        msg = r.send(groupkey.transfer_gk(p, a.group, a.session_key, rng))
        got, _ = r.receive(
            groupkey.receive_gk_transfer, p, b.store, a.creds.tid, msg, b.session_key
        )
        r.transfer = (got, (a.group.epoch, a.group.gk))

        # 5. fast-path re-admission at B with the key learnt in A's group
        for veh in rng.sample(a.members, N_FASTPATH):
            now += 10
            got = self._hello(r, p, rng, b, veh, veh.member[a.creds.tid].gk, now)
            if got is None:
                continue
            session, rsu_session, challenge = got
            r.rejected[("fastpath", veh.creds.tid)] = "challenged" if challenge else None
            if challenge is not None:
                continue
            ack = r.send(auth.make_fastpath_ack(p, rsu_session))
            _, err = r.receive(auth.vehicle_apply_fastpath_ack, p, session, ack)
            if err is None:
                self._join(r, p, rng, b, veh, session, rsu_session)

        # 6. members leave A one at a time; the rest derive the new key
        leavers = list(a.members)
        rng.shuffle(leavers)
        for veh in leavers:
            a.members.remove(veh)
            mine = veh.member[a.creds.tid]
            _, update = groupkey.handle_leave(p, a.group, mine.fid, rng)
            if update is None:
                break  # the group emptied out
            update = r.send(update, len(a.members) + 1)
            for m in a.members:
                ms = m.member[a.creds.tid]
                r.receive(groupkey.member_derive_from_leave, p, ms, update, ms.gk)
            _, err = r.receive(
                groupkey.member_derive_from_leave, p, mine, update, mine.gk, intended=True
            )
            r.rejected[("leave", veh.creds.tid)] = err
            r.snapshot(f"leave of {veh.creds.tid!r}", a)

        digest = (
            tuple((what, gk) for what, gk, *_ in r.snapshots),
            tuple(sorted(r.rejected.items())),
            r.transfer,
        )
        inp.round = r
        return Outcome(r.attempted, r.failed, r.admissions, digest)

    def _hello(self, r: _Round, p, rng, rsu: _Rsu, veh: _Vehicle, neighbor_gk, now: int):
        """Beacon, fresh pseudonym and hello; returns both sessions and the
        RSU's challenge (None on the fast path)."""
        beacon = r.send(rsu.beacon)
        epoch = registry.refresh_vehicle_epoch(veh.creds, p, rng)
        session, err = r.receive(auth.start_vehicle_auth, p, epoch, beacon, rsu.creds.tid)
        if err:
            return None
        hello = r.send(auth.make_hello(p, session, neighbor_gk, rng, now))
        got, err = r.receive(
            auth.process_hello, p, rsu.creds, hello, now, DELTA_MAX_MS, rsu.store.candidates(), rng
        )
        if err:
            return None
        return session, *got

    def _join(self, r: _Round, p, rng, rsu: _Rsu, veh: _Vehicle, session, rsu_session) -> None:
        """Share offer, rekey, the joiner's update and the notice to the
        existing members."""
        mstate, offer = groupkey.member_offer(p, session, rng)
        offer = r.send(offer)
        result, err = r.receive(groupkey.handle_join, p, rsu.group, rsu_session, offer, rng)
        if err:
            return
        r.admissions += 1
        r.joined.append((rsu_session.fid, rsu_session.pk_v))
        update = r.send(result.share_updates[rsu_session.fid])
        r.receive(groupkey.member_derive, p, mstate, update)
        if result.notice is not None and rsu.members:
            notice = r.send(result.notice, len(rsu.members))
            for m in rsu.members:
                r.receive(groupkey.member_apply_notice, p, m.member[rsu.creds.tid], notice)
        veh.member[rsu.creds.tid] = mstate
        rsu.members.append(veh)
        r.snapshot(f"join of {veh.creds.tid!r} at {rsu.creds.tid!r}", rsu)

    def verify(self, inp: _AdmissionInputs, outcome: Outcome, tracer=None) -> list[str]:
        p, r = inp.ta.params, inp.round
        problems = checks.equal_values(
            [inp.a.session_key, inp.b.session_key], "RSU session keys"
        )
        for what, gk, gamma, lambdas, member_gks in r.snapshots:
            if gk is not None:
                problems += checks.group_keys(p.p, p.q, p.g, gk, gamma, lambdas, member_gks, what)
        for ct, opened in r.opened:
            problems += checks.broadcast_opened(r.sent, ct, opened)
        problems += checks.equal_values(list(r.transfer), "group key transfer to B")
        legal = {v.creds.tid for v in inp.vehicles if v.legit}
        illegal = {v.creds.tid for v in inp.vehicles if not v.legit}
        problems += checks.admissions_traced(
            [_traced_identity(inp.ta, *pair) for pair in r.joined],
            [_traced_identity(inp.ta, *pair) for pair in r.failed_confirms],
            illegal,
            legal,
            len(illegal),
            "rsu-admission",
        )
        expected = {("confirm", tid): "KeyConfirmFail" for tid in illegal}
        expected.update({("confirm", tid): None for tid in legal})
        expected.update({k: None for k in r.rejected if k[0] == "fastpath"})
        leaves = [k for k in r.rejected if k[0] == "leave"]
        expected.update({k: "FidAbsent" for k in leaves})
        problems += checks.rejections(r.rejected, expected, "rsu-admission")
        counts = {
            "fast-path hellos": (sum(k[0] == "fastpath" for k in r.rejected), N_FASTPATH),
            "leave updates": (len(leaves), len(legal) - 1),
            "admissions": (outcome.admissions, len(legal) + N_FASTPATH),
        }
        for what, (got, want) in counts.items():
            if got != want:
                problems.append(f"rsu-admission: {got} {what}, expected {want}")
        return problems


WORKLOADS = {w.name: w for w in (DENSITY_SWEEP, HIGHWAY_CHURN, RsuAdmission())}
